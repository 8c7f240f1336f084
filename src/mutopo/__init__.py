"""Quiver and skew-symmetrizable matrix mutation, mutation-class
enumeration, the embedding poset, and the mutation class topology on
finite universes."""

__version__ = "0.1.0"

from .matrix import (
    EmptySubset,
    ExchangeMatrix,
    FrozenMutation,
    NotSkewSymmetrizable,
    apply_sequence,
    build,
    disjoint_union,
    from_inline,
    from_json_dict,
    from_text,
    is_acyclic,
    mutate,
    restrict,
    to_inline,
    to_json_dict,
    to_text,
)
from .canonical import (
    CanonicalForm,
    canonical_form,
    canonical_relabeling,
    content_hash,
    is_isomorphic,
)
from .classes import (
    Budget,
    ClassEnumeration,
    ClassKey,
    DEFAULT_BUDGET,
    Finiteness,
    FinitenessVerdict,
    Member,
    Verdict,
    class_key,
    enumerate_class,
    is_mutation_finite,
    mutation_fingerprint,
    seeds_separate,
)
from .embed import (
    EmbedVerdict,
    EmbedWitness,
    density_witness,
    embeds,
    replay_embedding,
    same_class,
)
from .properties import (
    in_E_N,
    is_avoiding,
    is_k_universal_bounded,
    is_mutation_acyclic,
    is_N_abundant,
    isolated_quiver,
)
from .universe import (
    HasseDiagram,
    Universe,
    UniverseClass,
    UnresolvedRelation,
    build_hasse,
    build_universe,
    closure,
    collect_classes,
    dump_universe,
    hasse_to_dot,
    is_clopen,
    is_closed,
    is_open,
    iter_quiver_seeds,
    iter_skew_seeds,
    load_universe,
    open_set_generated,
    universe_from_json,
    universe_to_json,
)
from .store import CorruptRecord, Store, default_cache_dir

__all__ = [name for name in dir() if not name.startswith("_")]
