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
# The rest loads on first access, so a call pays start-up only for what it
# uses: `import mutopo` compiles neither the cache nor the topology, and
# `mutopo.cli` imports them in the verbs that need them.
_LAZY = {
    name: module
    for module, names in (
        ("properties", (
            "in_E_N",
            "is_avoiding",
            "is_k_universal_bounded",
            "is_mutation_acyclic",
            "is_N_abundant",
            "isolated_quiver",
        )),
        ("universe", (
            "HasseDiagram",
            "Universe",
            "UniverseClass",
            "UnresolvedRelation",
            "build_hasse",
            "build_universe",
            "closure",
            "collect_classes",
            "dump_universe",
            "hasse_to_dot",
            "is_clopen",
            "is_closed",
            "is_open",
            "iter_quiver_seeds",
            "iter_skew_seeds",
            "load_universe",
            "open_set_generated",
            "universe_from_json",
            "universe_to_json",
        )),
        ("store", ("CorruptRecord", "Store", "default_cache_dir")),
    )
    for name in (module, *names)
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name):
    """A name of `_LAZY`, imported from its module and kept here."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
