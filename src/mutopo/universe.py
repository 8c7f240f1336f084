"""Finite universes of mutation classes, their embedding order, and the
induced topology (closure, generated open sets, closed/open/clopen tests,
Hasse diagrams, DOT export).

A universe is the desk-scale stand-in for the infinite space of mutation
classes: all classes of valid matrices with rank at most r and seed entries
bounded by w, together with the full tri-valued embedding relation between
them, anchored at the seeds whose enumerations found the classes, and the
witness of each YES between two classes.
Topology operations refuse with :class:`UnresolvedRelation` rather than
silently misclassify when an UNKNOWN verdict could change the answer.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from functools import cached_property
from itertools import combinations, product

from .canonical import CanonicalForm, canonical_form
from .classes import (
    CLOSED,
    TRUNCATED,
    Budget,
    ClassKey,
    DEFAULT_BUDGET,
    Verdict,
    _refuse_new_attribute,
    enumerate_class,
)
from .embed import EmbedWitness, embeds, witness_json
from .matrix import (
    NotSkewSymmetrizable,
    build,
    from_json_dict,
    to_inline,
    to_json_dict,
)


class UnresolvedRelation(RuntimeError):
    """An UNKNOWN embedding verdict blocks a sound answer."""


class UniverseClass(namedtuple("UniverseClass", "key seed")):
    """A class of a universe: its key, and the seed its enumeration ran from."""

    __slots__ = ()

    @property
    def hash(self) -> str:
        return self.key.hash

    @property
    def rank(self) -> int:
        return self.key.form.matrix.size


class Universe(namedtuple("Universe",
                          "rank_cap entry_cap budget family classes relation witnesses",
                          defaults=((),))):
    """The classes of rank <= ``rank_cap`` with seed entries <= ``entry_cap``
    of a seed ``family``, and ``relation[i][j]``, the verdict ("Y", "N" or
    "U") on whether class i embeds into class j under ``budget``.
    ``witnesses`` holds ``(i, j, witness)`` for each Y cell with i != j, in
    row-major order; the witness is anchored at the two classes' seeds.
    The class count is ``len(u.classes)``: ``len(u)`` counts the fields."""

    __setattr__ = _refuse_new_attribute

    @cached_property
    def _by_hash(self) -> dict[str, int]:
        return {cls.hash: i for i, cls in enumerate(self.classes)}

    @property
    def hashes(self) -> frozenset[str]:
        return frozenset(self._by_hash)

    def index_of(self, hash_: str) -> int:
        try:
            return self._by_hash[hash_]
        except KeyError:
            raise KeyError(f"class {hash_[:12]} is not in this universe") from None

    def class_of(self, hash_: str) -> UniverseClass:
        return self.classes[self.index_of(hash_)]

    def find(self, prefix: str) -> UniverseClass:
        """Resolve a unique class-hash prefix."""
        hits = [cls for cls in self.classes if cls.hash.startswith(prefix)]
        if not hits:
            raise KeyError(f"no universe class matches prefix {prefix!r}")
        if len(hits) > 1:
            raise KeyError(f"prefix {prefix!r} is ambiguous ({len(hits)} matches)")
        return hits[0]

    def verdict(self, lower: str, upper: str) -> str:
        return self.relation[self.index_of(lower)][self.index_of(upper)]


# --- seed generation ---------------------------------------------------------

def _iter_seeds(rank_cap: int, pair_options, frozen: bool):
    """Matrices of size <= rank_cap with each (b_ij, b_ji), i < j, one of
    ``pair_options``; with ``frozen``, over every split with a mutable index."""
    for size in range(1, rank_cap + 1):
        pairs = list(combinations(range(size), 2))
        for m in range(size if frozen else 1):
            for values in product(pair_options, repeat=len(pairs)):
                rows = [[0] * size for _ in range(size)]
                for (i, j), (x, y) in zip(pairs, values):
                    rows[i][j] = x
                    rows[j][i] = y
                try:
                    yield build(size - m, m, rows)
                except NotSkewSymmetrizable:
                    continue


def iter_quiver_seeds(rank_cap: int, entry_cap: int):
    """All skew-symmetric matrices (no frozen indices) with size <= rank_cap
    and entries bounded by entry_cap."""
    return _iter_seeds(rank_cap, [(v, -v) for v in range(-entry_cap, entry_cap + 1)], False)


def iter_skew_seeds(rank_cap: int, entry_cap: int):
    """All skew-symmetrizable matrices with size <= rank_cap, entries bounded
    by entry_cap, over every mutable/frozen split with at least one mutable
    index.  Sign-coherent candidates that admit no symmetrizer are skipped."""
    caps = range(1, entry_cap + 1)
    pairs = [pair for a in caps for c in caps for pair in ((a, -c), (-a, c))]
    return _iter_seeds(rank_cap, [(0, 0)] + pairs, True)


_FAMILIES = {"quiver": iter_quiver_seeds, "skew": iter_skew_seeds}


def _check_int(label: str, value, least: int) -> None:
    """The one check of an integer parameter: an exact int of at least `least`,
    so no bool (a JSON true loads as one), float or numpy scalar.  Raises
    ValueError."""
    if type(value) is not int or value < least:
        raise ValueError(f"{label} is {value!r}, not an integer >= {least}")


def _check_params(rank_cap, entry_cap, family, classes) -> None:
    """The one check of a universe's parameters, at build and at load: r >= 1,
    w >= 0, a known family, and each class seed of size <= r, entries <= w,
    and a quiver in the quiver family.  Raises ValueError."""
    if family not in _FAMILIES:
        raise ValueError(f"universe param family is {family!r}, not quiver or skew")
    _check_int("universe param r", rank_cap, 1)
    _check_int("universe param w", entry_cap, 0)
    for cls in classes:
        seed = cls.seed
        if (seed.size > rank_cap or seed.max_abs_entry > entry_cap
                or family == "quiver" and not seed.is_quiver):
            raise ValueError(f"universe class {cls.hash[:12]} has seed {to_inline(seed)}, "
                             f"outside r={rank_cap} w={entry_cap} family {family}")


def _class_order(form: CanonicalForm) -> tuple:
    """The one order of seeds and of classes: by size, then mutable count,
    then canonical key."""
    return form.n + form.m, form.n, form.key


def collect_classes(seeds, budget: Budget, store=None) -> list[UniverseClass]:
    """Group seed matrices into mutation classes.

    Seeds are first deduplicated by canonical form and sorted, so the sweep
    (and hence the result) does not depend on the order seeds arrive in.
    Each unclassified canonical seed is enumerated once; every member form
    it discovers is marked classified.
    """
    order = sorted(set(map(canonical_form, seeds)), key=_class_order)
    classified: set[CanonicalForm] = set()
    out: list[UniverseClass] = []
    for form in order:
        if form in classified:
            continue
        enum = enumerate_class(form.matrix, budget, store)
        out.append(UniverseClass(ClassKey(enum.least.form, enum.status), form.matrix))
        classified.update(enum.forms)
    out.sort(key=lambda cls: _class_order(cls.key.form))
    return out


_VERDICT_CHAR = {Verdict.YES: "Y", Verdict.NO: "N", Verdict.UNKNOWN: "U"}


def build_universe(
    rank_cap: int,
    entry_cap: int,
    budget: Budget = DEFAULT_BUDGET,
    family: str = "quiver",
    store=None,
    seeds=None,
) -> Universe:
    """Build the universe of classes with rank <= rank_cap and seed entries
    <= entry_cap, plus its full pairwise embedding relation and the witness
    of each YES between two classes.

    ``family`` selects the seed matrices: "quiver" (skew-symmetric, no
    frozen indices, the default) or "skew" (all skew-symmetrizable splits).
    Given ``seeds`` replace the family's, and must lie within r, w and the
    family, as a universe file's must: else ValueError.
    The relation is anchored at each class's ``seed``, the canonical seed
    :func:`collect_classes` enumerated, so every class is enumerated once
    and its enumeration serves every pair it is a side of.  Without a
    store, the build memoizes in an in-memory one.
    """
    if seeds is None:  # an unknown family has no seeds, and the check refuses it
        seeds = _FAMILIES[family](rank_cap, entry_cap) if family in _FAMILIES else ()
    if store is None:
        from .store import Store  # only here: a universe file is read without the cache

        store = Store()
    classes = collect_classes(seeds, budget, store)
    _check_params(rank_cap, entry_cap, family, classes)
    reps = [cls.seed for cls in classes]
    relation, witnesses = [], []
    for i, p in enumerate(reps):
        row = [embeds(p, q, budget, store) for q in reps]
        relation.append(tuple(_VERDICT_CHAR[ev.verdict] for ev in row))
        witnesses.extend((i, j, ev.witness) for j, ev in enumerate(row)
                         if j != i and ev.verdict is Verdict.YES)
    return Universe(rank_cap, entry_cap, budget, family, tuple(classes), tuple(relation),
                    tuple(witnesses))


# --- topology operations -----------------------------------------------------

def _as_index_set(u: Universe, selection) -> set[int]:
    out = set()
    for item in selection:
        if isinstance(item, bool):  # operator.index takes True as 1
            raise TypeError(f"class index must be an integer, not {item}")
        out.add(u.index_of(item) if isinstance(item, str) else operator.index(item))
    for i in out:
        if not 0 <= i < len(u.classes):
            raise KeyError(f"class index {i} out of range")
    return out


def _generated(u: Universe, selection, rows, name: str) -> frozenset[str]:
    """Every class k with a Y cell ``rows[k][a]`` at a selected a; U cells alone raise."""
    chosen = _as_index_set(u, selection)
    out = set()
    for cls, row in zip(u.classes, rows):
        cells = {row[a] for a in chosen}
        if "Y" in cells:
            out.add(cls.hash)
        elif "U" in cells:
            raise UnresolvedRelation(
                f"membership of class {cls.hash[:12]} in the {name} is unresolved"
            )
    return frozenset(out)


def closure(u: Universe, selection) -> frozenset[str]:
    """Smallest lower set of the universe containing the given classes:
    every class that embeds into some member of the selection."""
    return _generated(u, selection, u.relation, "closure")


def open_set_generated(u: Universe, selection) -> frozenset[str]:
    """Upper set generated by the selection: every class some member of the
    selection embeds into.  Its complement is the selection-avoiding set."""
    return _generated(u, selection, zip(*u.relation), "generated open set")


def _as_hash_set(u: Universe, selection) -> frozenset[str]:
    return frozenset(u.classes[i].hash for i in _as_index_set(u, selection))


def is_closed(u: Universe, selection) -> bool:
    chosen = _as_hash_set(u, selection)
    return closure(u, chosen) == chosen


def is_open(u: Universe, selection) -> bool:
    chosen = _as_hash_set(u, selection)
    return is_closed(u, u.hashes - chosen)


def is_clopen(u: Universe, selection) -> bool:
    return is_closed(u, selection) and is_open(u, selection)


# --- Hasse diagram -----------------------------------------------------------

class HasseDiagram(namedtuple("HasseDiagram", "universe edges unknown")):
    """The (lower, upper) cover pairs of a universe's strict embedding order,
    as class indices, and its unresolved pairs."""

    __slots__ = ()


def build_hasse(u: Universe, partial: bool = False) -> HasseDiagram:
    """Transitive reduction of the strict embedding order.

    Requires a fully resolved relation; with ``partial=True`` unresolved
    pairs are returned separately (for dashed rendering) instead of raising.
    """
    count = len(u.classes)
    unknown = tuple(
        (i, j)
        for i in range(count)
        for j in range(count)
        if i != j and u.relation[i][j] == "U"
    )
    if unknown and not partial:
        raise UnresolvedRelation(
            f"{len(unknown)} unresolved pairs block the transitive reduction"
        )
    strict = [
        [i != j and u.relation[i][j] == "Y" for j in range(count)] for i in range(count)
    ]
    for i in range(count):
        for j in range(count):
            if strict[i][j] and strict[j][i]:
                raise ValueError(
                    "relation is not antisymmetric; cannot reduce "
                    f"({u.classes[i].hash[:12]} vs {u.classes[j].hash[:12]})"
                )
    edges = []
    for i in range(count):
        for j in range(count):
            if strict[i][j] and not any(
                strict[i][k] and strict[k][j] for k in range(count)
            ):
                edges.append((i, j))
    return HasseDiagram(u, tuple(sorted(edges)), unknown)


def hasse_to_dot(h: HasseDiagram) -> str:
    """Graphviz digraph; vertices carry the class hash prefix and a
    representative matrix, cover edges point upward."""
    lines = [
        "digraph mutation_class_poset {",
        "  rankdir=BT;",
        '  node [shape=box fontname="monospace"];',
    ]
    short = [cls.hash[:12] for cls in h.universe.classes]
    for name, cls in zip(short, h.universe.classes):
        lines.append(f'  "{name}" [label="{name}\\n{to_inline(cls.key.form.matrix)}"];')
    lines += [f'  "{short[i]}" -> "{short[j]}";' for i, j in h.edges]
    lines += [f'  "{short[i]}" -> "{short[j]}" [style=dashed label="?"];' for i, j in h.unknown]
    lines.append("}")
    return "\n".join(lines)


# --- universe file format ----------------------------------------------------

def universe_to_json(u: Universe) -> dict:
    return {
        "params": {
            "r": u.rank_cap,
            "w": u.entry_cap,
            "budget": u.budget.to_json(),
            "family": u.family,
        },
        "classes": [
            {
                "hash": cls.hash,
                "status": cls.key.status,
                "matrix": to_json_dict(cls.key.form.matrix),
                "seed": to_json_dict(cls.seed),
                "rank": cls.rank,
            }
            for cls in u.classes
        ],
        "relation": [list(row) for row in u.relation],
        "witnesses": [[i, j, witness_json(w)] for i, j, w in u.witnesses],
    }


def _witnesses_from_json(entries, classes, relation) -> tuple:
    """The ``[i, j, witness]`` entries of a universe file, checked to name
    each off-diagonal Y cell once, with a witness of the right shape; only
    a replay (``hasse --json``) tells whether it is true."""
    found = {}
    for i, j, fields in entries:
        cell = f"universe witness [{i!r}, {j!r}]"
        if not (type(i) is int and type(j) is int and 0 <= i < len(classes)
                and 0 <= j < len(classes) and i != j and relation[i][j] == "Y"):
            raise ValueError(f"{cell} names no off-diagonal Y cell")
        if (i, j) in found:
            raise ValueError(f"{cell} is listed twice")
        w = EmbedWitness(**fields)
        # a JSON true is no integer here, as in a matrix
        if not all(type(v) is list and all(type(k) is int for k in v) for v in w):
            raise ValueError(f"{cell} holds a field that is not a list of integers")
        lo, hi = classes[i].seed, classes[j].seed
        if not (all(1 <= k <= hi.n for k in w.q_sequence)
                and all(1 <= k <= lo.n for k in w.p_sequence)
                and len(w.subset) == lo.size and w.subset == sorted(set(w.subset))
                and all(1 <= k <= hi.size for k in w.subset)):
            raise ValueError(f"{cell} holds an index out of range or a subset out of order")
        found[i, j] = EmbedWitness(*map(tuple, w))
    for i, row in enumerate(relation):
        for j, cell in enumerate(row):
            if cell == "Y" and i != j and (i, j) not in found:
                raise ValueError(f"universe relation[{i}][{j}] is 'Y' but has no witness")
    return tuple((i, j, found[i, j]) for i, j in sorted(found))


def universe_from_json(obj: dict) -> Universe:
    """The universe a :func:`universe_to_json` object describes.  Raises
    KeyError for a missing field and ValueError for any other malformed one."""
    try:
        params = obj["params"]
        family = params.get("family", "quiver")
        budget = Budget(*(params["budget"][cap] for cap in Budget._fields))
        classes, seen = [], set()
        for entry in obj["classes"]:
            matrix = from_json_dict(entry["matrix"])
            form = canonical_form(matrix)
            name = f"universe class {entry['hash'][:12]}"
            if form.hash != entry["hash"] or form.matrix != matrix:
                raise ValueError(f"{name} does not match its matrix")
            if form in seen:
                raise ValueError(f"{name} is listed twice")
            if entry["status"] not in (CLOSED, TRUNCATED):
                raise ValueError(f"{name} has status {entry['status']!r}, not {CLOSED} or {TRUNCATED}")
            seed = from_json_dict(entry["seed"])
            if (seed.n, seed.m) != (matrix.n, matrix.m):
                raise ValueError(f"{name} has a seed of another shape than its matrix")
            if type(entry["rank"]) is not int or entry["rank"] != matrix.size:
                raise ValueError(f"{name} has rank {entry['rank']!r}, not its size {matrix.size}")
            seen.add(form)
            classes.append(UniverseClass(ClassKey(form, entry["status"]), seed))
        _check_params(params["r"], params["w"], family, classes)
        relation = tuple(tuple(row) for row in obj["relation"])
        if len(relation) != len(classes) or any(len(row) != len(classes) for row in relation):
            raise ValueError("universe relation shape does not match the class list")
        for i, row in enumerate(relation):
            for j, cell in enumerate(row):
                if cell not in ("Y", "N", "U"):
                    raise ValueError(f"universe relation[{i}][{j}] is {cell!r}, not 'Y', 'N' or 'U'")
            if row[i] != "Y":  # every class embeds into itself
                raise ValueError(f"universe relation[{i}][{i}] is {row[i]!r}, not 'Y'")
        if "witnesses" not in obj:
            raise ValueError("universe file lists no witnesses: rebuild it with `mutopo universe`")
        witnesses = _witnesses_from_json(obj["witnesses"], classes, relation)
    except TypeError as exc:  # a field of the wrong type, such as a float cap
        raise ValueError(f"malformed universe ({exc})") from None
    return Universe(params["r"], params["w"], budget, family, tuple(classes), relation,
                    witnesses)


def dump_universe(u: Universe) -> str:
    return json.dumps(universe_to_json(u), sort_keys=True, indent=2)


def load_universe(text: str) -> Universe:
    return universe_from_json(json.loads(text))
