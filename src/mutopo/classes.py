"""Budget-bounded enumeration of mutation classes.

A mutation class can be infinite, so every enumeration runs under a
:class:`Budget` and reports whether it CLOSED (the member set is complete
up to isomorphism) or was TRUNCATED by a cap.  Enumeration is breadth
first and level synchronous with candidates admitted in canonical order,
which makes the member set, the stored witnesses, and the truncation
behaviour a deterministic function of the seed and the budget alone.

Mutation is an involution, so each edge of the exchange graph, taken up to
isomorphism, is canonicalized from one end only.  When mutating a member at
k canonicalizes to the class C, and k becomes C's canonical vertex c, then
mutating C at c leads back into that member; the BFS records c in a bitmask
kept for C.  Expanding C later skips every vertex whose canonical index is
in the mask: that child is a relabeling of a member already found, so the
skip changes no member, witness, or cap.

Mutation at k flips the signs of row and column k and sets every other
entry to b_ij + b_ik*max(b_kj, 0) + max(-b_ik, 0)*b_kj (Fomin &
Zelevinsky, "Cluster algebras I", J. Amer. Math. Soc. 15, 2002), whose
two products add up to 0 unless b_ik and b_kj have one sign, and then to
+-b_ik*b_kj.  So if every entry of a member is at most T in size, no entry
of a child is larger than T + T*T.  The BFS reads T once per member, off
its canonical key, and scans the children's rebuilt rows against the entry
cap only when T*(T + 1) exceeds it: a skipped scan is one that could not
trip.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple
from collections.abc import KeysView
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
from math import gcd
from operator import attrgetter, itemgetter

from .canonical import CanonicalForm, _canonical, canonical_form
from .matrix import ExchangeMatrix, _symmetrizer, is_acyclic, mutate

CLOSED = "CLOSED"
TRUNCATED = "TRUNCATED"


class Verdict(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


class Finiteness(enum.Enum):
    FINITE = "FINITE"
    INFINITE = "INFINITE"
    UNKNOWN = "UNKNOWN"


def _refuse_new_attribute(self, name, value):
    """The ``__setattr__`` of a record that keeps cached properties beside its
    fields: a namedtuple subclass without ``__slots__``, whose instance dict
    ``cached_property`` writes directly.  Its fields refuse assignment
    already; this refuses any other attribute."""
    raise AttributeError(f"cannot assign to attribute {name!r}")


class Budget(namedtuple("Budget", "max_members max_entry max_depth")):
    """Caps for one enumeration: distinct members, entry magnitude, sequence length."""

    __slots__ = ()

    def __new__(cls, max_members: int = 100_000, max_entry: int = 64,
                max_depth: int | None = None):
        caps = {"max_members": max_members, "max_entry": max_entry, "max_depth": max_depth}
        for name, cap in caps.items():
            if cap is None and name == "max_depth":  # no depth cap
                continue
            if isinstance(cap, bool):  # a JSON true or false, which operator.index takes
                raise TypeError(f"budget cap {name} must be an integer, not {cap}")
            cap = operator.index(cap)  # a TypeError unless an integer
            if cap < 1:
                raise ValueError(f"budget cap {name} must be at least 1, not {cap}")
            caps[name] = cap
        return super().__new__(cls, **caps)

    def key(self) -> tuple:
        return tuple(self)

    def to_json(self) -> dict:
        """The one JSON encoding of a budget, for CLI output and universe files."""
        return self._asdict()


DEFAULT_BUDGET = Budget()


class Member(namedtuple("Member", "form witness reached")):
    """One class member: canonical form, shortest discovered witness, and the
    exact matrix that witness reaches from the enumeration seed."""

    __slots__ = ()


class ClassEnumeration(namedtuple("ClassEnumeration", "seed members tripped entry_witness budget")):
    """The members of a class up to isomorphism, in BFS order from ``seed``;
    the caps that ``tripped`` under ``budget``; and ``entry_witness``, the
    first child over the entry cap.  Each fact derived from them by a pass
    over the members is a cached property."""

    __setattr__ = _refuse_new_attribute

    @cached_property
    def _index(self) -> dict[CanonicalForm, Member]:
        return {mem.form: mem for mem in self.members}

    def member_for(self, form: CanonicalForm) -> Member | None:
        """The member whose canonical form equals ``form`` (same shape, same
        entries), or None: the lookup is exact."""
        return self._index.get(form)

    @property
    def forms(self) -> KeysView[CanonicalForm]:
        """The members' canonical forms, as a read-only set view."""
        return self._index.keys()

    @cached_property
    def relabelings(self) -> dict:
        """The raw entries (see :func:`entries_getter`) of every
        partition-preserving relabeling of every member's canonical matrix,
        n!·m! per member, each mapped to that member.  A matrix of this shape
        is isomorphic to a member exactly when its raw entries are a key, and
        then to the member they map to."""
        seed = self.seed.matrix
        n, size = seed.n, seed.size
        getters = [
            entries_getter(mut + fro, size)
            for mut in permutations(range(n))
            for fro in permutations(range(n, size))
        ]
        return {get(mem.form.key): mem for mem in self.members for get in getters}

    @property
    def status(self) -> str:
        """CLOSED exactly when no cap tripped."""
        return TRUNCATED if self.tripped else CLOSED

    @property
    def count(self) -> int:
        return len(self.members)

    @cached_property
    def max_abs_entry(self) -> int:
        return max(max(max(mem.form.key), -min(mem.form.key)) for mem in self.members)

    @cached_property
    def depth(self) -> int:
        return max(len(mem.witness) for mem in self.members)

    @cached_property
    def least(self) -> Member:
        """The member with the least canonical key."""
        return min(self.members, key=lambda mem: mem.form.key)

    @cached_property
    def thinnest(self) -> int | None:
        """The least min(|b_ij|, |b_ji|) over the pairs of mutable indices of
        the discovered members, or None at rank 1, where there is no pair."""
        return _thinnest(mem.reached for mem in self.members)

    @cached_property
    def first_acyclic(self) -> Member | None:
        """The first acyclic member in BFS order, or None."""
        return next((mem for mem in self.members if is_acyclic(mem.reached)), None)

    @cached_property
    def reflection_orbit(self) -> frozenset[CanonicalForm] | None:
        """The canonical forms of the sink/source reflection orbit of the
        first acyclic member.

        Mutation-equivalent acyclic quivers are related by sink/source
        reflections (Caldero & Keller, "From triangulated categories to
        cluster algebras II", Ann. Sci. ENS 2006), and a reflection is a
        mutation, so the orbit is exactly the set of the class's acyclic
        members, discovered or not.  A reflection only reverses the arrows
        at one vertex, so the orbit lies among the acyclic orientations of
        one weighted graph: it is finite and needs no budget.  None unless
        this is a quiver class (skew-symmetric, no frozen index) with a
        discovered acyclic member.
        """
        start = self.first_acyclic if self.seed.matrix.is_quiver else None
        if start is None:
            return None
        orbit = {start.form}
        frontier = [start.reached]
        while frontier:
            mat = frontier.pop()
            for k, row in enumerate(mat.b, start=1):
                if min(row) >= 0 or max(row) <= 0:  # a source or a sink
                    child = mutate(mat, k)
                    form = canonical_form(child)
                    if form not in orbit:
                        orbit.add(form)
                        frontier.append(child)
        return frozenset(orbit)

    @cached_property
    def bbh_member(self) -> bool:
        """Has a discovered member a full rank-3 subquiver that is cyclic, with
        every weight >= 2 and Markov constant <= 4 ("BBH")?  It is mutation-cyclic,
        and every quiver in its class is cyclic with every weight >= 2 (Beineke,
        Brüstle & Hille, Algebr. Represent. Theory 14, 2011)."""
        for mem in self.members:
            b = mem.reached.b
            for i, j, k in combinations(range(self.seed.n), 3):
                heavy = min(abs(b[i][j]), abs(b[j][k]), abs(b[k][i])) >= 2
                if heavy and _rank3_weight_invariant(mem.reached, i, j, k) <= 4:
                    return True
        return False


class ClassKey(namedtuple("ClassKey", "form status")):
    """Class identifier: canonical form of the least member discovered."""

    __slots__ = ()

    @property
    def hash(self) -> str:
        return self.form.hash


def entries_getter(order, size: int) -> itemgetter:
    """Reads the raw entries of the submatrix on ``order`` (0-based indices,
    in that order), row-major, off the row-major entries of a size x size
    matrix.  A single index reads the bare entry rather than a 1-tuple."""
    return itemgetter(*(i * size + j for i in order for j in order))


def _run_bfs(seed: CanonicalForm, budget: Budget) -> ClassEnumeration:
    n, cap = seed.n, budget.max_entry
    members: dict[CanonicalForm, Member] = {seed: Member(seed, (), seed.matrix)}
    # each frontier member with its canonical relabeling (the permutation
    # _canonical finds for its reached matrix, 0-based); the seed's reached
    # matrix is its canonical one
    frontier = [(members[seed], tuple(range(seed.n + seed.m)))]
    # canonical form -> bitmask of the canonical vertices whose mutation leads
    # back into a member, kept for the forms of the frontier and the next level
    back: dict[CanonicalForm, int] = {}
    tripped: set[str] = set()
    entry_witness: ExchangeMatrix | None = None
    depth = 0
    while frontier:
        if budget.max_depth is not None and depth == budget.max_depth:
            tripped.add("depth")
            break
        candidates: dict[CanonicalForm, tuple[tuple[int, ...], ExchangeMatrix, tuple]] = {}
        for mem, relabeling in frontier:
            own, rows = mem.form, mem.reached.b
            # b'_ij = b_ij + b_ik*max(b_kj, 0) + max(-b_ik, 0)*b_kj is at most
            # top + top*top in size, so within the cap no child needs a scan
            top = max(max(own.key), -min(own.key))
            scan = top * (top + 1) > cap
            mask = back.get(own, 0)
            for k in range(1, n + 1):
                if mask >> relabeling.index(k - 1) & 1:
                    continue  # this edge was canonicalized from its other end
                child = mutate(mem.reached, k)
                if scan:
                    # mutate shares the rows it leaves alone with the member, within the cap
                    rebuilt = [row for row, old in zip(child.b, rows) if row is not old]
                    if max(map(max, rebuilt)) > cap or -min(map(min, rebuilt)) > cap:
                        tripped.add("entry")
                        if entry_witness is None:
                            entry_witness = child
                        continue
                form = canonical_form(child)
                # the permutation found with the form: a cache hit, 0-based
                child_relabeling = _canonical(child)[1]
                back[form] = back.get(form, 0) | 1 << child_relabeling.index(k - 1)
                if form == own:  # mutation at k relabels the member itself
                    mask = back[own]
                if form in members:
                    continue
                witness = mem.witness + (k,)
                prev = candidates.get(form)
                if prev is None or witness < prev[0]:
                    candidates[form] = (witness, child, child_relabeling)
        frontier = []
        for form in sorted(candidates, key=attrgetter("key")):
            if len(members) >= budget.max_members:
                tripped.add("members")
                break
            witness, child, relabeling = candidates[form]
            mem = members[form] = Member(form, witness, child)
            frontier.append((mem, relabeling))
        if "members" in tripped:
            break
        back = {mem.form: back[mem.form] for mem, _ in frontier}
        depth += 1
    return ClassEnumeration(
        seed, tuple(members.values()), frozenset(tripped), entry_witness, budget
    )


def enumerate_class(
    B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None
) -> ClassEnumeration:
    """BFS the mutation class of B up to isomorphism, under the given budget.

    The seed is ``canonical_form(B)``, so isomorphic inputs share one
    enumeration.  Each member records the shortest discovered mutation
    sequence from the seed; replaying it reproduces the member exactly.
    The given :class:`~mutopo.store.Store` is the only memo: without one,
    every call runs the BFS.
    """
    seed = canonical_form(B)
    if seed.matrix.max_abs_entry > budget.max_entry:
        raise ValueError(
            f"budget.max_entry={budget.max_entry} is below the seed's largest entry "
            f"{seed.matrix.max_abs_entry}"
        )
    if store is not None:
        enum = store.get_class(seed.hash, budget)
        if enum is not None:
            return enum
    enum = _run_bfs(seed, budget)
    if store is not None:
        store.put_class(enum)
    return enum


def class_key(
    B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None
) -> ClassKey:
    enum = enumerate_class(B, budget, store)
    return ClassKey(enum.least.form, enum.status)


# a universe build asks for both class seeds' fingerprints at each pair past
# the shape test; bounded, so a build with more classes than it holds
# computes a fingerprint per pair
@lru_cache(maxsize=1 << 10)
def mutation_fingerprint(B: ExchangeMatrix) -> tuple:
    """Cheap mutation-class invariants, used to certify that two classes differ.

    Always included (elementary facts about the mutation rule): the shape
    (n, m), and per component of the support graph its size, mutable count,
    entry gcd, and skew-symmetry flag.  Mutation never merges or splits
    support components, preserves common divisors of a component's entries,
    and preserves skew-symmetry, so these are class invariants.

    A connected skew-symmetric rank-3 matrix also contributes its Markov
    constant (:func:`_rank3_weight_invariant`), a known rank-3 class invariant.
    """
    d, comps = _symmetrizer(B.b)
    profiles = []
    for comp in comps:
        # a component's rows are zero off it; d is unique per component up
        # to scale, so all ones there exactly when it is skew-symmetric
        g = gcd(*chain.from_iterable(B.b[i] for i in comp))
        skew = all(d[i] == 1 for i in comp)
        profiles.append((len(comp), sum(1 for i in comp if i < B.n), g, skew))
    fp: tuple = (B.n, B.m, tuple(sorted(profiles)))
    if B.n == 3 and not B.m and len(comps) == 1 and d == (1, 1, 1):
        fp = fp + (_rank3_weight_invariant(B),)
    return fp


def seeds_separate(P: ExchangeMatrix, Q: ExchangeMatrix) -> bool:
    """Do invariants of the two seeds rule out [P] embedding into [Q]?

    None needs an enumeration.  Past the shape (a restriction keeps no more
    mutable or frozen indices), each reads the seeds' :func:`mutation_fingerprint`
    alone: at equal size they must agree; across sizes gcd(Q), the gcd of
    the component gcds (0 for a zero matrix), must divide gcd(P), as it is
    D_1, the first determinantal divisor, which mutation keeps, being a
    product with unimodular integer matrices (Berenstein, Fomin &
    Zelevinsky, "Cluster algebras III", Duke Math. J. 126, 2005, Lemma 3.2),
    and a restriction keeps a subset of the entries; and a skew-symmetric Q
    (every component skew) rules out a P that is not: both keep it.
    """
    if P.n > Q.n or P.m > Q.m:
        return True
    fp_p, fp_q = mutation_fingerprint(P), mutation_fingerprint(Q)
    if P.size == Q.size:
        return fp_p != fp_q
    # fp[2] holds (size, mutable count, entry gcd, skew flag) per component
    g_p, g_q = (gcd(*(g for *_, g, _ in fp[2])) for fp in (fp_p, fp_q))
    skew_p, skew_q = (all(skew for *_, skew in fp[2]) for fp in (fp_p, fp_q))
    return gcd(g_p, g_q) != g_q or skew_q and not skew_p


def _thinnest(matrices) -> int | None:
    """The least min(|b_ij|, |b_ji|) over the pairs of mutable indices of the
    given matrices, or None if none has two mutable indices.  The scan ends
    at the first arrowless pair, as no pair is thinner."""
    least = None
    for B in matrices:
        for i, j in combinations(range(B.n), 2):
            pair = min(abs(B.b[i][j]), abs(B.b[j][i]))
            if pair == 0:
                return 0
            if least is None or pair < least:
                least = pair
    return least


def _rank3_weight_invariant(B: ExchangeMatrix, i: int = 0, j: int = 1, k: int = 2) -> int:
    """The Markov constant a*a + b*b + c*c -/+ a*b*c of the weights of the
    arrows between indices i, j, k (0-based): minus for an oriented cycle."""
    x, y, z = B.b[i][j], B.b[j][k], B.b[k][i]
    sign = -1 if x * y > 0 and y * z > 0 else 1
    return x * x + y * y + z * z + sign * abs(x * y * z)


# --- the table of hereditary, mutation-invariant class properties ------------
# The closed sets, by the paper's main theorem: each one that holds for [Q]
# holds for every [P] embedding into it.  Each row reads a class enumeration;
# invariants read off the seed alone are seeds_separate's.  A row reads
# only cached properties of the enumeration, so asking it again is cheap.


def abundance(enum: ClassEnumeration, N: int) -> Verdict:
    """N-abundance: min(|b_ij|, |b_ji|) >= N at each pair of mutable indices
    of each member; hereditary, as each member of an embedded class is a
    restriction of a member.  NO on a discovered member with a thinner pair.
    YES when CLOSED; for N = 1 on a rank-3 quiver class whose reflection
    orbit arrows every pair (a member with an arrowless pair is acyclic);
    for N <= 2 on a rank-3 quiver class with a BBH member, all of whose
    members are cyclic with weights >= 2 (Beineke, Brüstle & Hille 2011)."""
    if enum.thinnest is not None and enum.thinnest < N:
        return Verdict.NO
    rank3 = enum.seed.matrix.is_quiver and enum.seed.matrix.n == 3
    orbit = enum.reflection_orbit if rank3 and N == 1 else None
    arrowed = orbit is not None and _thinnest(form.matrix for form in orbit) >= 1
    if enum.status == CLOSED or arrowed or rank3 and N <= 2 and enum.bbh_member:
        return Verdict.YES
    return Verdict.UNKNOWN


def acyclicity(enum: ClassEnumeration, _=None) -> Verdict:
    """Mutation-acyclicity: some member is acyclic.  Hereditary on quivers:
    full subquivers of mutation-acyclic quivers are mutation-acyclic (Buan,
    Marsh & Reiten, Comment. Math. Helv. 83, 2008).  YES on a discovered
    acyclic member; NO when CLOSED without one, or on a quiver class with a
    BBH member, as its BBH subquiver is mutation-cyclic (Beineke et al.)."""
    if enum.first_acyclic is not None:
        return Verdict.YES
    if enum.status == CLOSED or enum.seed.matrix.is_quiver and enum.bbh_member:
        return Verdict.NO
    return Verdict.UNKNOWN


HEREDITARY = (  # each row, with the arguments `separates` asks it about
    (abundance, lambda p, q: (1, 2)),
    (acyclicity, lambda p, q: [None] if all(e.seed.matrix.is_quiver for e in (p, q)) else []),
)


def separates(enum_p: ClassEnumeration, enum_q: ClassEnumeration) -> bool:
    """Is a row of :data:`HEREDITARY` YES for [Q] and NO for [P], so that [P]
    does not embed into [Q]?  At equal rank (mutation equivalence) either
    way round will do.  Every row reads the enumerations; a NO that the two
    seeds decide is :func:`seeds_separate`'s."""
    both_ways = enum_p.seed.matrix.size == enum_q.seed.matrix.size
    for row, arguments in HEREDITARY:
        for arg in arguments(enum_p, enum_q):
            p, q = row(enum_p, arg), row(enum_q, arg)
            if {p, q} == {Verdict.YES, Verdict.NO} and (both_ways or q is Verdict.YES):
                return True
    return False


class FinitenessVerdict(namedtuple("FinitenessVerdict", "kind enumeration offender budget")):
    """The verdict, the enumeration it read (if any), the member that proves
    the class INFINITE (if any) and the budget the enumeration ran under."""

    __slots__ = ()

    @property
    def members(self) -> int | None:
        return self.enumeration.count if self.enumeration is not None else None


def is_mutation_finite(
    B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None
) -> FinitenessVerdict:
    """FINITE when the enumeration closes; INFINITE by classification; else UNKNOWN.

    A connected quiver on n >= 3 vertices (skew-symmetric, no frozen
    indices) is mutation-finite iff every member of its class has all
    entries of magnitude <= 2 (Felikson, Shapiro & Tumarkin, "Skew-symmetric
    cluster algebras of finite mutation type", J. Eur. Math. Soc. 14, 2012).
    So for such a quiver, a member with a larger entry proves the class
    infinite, and the enumeration runs with ``max_entry=2``.  Outside that
    family the always-sound fallback is UNKNOWN.
    """
    applies = B.is_quiver and B.n >= 3 and budget.max_entry >= 2 and B.is_connected
    if applies and B.max_abs_entry > 2:
        return FinitenessVerdict(Finiteness.INFINITE, None, B, budget)
    effective = Budget(budget.max_members, 2, budget.max_depth) if applies else budget
    enum = enumerate_class(B, effective, store)
    if enum.status == CLOSED:
        return FinitenessVerdict(Finiteness.FINITE, enum, None, effective)
    if applies and "entry" in enum.tripped:
        return FinitenessVerdict(Finiteness.INFINITE, enum, enum.entry_witness, effective)
    return FinitenessVerdict(Finiteness.UNKNOWN, enum, None, effective)
