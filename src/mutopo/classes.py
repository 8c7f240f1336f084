"""Budget-bounded enumeration of mutation classes.

A mutation class can be infinite, so every enumeration runs under a
:class:`Budget` and reports whether it CLOSED (the member set is complete
up to isomorphism) or was TRUNCATED by a cap.  Enumeration is breadth
first and level synchronous with candidates admitted in canonical order,
which makes the member set, the stored witnesses, and the truncation
behaviour a deterministic function of the seed and the budget alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd

from .canonical import CanonicalForm, canonical_form
from .matrix import ExchangeMatrix, is_acyclic, mutate

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


@dataclass(frozen=True)
class Budget:
    """Caps for one enumeration: distinct members, entry magnitude, sequence length."""

    max_members: int = 100_000
    max_entry: int = 64
    max_depth: int | None = None

    def __post_init__(self):
        if self.max_members < 1 or self.max_entry < 1:
            raise ValueError("budget caps must be positive")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("budget caps must be positive")

    def key(self) -> tuple:
        return (self.max_members, self.max_entry, self.max_depth)


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Member:
    """One class member: canonical form, shortest discovered witness, and the
    exact matrix that witness reaches from the enumeration seed."""

    form: CanonicalForm
    witness: tuple[int, ...]
    reached: ExchangeMatrix


@dataclass(frozen=True)
class ClassEnumeration:
    seed: CanonicalForm
    members: tuple[Member, ...]
    status: str
    tripped: frozenset[str]
    entry_witness: ExchangeMatrix | None
    budget: Budget

    def __post_init__(self):
        object.__setattr__(self, "_index", {mem.form.hash: mem for mem in self.members})
        # restriction scans by target shape, filled lazily by embed.embeds
        object.__setattr__(self, "scans", {})

    def member_for(self, form: CanonicalForm) -> Member | None:
        """Hash-indexed lookup with full-matrix confirmation; the hash is an
        index, never a proof of membership."""
        mem = self._index.get(form.hash)
        if mem is not None and mem.form.matrix != form.matrix:
            raise RuntimeError(f"canonical hash collision at {form.hash}")
        return mem

    def __contains__(self, hash_: str) -> bool:
        return hash_ in self._index

    @property
    def hashes(self) -> frozenset[str]:
        return frozenset(self._index)

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def max_abs_entry(self) -> int:
        return max(mem.form.matrix.max_abs_entry for mem in self.members)

    @property
    def depth(self) -> int:
        return max(len(mem.witness) for mem in self.members)

    def least(self) -> Member:
        return min(self.members, key=lambda mem: mem.form.key)

    @cached_property
    def reflection_orbit(self) -> dict[str, ExchangeMatrix] | None:
        """The sink/source reflection orbit of the first acyclic member, as
        {canonical hash: canonical matrix}.

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
        if self.seed.matrix.m or not self.seed.matrix.is_skew_symmetric:
            return None
        start = next((mem.form for mem in self.members if is_acyclic(mem.form.matrix)), None)
        if start is None:
            return None
        orbit = {start.hash: start.matrix}
        frontier = [start.matrix]
        while frontier:
            mat = frontier.pop()
            for k, row in enumerate(mat.b, start=1):
                if min(row) >= 0 or max(row) <= 0:  # a source or a sink
                    form = canonical_form(mutate(mat, k))
                    if form.hash not in orbit:
                        orbit[form.hash] = form.matrix
                        frontier.append(form.matrix)
        return orbit


@dataclass(frozen=True)
class ClassKey:
    """Class identifier: canonical form of the least member discovered."""

    form: CanonicalForm
    status: str

    @property
    def hash(self) -> str:
        return self.form.hash


def _run_bfs(seed: CanonicalForm, budget: Budget) -> ClassEnumeration:
    n = seed.matrix.n
    members: dict[str, Member] = {seed.hash: Member(seed, (), seed.matrix)}
    order: list[Member] = [members[seed.hash]]
    frontier: list[Member] = [members[seed.hash]]
    tripped: set[str] = set()
    entry_witness: ExchangeMatrix | None = None
    depth = 0
    while frontier:
        if budget.max_depth is not None and depth == budget.max_depth:
            tripped.add("depth")
            break
        candidates: dict[str, tuple[CanonicalForm, tuple[int, ...], ExchangeMatrix]] = {}
        for mem in frontier:
            for k in range(1, n + 1):
                if mem.witness and k == mem.witness[-1]:
                    continue  # mutation is an involution: this child is mem's parent
                child = mutate(mem.reached, k)
                if child.max_abs_entry > budget.max_entry:
                    tripped.add("entry")
                    if entry_witness is None:
                        entry_witness = child
                    continue
                form = canonical_form(child)
                seen = members.get(form.hash)
                if seen is not None:
                    if seen.form.matrix != form.matrix:
                        raise RuntimeError(f"canonical hash collision at {form.hash}")
                    continue
                witness = mem.witness + (k,)
                prev = candidates.get(form.hash)
                if prev is not None and prev[0].matrix != form.matrix:
                    raise RuntimeError(f"canonical hash collision at {form.hash}")
                if prev is None or witness < prev[1]:
                    candidates[form.hash] = (form, witness, child)
        new_members: list[Member] = []
        capped = False
        for hash_ in sorted(candidates, key=lambda h: candidates[h][0].key):
            if len(members) >= budget.max_members:
                tripped.add("members")
                capped = True
                break
            form, witness, child = candidates[hash_]
            mem = Member(form, witness, child)
            members[hash_] = mem
            order.append(mem)
            new_members.append(mem)
        if capped:
            break
        frontier = new_members
        depth += 1
    status = CLOSED if not tripped else TRUNCATED
    return ClassEnumeration(
        seed, tuple(order), status, frozenset(tripped), entry_witness, budget
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
    return ClassKey(enum.least().form, enum.status)


def mutation_fingerprint(B: ExchangeMatrix) -> tuple:
    """Cheap mutation-class invariants, used to certify that two classes differ.

    Always included (elementary facts about the mutation rule): the shape
    (n, m), and per component of the support graph its size, mutable count,
    entry gcd, and skew-symmetry flag.  Mutation never merges or splits
    support components, preserves common divisors of a component's entries,
    and preserves skew-symmetry, so these are class invariants.

    A connected skew-symmetric rank-3 matrix also contributes
    a*a + b*b + c*c -/+ a*b*c over its unsigned edge weights, minus for
    cyclic orientation and plus for acyclic.  That this is mutation-invariant
    is a known rank-3 classification fact.
    """
    profiles = []
    for comp in B.components():
        idx = sorted(comp)
        entries = [B.b[i - 1][j - 1] for i in idx for j in idx]
        g = gcd(*(abs(v) for v in entries)) if len(idx) > 1 else 0
        skew = all(
            B.b[i - 1][j - 1] == -B.b[j - 1][i - 1] for i in idx for j in idx
        )
        profiles.append((len(idx), sum(1 for i in idx if i <= B.n), g, skew))
    fp: tuple = (B.n, B.m, tuple(sorted(profiles)))
    if B.n == 3 and B.m == 0 and B.is_skew_symmetric and B.is_connected:
        fp = fp + (_rank3_weight_invariant(B),)
    return fp


def rank3_zero_pair_free(enum: ClassEnumeration) -> bool | None:
    """Does no member of this rank-3 quiver class have an arrowless pair?

    At rank 3 a member with an arrowless pair carries arrows on at most two
    of its three pairs, so it is acyclic and lies in the reflection orbit.
    None when the class has no orbit or another rank.
    """
    orbit = enum.reflection_orbit
    if orbit is None or enum.seed.matrix.n != 3:
        return None
    return all(mat.b[0][1] and mat.b[0][2] and mat.b[1][2] for mat in orbit.values())


def _rank3_weight_invariant(B: ExchangeMatrix) -> int:
    b = B.b
    s12, s13, s23 = b[0][1], b[0][2], b[1][2]
    # Directed 3-cycle iff the signs of b12, b23, b31 = -b13 all agree and
    # none vanish (covers both traversal directions).
    nonzero = s12 != 0 and s23 != 0 and s13 != 0
    signs = (s12 > 0, s23 > 0, s13 < 0)
    cyclic = nonzero and (all(signs) or not any(signs))
    a, c, e = abs(s12), abs(s13), abs(s23)
    prod = a * c * e
    base = a * a + c * c + e * e
    return base - prod if cyclic else base + prod


@dataclass(frozen=True)
class FinitenessVerdict:
    kind: Finiteness
    enumeration: ClassEnumeration | None
    offender: ExchangeMatrix | None
    budget: Budget

    @property
    def members(self) -> int | None:
        return self.enumeration.count if self.enumeration is not None else None


def is_mutation_finite(
    B: ExchangeMatrix,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
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
    applies = (
        B.m == 0
        and B.n >= 3
        and budget.max_entry >= 2
        and B.is_skew_symmetric
        and B.is_connected
    )
    if applies and B.max_abs_entry > 2:
        return FinitenessVerdict(Finiteness.INFINITE, None, B, budget)
    effective = replace(budget, max_entry=2) if applies else budget
    enum = enumerate_class(B, effective, store)
    if enum.status == CLOSED:
        return FinitenessVerdict(Finiteness.FINITE, enum, None, effective)
    if applies and "entry" in enum.tripped:
        return FinitenessVerdict(Finiteness.INFINITE, enum, enum.entry_witness, effective)
    return FinitenessVerdict(Finiteness.UNKNOWN, enum, None, effective)
