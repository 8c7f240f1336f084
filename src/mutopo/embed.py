"""The embedding relation between mutation classes.

[P] embeds into [Q] when some member of [P] is isomorphic to a restriction
of some member of [Q].  The verdict is tri-valued: YES carries a replayable
witness, NO rests on exhaustive grounds or a class invariant (see
:func:`embeds`), and UNKNOWN reports that a budget tripped first.

Witnesses are anchored at the canonical forms of the two inputs: replaying
``q_sequence`` from ``canonical_form(Q).matrix``, restricting to
``subset``, and canonicalizing gives the same form as replaying
``p_sequence`` from ``canonical_form(P).matrix``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations

from .canonical import canonical_form, canonical_relabeling
from .classes import (
    CLOSED,
    DEFAULT_BUDGET,
    Budget,
    Verdict,
    entries_getter,
    enumerate_class,
    seeds_separate,
    separates,
)
from .matrix import ExchangeMatrix, _union_layout, apply_sequence, disjoint_union, restrict


class EmbedWitness(namedtuple("EmbedWitness", "q_sequence subset p_sequence")):
    """Replaying ``q_sequence`` from [Q]'s canonical seed and restricting to
    ``subset`` (1-based) gives a relabeling of what ``p_sequence`` reaches
    from [P]'s."""

    __slots__ = ()


def witness_json(witness: EmbedWitness | None) -> dict | None:
    """The one JSON encoding of a witness, for CLI output and universe files."""
    return None if witness is None else witness._asdict()


class EmbedVerdict(namedtuple("EmbedVerdict", "verdict witness budget")):
    """The verdict, its witness (for a YES) and the budget it was reached under."""

    __slots__ = ()


# The largest restriction shape n_p + m_p whose scan is keyed by raw
# entries, row-major over the subset (mutable indices first, the order of
# ``restrict``), read off a member without building a matrix and looked up
# in ``enum_p.relabelings``, which maps them to their member of [P] (at most
# 6 tuples of 9 entries a member).  Larger shapes key by canonical form: at
# size 4 each member of [P] would hold 24 relabelings, a cost no workload
# has measured, and at size 6 (720) building them costs more than the few
# members such a scan visits (A6 into E7: 0.3 ms by form, 137 ms by
# relabelings).
RAW_SCAN_LIMIT = 3


def _first_restriction(enum_p, enum_q) -> EmbedWitness | None:
    """The witness at the first member of [Q] (BFS order) and subset (colex
    order) whose restriction is a member of [P]; None when there is none."""
    p, q = enum_p.seed.matrix, enum_q.seed.matrix
    subsets = sorted((mut + fro for mut in combinations(range(1, q.n + 1), p.n)
                      for fro in combinations(range(q.n + 1, q.size + 1), p.m)),
                     key=lambda idx: idx[::-1])
    raw = p.size <= RAW_SCAN_LIMIT
    if raw:
        getters = [entries_getter([i - 1 for i in idx], q.size) for idx in subsets]
        keys_p, member_for = enum_p.relabelings.keys(), enum_p.relabelings.__getitem__
    else:
        keys_p, member_for = enum_p.forms, enum_p.member_for
    for q_mem in enum_q.members:
        reached = q_mem.reached
        if raw:
            entries = tuple(chain.from_iterable(reached.b))
            keys = [get(entries) for get in getters]
        else:
            keys = [canonical_form(restrict(reached, idx)) for idx in subsets]
        if keys_p.isdisjoint(keys):
            continue
        idx, key = next((idx, key) for idx, key in zip(subsets, keys) if key in keys_p)
        return EmbedWitness(q_mem.witness, idx, member_for(key).witness)
    return None


def embeds(
    P: ExchangeMatrix,
    Q: ExchangeMatrix,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
) -> EmbedVerdict:
    """Does [P] embed into [Q]?

    First, the invariants of the two seeds give a NO that needs no
    enumeration (:func:`~mutopo.classes.seeds_separate`).  At equal rank
    embedding is mutation equivalence, resolved through either enumeration
    and disjoint reflection orbits
    (:attr:`ClassEnumeration.reflection_orbit`).  Otherwise the witness is
    the first restriction (members of [Q] in BFS order, their subsets in
    colex order) that is a member of [P].  Each call walks [Q] from its
    first member and keeps nothing.  Up to three indices a restriction's
    key is its raw entries, looked up among the relabelings of the members
    of [P], each mapped to its member, so the scan builds no matrix and no
    canonical form; larger shapes key by canonical form, since their
    relabelings outweigh the members walked (see :data:`RAW_SCAN_LIMIT`).

    With no such restriction the answer is NO when [Q] is CLOSED (*closed
    upper class*), whatever the status of [P]: restriction to I commutes
    with mutation at a mutable index inside I, so the restrictions of a
    CLOSED [Q] are closed under mutation, and the full scan would have met
    ``canonical_form(P)``, a member of its own enumeration.  Last, at any
    rank, is the separation step: NO when a row of the table of hereditary
    class properties, each read off the enumerations, separates the classes
    (:func:`~mutopo.classes.separates`).

    The seed invariants and the identity (equal canonical forms) need no
    enumeration: they answer before the store, which memoizes the rest.
    """
    if seeds_separate(P, Q):
        return EmbedVerdict(Verdict.NO, None, budget)
    cf_p = canonical_form(P)
    cf_q = canonical_form(Q)
    if cf_p == cf_q:
        full = tuple(range(1, Q.size + 1))
        return EmbedVerdict(Verdict.YES, EmbedWitness((), full, ()), budget)
    verdict = None if store is None else store.get_embed(cf_p.hash, cf_q.hash, budget)
    if verdict is None:
        verdict = _embeds_fresh(P, Q, cf_p, cf_q, budget, store)
        if store is not None:
            store.put_embed(cf_p.hash, cf_q.hash, verdict)
    return verdict


def _embeds_fresh(P, Q, cf_p, cf_q, budget, store) -> EmbedVerdict:
    if P.size == Q.size:
        full = tuple(range(1, Q.size + 1))
        enum_q = enumerate_class(cf_q.matrix, budget, store)
        mem = enum_q.member_for(cf_p)
        if mem is not None:
            return EmbedVerdict(Verdict.YES, EmbedWitness(mem.witness, full, ()), budget)
        enum_p = enumerate_class(cf_p.matrix, budget, store)
        mem = enum_p.member_for(cf_q)
        if mem is not None:
            return EmbedVerdict(Verdict.YES, EmbedWitness((), full, mem.witness), budget)
        if enum_q.status == CLOSED or enum_p.status == CLOSED:
            return EmbedVerdict(Verdict.NO, None, budget)
        orbits = enum_p.reflection_orbit, enum_q.reflection_orbit
        disjoint = None not in orbits and orbits[0].isdisjoint(orbits[1])
        if disjoint or separates(enum_p, enum_q):
            return EmbedVerdict(Verdict.NO, None, budget)
        return EmbedVerdict(Verdict.UNKNOWN, None, budget)

    enum_p = enumerate_class(cf_p.matrix, budget, store)
    enum_q = enumerate_class(cf_q.matrix, budget, store)
    witness = _first_restriction(enum_p, enum_q)
    if witness is not None:
        return EmbedVerdict(Verdict.YES, witness, budget)
    if enum_q.status == CLOSED or separates(enum_p, enum_q):
        return EmbedVerdict(Verdict.NO, None, budget)
    return EmbedVerdict(Verdict.UNKNOWN, None, budget)


def same_class(
    A: ExchangeMatrix, B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Are A and B mutation-equivalent? Tri-valued under the budget.

    At equal shape this is the equal-rank question of :func:`embeds`: YES
    when either budgeted enumeration reaches the other's canonical form; NO
    when one enumeration is CLOSED without doing so (or a class invariant
    separates them); UNKNOWN otherwise.
    """
    if (A.n, A.m) != (B.n, B.m):
        return Verdict.NO
    return embeds(A, B, budget, store=store).verdict


def replay_embedding(P: ExchangeMatrix, Q: ExchangeMatrix, ev: EmbedVerdict) -> bool:
    """Re-run a YES witness end to end through the matrix operations."""
    if ev.verdict is not Verdict.YES or ev.witness is None:
        return False
    w = ev.witness
    reached = apply_sequence(canonical_form(Q).matrix, w.q_sequence)
    sub = restrict(reached, w.subset)
    target = apply_sequence(canonical_form(P).matrix, w.p_sequence)
    return canonical_form(sub) == canonical_form(target)


def density_witness(
    P: ExchangeMatrix, Q: ExchangeMatrix
) -> tuple[ExchangeMatrix, EmbedVerdict, EmbedVerdict]:
    """A common upper bound: the disjoint union with both block-restriction embeddings.

    Mutations in one connected component never touch another, so both
    factors embed into the union.  No enumeration or search is needed; the
    witnesses restrict the canonical form of R to the images of the two
    blocks.
    """
    R = disjoint_union(P, Q)
    layout = _union_layout(P, Q)
    blocks = ([], [])  # the canonical positions, 1-based, that hold P's and Q's indices
    for new, old in enumerate(canonical_relabeling(R), start=1):
        blocks[layout[old - 1][0]].append(new)
    verdict_p, verdict_q = (
        EmbedVerdict(Verdict.YES, EmbedWitness((), tuple(block), ()), DEFAULT_BUDGET)
        for block in blocks
    )
    return R, verdict_p, verdict_q
