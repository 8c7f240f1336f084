"""Budgeted checkers for the named mutation-class properties: avoidance,
mutation-acyclicity, arrow abundance, isolated-quiver avoidance, and
bounded universality.  All verdicts are tri-valued; NO and YES are asserted
only on evidence that survives the budget, UNKNOWN otherwise.
"""

from __future__ import annotations

from .canonical import canonical_form
from .classes import (
    CLOSED,
    DEFAULT_BUDGET,
    Budget,
    Verdict,
    enumerate_class,
    rank3_zero_pair_free,
)
from .embed import embeds
from .matrix import ExchangeMatrix, build, is_acyclic
from .store import Store
from .universe import collect_classes, iter_quiver_seeds


def is_avoiding(
    Q: ExchangeMatrix,
    patterns,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
) -> Verdict:
    """Does [Q] avoid every class in `patterns` (none of them embeds)?

    NO as soon as one pattern embeds; YES when every embedding test is an
    exhaustive NO; UNKNOWN otherwise.  Patterns are normalized to a sorted
    canonical order first, so the verdict does not depend on input order.
    Without a store, the calls share an in-memory one, so [Q] is enumerated
    once.
    """
    if store is None:
        store = Store()
    normalized = sorted(
        patterns, key=lambda p: (p.size, p.n, canonical_form(p).key)
    )
    unresolved = False
    for pattern in normalized:
        ev = embeds(pattern, Q, budget, store)
        if ev.verdict is Verdict.YES:
            return Verdict.NO
        if ev.verdict is Verdict.UNKNOWN:
            unresolved = True
    return Verdict.UNKNOWN if unresolved else Verdict.YES


def is_mutation_acyclic(
    B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Does the class of B contain an acyclic member?"""
    if is_acyclic(B):
        return Verdict.YES
    enum = enumerate_class(B, budget, store)
    if any(is_acyclic(mem.form.matrix) for mem in enum.members):
        return Verdict.YES
    return Verdict.NO if enum.status == CLOSED else Verdict.UNKNOWN


def _violates_abundance(B: ExchangeMatrix, min_arrows: int) -> bool:
    for i in range(B.n):
        for j in range(i + 1, B.n):
            if min(abs(B.b[i][j]), abs(B.b[j][i])) < min_arrows:
                return True
    return False


def is_N_abundant(
    B: ExchangeMatrix,
    min_arrows: int,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
) -> Verdict:
    """Does every member carry at least `min_arrows` arrows between every
    pair of mutable indices?

    Only mutable pairs are consulted; on skew-symmetrizable input the pair
    weight is taken conservatively as min(|b[i][j]|, |b[j][i]|).  A rank-1
    matrix is trivially abundant for every bound.  For the bound 1 a
    violation is exactly an arrowless pair, so on rank-3 quivers the
    reflection orbit can assert YES even when the enumeration truncates
    (the same query, and hence the same verdict, as avoiding the arrowless
    pair).
    """
    if min_arrows < 1:
        raise ValueError("the arrow bound must be at least 1")
    if B.size == 1:
        return Verdict.YES
    if _violates_abundance(B, min_arrows):
        return Verdict.NO
    enum = enumerate_class(B, budget, store)
    if any(_violates_abundance(mem.form.matrix, min_arrows) for mem in enum.members):
        return Verdict.NO
    if enum.status == CLOSED:
        return Verdict.YES
    if min_arrows == 1 and rank3_zero_pair_free(enum) is True:
        return Verdict.YES
    return Verdict.UNKNOWN


def isolated_quiver(vertices: int) -> ExchangeMatrix:
    """The arrowless quiver on the given number of vertices."""
    return build(vertices, 0, [[0] * vertices for _ in range(vertices)])


def in_E_N(
    B: ExchangeMatrix,
    bound: int,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
) -> Verdict:
    """Does [B] avoid the arrowless quiver on bound+1 vertices?"""
    if bound < 1:
        raise ValueError("the bound must be at least 1")
    return is_avoiding(B, [isolated_quiver(bound + 1)], budget, store)


def is_k_universal_bounded(
    Q: ExchangeMatrix,
    k: int,
    entry_cap: int,
    budget: Budget = DEFAULT_BUDGET,
    store=None,
) -> Verdict:
    """Does every quiver class of rank <= k (seed entries <= entry_cap)
    embed into [Q]?

    Unbounded universality is not decidable here; the entry cap makes the
    claim finite.  NO at the first test class with an exhaustive failure,
    YES when every test class embeds, UNKNOWN otherwise.  Without a store,
    the calls share an in-memory one, so [Q] is enumerated once.
    """
    if k < 2:
        raise ValueError("universality is defined for k >= 2")
    if store is None:
        store = Store()
    test_classes = collect_classes(iter_quiver_seeds(k, entry_cap), budget, store)
    unresolved = False
    for cls in test_classes:
        ev = embeds(cls.seed, Q, budget, store)
        if ev.verdict is Verdict.NO:
            return Verdict.NO
        if ev.verdict is Verdict.UNKNOWN:
            unresolved = True
    return Verdict.UNKNOWN if unresolved else Verdict.YES
