"""Budgeted checkers for the named mutation-class properties: avoidance,
mutation-acyclicity and arrow abundance (rows of the table
:data:`~mutopo.classes.HEREDITARY`), isolated-quiver avoidance, and
bounded universality.  All verdicts are tri-valued; NO and YES are asserted
only on evidence that survives the budget, UNKNOWN otherwise.  An integer
parameter is an exact int, as a universe's r and w are; else ValueError.
"""

from __future__ import annotations

from .classes import (
    DEFAULT_BUDGET,
    Budget,
    Verdict,
    abundance,
    acyclicity,
    enumerate_class,
)
from .embed import embeds
from .matrix import ExchangeMatrix, build
from .store import Store
from .universe import _check_int, collect_classes, iter_quiver_seeds


def is_avoiding(
    Q: ExchangeMatrix, patterns, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Does [Q] avoid every class in `patterns` (none of them embeds)?

    NO as soon as one pattern embeds; YES when every embedding test is an
    exhaustive NO; UNKNOWN otherwise.  Without a store, the calls share an
    in-memory one, so [Q] is enumerated once.
    """
    store = Store() if store is None else store
    return _every((embeds(p, Q, budget, store).verdict for p in patterns), Verdict.YES)


def _every(verdicts, failing: Verdict) -> Verdict:
    """NO at the first verdict that is `failing`, else UNKNOWN if any is, else YES."""
    unresolved = False
    for verdict in verdicts:
        if verdict is failing:
            return Verdict.NO
        unresolved = unresolved or verdict is Verdict.UNKNOWN
    return Verdict.UNKNOWN if unresolved else Verdict.YES


def _lookup(B: ExchangeMatrix, budget: Budget, store, row, arg=None) -> Verdict:
    """A table row on [B], read on the seed alone first: that often settles it."""
    verdict = row(enumerate_class(B, Budget(1, budget.max_entry, budget.max_depth)), arg)
    if verdict is Verdict.UNKNOWN:
        verdict = row(enumerate_class(B, budget, store), arg)
    return verdict


def is_mutation_acyclic(B: ExchangeMatrix, budget: Budget = DEFAULT_BUDGET, store=None) -> Verdict:
    """Does the class of B contain an acyclic member?  The table's row
    :func:`~mutopo.classes.acyclicity`."""
    return _lookup(B, budget, store, acyclicity)


def is_N_abundant(
    B: ExchangeMatrix, min_arrows: int, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Has every member at least `min_arrows` arrows at each pair of mutable
    indices?  The table's row :func:`~mutopo.classes.abundance`."""
    _check_int("arrow bound", min_arrows, 1)
    return _lookup(B, budget, store, abundance, min_arrows)


def isolated_quiver(vertices: int) -> ExchangeMatrix:
    """The arrowless quiver on the given number of vertices."""
    return build(vertices, 0, [[0] * vertices for _ in range(vertices)])


def in_E_N(
    B: ExchangeMatrix, bound: int, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Does [B] avoid the arrowless quiver on bound+1 vertices?"""
    _check_int("bound", bound, 1)
    return is_avoiding(B, [isolated_quiver(bound + 1)], budget, store)


def is_k_universal_bounded(
    Q: ExchangeMatrix, k: int, entry_cap: int, budget: Budget = DEFAULT_BUDGET, store=None
) -> Verdict:
    """Does every quiver class of rank <= k (seed entries <= entry_cap)
    embed into [Q]?

    Unbounded universality is not decidable here; the entry cap makes the
    claim finite.  NO at the first test class with an exhaustive failure,
    YES when every test class embeds, UNKNOWN otherwise.  Without a store,
    the calls share an in-memory one, so [Q] is enumerated once.
    """
    _check_int("k", k, 2)
    _check_int("entry cap", entry_cap, 0)
    store = Store() if store is None else store
    test_classes = collect_classes(iter_quiver_seeds(k, entry_cap), budget, store)
    return _every((embeds(cls.seed, Q, budget, store).verdict for cls in test_classes), Verdict.NO)
