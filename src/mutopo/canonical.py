"""Canonical forms of exchange matrices under index relabeling.

Two matrices are isomorphic when a permutation of indices that keeps the
mutable/frozen partition carries one to the other.  The canonical form is
the exact row-major lexicographic minimum over all such relabelings, found
by a branch-and-bound search:

- a greedy incumbent ordered by per-index invariant profiles (sorted row
  and column weight multisets) is computed first;
- partial assignments are pruned whenever their known prefix, completed
  optimistically with the sorted multisets of the remaining entries, is
  already lexicographically above the incumbent.

This is exact, not heuristic; it is meant for the small ranks this package
works at (roughly n+m <= 9).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from .matrix import ExchangeMatrix


def content_hash(n: int, m: int, flat_entries) -> str:
    """SHA-256 of the matrix serialized as ``n|m|e1,e2,...`` in row-major order."""
    payload = f"{n}|{m}|" + ",".join(str(v) for v in flat_entries)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CanonicalForm:
    """The lex-minimal relabeling of a matrix plus its content hash."""

    matrix: ExchangeMatrix
    hash: str

    @property
    def key(self) -> tuple[int, ...]:
        """Row-major entries of the canonical matrix; a total order on forms of one shape."""
        return tuple(v for row in self.matrix.b for v in row)


def _profile(b, size, i):
    row = sorted(b[i][j] for j in range(size) if j != i)
    col = sorted(b[j][i] for j in range(size) if j != i)
    return row, col


def _lex_min(B: ExchangeMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (flattened minimal matrix, one minimizing permutation new->old, 0-based)."""
    n, size, b = B.n, B.size, B.b
    if size == 1:
        return (0,), (0,)

    greedy = sorted(range(n), key=lambda i: (_profile(b, size, i), i)) + sorted(
        range(n, size), key=lambda i: (_profile(b, size, i), i)
    )

    def flatten(perm):
        return tuple(b[i][j] for i in perm for j in perm)

    best = flatten(greedy)
    best_perm = tuple(greedy)
    assigned: list[int] = []
    used = [False] * size

    def prunes() -> bool:
        # Optimistic completion: known prefix entries, then the sorted
        # multiset of each row's remaining values per pool.  If even that
        # exceeds the incumbent, no completion of this branch can win.
        rem_mut = sorted(i for i in range(n) if not used[i])
        rem_fro = sorted(i for i in range(n, size) if not used[i])
        pos = 0
        for r in assigned:
            row = b[r]
            for c in assigned:
                v = row[c]
                if v != best[pos]:
                    return v > best[pos]
                pos += 1
            for v in sorted(row[i] for i in rem_mut):
                if v != best[pos]:
                    return v > best[pos]
                pos += 1
            for v in sorted(row[i] for i in rem_fro):
                if v != best[pos]:
                    return v > best[pos]
                pos += 1
        return False

    def rec() -> None:
        nonlocal best, best_perm
        t = len(assigned)
        if t == size:
            cand = flatten(assigned)
            if cand < best:
                best, best_perm = cand, tuple(assigned)
            return
        pool = range(n) if t < n else range(n, size)
        for c in pool:
            if used[c]:
                continue
            used[c] = True
            assigned.append(c)
            if not prunes():
                rec()
            assigned.pop()
            used[c] = False

    rec()
    return best, best_perm


@lru_cache(maxsize=1 << 16)
def _canonical(B: ExchangeMatrix) -> tuple[CanonicalForm, tuple[int, ...]]:
    # a relabeling of a valid matrix is valid, so the symmetrizer is
    # permuted along with the rows instead of being re-derived
    flat, perm = _lex_min(B)
    size = B.size
    rows = tuple(flat[i * size : (i + 1) * size] for i in range(size))
    matrix = ExchangeMatrix(B.n, B.m, rows, tuple(B.d[i] for i in perm))
    return CanonicalForm(matrix, content_hash(B.n, B.m, flat)), perm


def canonical_form(B: ExchangeMatrix) -> CanonicalForm:
    """Canonical form of B; equal across all partition-preserving relabelings."""
    return _canonical(B)[0]


def canonical_relabeling(B: ExchangeMatrix) -> tuple[int, ...]:
    """One minimizing relabeling, as 1-based old indices listed by new position."""
    return tuple(i + 1 for i in _canonical(B)[1])


def clear_canonical_cache() -> None:
    _canonical.cache_clear()


def is_isomorphic(A: ExchangeMatrix, B: ExchangeMatrix) -> bool:
    """True iff some partition-preserving permutation carries A to B."""
    return canonical_form(A).matrix == canonical_form(B).matrix
