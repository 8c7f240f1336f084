"""Canonical forms of exchange matrices under index relabeling.

Two matrices are isomorphic when a permutation of indices that keeps the
mutable/frozen partition carries one to the other.  The canonical form is
the exact row-major lexicographic minimum over all such relabelings.  It is
found one row at a time, over ordered partitions of the unplaced indices:

- the cells start as the mutable indices, then the frozen ones;
- position t takes an index v from the first cell.  Row t is then at least
  ``b[v][placed...]``, 0, and ``b[v][.]`` sorted within each remaining
  cell, and every ordering that keeps the cells in order and sorts each
  cell by ``b[v][.]`` attains that.  So every (prefix, v) whose row bound
  is the least over the whole frontier survives, and each cell is split
  by ``b[v][.]`` into increasing values;
- two surviving prefixes with the same cells and the same entries from
  each unplaced index toward the placed positions have the same futures,
  so only one of them is kept.

The cells follow row-major order only; a degree-based or equitable
refinement would order indices differently and change the form.  This is
exact, not heuristic; it is meant for the small ranks this package works
at (roughly n+m <= 9).
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


def _lex_min(B: ExchangeMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (flattened minimal matrix, one minimizing permutation new->old, 0-based)."""
    n, size, b = B.n, B.size, B.b
    # each frontier entry is (placed prefix, ordered cells of the unplaced)
    start = [cell for cell in (list(range(n)), list(range(n, size))) if cell]
    frontier = [((), start)]
    flat: list[int] = []
    for _ in range(size):
        best = None
        level = []
        for prefix, cells in frontier:
            first = cells[0]
            for v in first:
                row = b[v]
                score = [row[p] for p in prefix]
                score.append(0)
                score += sorted([row[u] for u in first if u != v])
                for cell in cells[1:]:
                    score += sorted([row[u] for u in cell])
                if best is None or score < best:
                    best, level = score, [(prefix, cells, v)]
                elif score == best:
                    level.append((prefix, cells, v))
        flat += best
        frontier = []
        seen = set()
        for prefix, cells, v in level:
            row = b[v]
            prefix += (v,)
            refined = []
            for cell in [[u for u in cells[0] if u != v], *cells[1:]]:
                for value in sorted({row[u] for u in cell}):
                    refined.append([u for u in cell if row[u] == value])
            if len(level) > 1:
                unplaced = [u for cell in refined for u in cell]
                # cell sizes agree across the level, so this flat key pins
                # the cells and every entry of the unplaced rows toward the
                # prefix
                key = (*unplaced, *(b[u][p] for u in unplaced for p in prefix))
                if key in seen:
                    continue
                seen.add(key)
            frontier.append((prefix, refined))
    return tuple(flat), frontier[0][0]


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


def is_isomorphic(A: ExchangeMatrix, B: ExchangeMatrix) -> bool:
    """True iff some partition-preserving permutation carries A to B."""
    return canonical_form(A).matrix == canonical_form(B).matrix
