"""Canonical forms of exchange matrices under index relabeling.

Two matrices are isomorphic when a permutation of indices that keeps the
mutable/frozen partition carries one to the other.  The canonical form is
the exact row-major lexicographic minimum over all such relabelings: a
:class:`CanonicalForm` is its shape and entries, and is compared as such.
Its SHA-256 (:func:`content_hash`) is only its external name, which the
store, universe files and the CLI use, computed when first read.  The
minimum is found one row at a time, over ordered partitions of the
unplaced indices:

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

Each frontier entry is one ordering of all indices, the placed prefix and
then the cells in order.  Surviving candidates have equal row bounds, so
they split their cells alike: one list of (start, end) positions gives the
cells of every entry.  A candidate v is scored by its row read through the
ordering, with each cell of two or more positions sorted in place.  That
leaves v's own diagonal 0 sorted into the first cell rather than at t; but
the same 0 joins every candidate's sorted first cell, which keeps both the
order of the candidates and their ties, so the scores rank them as the
bounds do, and the winning row is the best score with one 0 moved to t.
The first level has one ordering, the identity, and the cells (0, n) and
(n, n+m), so it is read off the rows in closed form: v scores
``sorted(b[v][:n]) + sorted(b[v][n:])`` (``sorted(b[v])`` when m = 0), and
the mutable v tied at the least score survive in index order.  The cells
split by a stable sort on ``b[v][.]``, which keeps each value's indices in
the cell's order, so the permutation returned, the first least one the
search reaches, depends only on that order.  Once every cell is a
single index, the rest of the matrix is read straight off each ordering,
and the first least ordering in frontier order wins.

The cells follow row-major order only; a degree-based or equitable
refinement would order indices differently and change the form.  This is
exact, not heuristic; it is meant for the small ranks this package works
at (roughly n+m <= 9).
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .matrix import ExchangeMatrix


_sha256 = None  # hashlib's, imported at the first hash: it maps OpenSSL's libcrypto


def content_hash(n: int, m: int, flat_entries) -> str:
    """SHA-256 of the matrix serialized as ``n|m|e1,e2,...`` in row-major order."""
    global _sha256
    if _sha256 is None:
        from hashlib import sha256 as _sha256
    payload = f"{n}|{m}|" + ",".join(map(str, flat_entries))
    return _sha256(payload.encode("ascii")).hexdigest()


class CanonicalForm:
    """The shape (n, m) and ``key``, the row-major entries of the lex-minimal
    relabeling: equal exactly for isomorphic matrices, and ordered by ``key``
    within a shape.  ``matrix`` and ``hash`` (the SHA-256 name, see
    :func:`content_hash`) are computed on first read and kept."""

    __slots__ = ("n", "m", "key", "_hash_value", "_matrix", "_hash")

    def __init__(self, n: int, m: int, key: tuple[int, ...]):
        self.n, self.m, self.key = n, m, key
        self._hash_value = hash((n, m, key))  # forms key the class BFS's dicts
        self._matrix = self._hash = None

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.key == other.key and self.n == other.n and self.m == other.m

    def __hash__(self) -> int:
        return self._hash_value

    def __repr__(self) -> str:
        return f"CanonicalForm({self.n}, {self.m}, {self.key})"

    def rows(self) -> tuple[tuple[int, ...], ...]:
        key, size = self.key, self.n + self.m
        return tuple(key[i : i + size] for i in range(0, len(key), size))

    @property
    def matrix(self) -> ExchangeMatrix:
        if self._matrix is None:  # a relabeling of a valid matrix is valid
            self._matrix = ExchangeMatrix(self.n, self.m, self.rows())
        return self._matrix

    @property
    def hash(self) -> str:
        if self._hash is None:
            self._hash = content_hash(self.n, self.m, self.key)
        return self._hash


def _lex_min(B: ExchangeMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (flattened minimal matrix, one minimizing permutation new->old, 0-based)."""
    n, size, b = B.n, B.size, B.b
    # each frontier entry is one ordering: the placed prefix, then the cells
    # of the unplaced indices; every entry has the same cells, kept as
    # (start, end) positions
    frontier = [list(range(size))]
    cells = [cell for cell in ((0, n), (n, size)) if cell[0] < cell[1]]
    flat: list[int] = []
    t = 0  # positions placed
    while len(cells) < size - t:  # some cell holds two or more indices
        lo0, hi0 = cells[0]
        if t == 0:
            # one ordering, the identity, and the cells (0, n) and (n, size):
            # every score at once, the tied v in index order
            if n == size:
                scores = list(map(sorted, b))
            else:
                scores = [sorted(row[:n]) + sorted(row[n:]) for row in b[:n]]
            best = min(scores)
            level = [(frontier[0], v) for v, score in enumerate(scores) if score == best]
        else:
            wide = [(lo, hi) for lo, hi in cells if hi - lo > 1]
            best = None
            level = []
            for order in frontier:
                read = itemgetter(*order)
                for v in order[lo0:hi0]:
                    score = list(read(b[v]))
                    for lo, hi in wide:
                        score[lo:hi] = sorted(score[lo:hi])
                    if best is None or score < best:
                        best, level = score, [(order, v)]
                    elif score == best:
                        level.append((order, v))
        # the row: v's own 0 moves from its sorted place in the first cell to t
        first = best[lo0:hi0]
        first.remove(0)
        best[lo0 + 1 : hi0] = first
        best[lo0] = 0
        flat += best
        t += 1
        # split each cell into runs of equal entries of the row
        refined, splits = [], []
        for lo, hi in ((t, hi0), *cells[1:]):
            start = lo
            for j in range(lo + 1, hi):
                if best[j] != best[j - 1]:
                    refined.append((start, j))
                    start = j
            if start < hi:
                if start > lo:
                    splits.append((lo, hi))
                refined.append((start, hi))
        cells = refined
        frontier = []
        seen = set()
        for order, v in level:
            order = order.copy()
            i = order.index(v, lo0, hi0)
            order[lo0 + 1 : i + 1] = order[lo0:i]
            order[lo0] = v
            # a stable sort keeps each run in its cell's order
            key = b[v].__getitem__
            for lo, hi in splits:
                order[lo:hi] = sorted(order[lo:hi], key=key)
            if len(level) > 1:
                # the cells and every entry of the unplaced rows toward the
                # prefix pin the future, so one ordering of each is kept
                place = itemgetter(*order[:t])
                unplaced = order[t:]
                pinned = (*unplaced, *[place(b[u]) for u in unplaced])
                if pinned in seen:
                    continue
                seen.add(pinned)
            frontier.append(order)
    # every cell is one index: the rest of the matrix is read off each
    # ordering, and the first least one wins
    best = None
    for order in frontier:
        rest = [b[u][w] for u in order[t:] for w in order]
        if best is None or rest < best:
            best, perm = rest, order
    flat += best
    return tuple(flat), tuple(perm)


# small on purpose: the repeats are restrictions to a few small shapes and
# the class BFS reading the permutation right after canonical_form.  The BFS
# itself meets almost no matrix twice, since it closes squares (mu_i mu_j =
# mu_j mu_i when b_ij = 0) and pentagons on edges it knows instead: 4 repeats
# in 1,500 canonical_form calls on A7, D7, E6, E7 and A8, and 2 in 1,673 on
# E8, whose 1,671 distinct matrices cost one _lex_min run each although they
# outnumber the 1,024 entries
@lru_cache(maxsize=1 << 10)
def _canonical(B: ExchangeMatrix) -> tuple[CanonicalForm, tuple[int, ...]]:
    flat, perm = _lex_min(B)
    return CanonicalForm(B.n, B.m, flat), perm


def canonical_form(B: ExchangeMatrix) -> CanonicalForm:
    """Canonical form of B; equal across all partition-preserving relabelings."""
    return _canonical(B)[0]


def canonical_relabeling(B: ExchangeMatrix) -> tuple[int, ...]:
    """One minimizing relabeling, as 1-based old indices listed by new position."""
    return tuple(i + 1 for i in _canonical(B)[1])


def is_isomorphic(A: ExchangeMatrix, B: ExchangeMatrix) -> bool:
    """True iff some partition-preserving permutation carries A to B."""
    return canonical_form(A) == canonical_form(B)
