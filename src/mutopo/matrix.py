"""Exchange matrices over mutable and frozen indices.

This is the single substrate for everything in the package.  A quiver is
the skew-symmetric special case with no frozen indices, where entry
``b[i][j] > 0`` counts the arrows ``i -> j``.  Values are immutable after
construction (an :class:`ExchangeMatrix` is a tuple) and every operation
is a pure function, so instances are safe to share across threads and
processes.

All public index arguments (mutation vertex, restriction subsets) are
1-based, matching the usual labelling of quiver vertices.  Indices
``1..n`` are mutable, ``n+1..n+m`` are frozen.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import chain
from math import gcd, lcm


class NotSkewSymmetrizable(ValueError):
    """No positive integer rescaling of the rows makes the matrix skew-symmetric."""


class FrozenMutation(ValueError):
    """Mutation was requested at a frozen or out-of-range index."""


class EmptySubset(ValueError):
    """Restriction subset is empty or retains no mutable index."""


class ExchangeMatrix(namedtuple("ExchangeMatrix", "n m b")):
    """Validated integer exchange matrix: ``n`` mutable and ``m`` frozen
    indices, and the rows ``b``, a tuple of int tuples.

    Do not call the constructor directly; go through :func:`build`, which
    validates the matrix, or one of the operations below, which derive a
    valid result from valid inputs.  Entries are plain Python ints, so they
    never overflow under mutation.
    """

    __slots__ = ()

    @property
    def d(self) -> tuple[int, ...]:
        """The normalized skew-symmetrizer (see :func:`_symmetrizer`),
        computed on each read."""
        return _symmetrizer(self.b)[0]

    @property
    def size(self) -> int:
        return self.n + self.m

    @property
    def max_abs_entry(self) -> int:
        b = self.b
        return max(max(map(max, b)), -min(map(min, b)))

    @property
    def is_skew_symmetric(self) -> bool:
        """The normalized symmetrizer is unique up to scale on each support
        component, so it is all ones exactly when every b[i][j] == -b[j][i]."""
        return all(v == 1 for v in self.d)

    @property
    def is_quiver(self) -> bool:
        return not self.m and self.is_skew_symmetric

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the support graph, as 1-based index sets."""
        return tuple(frozenset(i + 1 for i in comp) for comp in _symmetrizer(self.b)[1])

    @property
    def is_connected(self) -> bool:
        return len(_symmetrizer(self.b)[1]) == 1


def _symmetrizer(b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], list[list[int]]]:
    """The normalized skew-symmetrizer and the support components, from the
    one spanning search over the support graph; it validates every entry.

    One root per support component gets a provisional value of 1; along
    each tree edge ``d[j] = d[i] * |b[i][j]| / |b[j][i]|``, kept as a reduced
    integer (numerator, denominator) pair.  The search checks each nonzero
    ``b[i][j]`` as it meets it: a tree edge needs ``b[j][i]`` of the
    opposite sign, and any other entry the identity
    ``d[i] * b[i][j] == -d[j] * b[j][i]`` between provisional values.  So a
    nonzero ``b[i][i]`` fails the identity with itself; a half-zero pair
    fails, from its nonzero entry's row, as a tree edge or the identity; a
    same-sign pair fails as a tree edge, or the identity's sides differ in
    sign.  The one raise names a nonzero diagonal entry when i = j, sign
    coherence when ``b[i][j] * b[j][i] >= 0``, else an inconsistent cycle.
    Denominators are then cleared per component and the component gcd is
    divided out.  Components come sorted, in the order of their least index.
    """
    n = len(b)
    ratio: list[tuple[int, int] | None] = [None] * n
    d = [0] * n
    comps = []
    for root in range(n):
        if ratio[root] is not None:
            continue
        ratio[root] = (1, 1)
        comp = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            num, den = ratio[i]
            for j, bij in enumerate(b[i]):
                if bij == 0:
                    continue
                bji = b[j][i]
                rj = ratio[j]
                if rj is None and bij * bji < 0:
                    p, q = num * abs(bij), den * abs(bji)
                    g = gcd(p, q)
                    ratio[j] = (p // g, q // g)
                    comp.append(j)
                    stack.append(j)
                elif rj is None or num * rj[1] * bij != -rj[0] * den * bji:
                    pair = f"pair ({i + 1},{j + 1})"
                    raise NotSkewSymmetrizable(
                        f"nonzero diagonal entry at index {i + 1}" if i == j
                        else f"sign coherence fails at {pair}" if bij * bji >= 0
                        else f"no positive symmetrizer exists: inconsistency at {pair}"
                    )
        comp.sort()
        comps.append(comp)
        scale = lcm(*(ratio[i][1] for i in comp))
        vals = [ratio[i][0] * (scale // ratio[i][1]) for i in comp]
        g = gcd(*vals)
        for i, v in zip(comp, vals):
            d[i] = v // g
    return tuple(d), comps


def build(n: int, m: int, rows) -> ExchangeMatrix:
    """Validate an (n+m) x (n+m) integer matrix.

    Raises ValueError for malformed input (shape, non-integers, n < 1,
    m < 0) and NotSkewSymmetrizable when the matrix has a nonzero diagonal
    entry, fails sign-coherence, or admits no positive integer symmetrizer.
    The spanning search of :func:`_symmetrizer` is the only check of the
    entries' values, and it raises at the first defective pair it meets,
    which need not be the first in row-major order.
    """
    try:
        n, m = operator.index(n), operator.index(m)
        b = tuple(tuple(operator.index(v) for v in row) for row in rows)
    except TypeError as exc:  # a count, the rows, a row or an entry
        raise ValueError(f"index counts and entries must be integers ({exc})") from None
    if n < 1:
        raise ValueError("at least one mutable index is required (n >= 1)")
    if m < 0:
        raise ValueError("frozen index count must be non-negative")
    size = n + m
    if len(b) != size or any(len(row) != size for row in b):
        raise ValueError(f"matrix must be {size}x{size}")
    _symmetrizer(b)  # raises unless one exists
    return ExchangeMatrix(n, m, b)


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutate at the mutable index k (1-based).

    Row and column k flip sign; every other entry picks up the two-path
    contribution ``b[i][k]*max(b[k][j],0) + max(-b[i][k],0)*b[k][j]``.
    """
    k = operator.index(k)
    if not 1 <= k <= B.n:
        raise FrozenMutation(f"index {k} is not mutable (mutable indices are 1..{B.n})")
    kk = k - 1
    b = B.b
    row_k = b[kk]
    # the positive and negative parts of row k, as (j, b_kj); b_kk = 0
    pos, neg = [], []
    for j, v in enumerate(row_k):
        if v > 0:
            pos.append((j, v))
        elif v < 0:
            neg.append((j, v))
    new_rows = []
    for i, bi in enumerate(b):
        bik = bi[kk]
        if bik == 0:
            # no two-path runs through k from i; row k itself (b_kk = 0) flips sign
            new_rows.append(bi if i != kk else tuple(map(operator.neg, bi)))
        else:
            part, w = (pos, bik) if bik > 0 else (neg, -bik)
            row = list(bi)
            row[kk] = -bik
            for j, v in part:
                row[j] += w * v
            new_rows.append(tuple(row))
    return ExchangeMatrix(B.n, B.m, tuple(new_rows))


def apply_sequence(B: ExchangeMatrix, sequence) -> ExchangeMatrix:
    """Apply mutations left to right: ``[k1, k2]`` computes mu_k2(mu_k1(B))."""
    for k in sequence:
        B = mutate(B, k)
    return B


def restrict(B: ExchangeMatrix, indices) -> ExchangeMatrix:
    """Restrict to the submatrix on the given 1-based index subset.

    Retained indices keep their mutable/frozen status; mutable indices are
    placed first in the result.  A submatrix of a valid matrix is valid, so
    nothing is re-validated.
    """
    idx = [operator.index(i) for i in indices]
    if not idx:
        raise EmptySubset("restriction subset is empty")
    if len(set(idx)) != len(idx):
        raise ValueError("restriction subset has duplicate indices")
    for i in idx:
        if not 1 <= i <= B.size:
            raise ValueError(f"index {i} out of range 1..{B.size}")
    mutable = [i for i in idx if i <= B.n]
    frozen = [i for i in idx if i > B.n]
    if not mutable:
        raise EmptySubset("restriction retains no mutable index")
    order = [i - 1 for i in mutable + frozen]
    b = tuple(tuple(B.b[i][j] for j in order) for i in order)
    return ExchangeMatrix(len(mutable), len(frozen), b)


def _union_layout(P: ExchangeMatrix, Q: ExchangeMatrix) -> list[tuple[int, int]]:
    """For each 0-based position of P ⊕ Q, its factor (0 for P, 1 for Q) and
    its 0-based index there: P's mutable, Q's mutable, P's frozen, then Q's
    frozen indices."""
    return ([(0, i) for i in range(P.n)] + [(1, i) for i in range(Q.n)]
            + [(0, i) for i in range(P.n, P.size)] + [(1, i) for i in range(Q.n, Q.size)])


def disjoint_union(P: ExchangeMatrix, Q: ExchangeMatrix) -> ExchangeMatrix:
    """Block-diagonal union; mutable indices of both factors come first.

    The new index order is P-mutable, Q-mutable, P-frozen, Q-frozen, so
    restricting to either block recovers the factor exactly.  Entries are
    placed by block, so P and Q may be one and the same matrix.
    """
    layout = _union_layout(P, Q)
    factors = (P.b, Q.b)
    rows = tuple(tuple(factors[f][i][j] if f == g else 0 for g, j in layout)
                 for f, i in layout)
    return ExchangeMatrix(P.n + Q.n, P.m + Q.m, rows)


def is_acyclic(B: ExchangeMatrix) -> bool:
    """True iff the digraph on mutable indices (edge i->j when b[i][j] > 0) is acyclic.

    Repeatedly removes a mutable index with no incoming arrow from the
    remaining ones; the digraph is acyclic iff every index gets removed.
    """
    b = B.b
    left = list(range(B.n))
    while left:
        for j in left:
            if all(b[i][j] <= 0 for i in left):
                left.remove(j)
                break
        else:
            return False
    return True


# --- serialization -----------------------------------------------------------

def to_json_dict(B: ExchangeMatrix) -> dict:
    return {"mutable": B.n, "frozen": B.m, "b": [list(row) for row in B.b]}


def from_json_dict(obj: dict) -> ExchangeMatrix:
    try:
        counts, rows = (obj["mutable"], obj["frozen"]), obj["b"]
    except KeyError as exc:
        raise ValueError(f"matrix object is missing key {exc}") from None
    B = build(*counts, rows)
    # JSON true and false pass build's operator.index as 1 and 0
    if any(isinstance(v, bool) for v in chain(counts, *rows)):
        raise ValueError("index counts and entries must be integers, not booleans")
    return B


def to_text(B: ExchangeMatrix) -> str:
    lines = [f"{B.n} {B.m}"]
    lines.extend(" ".join(str(v) for v in row) for row in B.b)
    return "\n".join(lines)


def from_text(text: str) -> ExchangeMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("expected a first line 'n m' followed by matrix rows")
    n, m = int(tokens[0]), int(tokens[1])
    size = n + m
    entries = [int(t) for t in tokens[2:]]
    if len(entries) != size * size:
        raise ValueError(f"expected {size * size} entries, got {len(entries)}")
    rows = [entries[i * size : (i + 1) * size] for i in range(size)]
    return build(n, m, rows)


def to_inline(B: ExchangeMatrix) -> str:
    """Rows separated by ';', as :func:`from_inline` reads them (with ``frozen=B.m``)."""
    return ";".join(" ".join(str(v) for v in row) for row in B.b)


def from_inline(spec: str, frozen: int = 0) -> ExchangeMatrix:
    """Parse an inline matrix like ``"0 1;-1 0"``; the last `frozen` indices freeze."""
    rows = [[int(t) for t in chunk.split()] for chunk in spec.split(";") if chunk.strip()]
    size = len(rows)
    return build(size - frozen, frozen, rows)
