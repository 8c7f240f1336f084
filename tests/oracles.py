"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the package's canonical-form and
hashing machinery: mutation is done on arrow multisets via the three graph
rules, isomorphism by exhaustive permutation search, and class enumeration
by BFS with pairwise isomorphism deduplication.  Slow, but independently
trustworthy on small inputs.

Two exceptions use the package's canonical forms, as references for
*which* answer the package's shortcuts must reproduce:
:func:`first_restriction`, the per-pair embedding scan that fixes which
witness ``embeds`` returns, and :func:`reference_bfs`, the class BFS that
canonicalizes every child but the way back to its discovering parent.
Likewise :func:`reference_lex_min` fixes which minimizing permutation the
canonical search returns, among the many that a symmetric matrix has, and
:func:`reference_quiver_seeds` and :func:`reference_skew_seeds`, the seed
generators as two separate loops, fix which seeds a universe starts from,
in which order.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm


def graph_mutate(rows, k):
    """Mutate a skew-symmetric matrix at 1-based vertex k using the three
    arrow rules: complete 2-paths through k, reverse arrows at k, cancel
    oriented 2-cycles pairwise."""
    size = len(rows)
    kk = k - 1
    arrows = Counter()
    for i in range(size):
        for j in range(size):
            if rows[i][j] > 0:
                arrows[(i, j)] += rows[i][j]
    new = Counter(arrows)
    # rule 1: one new arrow i -> j per pair of arrows i -> k, k -> j
    for (i, a) in list(arrows.items()):
        if i[1] != kk:
            continue
        for (j, b) in list(arrows.items()):
            if j[0] != kk or j[1] == i[0]:
                continue
            new[(i[0], j[1])] += a * b
    # rule 2: reverse arrows incident to k
    for (i, j), count in list(new.items()):
        if i == kk or j == kk:
            del new[(i, j)]
            new[(j, i)] += count
    # rule 3: cancel oriented 2-cycles pairwise
    for (i, j) in list(new):
        if i < j and (j, i) in new:
            cancel = min(new[(i, j)], new[(j, i)])
            new[(i, j)] -= cancel
            new[(j, i)] -= cancel
    out = [[0] * size for _ in range(size)]
    for (i, j), count in new.items():
        if count:
            out[i][j] += count
            out[j][i] -= count
    return [list(r) for r in out]


def matrix_mutate(rows, k):
    """Direct application of the exchange-matrix mutation formula."""
    size = len(rows)
    kk = k - 1
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == kk or j == kk:
                out[i][j] = -rows[i][j]
            else:
                out[i][j] = (
                    rows[i][j]
                    + rows[i][kk] * max(rows[kk][j], 0)
                    + max(-rows[i][kk], 0) * rows[kk][j]
                )
    return out


def symmetrizer(rows):
    """The normalized skew-symmetrizer of a square integer matrix, or None
    when it has none: a positive integer d with ``d[i]*b[i][j] ==
    -d[j]*b[j][i]``, whose entries have gcd 1 on each connected component
    of the support graph.  Ratios propagate as exact fractions."""
    size = len(rows)
    d = [None] * size
    for root in range(size):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        comp, queue = [root], deque([root])
        while queue:
            i = queue.popleft()
            for j in range(size):
                if rows[i][j] != 0 and d[j] is None:
                    if rows[j][i] == 0:
                        return None
                    d[j] = d[i] * abs(rows[i][j]) / abs(rows[j][i])
                    comp.append(j)
                    queue.append(j)
        scale = lcm(*(d[i].denominator for i in comp))
        ints = [int(d[i] * scale) for i in comp]
        g = gcd(*ints)
        for i, v in zip(comp, ints):
            d[i] = v // g
    ok = all(
        d[i] * rows[i][j] == -d[j] * rows[j][i]
        for i in range(size)
        for j in range(size)
    )
    return tuple(d) if ok else None


def lexmin_relabeling(rows, n, m):
    """Row-major lexicographic minimum over all partition-preserving
    permutations, by exhaustive search."""
    size = n + m
    best = None
    for mut in permutations(range(n)):
        for fro in permutations(range(n, size)):
            perm = mut + fro
            flat = tuple(rows[i][j] for i in perm for j in perm)
            if best is None or flat < best:
                best = flat
    return best


def isomorphic(rows_a, rows_b, n, m):
    """Exhaustive search for a partition-preserving relabeling a -> b."""
    size = n + m
    if len(rows_a) != size or len(rows_b) != size:
        return False
    ta = tuple(tuple(r) for r in rows_a)
    for mut in permutations(range(n)):
        for fro in permutations(range(n, size)):
            perm = mut + fro
            if all(
                rows_b[x][y] == ta[perm[x]][perm[y]]
                for x in range(size)
                for y in range(size)
            ) :
                return True
    return False


def enumerate_class(rows, n, max_members=2000, max_entry=64):
    """BFS with pairwise-isomorphism dedup.  Returns (members, closed)."""
    start = [list(r) for r in rows]
    members = [start]
    queue = deque([start])
    closed = True
    while queue:
        current = queue.popleft()
        for k in range(1, n + 1):
            child = matrix_mutate(current, k)
            if max(abs(v) for row in child for v in row) > max_entry:
                closed = False
                continue
            if any(isomorphic(child, seen, n, 0) for seen in members):
                continue
            if len(members) >= max_members:
                return members, False
            members.append(child)
            queue.append(child)
    return members, closed


def same_class(rows_a, rows_b, n, **caps):
    if len(rows_a) != len(rows_b):
        return "NO"
    members, closed = enumerate_class(rows_a, n, **caps)
    if any(isomorphic(rows_b, mem, n, 0) for mem in members):
        return "YES"
    return "NO" if closed else "UNKNOWN"


def _subsets(size, want):
    return list(combinations(range(size), want))


def embeds(rows_p, n_p, rows_q, n_q, **caps):
    """Exhaustive embedding check for quivers (no frozen indices)."""
    if n_p > n_q:
        return "NO"
    members_p, closed_p = enumerate_class(rows_p, n_p, **caps)
    members_q, closed_q = enumerate_class(rows_q, n_q, **caps)
    for member in members_q:
        for subset in _subsets(n_q, n_p):
            sub = [[member[i][j] for j in subset] for i in subset]
            if any(isomorphic(sub, cand, n_p, 0) for cand in members_p):
                return "YES"
    return "NO" if closed_p and closed_q else "UNKNOWN"


def first_restriction(P, Q, budget, store=None):
    """The witness of the per-pair embedding scan: the first member of [Q]
    (BFS order) and partition-compatible subset (colex order) whose
    restriction is a member of [P], as ``(q_sequence, subset,
    p_sequence)``; None when no restriction of an enumerated member of [Q]
    is an enumerated member of [P]."""
    from mutopo import canonical_form, enumerate_class, restrict

    enum_p = enumerate_class(P, budget, store)
    enum_q = enumerate_class(Q, budget, store)
    subsets = sorted(
        (
            mut + fro
            for mut in combinations(range(1, Q.n + 1), P.n)
            for fro in combinations(range(Q.n + 1, Q.size + 1), P.m)
        ),
        key=lambda idx: idx[::-1],
    )
    for q_mem in enum_q.members:
        for idx in subsets:
            p_mem = enum_p.member_for(canonical_form(restrict(q_mem.reached, idx)))
            if p_mem is not None:
                return q_mem.witness, idx, p_mem.witness
    return None


def reference_bfs(B, budget):
    """The class enumeration of B, field for field, by the plain BFS: every
    child of every frontier member is canonicalized, except the child along
    the edge back to the member's discovering parent (its witness's last
    index), which mutation being an involution makes the parent itself."""
    from mutopo import canonical_form, mutate
    from mutopo.classes import ClassEnumeration, Member

    seed = canonical_form(B)
    n = seed.matrix.n
    members = {seed.hash: Member(seed, (), seed.matrix)}
    order = [members[seed.hash]]
    frontier = list(order)
    tripped, entry_witness, depth = set(), None, 0
    while frontier:
        if budget.max_depth is not None and depth == budget.max_depth:
            tripped.add("depth")
            break
        candidates = {}
        for mem in frontier:
            for k in range(1, n + 1):
                if mem.witness and k == mem.witness[-1]:
                    continue
                child = mutate(mem.reached, k)
                if child.max_abs_entry > budget.max_entry:
                    tripped.add("entry")
                    entry_witness = entry_witness or child
                    continue
                form = canonical_form(child)
                if form.hash in members:
                    assert members[form.hash].form.matrix == form.matrix
                    continue
                witness = mem.witness + (k,)
                prev = candidates.get(form.hash)
                if prev is None or witness < prev[1]:
                    candidates[form.hash] = (form, witness, child)
        frontier = []
        for hash_ in sorted(candidates, key=lambda h: candidates[h][0].key):
            if len(members) >= budget.max_members:
                tripped.add("members")
                break
            members[hash_] = Member(*candidates[hash_])
            order.append(members[hash_])
            frontier.append(members[hash_])
        if "members" in tripped:
            break
        depth += 1
    return ClassEnumeration(seed, tuple(order), frozenset(tripped), entry_witness, budget)


def reference_lex_min(B):
    """The canonical search with each frontier entry kept as a placed prefix
    and a list of cell lists: (flattened minimal matrix, one minimizing
    permutation new->old, 0-based).  ``canonical._lex_min`` must return
    exactly this pair, the permutation included."""
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


def reference_quiver_seeds(rank_cap, entry_cap):
    """``universe.iter_quiver_seeds``, seed for seed and in order."""
    from mutopo import build

    for size in range(1, rank_cap + 1):
        pairs = list(combinations(range(size), 2))
        for values in product(range(-entry_cap, entry_cap + 1), repeat=len(pairs)):
            rows = [[0] * size for _ in range(size)]
            for (i, j), v in zip(pairs, values):
                rows[i][j] = v
                rows[j][i] = -v
            yield build(size, 0, rows)


def reference_skew_seeds(rank_cap, entry_cap):
    """``universe.iter_skew_seeds``, seed for seed and in order."""
    from mutopo import build
    from mutopo.matrix import NotSkewSymmetrizable

    pair_options = [(0, 0)]
    for a in range(1, entry_cap + 1):
        for c in range(1, entry_cap + 1):
            pair_options.append((a, -c))
            pair_options.append((-a, c))
    for size in range(1, rank_cap + 1):
        pairs = list(combinations(range(size), 2))
        for m in range(size):
            n = size - m
            for values in product(pair_options, repeat=len(pairs)):
                rows = [[0] * size for _ in range(size)]
                for (i, j), (x, y) in zip(pairs, values):
                    rows[i][j] = x
                    rows[j][i] = y
                try:
                    yield build(n, m, rows)
                except NotSkewSymmetrizable:
                    continue
