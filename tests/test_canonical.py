import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutopo.classes
import oracles
from conftest import quiver, random_quiver, random_skew, type_a, type_d, type_e
from mutopo import (
    build,
    canonical_form,
    canonical_relabeling,
    content_hash,
    is_isomorphic,
    mutate,
)
from mutopo.canonical import _lex_min


def test_arrow_reversal_is_a_relabeling():
    fwd = quiver([[0, 1], [-1, 0]])
    rev = quiver([[0, -1], [1, 0]])
    assert canonical_form(fwd) == canonical_form(rev)


def test_source_and_sink_stars_differ():
    source = quiver([[0, -1, 0], [1, 0, 1], [0, -1, 0]])  # 1 <- 2 -> 3
    sink = quiver([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])  # 1 -> 2 <- 3
    assert canonical_form(source).hash != canonical_form(sink).hash
    assert not is_isomorphic(source, sink)


def test_zero_matrix_is_fixed(i2):
    assert canonical_form(i2).matrix == i2


def test_idempotent():
    rng = random.Random(23)
    for _ in range(50):
        B = random_skew(rng, rng.randint(1, 3), rng.randint(0, 2))
        form = canonical_form(B)
        again = canonical_form(form.matrix)
        assert again == form


def test_relabeling_applies(a3):
    perm = canonical_relabeling(a3)
    relabeled = [[a3.b[i - 1][j - 1] for j in perm] for i in perm]
    assert tuple(tuple(r) for r in relabeled) == canonical_form(a3).matrix.b


def test_matches_exhaustive_oracle_exhaustively_small():
    # every quiver on up to 3 vertices with entries in {-1, 0, 1}
    from itertools import combinations, product

    for size in (1, 2, 3):
        pairs = list(combinations(range(size), 2))
        for vals in product((-1, 0, 1), repeat=len(pairs)):
            rows = [[0] * size for _ in range(size)]
            for (i, j), v in zip(pairs, vals):
                rows[i][j] = v
                rows[j][i] = -v
            B = build(size, 0, rows)
            flat = tuple(v for row in canonical_form(B).matrix.b for v in row)
            assert flat == oracles.lexmin_relabeling(rows, size, 0)


def test_matches_exhaustive_oracle_random_with_frozen():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(0, 5 - n)
        B = random_skew(rng, n, m)
        flat = tuple(v for row in canonical_form(B).matrix.b for v in row)
        assert flat == oracles.lexmin_relabeling([list(r) for r in B.b], n, m)


def _assert_matches_oracle(B):
    form = canonical_form(B)
    flat = tuple(v for row in form.matrix.b for v in row)
    assert flat == oracles.lexmin_relabeling([list(r) for r in B.b], B.n, B.m)
    perm = canonical_relabeling(B)
    assert tuple(tuple(B.b[i - 1][j - 1] for j in perm) for i in perm) == form.matrix.b
    assert build(B.n, B.m, form.matrix.b).d == form.matrix.d


def test_matches_exhaustive_oracle_random_sizes_6_and_7():
    rng = random.Random(71)
    for _ in range(60):
        size = rng.randint(6, 7)
        n = rng.randint(1, size)
        B = random_skew(
            rng, n, size - n, max_ratio=rng.choice((1, 3)), max_weight=rng.randint(1, 2)
        )
        _assert_matches_oracle(B)


def _oriented(size, arrows):
    rows = [[0] * size for _ in range(size)]
    for i, j in arrows:
        rows[i][j] = 1
        rows[j][i] = -1
    return rows


@pytest.mark.parametrize(
    "n, m, rows",
    [
        (6, 0, _oriented(6, [])),
        (4, 3, _oriented(7, [])),
        (6, 0, _oriented(6, [(0, j) for j in range(1, 6)])),
        (3, 4, _oriented(7, [(0, j) for j in range(1, 7)])),
        (6, 0, _oriented(6, [(i, j) for i in range(3) for j in range(3, 6)])),
        (4, 2, _oriented(6, [(i, j) for i in (0, 1, 4) for j in (2, 3, 5)])),
        (6, 0, _oriented(6, [(0, 1), (2, 3), (4, 5)])),
        (4, 2, _oriented(6, [(0, 4), (1, 5), (2, 3)])),
        (6, 0, _oriented(6, [(i, (i + 1) % 6) for i in range(6)])),
        # mutable twins 1, 2 and frozen twins 5, 6
        (4, 3, _oriented(7, [(0, 2), (1, 2), (2, 3), (3, 0), (3, 1), (2, 4), (2, 5),
                             (6, 0), (6, 1)])),
        # equal rows, unequal columns: the merge must compare the entries
        # toward the placed indices, not only the cells
        (2, 1, [[0, 0, -3], [0, 0, -3], [3, 1, 0]]),
    ],
    ids=[
        "zero-6",
        "zero-4+3",
        "star-K1,5",
        "star-frozen-leaves",
        "K3,3",
        "K3,3-frozen",
        "3xA2",
        "3xA2-frozen",
        "cycle-6",
        "twins",
        "row-twins",
    ],
)
def test_matches_exhaustive_oracle_symmetric_shapes(n, m, rows):
    _assert_matches_oracle(build(n, m, rows))


@st.composite
def partitioned_matrices(draw):
    size = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=size))
    ratio = draw(st.sampled_from((1, 3)))
    weight = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    return random_skew(random.Random(seed), n, size - n, max_ratio=ratio, max_weight=weight)


@given(B=partitioned_matrices(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_relabeling_invariance_up_to_size_9(B, data):
    perm = data.draw(st.permutations(range(B.n))) + data.draw(
        st.permutations(range(B.n, B.size))
    )
    relabeled = build(B.n, B.m, [[B.b[i][j] for j in perm] for i in perm])
    form = canonical_form(B)
    assert canonical_form(relabeled) == form
    assert canonical_form(form.matrix) == form


def test_canonical_equality_iff_oracle_isomorphism():
    rng = random.Random(41)
    mats = [random_quiver(rng, 3, 1) for _ in range(40)]
    for A in mats[:20]:
        for B in mats[20:]:
            ours = canonical_form(A).hash == canonical_form(B).hash
            oracle = oracles.isomorphic(
                [list(r) for r in A.b], [list(r) for r in B.b], 3, 0
            )
            assert ours == oracle
            assert is_isomorphic(A, B) == oracle


def test_partition_is_respected():
    # same underlying matrix, different frozen split: never isomorphic
    plain = build(2, 0, [[0, 1], [-1, 0]])
    iced = build(1, 1, [[0, 1], [-1, 0]])
    assert plain.size == iced.size
    assert not is_isomorphic(plain, iced)
    assert canonical_form(plain).hash != canonical_form(iced).hash
    # equal canonical entries, different shapes: unequal forms, and neither
    # class's enumeration finds the other's form among its members
    plain_form = canonical_form(plain)
    iced_form = canonical_form(build(1, 1, [[0, -1], [1, 0]]))
    assert plain_form.key == iced_form.key
    assert plain_form != iced_form
    assert mutopo.classes.enumerate_class(plain).member_for(iced_form) is None
    assert mutopo.classes.enumerate_class(iced_form.matrix).member_for(plain_form) is None


def test_restriction_commutes_with_relabeling():
    # the canonical class of a restriction does not depend on how the
    # ambient matrix was labeled
    rng = random.Random(61)
    for _ in range(60):
        B = random_skew(rng, rng.randint(2, 3), rng.randint(0, 2))
        size = B.size
        perm = list(range(1, B.n + 1))
        rng.shuffle(perm)
        frozen_perm = list(range(B.n + 1, size + 1))
        rng.shuffle(frozen_perm)
        perm += frozen_perm  # new position -> old index, partition preserving
        relabeled = build(
            B.n, B.m, [[B.b[perm[x] - 1][perm[y] - 1] for y in range(size)] for x in range(size)]
        )
        keep_old = sorted(rng.sample(range(1, B.n + 1), rng.randint(1, B.n)))
        keep_new = sorted(perm.index(i) + 1 for i in keep_old)
        from mutopo import restrict

        assert canonical_form(restrict(B, keep_old)) == canonical_form(
            restrict(relabeled, keep_new)
        )


def test_markov_mutation_isomorphism(markov):
    assert is_isomorphic(markov, mutate(markov, 1))


def test_shape_mismatch_short_circuits(a2, a3):
    assert not is_isomorphic(a2, a3)


def test_entry_multiset_short_circuits(a2):
    assert not is_isomorphic(a2, quiver([[0, 2], [-2, 0]]))


def test_a_form_equals_only_forms(a3):
    # __eq__ returns NotImplemented for a non-form, so == falls back to identity
    assert not canonical_form(a3) == "a3" and canonical_form(a3) != "a3"


def test_hash_format(pt):
    form = canonical_form(pt)
    assert form.hash == content_hash(1, 0, (0,))
    assert len(form.hash) == 64
    assert form.hash == form.hash.lower()
    int(form.hash, 16)  # valid hex


# --- _lex_min returns the reference search's pair, permutation included ---


def _relabeled(rng, B):
    perm = rng.sample(range(B.n), B.n) + rng.sample(range(B.n, B.size), B.m)
    return build(B.n, B.m, [[B.b[i][j] for j in perm] for i in perm])


def _assert_same_as_reference(matrices):
    for B in matrices:
        assert _lex_min(B) == oracles.reference_lex_min(B), B


def test_lex_min_matches_reference_on_dynkin_enumerations(monkeypatch):
    # each seed, and every member's reached matrix mutated at every mutable
    # index: a superset of what the class BFS canonicalizes, with or without
    # its face rule, and so of the inputs _lex_min sees whatever the
    # canonical-form cache holds
    inputs, canonicalized = set(), set()

    def recording(B):
        canonicalized.add(B)
        return canonical_form(B)

    monkeypatch.setattr(mutopo.classes, "canonical_form", recording)
    for B in (type_a(7), type_d(7), type_e(6), type_e(7), type_a(8)):
        inputs.add(B)
        for mem in mutopo.classes.enumerate_class(B).members:
            inputs.update(mutate(mem.reached, k) for k in range(1, B.n + 1))
    assert canonicalized <= inputs
    assert len(inputs) > 5000
    _assert_same_as_reference(inputs)


def test_form_hash_is_the_content_hash_of_its_entries():
    for B in (type_a(7), type_d(7), type_e(6), type_e(7), type_a(8)):
        for mem in mutopo.classes.enumerate_class(B).members:
            form = mem.form
            assert form.hash == content_hash(form.n, form.m, form.key)
            matrix = form.matrix
            assert (matrix.n, matrix.m) == (form.n, form.m)
            assert tuple(v for row in matrix.b for v in row) == form.key


def test_lex_min_matches_reference_on_random_matrices_with_frozen_indices():
    rng = random.Random(83)
    matrices = []
    for _ in range(1700):
        size = rng.randint(1, 9)
        n = rng.randint(1, size)
        B = random_skew(
            rng, n, size - n, max_ratio=rng.choice((1, 3)), max_weight=rng.randint(0, 2)
        )
        matrices += [B, _relabeled(rng, B)]
    _assert_same_as_reference(matrices)


def test_lex_min_matches_reference_on_zero_matrices_and_tournaments():
    # the most ties: every candidate row of a zero matrix scores the same, and
    # a regular tournament's rows all have one entry multiset
    rng = random.Random(89)
    matrices = [
        build(n, size - n, _oriented(size, [])) for size in range(1, 10) for n in range(1, size + 1)
    ]
    for _ in range(400):
        size = rng.randint(2, 8)
        arrows = [
            (i, j) if rng.random() < 0.5 else (j, i) for i in range(size) for j in range(i + 1, size)
        ]
        n = rng.randint(1, size)
        B = build(n, size - n, _oriented(size, arrows))
        matrices += [B, _relabeled(rng, B)]
    for size in (3, 5, 7, 9):  # i -> i + 1, ..., i + (size - 1) / 2, mod size
        arrows = [(i, (i + d) % size) for i in range(size) for d in range(1, (size + 1) // 2)]
        matrices += [build(n, size - n, _oriented(size, arrows)) for n in range(1, size + 1)]
    _assert_same_as_reference(matrices)
