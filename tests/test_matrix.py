import random
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_quiver, random_skew, weighted_pair
from mutopo import (
    EmptySubset,
    FrozenMutation,
    NotSkewSymmetrizable,
    apply_sequence,
    build,
    canonical_form,
    disjoint_union,
    from_inline,
    from_json_dict,
    from_text,
    is_acyclic,
    is_isomorphic,
    mutate,
    restrict,
    to_inline,
    to_json_dict,
    to_text,
)


class TestBuild:
    def test_symmetrizer_rank2(self):
        B = build(2, 0, [[0, 1], [-2, 0]])
        assert B.d == (2, 1)

    def test_skew_symmetric_gets_all_ones(self, a3):
        assert a3.d == (1, 1, 1)

    def test_sign_coherence_rejected(self):
        with pytest.raises(NotSkewSymmetrizable, match=r"^sign coherence fails at pair \(1,2\)$"):
            build(2, 0, [[0, 1], [1, 0]])

    def test_half_zero_pair_rejected(self):
        with pytest.raises(NotSkewSymmetrizable, match=r"^sign coherence fails at pair \(1,2\)$"):
            build(2, 0, [[0, 1], [0, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(NotSkewSymmetrizable, match=r"^nonzero diagonal entry at index 1$"):
            build(2, 0, [[1, 1], [-1, 0]])

    def test_inconsistent_cycle_rejected(self):
        # propagation forces d3 = d1 along 1-2-3 but d3 = d1/2 along 1-3
        rows = [[0, 1, 1], [-1, 0, 1], [-2, -1, 0]]
        with pytest.raises(NotSkewSymmetrizable, match="inconsistency at pair"):
            build(3, 0, rows)

    # a valid 4x4 with one frozen index, d = (1, 2, 1, 3), and every pair
    # nonzero, so the search meets a defect as a tree edge or a non-tree edge
    VALID = [[0, 2, -1, 3], [-1, 0, 1, -3], [1, -2, 0, 3], [-1, 2, -1, 0]]

    @staticmethod
    def _pair(i, j):
        """The message for the pair i, j (0-based), named in either order."""
        return rf"^sign coherence fails at pair \(({i + 1},{j + 1}|{j + 1},{i + 1})\)$"

    def test_the_defect_fixture_is_valid(self):
        B = build(3, 1, self.VALID)
        assert B.d == (1, 2, 1, 3) and B.is_connected

    @pytest.mark.parametrize("i", range(4))
    def test_each_nonzero_diagonal_entry_rejected(self, i):
        rows = [list(row) for row in self.VALID]
        rows[i][i] = 1
        message = rf"^nonzero diagonal entry at index {i + 1}$"
        with pytest.raises(NotSkewSymmetrizable, match=message):
            build(3, 1, rows)

    @pytest.mark.parametrize("i, j", permutations(range(4), 2))
    def test_each_same_sign_pair_rejected(self, i, j):
        rows = [list(row) for row in self.VALID]
        rows[i][j] = -rows[i][j]  # b_ij and b_ji now share a sign
        with pytest.raises(NotSkewSymmetrizable, match=self._pair(i, j)):
            build(3, 1, rows)

    @pytest.mark.parametrize("i, j", permutations(range(4), 2))
    def test_each_half_zero_pair_rejected(self, i, j):
        rows = [list(row) for row in self.VALID]
        rows[i][j] = 0  # b_ji stays nonzero
        with pytest.raises(NotSkewSymmetrizable, match=self._pair(i, j)):
            build(3, 1, rows)

    def test_no_mutable_indices_rejected(self):
        with pytest.raises(ValueError):
            build(0, 1, [[0]])

    def test_negative_frozen_count_rejected(self):
        with pytest.raises(ValueError, match="^frozen index count must be non-negative$"):
            build(1, -1, [[0]])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            build(2, 0, [[0, 1, 0], [-1, 0, 0]])

    def test_symmetrizer_normalized_per_component(self):
        # component {1,2} needs d = (2,1); isolated index gets 1
        B = build(3, 0, [[0, 1, 0], [-2, 0, 0], [0, 0, 0]])
        assert B.d == (2, 1, 1)

    def test_frozen_split_recorded(self):
        B = build(1, 1, [[0, 1], [-1, 0]])
        assert (B.n, B.m, B.size) == (1, 1, 2)


class TestMutate:
    def test_rank2_sign_flip(self, a2):
        assert mutate(a2, 1).b == ((0, -1), (1, 0))

    def test_a3_at_middle_gives_oriented_cycle(self, a3):
        assert mutate(a3, 2).b == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_markov_mutation_is_isomorphic_swap(self, markov):
        out = mutate(markov, 1)
        assert out.b == ((0, -2, 2), (2, 0, -2), (-2, 2, 0))
        swapped = build(3, 0, [[out.b[p][q] for q in (0, 2, 1)] for p in (0, 2, 1)])
        assert swapped.b == markov.b
        assert is_isomorphic(out, markov)

    def test_frozen_index_rejected(self):
        B = build(1, 1, [[0, 1], [-1, 0]])
        with pytest.raises(FrozenMutation):
            mutate(B, 2)
        assert mutate(B, 1).b == ((0, -1), (1, 0))

    def test_out_of_range_rejected(self, a3):
        with pytest.raises(FrozenMutation):
            mutate(a3, 0)
        with pytest.raises(FrozenMutation):
            mutate(a3, 4)

    def test_shares_exactly_the_rows_with_no_entry_toward_k(self):
        # a row that mutation leaves alone is not rebuilt: the child shares it
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 5)
            B = random_skew(rng, n, rng.randint(0, 2), max_weight=rng.randint(0, 2))
            k = rng.randint(1, n)
            out = mutate(B, k)
            for i, (new, old) in enumerate(zip(out.b, B.b)):
                assert (new is old) == (i != k - 1 and old[k - 1] == 0)

    def test_matches_graph_rules_on_samples(self):
        rng = random.Random(7)
        for _ in range(200):
            size = rng.randint(2, 5)
            B = random_quiver(rng, size, 3)
            k = rng.randint(1, size)
            expected = oracles.graph_mutate([list(r) for r in B.b], k)
            assert [list(r) for r in mutate(B, k).b] == expected


def _skew_by_entries(B) -> bool:
    """The reference for ``is_skew_symmetric``: every b[i][j] == -b[j][i]."""
    return all(B.b[i][j] == -B.b[j][i] for i in range(B.size) for j in range(B.size))


@st.composite
def skew_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    return random_skew(random.Random(seed), n, m)


@st.composite
def square_integer_matrices(draw):
    """Square integer matrices of size <= 6: skew-symmetrizable by
    construction (b[i][j] = s*d[j]/g, b[j][i] = -s*d[i]/g), sign-coherent
    with random magnitudes (mostly not symmetrizable), or arbitrary."""
    size = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["symmetrizable", "coherent", "arbitrary"]))
    d = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if kind == "arbitrary":
                rows[i][j] = draw(st.integers(-3, 3))
            elif j > i and kind == "symmetrizable":
                s, g = draw(st.integers(-2, 2)), gcd(d[i], d[j])
                rows[i][j], rows[j][i] = s * d[j] // g, -s * d[i] // g
            elif j > i:
                s = draw(st.sampled_from([0, 1, -1]))
                rows[i][j], rows[j][i] = s * draw(st.integers(1, 4)), -s * draw(st.integers(1, 4))
    return rows


class TestMutationProperties:
    @given(B=skew_matrices(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_formula(self, B, data):
        # frozen and skew-symmetrizable, where the graph rules do not apply
        k = data.draw(st.integers(min_value=1, max_value=B.n))
        expected = oracles.matrix_mutate([list(r) for r in B.b], k)
        assert [list(r) for r in mutate(B, k).b] == expected

    @given(B=skew_matrices(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_involution(self, B, data):
        k = data.draw(st.integers(min_value=1, max_value=B.n))
        assert mutate(mutate(B, k), k).b == B.b

    @given(B=skew_matrices(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_symmetrizer_still_valid_after_mutation(self, B, data):
        k = data.draw(st.integers(min_value=1, max_value=B.n))
        out = mutate(B, k)
        assert out.d == B.d
        for i in range(out.size):
            for j in range(out.size):
                assert out.d[i] * out.b[i][j] == -out.d[j] * out.b[j][i]

    @given(B=skew_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rebuild_reproduces_symmetrizer(self, B):
        assert build(B.n, B.m, B.b).d == B.d

    @given(rows=square_integer_matrices())
    @settings(max_examples=400, deadline=None)
    def test_symmetrizer_matches_fraction_reference(self, rows):
        expected = oracles.symmetrizer(rows)
        if expected is None:
            with pytest.raises(NotSkewSymmetrizable):
                build(len(rows), 0, rows)
        else:
            B = build(len(rows), 0, rows)
            assert B.d == expected
            assert B.is_skew_symmetric == _skew_by_entries(B)


class TestRestrict:
    def test_a3_outer_pair_is_arrowless(self, a3):
        assert restrict(a3, [1, 3]).b == ((0, 0), (0, 0))

    def test_a3_first_pair_is_a2(self, a3, a2):
        assert restrict(a3, [1, 2]).b == a2.b

    def test_full_subset_is_identity(self, a3):
        assert restrict(a3, [1, 2, 3]) == a3

    def test_empty_rejected(self, a3):
        with pytest.raises(EmptySubset):
            restrict(a3, [])

    def test_all_frozen_rejected(self):
        B = build(1, 2, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        with pytest.raises(EmptySubset):
            restrict(B, [2, 3])

    def test_duplicates_rejected(self, a3):
        with pytest.raises(ValueError):
            restrict(a3, [1, 1])

    @pytest.mark.parametrize("i", [0, 4])
    def test_out_of_range_rejected(self, a3, i):
        with pytest.raises(ValueError, match=rf"^index {i} out of range 1\.\.3$"):
            restrict(a3, [i])

    def test_statuses_preserved(self):
        B = build(2, 1, [[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        sub = restrict(B, [2, 3])
        assert (sub.n, sub.m) == (1, 1)

    def test_symmetrizer_renormalizes(self):
        B = build(2, 0, [[0, 1], [-2, 0]])  # d = (2, 1)
        assert restrict(B, [1]).d == (1,)


class TestDisjointUnion:
    def test_pt_pt(self, pt, i2):
        assert disjoint_union(pt, pt).b == i2.b

    def test_a2_a2_is_one_object_or_two(self, a2):
        copy = build(2, 0, [list(row) for row in a2.b])
        assert copy is not a2
        assert disjoint_union(a2, a2) == disjoint_union(a2, copy)
        assert not disjoint_union(a2, a2).is_connected

    def test_a2_pt(self, a2, pt):
        assert disjoint_union(a2, pt).b == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))

    def test_blocks_recover_factors(self, a3, markov):
        R = disjoint_union(a3, markov)
        assert restrict(R, [1, 2, 3]) == a3
        assert restrict(R, [4, 5, 6]) == markov

    def test_frozen_blocks_interleave(self):
        P = build(1, 1, [[0, 1], [-1, 0]])
        Q = build(1, 1, [[0, 2], [-2, 0]])
        R = disjoint_union(P, Q)
        assert (R.n, R.m) == (2, 2)
        assert restrict(R, [1, 3]) == P
        assert restrict(R, [2, 4]) == Q

    def test_commutative_and_associative_up_to_isomorphism(self):
        rng = random.Random(13)
        for _ in range(25):
            P = random_quiver(rng, rng.randint(1, 3), 2)
            Q = random_quiver(rng, rng.randint(1, 3), 2)
            R = random_quiver(rng, rng.randint(1, 2), 2)
            assert is_isomorphic(disjoint_union(P, Q), disjoint_union(Q, P))
            assert is_isomorphic(
                disjoint_union(disjoint_union(P, Q), R),
                disjoint_union(P, disjoint_union(Q, R)),
            )


class TestIsAcyclic:
    def test_path(self, a3):
        assert is_acyclic(a3)

    def test_oriented_cycle(self, a3):
        assert not is_acyclic(mutate(a3, 2))

    def test_arrowless(self, i2):
        assert is_acyclic(i2)

    def test_only_mutable_part_counts(self):
        # mutable pair is acyclic; arrows through the frozen index are ignored
        B = build(2, 1, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
        assert is_acyclic(B)

    def test_matches_brute_force_orderings(self):
        # acyclic iff some ordering of the mutable indices sends every arrow
        # between them forward; frozen indices never count
        rng = random.Random(0xAC)
        outcomes = {True: 0, False: 0}
        for _ in range(400):
            n = rng.randint(1, 6)
            B = random_skew(rng, n, rng.randint(0, 6 - n), max_weight=rng.randint(1, 2))
            expected = any(
                all(B.b[i][j] <= 0 or order.index(i) < order.index(j)
                    for i in range(n) for j in range(n))
                for order in permutations(range(n))
            )
            assert is_acyclic(B) is expected
            outcomes[expected] += 1
        assert min(outcomes.values()) > 50


class TestFormats:
    def test_json_round_trip(self, a3):
        assert from_json_dict(to_json_dict(a3)) == a3

    def test_json_keys(self, a3):
        obj = to_json_dict(a3)
        assert set(obj) == {"mutable", "frozen", "b"}
        assert obj["mutable"] == 3 and obj["frozen"] == 0

    def test_json_missing_key(self):
        with pytest.raises(ValueError, match="^matrix object is missing key 'b'$"):
            from_json_dict({"mutable": 1, "frozen": 0})

    def test_text_round_trip(self):
        B = build(1, 1, [[0, 2], [-1, 0]])
        assert from_text(to_text(B)) == B

    def test_text_format_shape(self, a2):
        assert to_text(a2) == "2 0\n0 1\n-1 0"

    @pytest.mark.parametrize("text, message", [
        ("", "^expected a first line 'n m' followed by matrix rows$"),
        ("2 0 0 1 -1", "^expected 4 entries, got 3$"),
    ], ids=["empty", "short"])
    def test_text_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_text(text)

    def test_inline(self):
        assert from_inline("0 1;-1 0") == weighted_pair(1)
        assert from_inline("0 1;-1 0", frozen=1).m == 1

    def test_inline_round_trip(self, pt, a3, markov, cycle321):
        rng = random.Random(7)
        frozen = [build(1, 1, [[0, 2], [-1, 0]])] + [random_skew(rng, 3, 2) for _ in range(20)]
        for B in [pt, a3, markov, cycle321, *frozen]:
            assert from_inline(to_inline(B), B.m) == B
        assert to_inline(a3) == "0 1 0;-1 0 1;0 -1 0"

    def test_sequences(self, a3):
        assert apply_sequence(a3, []) == a3
        assert apply_sequence(a3, [2, 2]) == a3


@st.composite
def non_skew_frozen_matrices(draw):
    """Skew-symmetrizable, not skew-symmetric, with at least one frozen index:
    b[i][j] = s[i][j] * d[j] for skew-symmetric s and positive d."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=2))
    size = n + m
    d = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            s = draw(st.integers(-2, 2))
            rows[i][j] = s * d[j]
            rows[j][i] = -s * d[i]
    B = build(n, m, rows)
    assume(not B.is_skew_symmetric)
    return B


class TestValidateOnce:
    """Operations on valid matrices skip `build`; they must agree with it."""

    @given(B=non_skew_frozen_matrices())
    @settings(max_examples=150, deadline=None)
    def test_build_symmetrizer_is_normalized(self, B):
        assert all(v > 0 for v in B.d)
        for comp in B.components():
            assert gcd(*(B.d[i - 1] for i in comp)) == 1
        for i in range(B.size):
            for j in range(B.size):
                assert B.d[i] * B.b[i][j] == -B.d[j] * B.b[j][i]
        assert B.is_skew_symmetric == _skew_by_entries(B)

    @given(B=non_skew_frozen_matrices(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_restrict_agrees_with_build(self, B, data):
        subset = data.draw(
            st.lists(st.integers(1, B.size), min_size=1, unique=True).filter(
                lambda s: any(i <= B.n for i in s)
            )
        )
        mutable = [i for i in subset if i <= B.n]
        frozen = [i for i in subset if i > B.n]
        order = mutable + frozen
        rows = [[B.b[i - 1][j - 1] for j in order] for i in order]
        assert restrict(B, subset) == build(len(mutable), len(frozen), rows)

    @given(B=non_skew_frozen_matrices())
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_agrees_with_build(self, B):
        C = canonical_form(B).matrix
        assert C == build(C.n, C.m, C.b)
