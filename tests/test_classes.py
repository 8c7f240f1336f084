import random

import pytest

import oracles
from conftest import quiver, random_quiver, weighted_pair
from mutopo import (
    Budget,
    Finiteness,
    Verdict,
    apply_sequence,
    build,
    canonical_form,
    class_key,
    disjoint_union,
    enumerate_class,
    is_mutation_finite,
    mutation_fingerprint,
    same_class,
)


class TestBudget:
    def test_defaults(self):
        b = Budget()
        assert (b.max_members, b.max_entry, b.max_depth) == (100_000, 64, None)

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError):
            Budget(max_members=0)
        with pytest.raises(ValueError):
            Budget(max_entry=0)
        with pytest.raises(ValueError):
            Budget(max_depth=0)

    def test_seed_must_fit(self, w333):
        with pytest.raises(ValueError):
            enumerate_class(w333, Budget(max_entry=2))


class TestEnumerate:
    def test_a2_is_a_singleton(self, a2):
        enum = enumerate_class(a2)
        assert enum.status == "CLOSED"
        assert enum.count == 1

    def test_a3_has_four_members(self, a3):
        enum = enumerate_class(a3)
        assert enum.status == "CLOSED"
        assert enum.count == 4
        expected = {
            canonical_form(quiver(rows)).hash
            for rows in (
                [[0, 1, 0], [-1, 0, 1], [0, -1, 0]],  # path
                [[0, -1, 0], [1, 0, 1], [0, -1, 0]],  # source star
                [[0, 1, 0], [-1, 0, -1], [0, 1, 0]],  # sink star
                [[0, -1, 1], [1, 0, -1], [-1, 1, 0]],  # oriented cycle
            )
        }
        assert enum.hashes == expected

    def test_markov_is_a_singleton(self, markov):
        enum = enumerate_class(markov)
        assert enum.status == "CLOSED"
        assert enum.count == 1

    def test_counts_match_naive_oracle(self, a2, a3, a4, markov):
        for B, n in ((a2, 2), (a3, 3), (a4, 4), (markov, 3)):
            members, closed = oracles.enumerate_class([list(r) for r in B.b], n)
            assert closed
            assert enumerate_class(B).count == len(members)

    def test_witnesses_replay(self, a3, cycle321):
        for B in (a3, cycle321):
            enum = enumerate_class(B, Budget(max_members=40))
            seed = enum.seed.matrix
            for mem in enum.members:
                replayed = apply_sequence(seed, mem.witness)
                assert replayed == mem.reached
                assert canonical_form(replayed).hash == mem.form.hash

    def test_witnesses_are_shortest(self, a3):
        enum = enumerate_class(a3)
        # path is the seed, the other three members are one mutation away
        lengths = sorted(len(mem.witness) for mem in enum.members)
        assert lengths == [0, 1, 1, 1]

    def test_seed_independence(self, a3):
        enums = [enumerate_class(mem.form.matrix) for mem in enumerate_class(a3).members]
        reference = enums[0].hashes
        assert all(e.hashes == reference for e in enums)

    def test_truncation_by_entry_cap(self, w333):
        enum = enumerate_class(w333, Budget(max_entry=6))
        assert enum.status == "TRUNCATED"
        assert "entry" in enum.tripped
        assert enum.entry_witness is not None
        assert enum.entry_witness.max_abs_entry > 6

    def test_truncation_by_member_cap(self, a3):
        enum = enumerate_class(a3, Budget(max_members=2))
        assert enum.status == "TRUNCATED"
        assert enum.count == 2
        assert "members" in enum.tripped

    def test_truncation_by_depth(self, a3):
        shallow = enumerate_class(a3, Budget(max_depth=1))
        assert shallow.status == "TRUNCATED"
        assert shallow.count == 4  # all members found, closure unverified
        deep = enumerate_class(a3, Budget(max_depth=2))
        assert deep.status == "CLOSED"

    def test_budget_monotone_in_members(self, a3):
        small = enumerate_class(a3, Budget(max_members=2))
        large = enumerate_class(a3, Budget(max_members=3))
        assert small.hashes <= large.hashes
        assert large.hashes <= enumerate_class(a3).hashes

    def test_budget_monotone_in_entry(self, w333):
        small = enumerate_class(w333, Budget(max_entry=8))
        large = enumerate_class(w333, Budget(max_entry=16))
        assert small.hashes <= large.hashes

    def test_closed_result_stable_under_enlargement(self, a3):
        base = enumerate_class(a3)
        bigger = enumerate_class(a3, Budget(max_members=500_000, max_entry=100))
        assert base.hashes == bigger.hashes
        assert bigger.status == "CLOSED"
        witnesses = {m.form.hash: m.witness for m in base.members}
        assert all(witnesses[m.form.hash] == m.witness for m in bigger.members)

    def test_rank2_classes_are_singletons(self):
        # mutation negates a rank-2 matrix, which is a relabeling
        for w in range(0, 11):
            enum = enumerate_class(weighted_pair(w), Budget(max_entry=max(w, 1)))
            assert enum.status == "CLOSED"
            assert enum.count == 1


class TestClassKey:
    def test_isomorphic_seeds_share_key(self):
        fwd = quiver([[0, 1], [-1, 0]])
        rev = quiver([[0, -1], [1, 0]])
        assert class_key(fwd) == class_key(rev)

    def test_whole_class_shares_key(self, a3):
        cycle = quiver([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        ka, kc = class_key(a3), class_key(cycle)
        assert ka.hash == kc.hash
        assert ka.status == "CLOSED"

    def test_truncated_status_propagates(self, w333):
        key = class_key(w333, Budget(max_entry=6))
        assert key.status == "TRUNCATED"


class TestSameClass:
    def test_path_and_cycle(self, a3):
        cycle = quiver([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        assert same_class(a3, cycle) is Verdict.YES

    def test_distinct_rank2_weights(self, a2):
        assert same_class(a2, weighted_pair(2)) is Verdict.NO

    def test_reflexive(self, markov):
        assert same_class(markov, markov) is Verdict.YES

    def test_shape_mismatch(self, a2, a3):
        assert same_class(a2, a3) is Verdict.NO

    def test_wild_pair_separated_by_invariants(self):
        double_path = quiver([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
        all2_triangle = quiver([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]])
        assert same_class(double_path, all2_triangle) is Verdict.NO

    def test_unknown_without_the_rank3_invariant(self):
        # same elementary fingerprint; only the rank-3 weight invariant separates
        triangle = quiver([[0, 2, 1], [-2, 0, 1], [-1, -1, 0]])
        star = quiver([[0, 2, 1], [-2, 0, 0], [-1, 0, 0]])
        assert same_class(triangle, star) is Verdict.NO

    def test_acyclic_orbit_separates_equal_weight_invariants(self):
        # triangle vs two-edge path with the same weight invariant: only the
        # acyclic reading orbits tell them apart
        triangle = quiver([[0, 2, 2], [-2, 0, 1], [-2, -1, 0]])
        star = quiver([[0, 3, 2], [-3, 0, 0], [-2, 0, 0]])
        assert same_class(triangle, star) is Verdict.NO

    def test_unknown_within_one_wild_class_under_budget(self):
        # both seeds sit in one cluster-cyclic class, but a one-member budget
        # cannot connect them and no acyclic member ever appears
        A = quiver([[0, 3, -2], [-3, 0, 3], [2, -3, 0]])
        B = apply_sequence(A, [1, 2])
        assert same_class(A, B, Budget(max_members=1)) is Verdict.UNKNOWN
        assert same_class(A, B) is Verdict.YES

    def test_closed_class_resolves_against_wild_seed(self, markov):
        wild = quiver([[0, 2, -2], [-2, 0, 3], [2, -3, 0]])
        assert same_class(markov, wild) is Verdict.NO

    def test_matches_oracle_on_small_quivers(self):
        rng = random.Random(57)
        mats = [random_quiver(rng, 3, 1) for _ in range(12)]
        for A in mats[:6]:
            for B in mats[6:]:
                oracle = oracles.same_class(
                    [list(r) for r in A.b], [list(r) for r in B.b], 3
                )
                if oracle != "UNKNOWN":
                    assert same_class(A, B).value == oracle


class TestRank3Structure:
    """Empirical checks of the two classification facts the wild-class
    separators rely on."""

    def test_weight_invariant_constant_across_whole_classes(self):
        from mutopo.classes import _rank3_weight_invariant

        rng = random.Random(0x3C)
        for _ in range(40):
            B = random_quiver(rng, 3, 3)
            if not B.is_connected:
                continue
            enum = enumerate_class(B, Budget(max_members=200))
            value = _rank3_weight_invariant(B)
            for mem in enum.members:
                assert _rank3_weight_invariant(mem.form.matrix) == value

    def test_acyclic_members_share_one_reading_orbit(self):
        from mutopo.classes import rank3_acyclic_orbit
        from mutopo.matrix import is_acyclic

        rng = random.Random(0x0B)
        checked = 0
        for _ in range(60):
            B = random_quiver(rng, 3, 3)
            if not B.is_connected:
                continue
            enum = enumerate_class(B, Budget(max_members=300))
            orbit = rank3_acyclic_orbit(B, enum)
            if orbit is None:
                continue
            checked += 1
            for mem in enum.members:
                mat = mem.form.matrix
                if not is_acyclic(mat):
                    continue
                singleton = enumerate_class(mat, Budget(max_members=1))
                readings = rank3_acyclic_orbit(mat, singleton)
                assert readings <= orbit
        assert checked > 20

    def test_zero_pair_free_examples(self, cycle321, w333, a3):
        from mutopo.classes import rank3_zero_pair_free

        enum = enumerate_class(cycle321)
        assert rank3_zero_pair_free(cycle321, enum) is True
        enum = enumerate_class(w333)
        assert rank3_zero_pair_free(w333, enum) is None  # no acyclic member found
        enum = enumerate_class(a3)
        assert rank3_zero_pair_free(a3, enum) is False  # the path drops a pair


class TestFingerprint:
    def test_invariant_under_mutation(self):
        rng = random.Random(71)
        for _ in range(300):
            size = rng.randint(2, 4)
            B = random_quiver(rng, size, 3)
            fp = mutation_fingerprint(B)
            k = rng.randint(1, size)
            assert mutation_fingerprint(apply_sequence(B, [k])) == fp

    def test_separates_component_structure(self, a3, markov):
        disc = quiver([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
        assert mutation_fingerprint(disc) != mutation_fingerprint(a3)
        assert mutation_fingerprint(a3) != mutation_fingerprint(markov)


class TestFiniteness:
    def test_a3_finite(self, a3):
        fv = is_mutation_finite(a3)
        assert fv.kind is Finiteness.FINITE
        assert fv.members == 4

    def test_markov_finite(self, markov):
        fv = is_mutation_finite(markov)
        assert fv.kind is Finiteness.FINITE
        assert fv.members == 1

    def test_weight3_cycle_infinite(self, w333):
        fv = is_mutation_finite(w333)
        assert fv.kind is Finiteness.INFINITE
        assert fv.offender is not None
        assert fv.offender.max_abs_entry > 2

    def test_infinite_via_mutation_growth(self):
        double_path = quiver([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
        fv = is_mutation_finite(double_path)
        assert fv.kind is Finiteness.INFINITE
        # the offending matrix really is in the class: seed entries are <= 2
        assert fv.offender.max_abs_entry > 2

    def test_early_exit_flag_off_gives_unknown(self, w333):
        fv = is_mutation_finite(w333, infinite_exit=False)
        assert fv.kind is Finiteness.UNKNOWN

    def test_disconnected_falls_back_to_unknown(self, w333, pt):
        fv = is_mutation_finite(disjoint_union(w333, pt), Budget(max_members=500))
        assert fv.kind is Finiteness.UNKNOWN

    def test_rank2_always_finite(self):
        fv = is_mutation_finite(weighted_pair(5))
        assert fv.kind is Finiteness.FINITE

    def test_skew_symmetrizable_falls_back(self):
        B = build(3, 0, [[0, 2, -2], [-1, 0, 1], [2, -2, 0]])
        assert not B.is_skew_symmetric
        fv = is_mutation_finite(B, Budget(max_members=200))
        assert fv.kind in (Finiteness.FINITE, Finiteness.UNKNOWN)


def _tree_quiver(size, edges):
    """Quiver of a tree with every edge (i, j) oriented i -> j, 1-based."""
    rows = [[0] * size for _ in range(size)]
    for i, j in edges:
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    return quiver(rows)


def _type_a(n):
    return _tree_quiver(n, [(i, i + 1) for i in range(1, n)])


def _type_d(n):
    return _tree_quiver(n, [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)])


def _type_e(n):
    return _tree_quiver(n, [(i, i + 1) for i in range(1, n - 1)] + [(3, n)])


@pytest.mark.parametrize(
    "B, members",
    [
        (_type_a(3), 4),
        (_type_a(4), 6),
        (_type_a(5), 19),
        (_type_a(6), 49),
        (_type_a(7), 150),
        (_type_a(8), 442),
        (_type_d(5), 26),
        (_type_d(6), 80),
        (_type_d(7), 246),
        (_type_e(6), 67),
        (_type_e(7), 416),
        (_type_e(8), 1574),
    ],
    ids=["A3", "A4", "A5", "A6", "A7", "A8", "D5", "D6", "D7", "E6", "E7", "E8"],
)
def test_dynkin_class_sizes(B, members):
    # published counts: Torkildsen 2008 (type A), Buan-Torkildsen 2009 (type D);
    # E6-E8 are the class sizes listed by SageMath's
    # QuiverMutationType.class_size
    enum = enumerate_class(B)
    assert enum.status == "CLOSED"
    assert enum.count == members
