import random
from itertools import permutations

import pytest

import mutopo.canonical as canonical_module
import mutopo.classes as classes_module
import oracles
from conftest import (
    member_hashes,
    quiver,
    random_quiver,
    random_skew,
    tree_quiver,
    type_a,
    type_d,
    type_e,
    weighted_pair,
)
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
from mutopo.store import Store


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

    def test_caps_must_be_integers(self):
        # refused where the budget is built, not where the BFS first reads a cap
        for caps in ({"max_entry": None}, {"max_members": None}, {"max_entry": 2.5},
                     {"max_members": 10.0}, {"max_depth": 1.5}, {"max_entry": "8"},
                     {"max_entry": True}, {"max_depth": False}):
            with pytest.raises(TypeError):
                Budget(**caps)
        assert Budget(max_depth=None).max_depth is None

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
        assert member_hashes(enum) == expected

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
        reference = member_hashes(enums[0])
        assert all(member_hashes(e) == reference for e in enums)

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
        assert member_hashes(small) <= member_hashes(large)
        assert member_hashes(large) <= member_hashes(enumerate_class(a3))

    def test_budget_monotone_in_entry(self, w333):
        small = enumerate_class(w333, Budget(max_entry=8))
        large = enumerate_class(w333, Budget(max_entry=16))
        assert member_hashes(small) <= member_hashes(large)

    def test_closed_result_stable_under_enlargement(self, a3):
        base = enumerate_class(a3)
        bigger = enumerate_class(a3, Budget(max_members=500_000, max_entry=100))
        assert member_hashes(base) == member_hashes(bigger)
        assert bigger.status == "CLOSED"
        witnesses = {m.form.hash: m.witness for m in base.members}
        assert all(witnesses[m.form.hash] == m.witness for m in bigger.members)

    def test_rank2_classes_are_singletons(self):
        # mutation negates a rank-2 matrix, which is a relabeling
        for w in range(0, 11):
            enum = enumerate_class(weighted_pair(w), Budget(max_entry=max(w, 1)))
            assert enum.status == "CLOSED"
            assert enum.count == 1


def _automorphisms(B):
    """Partition-preserving relabelings that carry B to itself."""
    b, size = B.b, B.size
    perms = (
        mut + fro for mut in permutations(range(B.n)) for fro in permutations(range(B.n, size))
    )
    return sum(
        all(b[p[i]][p[j]] == b[i][j] for i in range(size) for j in range(size)) for p in perms
    )


_BFS_CASES = {
    "A8": (type_a(8), Budget(), set()),
    "D7": (type_d(7), Budget(), set()),
    "E7": (type_e(7), Budget(), set()),
    "members-cap": (type_a(8), Budget(max_members=200), {"members"}),
    "entry-cap": (
        quiver([
            [0, 2, 0, 0, 0],
            [-2, 0, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 0, -1, 0, 1],
            [0, 0, 0, -1, 0],
        ]),
        Budget(max_entry=4),
        {"entry"},
    ),
    "depth-cap": (type_e(8), Budget(max_depth=4), {"depth"}),
    "frozen": (
        build(4, 2, [
            [0, 1, 0, 0, 1, 0],
            [-1, 0, 1, 0, 0, 1],
            [0, -1, 0, 1, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [-1, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
        ]),
        Budget(),
        set(),
    ),
    "B5-skew": (
        build(5, 0, [
            [0, 1, 0, 0, 0],
            [-1, 0, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 0, -1, 0, 2],
            [0, 0, 0, -1, 0],
        ]),
        Budget(),
        set(),
    ),
    "D4-star": (tree_quiver(4, [(1, 4), (2, 4), (3, 4)]), Budget(), set()),
    "affine-D4-star": (tree_quiver(5, [(1, 5), (2, 5), (3, 5), (4, 5)]), Budget(), set()),
}


class TestEdgeRule:
    """The BFS canonicalizes each exchange-graph edge from one end only; the
    plain BFS of :func:`oracles.reference_bfs` fixes what it must return."""

    @staticmethod
    def assert_matches_reference(B, budget):
        enum = enumerate_class(B, budget)
        ref = oracles.reference_bfs(B, budget)
        assert enum.seed == ref.seed
        assert [m.form for m in enum.members] == [m.form for m in ref.members]
        assert [m.witness for m in enum.members] == [m.witness for m in ref.members]
        assert [m.reached for m in enum.members] == [m.reached for m in ref.members]
        assert enum.status == ref.status
        assert enum.tripped == ref.tripped
        assert enum.entry_witness == ref.entry_witness
        assert enum.budget == ref.budget
        return enum

    @pytest.mark.parametrize("case", list(_BFS_CASES))
    def test_matches_reference_bfs(self, case):
        B, budget, tripped = _BFS_CASES[case]
        enum = self.assert_matches_reference(B, budget)
        assert enum.tripped == tripped
        if case == "B5-skew":
            assert not enum.seed.matrix.is_skew_symmetric
        if case.endswith("star"):
            # one relabeling stands for several at every member
            assert all(_automorphisms(m.form.matrix) > 1 for m in enum.members)

    def test_matches_reference_bfs_on_random_seeds(self):
        rng = random.Random(13)
        for trial in range(60):
            size = rng.choice([3, 4, 5])
            if trial % 3 == 0:
                n = rng.randint(1, size)
                B = random_skew(rng, n, size - n)
            else:
                B = random_quiver(rng, size, rng.choice([1, 2]))
            budget = Budget(
                max_members=rng.choice([20, 200, 2000]),
                max_entry=max(B.max_abs_entry, rng.choice([2, 3, 8])),
                max_depth=rng.choice([None, 3, 6]),
            )
            self.assert_matches_reference(B, budget)

    @pytest.mark.parametrize("family, top", [
        ("quiver", 1), ("quiver", 2), ("quiver", 3),
        # a sign-coherent pair of entries at most 1 in size is skew-symmetric
        ("skew", 2), ("skew", 3),
        ("frozen", 1), ("frozen", 2), ("frozen", 3),
    ])
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_matches_reference_bfs_at_the_entry_bound(self, family, top, offset):
        # every entry of the seed is at most top in size, and mutation at k
        # reaches top*(top + 1), the most a child can: a two-path i -> k -> j
        # of weight top beside an arrow i -> j of weight top
        w = top
        B, k, i, j = {
            "quiver": (quiver([[0, w, w, 0], [-w, 0, -w, 0], [-w, w, 0, 1], [0, 0, -1, 0]]),
                       3, 0, 1),
            "skew": (build(4, 0, [[0, w, w, 0], [-w, 0, -w, 0], [-w, w, 0, 1], [0, 0, -w, 0]]),
                     3, 0, 1),
            "frozen": (build(3, 1, [[0, w, 0, -w], [-w, 0, 1, -w], [0, -1, 0, 0], [w, w, 0, 0]]),
                       1, 3, 1),
        }[family]
        assert B.max_abs_entry == top
        assert B.is_skew_symmetric == (family != "skew")
        child = apply_sequence(B, [k])
        assert child.b[i][j] == child.max_abs_entry == top * (top + 1)
        cap = top * (top + 1) + offset
        enum = self.assert_matches_reference(B, Budget(max_members=300, max_entry=cap))
        if offset < 0:  # the members of largest entry top must still scan
            assert "entry" in enum.tripped
        else:
            assert canonical_form(child) in enum.forms

    def test_each_edge_is_canonicalized_from_one_end(self, monkeypatch):
        calls = []
        canonical = classes_module.canonical_form
        monkeypatch.setattr(
            classes_module, "canonical_form", lambda B: calls.append(B) or canonical(B)
        )
        enumerate_class(type_a(8))
        # 1,769 calls; canonicalizing both ends of every edge but the one to
        # the discovering parent takes 3,096, and a BFS that went round the
        # hook would record none
        assert 1_000 < len(calls) < 2_000


def test_an_enumeration_hashes_only_the_name_it_is_stored_under(monkeypatch):
    # members are keyed by their exact canonical entries; the SHA-256 name is
    # computed where one is read, here the in-memory store's key for the seed
    calls = []
    real = canonical_module.content_hash
    monkeypatch.setattr(
        canonical_module, "content_hash", lambda *args: calls.append(args) or real(*args)
    )
    canonical_module._canonical.cache_clear()  # no cached form has its name read
    enumerate_class(type_a(7))
    assert calls == []
    enumerate_class(type_a(7), store=Store())
    assert len(calls) == 1


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
        # the reflection orbit is the class's whole acyclic part: every
        # acyclic member lies in it and reflects to exactly the same orbit
        from mutopo.matrix import is_acyclic

        rng = random.Random(0x0B)
        checked = 0
        for _ in range(60):
            B = random_quiver(rng, 3, 3)
            if not B.is_connected:
                continue
            enum = enumerate_class(B, Budget(max_members=300))
            orbit = enum.reflection_orbit
            if orbit is None:
                continue
            checked += 1
            assert all(is_acyclic(form.matrix) for form in orbit)
            for mem in enum.members:
                mat = mem.form.matrix
                if not is_acyclic(mat):
                    continue
                assert mem.form in orbit
                singleton = enumerate_class(mat, Budget(max_members=1))
                assert singleton.reflection_orbit == orbit
        assert checked > 20

    def test_zero_pair_free_examples(self, cycle321, w333, a3, a4):
        from mutopo.classes import abundance

        # TRUNCATED, but its reflection orbit arrows every pair
        assert abundance(enumerate_class(cycle321), 1) is Verdict.YES
        enum = enumerate_class(w333)
        assert enum.reflection_orbit is None  # no acyclic member found
        assert abundance(enum, 1) is Verdict.YES  # but a BBH member
        assert abundance(enumerate_class(a3), 1) is Verdict.NO  # the path drops a pair
        assert abundance(enumerate_class(a4), 1) is Verdict.NO  # CLOSED, drops a pair


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


@pytest.mark.parametrize(
    "B, members",
    [
        (type_a(3), 4),
        (type_a(4), 6),
        (type_a(5), 19),
        (type_a(6), 49),
        (type_a(7), 150),
        (type_a(8), 442),
        (type_d(5), 26),
        (type_d(6), 80),
        (type_d(7), 246),
        (type_e(6), 67),
        (type_e(7), 416),
        (type_e(8), 1574),
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
