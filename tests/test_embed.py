import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

import mutopo.embed as embed_module
import oracles
from mutopo.classes import abundance, acyclicity, seeds_separate, separates
from conftest import (
    member_hashes, quiver, random_quiver, random_skew, type_a, type_d, type_e, weighted_pair,
)
from mutopo import (
    Budget,
    EmbedVerdict,
    EmbedWitness,
    Store,
    Verdict,
    apply_sequence,
    build,
    build_universe,
    canonical_form,
    collect_classes,
    density_witness,
    embeds,
    enumerate_class,
    is_acyclic,
    is_mutation_acyclic,
    iter_quiver_seeds,
    replay_embedding,
    restrict,
)


class TestEmbeds:
    def test_a2_into_a3(self, a2, a3):
        ev = embeds(a2, a3)
        assert ev.verdict is Verdict.YES
        assert ev.witness.subset == (1, 2)
        assert ev.witness.q_sequence == () and ev.witness.p_sequence == ()
        assert replay_embedding(a2, a3, ev)

    def test_arrowless_pair_into_a3(self, i2, a3):
        ev = embeds(i2, a3)
        assert ev.verdict is Verdict.YES
        assert ev.witness.subset == (1, 3)
        assert replay_embedding(i2, a3, ev)

    def test_weight3_not_into_markov(self, markov):
        assert embeds(weighted_pair(3), markov).verdict is Verdict.NO

    def test_weight5_into_cycle321(self, cycle321):
        ev = embeds(weighted_pair(5), cycle321)
        assert ev.verdict is Verdict.YES
        assert replay_embedding(weighted_pair(5), cycle321, ev)

    def test_rank_drop_is_immediate_no(self, a3, a2):
        ev = embeds(a3, a2)
        assert ev.verdict is Verdict.NO
        assert not replay_embedding(a3, a2, ev)  # a NO has nothing to replay

    def test_pool_mismatch_is_immediate_no(self):
        iced = build(1, 1, [[0, 1], [-1, 0]])
        plain = weighted_pair(1)
        assert embeds(iced, plain).verdict is Verdict.NO

    def test_reflexive(self, markov):
        ev = embeds(markov, markov)
        assert ev.verdict is Verdict.YES
        assert ev.witness.subset == (1, 2, 3)
        assert replay_embedding(markov, markov, ev)

    def test_equal_rank_same_class(self, a3):
        cycle = quiver([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        ev = embeds(cycle, a3)
        assert ev.verdict is Verdict.YES
        assert replay_embedding(cycle, a3, ev)

    def test_equal_rank_distinct_classes(self, a3, markov):
        assert embeds(a3, markov).verdict is Verdict.NO

    def test_unknown_against_truncated_class(self, cycle321, i2):
        # [cycle321] is mutation-infinite with every member fully connected
        # and gcd 1, so neither search nor the obstructions can settle I3
        i3 = quiver([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert embeds(i3, cycle321).verdict is Verdict.NO  # same rank, fingerprint
        unknown = embeds(weighted_pair(4), quiver([[0, 3, 2], [-3, 0, 0], [-2, 0, 0]]))
        assert unknown.verdict is Verdict.UNKNOWN

    def test_divisibility_obstruction(self):
        double_path = quiver([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
        ev = embeds(weighted_pair(1), double_path)
        assert ev.verdict is Verdict.NO

    def test_zero_pair_obstruction(self, i2):
        triangle = quiver([[0, 2, 1], [-2, 0, 1], [-1, -1, 0]])
        ev = embeds(i2, triangle)
        assert ev.verdict is Verdict.NO

    def test_disjoint_reflection_orbits_separate_rank4_classes(self):
        # both classes are TRUNCATED with acyclic members and share the
        # elementary fingerprint; only their reflection orbits tell them apart
        P = quiver([[0, -1, -1, -1], [1, 0, -1, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
        Q = quiver([[0, -1, -1, -1], [1, 0, -1, -1], [1, 1, 0, 0], [1, 1, 0, 0]])
        assert embeds(P, Q).verdict is Verdict.NO
        assert embeds(Q, P).verdict is Verdict.NO

    def test_budget_flows_into_verdict(self, a2, a3):
        budget = Budget(max_members=10)
        assert embeds(a2, a3, budget).budget == budget

    def test_frozen_subsets_searched(self):
        P = build(1, 1, [[0, 1], [-1, 0]])
        Q = build(2, 1, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
        ev = embeds(P, Q)
        assert ev.verdict is Verdict.YES
        assert ev.witness.subset[1] == 3  # frozen index of Q retained
        assert replay_embedding(P, Q, ev)

    def test_matches_oracle_on_small_quivers(self):
        rng = random.Random(99)
        smalls = [random_quiver(rng, 2, 2) for _ in range(6)]
        bigs = [random_quiver(rng, 3, 1) for _ in range(8)]
        for P in smalls:
            for Q in bigs:
                oracle = oracles.embeds(
                    [list(r) for r in P.b], 2, [list(r) for r in Q.b], 3
                )
                if oracle != "UNKNOWN":
                    assert embeds(P, Q).verdict.value == oracle


def _universe_case(r, w, family):
    u = build_universe(r, w, family=family)
    return [cls.seed for cls in u.classes], u.budget, u.relation


def _dynkin_case():
    # CLOSED classes of rank 3 to 6: restriction shapes of size 3 (keyed by
    # raw entries), 4 and 5 (keyed by canonical form)
    types = (type_a(3), type_a(4), type_d(4), type_a(5), type_d(5), type_a(6), type_d(6), type_e(6))
    return [canonical_form(B).matrix for B in types], Budget(), None


def _frozen_case():
    # CLOSED skew-symmetrizable classes with one or two frozen rows (A2, B2,
    # A3, B3 and A4 with frozen arrows): restriction shape (2, 1) is keyed by
    # raw entries, (3, 1) and (2, 2) by canonical form
    seeds = [
        build(2, 1, [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]),
        build(2, 1, [[0, 1, 0], [-2, 0, 1], [0, -1, 0]]),
        build(2, 2, [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]),
        build(3, 1, [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]),
        build(3, 1, [[0, 1, 0, 1], [-1, 0, 1, 0], [0, -2, 0, 0], [-1, 0, 0, 0]]),
        build(3, 2, [[0, 1, 0, 1, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 0, 1],
                     [-1, 0, 0, 0, 0], [0, 0, -1, 0, 0]]),
        build(4, 1, [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0],
                     [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]]),
    ]
    budget = Budget()
    assert all(enumerate_class(B, budget).status == "CLOSED" for B in seeds)
    return [canonical_form(B).matrix for B in seeds], budget, None


# each case with the key its scans use at each restriction shape size
SCAN_CASES = [
    pytest.param(lambda: _universe_case(3, 2, "quiver"), {1: "raw", 2: "raw"}, id="3-2-quiver"),
    pytest.param(lambda: _universe_case(3, 1, "skew"), {1: "raw", 2: "raw"}, id="3-1-skew"),
    pytest.param(_dynkin_case, {3: "raw", 4: "form", 5: "form"}, id="dynkin-3-6"),
    pytest.param(_frozen_case, {3: "raw", 4: "form"}, id="frozen-2-4"),
]


def _key_kind(size: int) -> str:
    return "raw" if size <= embed_module.RAW_SCAN_LIMIT else "form"


class TestRestrictionScan:
    @pytest.mark.parametrize("case, keys", SCAN_CASES)
    def test_witnesses_match_the_per_pair_loop(self, case, keys, monkeypatch):
        seeds, budget, relation = case()
        scanned = set()  # the restriction shape sizes n_p + m_p scanned
        real_first = embed_module._first_restriction

        def first_restriction(enum_p, enum_q):
            scanned.add(enum_p.seed.matrix.size)
            return real_first(enum_p, enum_q)

        monkeypatch.setattr(embed_module, "_first_restriction", first_restriction)
        pairs = [(i, j) for i in range(len(seeds)) for j in range(len(seeds))]
        reference_store = Store()
        expected = {}
        for i, j in pairs:
            P, Q = seeds[i], seeds[j]
            ev = embeds(P, Q, budget)  # alone: enumerated afresh
            if relation is not None:
                assert ev.verdict.value[0] == relation[i][j]
            if P.size < Q.size and P.n <= Q.n and P.m <= Q.m:
                hit = oracles.first_restriction(P, Q, budget, reference_store)
                if hit is None:
                    assert ev.verdict is not Verdict.YES
                else:
                    assert ev == EmbedVerdict(Verdict.YES, EmbedWitness(*hit), budget)
            expected[i, j] = ev
        # one store per order, so later pairs are served the enumerations
        # earlier pairs stored, in any order
        for order_seed in range(3):
            order = list(pairs)
            random.Random(order_seed).shuffle(order)
            store = Store()
            for i, j in order:
                assert embeds(seeds[i], seeds[j], budget, store) == expected[i, j]
        assert {size: _key_kind(size) for size in scanned} == keys

    def test_each_scan_restricts_only_what_its_keys_need(self, monkeypatch):
        restricted = Counter()  # (member matrix, subset) -> restrict calls in one scan
        canonicalized = Counter()  # canonical_form calls in one scan
        kinds = Counter()  # key kind -> scans run
        real_restrict, real_first = embed_module.restrict, embed_module._first_restriction
        real_canonical_form = embed_module.canonical_form

        def restrict(B, idx):
            restricted[id(B), tuple(idx)] += 1
            return real_restrict(B, idx)

        def canonical_form(B):
            canonicalized["calls"] += 1
            return real_canonical_form(B)

        def first_restriction(enum_p, enum_q):
            p_n, p_m = enum_p.seed.matrix.n, enum_p.seed.matrix.m
            restricted.clear()
            canonicalized.clear()
            witness = real_first(enum_p, enum_q)
            visited = [mem.reached for mem in enum_q.members]  # members the scan keyed
            if witness is not None:
                k = next(k for k, mem in enumerate(enum_q.members) if mem.witness == witness.q_sequence)
                del visited[k + 1:]
            kind = _key_kind(p_n + p_m)
            kinds[kind] += 1
            if kind == "raw":
                # raw entries build no matrix, and their key names the member
                # of [P]: the scan restricts and canonicalizes nothing
                assert restricted == Counter() and canonicalized == Counter()
            else:
                # a form-keyed scan restricts every subset of each member it
                # visits, once each
                q = enum_q.seed.matrix
                width = comb(q.n, p_n) * comb(q.m, p_m)
                assert set(restricted.values()) == {1}
                assert len(restricted) == width * len(visited)
                assert {key[0] for key in restricted} == set(map(id, visited))
            return witness

        monkeypatch.setattr(embed_module, "restrict", restrict)
        monkeypatch.setattr(embed_module, "canonical_form", canonical_form)
        monkeypatch.setattr(embed_module, "_first_restriction", first_restriction)
        for param in SCAN_CASES:
            (seeds, budget, _), keys = param.values[0](), param.values[1]
            kinds.clear()
            store = Store()
            for P in seeds:
                for Q in seeds:
                    embeds(P, Q, budget, store)
            assert set(kinds) == set(keys.values())

    @pytest.mark.parametrize(
        "seed",
        [
            quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),
            quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]),
            build(2, 1, [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]),
            build(3, 0, [[0, 1, 0], [-2, 0, 1], [0, -1, 0]]),
        ],
        ids=["A3", "markov", "two-mutable-one-frozen", "skew-symmetrizable-B3"],
    )
    def test_each_relabeling_maps_to_the_member_it_relabels(self, seed):
        enum = enumerate_class(seed, Budget(max_members=50))
        n, size = seed.n, seed.size
        for entries, mem in enum.relabelings.items():
            rows = [list(entries[i * size:(i + 1) * size]) for i in range(size)]
            assert canonical_form(build(n, size - n, rows)) == mem.form
        assert set(enum.relabelings.values()) == set(enum.members)

    def test_closed_upper_class_answers_no(self, cycle321, a4):
        # [cycle321] is mutation-infinite, so its enumeration is TRUNCATED;
        # [A4] is CLOSED and none of its members' restrictions is in it
        store = Store()
        ev = embeds(cycle321, a4, store=store)
        assert ev == EmbedVerdict(Verdict.NO, None, Budget())
        assert store.get_class(canonical_form(cycle321).hash, Budget()).status == "TRUNCATED"


def _restriction_hashes(enum_q, p_n):
    """Canonical hashes of every restriction of every member of [Q] to p_n
    indices (quivers: no frozen indices)."""
    return {
        canonical_form(restrict(mem.reached, idx)).hash
        for mem in enum_q.members
        for idx in combinations(range(1, enum_q.seed.matrix.n + 1), p_n)
    }


def _rank4_seeds(w):
    """One labelling of every rank-4 quiver with entries <= w: the one with
    a heaviest arrow 1 -> 2."""
    pairs = list(combinations(range(4), 2))
    for values in product(range(-w, w + 1), repeat=len(pairs)):
        if values[0] != max(abs(v) for v in values):
            continue
        rows = [[0] * 4 for _ in range(4)]
        for (i, j), v in zip(pairs, values):
            rows[i][j], rows[j][i] = v, -v
        yield quiver(rows)


@pytest.fixture(scope="module")
def r4w2_classes():
    """Every quiver class of rank <= 4 with seed entries <= 2; the small caps
    keep the mutation-infinite classes cheap and still give the 176 classes
    (24 CLOSED) of the default budget."""
    budget = Budget(max_members=100, max_entry=4)
    store = Store()
    seeds = [*iter_quiver_seeds(3, 2), *_rank4_seeds(2)]
    classes = collect_classes(seeds, budget, store)
    assert len(classes) == 176
    enums = {cls.hash: enumerate_class(cls.seed, budget, store) for cls in classes}
    return budget, store, classes, enums


def test_closed_upper_rule_is_sound(r4w2_classes):
    budget, store, classes, enums = r4w2_classes
    closed = [cls for cls in classes if cls.key.status == "CLOSED"]
    assert len(closed) == 24
    exact_pairs = newly_decided = 0
    for hi in closed:
        for lo in classes:
            if lo.rank >= hi.rank:
                continue
            ev = embeds(lo.seed, hi.seed, budget, store)
            if lo.key.status == "CLOSED":
                # an exact pair: the exhaustive answer, and the rule reads
                # one member of [P] where any member gives the same answer
                reached = _restriction_hashes(enums[hi.hash], lo.rank)
                exact = not reached.isdisjoint(member_hashes(enums[lo.hash]))
                assert ev.verdict is (Verdict.YES if exact else Verdict.NO)
                assert all(
                    (mem.form.hash in reached) == exact for mem in enums[lo.hash].members
                )
                exact_pairs += 1
                continue
            assert ev.verdict is not Verdict.UNKNOWN
            if ev.verdict is Verdict.NO:
                newly_decided += 1
                # [P] is infinite, so the oracle cannot close it: it can only
                # refute the NO by finding a restriction of [Q] in [P]
                oracle = oracles.embeds(
                    [list(r) for r in lo.seed.b], lo.rank,
                    [list(r) for r in hi.seed.b], hi.rank,
                    max_members=30, max_entry=4,
                )
                assert oracle != "YES"
    assert exact_pairs > 0
    assert newly_decided == 70


def test_reflection_orbit_is_sound(r4w2_classes):
    # the orbit of a CLOSED class is exactly its acyclic members, and a
    # TRUNCATED class's discovered acyclic members all lie in its orbit
    _, _, classes, enums = r4w2_classes
    orbits = {}
    for cls in classes:
        enum = enums[cls.hash]
        acyclic = {mem.form for mem in enum.members if is_acyclic(mem.form.matrix)}
        orbit = enum.reflection_orbit
        if enum.status == "CLOSED":
            assert set(orbit or ()) == acyclic
        else:
            assert acyclic <= set(orbit or ())
        if orbit is not None:
            orbits[cls.hash] = (enum.status, orbit)
    assert len(orbits) == 127
    # distinct classes, one of them CLOSED, never share an acyclic member
    for (h1, (s1, o1)), (h2, (s2, o2)) in combinations(orbits.items(), 2):
        if "CLOSED" in (s1, s2):
            assert o1.isdisjoint(o2), (h1, h2)


def test_no_class_has_an_orbit_and_a_bbh_member(r4w2_classes):
    # an acyclic member and a mutation-cyclic BBH subquiver would contradict
    # the theorems the table cites
    _, _, classes, enums = r4w2_classes
    bbh = [h for h, enum in enums.items() if enum.bbh_member]
    assert bbh and all(enums[h].reflection_orbit is None for h in bbh)


def test_table_rows_agree_with_exhaustive_answers_on_closed_classes(r4w2_classes):
    budget, store, classes, enums = r4w2_classes
    # on every class, TRUNCATED too, abundance says NO exactly on a
    # discovered member with a thinner pair
    for cls in classes:
        mats = [mem.form.matrix for mem in enums[cls.hash].members]
        for N in (1, 2, 3):
            thin = any(
                min(abs(B.b[i][j]), abs(B.b[j][i])) < N
                for B in mats for i, j in combinations(range(B.n), 2)
            )
            assert (abundance(enums[cls.hash], N) is Verdict.NO) is thin, (cls.hash, N)
    closed = [cls for cls in classes if cls.key.status == "CLOSED"]
    for cls in closed:
        enum, mats = enums[cls.hash], [mem.form.matrix for mem in enums[cls.hash].members]
        for N in (1, 2, 3):
            every = all(
                min(abs(B.b[i][j]), abs(B.b[j][i])) >= N
                for B in mats for i, j in combinations(range(B.n), 2)
            )
            assert abundance(enum, N) is (Verdict.YES if every else Verdict.NO)
        some = any(is_acyclic(B) for B in mats)
        assert acyclicity(enum) is (Verdict.YES if some else Verdict.NO)
    # each NO, whether the rows or the seeds decide it, agrees with the
    # exhaustive restriction set of the CLOSED upper class
    by_rows = by_seeds = by_gcd = 0
    for lo in closed:
        for hi in closed:
            if lo.hash == hi.hash or lo.rank > hi.rank:
                continue
            rows = separates(enums[lo.hash], enums[hi.hash])
            seeds = seeds_separate(lo.seed, hi.seed)
            if rows or seeds:
                reached = _restriction_hashes(enums[hi.hash], lo.rank)
                assert reached.isdisjoint(member_hashes(enums[lo.hash])), (lo.hash, hi.hash)
            by_rows += rows
            by_seeds += seeds
            by_gcd += seeds and lo.rank < hi.rank  # quivers: only the gcd differs
    assert by_rows > 0 and by_seeds > 0 and by_gcd > 0


def _mutated(rng, B, steps):
    return apply_sequence(B, [rng.randint(1, B.n) for _ in range(steps)])


def test_no_rule_refutes_a_constructed_embedding():
    # soundness by construction, at budgets small enough that most classes
    # truncate: a mutated restriction of a mutated quiver embeds into it, and
    # a mutated acyclic quiver is mutation-acyclic, so no rule may say NO
    rng = random.Random(11)
    budget = Budget(max_members=12, max_entry=12)
    checked = 0
    for _ in range(400):
        size = rng.randint(3, 5)
        Q = random_quiver(rng, size, 2)
        kept = rng.sample(range(1, size + 1), rng.randint(2, size))
        P = _mutated(rng, restrict(_mutated(rng, Q, rng.randint(0, 3)), kept), rng.randint(0, 3))
        acyclic = quiver([[abs(v) if i < j else -abs(v) for j, v in enumerate(row)]
                          for i, row in enumerate(Q.b)])
        A = _mutated(rng, acyclic, rng.randint(1, 4))
        if max(P.max_abs_entry, A.max_abs_entry) > budget.max_entry:
            continue
        assert not seeds_separate(P, Q), (P.b, Q.b)
        assert embeds(P, Q, budget).verdict is not Verdict.NO, (P.b, Q.b)
        assert is_mutation_acyclic(A, budget) is not Verdict.NO, A.b
        checked += 1
    assert checked > 300
    # skew-symmetrizable matrices, some with a frozen index, so the gcd and
    # skew-symmetry rules meet pairs that are not quivers: a restriction may
    # be skew-symmetric where Q is not, never the other way round
    rng = random.Random(12)
    checked = skew_pairs = 0
    for _ in range(200):
        n, m = rng.randint(2, 4), rng.randint(0, 1)
        Q = random_skew(rng, n, m)
        kept = [1, *rng.sample(range(2, n + m + 1), rng.randint(1, n + m - 1))]
        P = _mutated(rng, restrict(_mutated(rng, Q, rng.randint(0, 3)), kept), rng.randint(0, 3))
        if P.max_abs_entry > budget.max_entry:
            continue
        assert not seeds_separate(P, Q), (P.b, Q.b)
        assert embeds(P, Q, budget).verdict is not Verdict.NO, (P.b, Q.b)
        skew_pairs += P.is_skew_symmetric != Q.is_skew_symmetric
        checked += 1
    assert checked > 150 and skew_pairs > 0


class TestDensityWitness:
    def test_weighted_pair_with_a2(self, a2):
        R, vp, vq = density_witness(weighted_pair(3), a2)
        assert R.size == 4
        assert vp.verdict is Verdict.YES and vq.verdict is Verdict.YES
        assert replay_embedding(weighted_pair(3), R, vp)
        assert replay_embedding(a2, R, vq)

    def test_pt_pt(self, pt, i2):
        R, vp, vq = density_witness(pt, pt)
        assert R == i2

    def test_markov_with_a3(self, markov, a3):
        R, vp, vq = density_witness(markov, a3)
        assert R.size == 6
        assert replay_embedding(markov, R, vp)
        assert replay_embedding(a3, R, vq)

    def test_with_frozen_indices(self):
        P = build(1, 1, [[0, 2], [-1, 0]])
        Q = build(2, 0, [[0, 1], [-1, 0]])
        R, vp, vq = density_witness(P, Q)
        assert (R.n, R.m) == (3, 1)
        assert replay_embedding(P, R, vp)
        assert replay_embedding(Q, R, vq)

    def test_block_restriction_identity(self, a3, markov):
        R, vp, _ = density_witness(a3, markov)
        sub = restrict(canonical_form(R).matrix, vp.witness.subset)
        assert canonical_form(sub) == canonical_form(a3)

    def test_random_pairs_replay(self):
        rng = random.Random(7_77)
        for _ in range(40):
            P = random_skew(rng, rng.randint(1, 3), rng.randint(0, 1))
            Q = random_quiver(rng, rng.randint(1, 3), 3)
            for A, B in ((P, Q), (P, P)):  # (P, P): one object, two blocks
                R, va, vb = density_witness(A, B)
                assert replay_embedding(A, R, va)
                assert replay_embedding(B, R, vb)
                assert len(R.components()) == len(A.components()) + len(B.components())
