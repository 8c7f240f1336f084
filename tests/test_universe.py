import json
import random
from itertools import chain, combinations
from math import gcd

import pytest

import mutopo.classes as classes_module
import oracles
from conftest import weighted_pair
from mutopo import (
    Budget,
    EmbedVerdict,
    ExchangeMatrix,
    Store,
    UnresolvedRelation,
    Universe,
    Verdict,
    build_hasse,
    build_universe,
    canonical_form,
    class_key,
    closure,
    collect_classes,
    dump_universe,
    enumerate_class,
    hasse_to_dot,
    is_clopen,
    is_closed,
    is_open,
    iter_quiver_seeds,
    iter_skew_seeds,
    load_universe,
    open_set_generated,
    replay_embedding,
    restrict,
)
from mutopo.universe import _FAMILIES


@pytest.fixture(scope="module")
def u32():
    return build_universe(3, 2)


@pytest.fixture(scope="module")
def u21():
    return build_universe(2, 1)


@pytest.fixture(scope="module")
def u23():
    return build_universe(2, 3)


def khash(B, budget=Budget()):
    return class_key(B, budget).hash


class TestBuildUniverse:
    def test_rank2_weight3_has_five_classes(self, u23, pt, i2, a2):
        assert len(u23.classes) == 5
        expected = {khash(pt), khash(i2), khash(a2), khash(weighted_pair(2)), khash(weighted_pair(3))}
        assert u23.hashes == expected

    def test_rank1(self, pt):
        u = build_universe(1, 5)
        assert len(u.classes) == 1
        assert u.hashes == {khash(pt)}

    def test_weight_zero(self, pt, i2):
        u = build_universe(2, 0)
        assert u.hashes == {khash(pt), khash(i2)}

    def test_contains_the_point(self, u32, pt):
        assert khash(pt) in u32.hashes

    def test_rank_downward_closure(self, u32):
        # every single-index restriction of a seed lands in some class
        budget = u32.budget
        for cls in u32.classes:
            seed = cls.seed
            if seed.size == 1:
                continue
            for drop in range(1, seed.size + 1):
                if drop <= seed.n and seed.n == 1:
                    continue  # would leave no mutable index
                keep = [i for i in range(1, seed.size + 1) if i != drop]
                sub = restrict(seed, keep)
                assert khash(sub, budget) in u32.hashes

    def test_seed_order_invariance(self):
        raw = list(iter_quiver_seeds(2, 2))
        forward = build_universe(2, 2, seeds=raw)
        backward = build_universe(2, 2, seeds=list(reversed(raw)))
        shuffled_seeds = list(raw)
        random.Random(0).shuffle(shuffled_seeds)
        shuffled = build_universe(2, 2, seeds=shuffled_seeds)
        assert forward == backward == shuffled

    def test_each_class_is_enumerated_once(self, monkeypatch):
        seeds = []
        real = classes_module._run_bfs

        def counting(seed, budget):
            seeds.append(seed.hash)
            return real(seed, budget)

        monkeypatch.setattr(classes_module, "_run_bfs", counting)
        u = build_universe(3, 3)
        assert len(seeds) == len(u.classes) == 29
        assert set(seeds) == {canonical_form(cls.seed).hash for cls in u.classes}

    def test_skew_family_extends_the_quiver_universe(self):
        u = build_universe(2, 1, family="skew")
        q = build_universe(2, 1)
        assert q.hashes <= u.hashes
        assert any(cls.key.form.matrix.m > 0 for cls in u.classes)

    def test_relation_is_fully_resolved_at_weight_two(self, u32):
        assert all(v in "YN" for row in u32.relation for v in row)


class TestOrderAxioms:
    def test_reflexive(self, u32):
        for i in range(len(u32.classes)):
            assert u32.relation[i][i] == "Y"

    def test_transitive_on_resolved_triples(self, u32):
        rel = u32.relation
        size = len(u32.classes)
        for i in range(size):
            for j in range(size):
                if rel[i][j] != "Y":
                    continue
                for k in range(size):
                    if rel[j][k] == "Y":
                        assert rel[i][k] == "Y"

    def test_antisymmetric_on_closed_classes(self, u32):
        for i, ci in enumerate(u32.classes):
            for j, cj in enumerate(u32.classes):
                if i == j or ci.key.status != "CLOSED" or cj.key.status != "CLOSED":
                    continue
                assert not (u32.relation[i][j] == "Y" and u32.relation[j][i] == "Y")

    def test_comparability_graph_connected(self, u32, pt):
        # every class is comparable to the point, which is enough
        k = u32.index_of(khash(pt))
        assert all(u32.relation[k][j] == "Y" for j in range(len(u32.classes)))


@pytest.mark.parametrize("rank, weight, family", [(3, 3, "quiver"), (4, 1, "quiver"),
                                                  (3, 2, "skew")])
def test_order_axioms_hold_where_rules_say_no(rank, weight, family):
    """The soundness gate for every NO rule: a wrong NO on a pair that
    embeds shows up as a broken order axiom or a broken lower set."""
    store = Store()
    u = build_universe(rank, weight, family=family, store=store)
    rel, size = u.relation, len(u.classes)
    assert all(rel[i][i] == "Y" for i in range(size))
    for i, j in combinations(range(size), 2):
        assert not (rel[i][j] == "Y" and rel[j][i] == "Y"), (i, j)
    above = [[j for j in range(size) if rel[i][j] == "Y"] for i in range(size)]
    for i in range(size):
        for j in above[i]:
            assert all(rel[i][k] != "N" for k in above[j]), (i, j)
            assert not classes_module.seeds_separate(u.classes[i].seed, u.classes[j].seed), (i, j)
    # each row of the table is a lower set: a class below a YES class is not NO
    enums = [enumerate_class(cls.seed, u.budget, store) for cls in u.classes]
    for i in range(size):
        for j in above[i]:
            for row, arguments in classes_module.HEREDITARY:
                for arg in arguments(enums[i], enums[j]):
                    verdicts = row(enums[i], arg), row(enums[j], arg)
                    assert verdicts != (Verdict.NO, Verdict.YES), (i, j, row.__name__, arg)


# (lower, upper) hash prefixes of the r3 w2 skew cells that skew-symmetry
# decides: a rank-2 [P] that is not skew-symmetric into a skew-symmetric
# rank-3 [Q], which the scan and the table leave UNKNOWN
SKEW_DECIDED = {
    *((lo, hi) for lo in ("011864b4ea55", "eb8295511b16", "2350792359f8")
      for hi in ("9bb37faf33d7", "28505a77769f", "217b31cc2b33", "41ec90d1ab44")),
    *(("2350792359f8", hi) for hi in ("fda75887457c", "24a276c4fc06", "e7287534a98d")),
}


def test_skew_symmetry_decides_r3w2_skew_cells():
    u = build_universe(3, 2, family="skew")
    for lo, hi in SKEW_DECIDED:
        P, Q = u.find(lo).seed, u.find(hi).seed
        assert Q.is_skew_symmetric and not P.is_skew_symmetric
        assert classes_module.seeds_separate(P, Q)
        assert u.verdict(u.find(lo).hash, u.find(hi).hash) == "N"
    for lo in u.classes:  # wherever the rule applies, the cell is N
        for hi in u.classes:
            if hi.seed.is_skew_symmetric and not lo.seed.is_skew_symmetric:
                assert u.verdict(lo.hash, hi.hash) == "N"
    assert sum(row.count("U") for row in u.relation) == 107


def _four_test_rule(P, Q):
    """seeds_separate as four independent tests: the shape, the fingerprint
    at equal size, the entry gcd and the skew flag."""
    if P.n > Q.n or P.m > Q.m:
        return True
    fingerprint = classes_module.mutation_fingerprint
    if P.size == Q.size and fingerprint(P) != fingerprint(Q):
        return True
    g_p, g_q = gcd(*chain.from_iterable(P.b)), gcd(*chain.from_iterable(Q.b))
    if g_p % g_q if g_q else g_p:
        return True
    return Q.is_skew_symmetric and not P.is_skew_symmetric


def test_seeds_separate_reads_the_fingerprints_alone(monkeypatch):
    # equal fingerprints hold equal shapes, entry gcds and skew flags, so
    # the three other tests can never separate a pair of equal size; across
    # sizes the gcd and skew tests read the fingerprints, not the matrices
    store = Store()
    seeds = [cls.seed for rank, weight, family in ((3, 2, "skew"), (4, 1, "quiver"))
             for cls in collect_classes(_FAMILIES[family](rank, weight), Budget(), store)]
    assert len(seeds) == 205 + 21
    pairs = [(P, Q) for P in seeds for Q in seeds]
    reference = [_four_test_rule(P, Q) for P, Q in pairs]

    def unread(_):
        raise AssertionError("seeds_separate read a matrix's skew flag")

    monkeypatch.setattr(ExchangeMatrix, "is_skew_symmetric", property(unread))
    for (P, Q), expected in zip(pairs, reference):
        assert classes_module.seeds_separate(P, Q) == expected, (P.b, Q.b)
    assert sum(P.size == Q.size for P, Q in pairs) > 39_000
    # the cross-size pairs past the shape test that the gcd or skew test separates
    assert sum(expected for (P, Q), expected in zip(pairs, reference)
               if P.size < Q.size and P.n <= Q.n and P.m <= Q.m) == 405


def test_a_universe_build_fingerprints_each_class_seed_once(monkeypatch):
    # every pair of equal size asks for both seeds' fingerprints, and each
    # computation runs one spanning search: 33,862 of them if none is kept
    searches = []
    real = classes_module._symmetrizer
    monkeypatch.setattr(classes_module, "_symmetrizer", lambda b: searches.append(b) or real(b))
    classes_module.mutation_fingerprint.cache_clear()
    u = build_universe(3, 2, family="skew")
    assert len(searches) == len(u.classes) == 205


@pytest.mark.parametrize("rank, weight, family", [(4, 1, "quiver"), (3, 2, "skew")])
def test_every_yes_witness_replays(rank, weight, family):
    """The witness a universe file holds for each off-diagonal Y cell replays
    end to end through mutate, restrict and canonical_form."""
    u = load_universe(dump_universe(build_universe(rank, weight, family=family)))
    size = len(u.classes)
    cells = [(i, j) for i in range(size) for j in range(size) if i != j and u.relation[i][j] == "Y"]
    assert [(i, j) for i, j, _ in u.witnesses] == cells  # one a cell, in row-major order
    assert any(u.classes[i].rank < u.classes[j].rank for i, j in cells)
    for i, j, w in u.witnesses:
        ev = EmbedVerdict(Verdict.YES, w, u.budget)
        assert replay_embedding(u.classes[i].seed, u.classes[j].seed, ev), (i, j)


class TestClosure:
    def test_a3_closure_is_the_example_set(self, u32, a3, a2, i2, pt):
        got = closure(u32, [khash(a3)])
        assert got == {khash(a3), khash(a2), khash(i2), khash(pt)}

    def test_empty(self, u32):
        assert closure(u32, []) == frozenset()

    def test_point_is_minimal(self, u32, pt):
        assert closure(u32, [khash(pt)]) == {khash(pt)}

    def test_extensive_monotone_idempotent(self, u32):
        rng = random.Random(5)
        hashes = sorted(u32.hashes)
        for _ in range(30):
            A = frozenset(h for h in hashes if rng.random() < 0.3)
            B = A | frozenset(h for h in hashes if rng.random() < 0.2)
            ca, cb = closure(u32, A), closure(u32, B)
            assert A <= ca
            assert ca <= cb
            assert closure(u32, ca) == ca
            assert closure(u32, A | B) == ca | closure(u32, B)

    def test_point_lies_in_every_nonempty_closure(self, u32, pt):
        bottom = khash(pt)
        for cls in u32.classes:
            assert bottom in closure(u32, [cls.hash])

    def test_closures_of_finite_singletons_contain_only_finite_classes(self, u32):
        # a closure that is genuinely finite can only hold mutation-finite
        # classes; the universe shadow of that is checked on every singleton
        # whose seed class resolves FINITE
        from mutopo import Finiteness, is_mutation_finite

        verdicts = {
            cls.hash: is_mutation_finite(cls.key.form.matrix, u32.budget).kind
            for cls in u32.classes
        }
        finite_seen = 0
        for cls in u32.classes:
            if verdicts[cls.hash] is not Finiteness.FINITE:
                continue
            finite_seen += 1
            for member in closure(u32, [cls.hash]):
                assert verdicts[member] is Finiteness.FINITE
        assert finite_seen >= 5

    def test_unresolved_raises(self, u23):
        rows = [list(row) for row in u23.relation]
        rows[1][2] = "U"
        broken = Universe(
            u23.rank_cap, u23.entry_cap, u23.budget, u23.family,
            u23.classes, tuple(tuple(r) for r in rows),
        )
        with pytest.raises(UnresolvedRelation):
            closure(broken, [broken.classes[2].hash])

    def test_open_set_is_the_closure_under_the_transposed_relation(self, u32):
        transposed = Universe(
            u32.rank_cap, u32.entry_cap, u32.budget, u32.family,
            u32.classes, tuple(zip(*u32.relation)),
        )
        for a, b in combinations(u32.hashes, 2):
            assert open_set_generated(u32, [a, b]) == closure(transposed, [a, b])
            assert closure(u32, [a, b]) == open_set_generated(transposed, [a, b])

    @pytest.mark.parametrize(
        "name, op", [("closure", closure), ("generated open set", open_set_generated)], ids=["closure", "open-set"]
    )
    def test_unresolved_names_the_operation(self, u23, name, op):
        rows = [list(row) for row in u23.relation]
        rows[1][2] = rows[2][1] = "U"
        broken = Universe(
            u23.rank_cap, u23.entry_cap, u23.budget, u23.family,
            u23.classes, tuple(tuple(r) for r in rows),
        )
        cls = broken.classes[1]
        with pytest.raises(UnresolvedRelation, match=f"class {cls.hash[:12]} in the {name} is"):
            op(broken, [broken.classes[2].hash])

    @pytest.mark.parametrize("item", [True, False, 1.9, 1.0, None],
                             ids=["true", "false", "float", "whole-float", "none"])
    def test_a_selection_item_that_is_no_integer_or_hash_is_refused(self, u23, item):
        with pytest.raises(TypeError):
            closure(u23, [item])
        with pytest.raises(TypeError):
            open_set_generated(u23, [item])

    @pytest.mark.parametrize("lookup, message", [
        (lambda u: u.index_of("0" * 64), "class 000000000000 is not in this universe"),
        (lambda u: u.find(""), r"prefix '' is ambiguous \(3 matches\)"),
        (lambda u: closure(u, [3]), "class index 3 out of range"),
    ], ids=["unknown-hash", "ambiguous-prefix", "index-out-of-range"])
    def test_a_class_the_universe_cannot_name_is_a_key_error(self, u21, lookup, message):
        with pytest.raises(KeyError, match=message):
            lookup(u21)

    def test_a_selection_reads_integer_indices_and_hashes_alike(self, u23):
        by_hash = closure(u23, [u23.classes[1].hash])
        assert closure(u23, [1]) == by_hash

    def test_unknown_member_of_selection_is_fine_when_dominated(self, u23):
        # a U entry cannot change membership once another Y includes the class
        rows = [list(row) for row in u23.relation]
        rows[1][2] = "U"
        rows[1][3] = "Y"
        broken = Universe(
            u23.rank_cap, u23.entry_cap, u23.budget, u23.family,
            u23.classes, tuple(tuple(r) for r in rows),
        )
        got = closure(broken, [broken.classes[2].hash, broken.classes[3].hash])
        assert broken.classes[1].hash in got


class TestOpenSets:
    def test_generated_by_arrowless_pair(self, u32, i2, a3, markov):
        out = open_set_generated(u32, [khash(i2)])
        assert khash(a3) in out
        assert khash(markov) not in out

    def test_generated_by_point_is_everything(self, u32, pt):
        assert open_set_generated(u32, [khash(pt)]) == u32.hashes

    def test_empty(self, u32):
        assert open_set_generated(u32, []) == frozenset()

    def test_complement_is_closed(self, u32, i2):
        out = open_set_generated(u32, [khash(i2)])
        assert is_closed(u32, u32.hashes - out)
        assert is_open(u32, out)


class TestClosedOpenClopen:
    def test_example_closed_set(self, u32, a3):
        assert is_closed(u32, closure(u32, [khash(a3)]))

    def test_single_class_not_closed(self, u32, a3):
        assert not is_closed(u32, [khash(a3)])

    def test_duality(self, u32):
        rng = random.Random(11)
        hashes = sorted(u32.hashes)
        for _ in range(25):
            A = frozenset(h for h in hashes if rng.random() < 0.5)
            assert is_open(u32, A) == is_closed(u32, u32.hashes - A)

    def test_only_trivial_clopen_sets(self, u32):
        assert is_clopen(u32, [])
        assert is_clopen(u32, u32.hashes)
        rng = random.Random(17)
        hashes = sorted(u32.hashes)
        for _ in range(100):
            A = frozenset(h for h in hashes if rng.random() < 0.5)
            if A and A != u32.hashes:
                assert not is_clopen(u32, A)


class TestHasse:
    def test_rank2_universe_edges(self, u23, pt):
        h = build_hasse(u23)
        bottom = u23.index_of(khash(pt))
        assert len(h.edges) == 4
        assert all(i == bottom for i, _ in h.edges)

    def test_figure_fragment_covers(self, u32, pt, i2, a2, a3):
        h = build_hasse(u32)
        ia3 = u32.index_of(khash(a3))
        ii2 = u32.index_of(khash(i2))
        iw1 = u32.index_of(khash(a2))
        ipt = u32.index_of(khash(pt))
        assert (ii2, ia3) in h.edges
        assert (iw1, ia3) in h.edges
        assert (ipt, ia3) not in h.edges  # reduced away through rank 2

    def test_unresolved_blocks_reduction(self, u23):
        rows = [list(row) for row in u23.relation]
        rows[1][2] = "U"
        broken = Universe(
            u23.rank_cap, u23.entry_cap, u23.budget, u23.family,
            u23.classes, tuple(tuple(r) for r in rows),
        )
        with pytest.raises(UnresolvedRelation):
            build_hasse(broken)
        partial = build_hasse(broken, partial=True)
        assert (1, 2) in partial.unknown

    def test_a_cycle_of_two_distinct_classes_is_refused(self, u21):
        rows = [list(row) for row in u21.relation]
        rows[1][2] = rows[2][1] = "Y"
        broken = Universe(
            u21.rank_cap, u21.entry_cap, u21.budget, u21.family,
            u21.classes, tuple(tuple(r) for r in rows),
        )
        one, two = (cls.hash[:12] for cls in u21.classes[1:3])
        with pytest.raises(ValueError, match=f"^relation is not antisymmetric; .*{one} vs {two}"):
            build_hasse(broken)

    def test_dot_output(self, u23, pt, i2):
        dot = hasse_to_dot(build_hasse(u23))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert f'"{khash(pt)[:12]}"' in dot
        assert f'"{khash(pt)[:12]}" -> "{khash(i2)[:12]}";' in dot
        assert dot.count("->") == 4

    def test_dashed_unknown_edges_in_dot(self, u23):
        rows = [list(row) for row in u23.relation]
        rows[1][2] = "U"
        broken = Universe(
            u23.rank_cap, u23.entry_cap, u23.budget, u23.family,
            u23.classes, tuple(tuple(r) for r in rows),
        )
        dot = hasse_to_dot(build_hasse(broken, partial=True))
        assert "style=dashed" in dot


def _set_cell(entry, lower, upper):
    entry[:2] = lower, upper


class TestSerialization:
    def test_round_trip(self, u23, u32):
        for u in (u23, u32):
            loaded = load_universe(dump_universe(u))
            assert loaded == u and loaded.witnesses == u.witnesses and u.witnesses

    def test_format_fields(self, u23):
        obj = json.loads(dump_universe(u23))
        assert set(obj) == {"params", "classes", "relation", "witnesses"}
        assert obj["params"]["r"] == 2 and obj["params"]["w"] == 3
        assert set(obj["params"]["budget"]) == {"max_members", "max_entry", "max_depth"}
        assert all(v in "YNU" for row in obj["relation"] for v in row)
        cells = [[i, j] for i, row in enumerate(obj["relation"]) for j, v in enumerate(row)
                 if v == "Y" and i != j]
        assert [entry[:2] for entry in obj["witnesses"]] == cells
        for _, _, w in obj["witnesses"]:
            assert set(w) == {"q_sequence", "subset", "p_sequence"}

    def test_tampered_class_detected(self, u23):
        obj = json.loads(dump_universe(u23))
        obj["classes"][0]["hash"] = "0" * 64
        with pytest.raises(ValueError):
            load_universe(json.dumps(obj))

    def test_repeated_class_rejected(self, u23):
        obj = json.loads(dump_universe(u23))
        obj["classes"][2] = obj["classes"][1]
        name = obj["classes"][1]["hash"][:12]
        with pytest.raises(ValueError, match=f"universe class {name} is listed twice"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("status", ["WHATEVER", "closed", None])
    def test_status_other_than_closed_or_truncated_rejected(self, u23, status):
        obj = json.loads(dump_universe(u23))
        obj["classes"][3]["status"] = status
        name = obj["classes"][3]["hash"][:12]
        with pytest.raises(ValueError, match=f"universe class {name} has status"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("cell", ["X", "y", "", None])
    def test_relation_cell_outside_YNU_rejected(self, u23, cell):
        obj = json.loads(dump_universe(u23))
        obj["relation"][1][3] = cell
        with pytest.raises(ValueError, match=r"relation\[1\]\[3\]"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("cell", ["N", "U"])
    def test_diagonal_cell_other_than_Y_rejected(self, cell):
        # a class embeds into itself: an N would give a closure that misses
        # its own argument
        obj = json.loads(dump_universe(build_universe(2, 1)))
        obj["relation"][0][0] = cell
        with pytest.raises(ValueError, match=r"relation\[0\]\[0\]"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize(
        "params",
        [{"r": "four"}, {"r": 0}, {"r": True}, {"r": 2.0}, {"r": None}, {"w": -1},
         {"w": False}, {"w": "3"}, {"family": 5}, {"family": "quivers"}, {"family": None}],
        ids=["r-string", "r-zero", "r-bool", "r-float", "r-null", "w-negative", "w-bool",
             "w-string", "family-int", "family-unknown", "family-null"],
    )
    def test_params_out_of_range_rejected(self, u23, params):
        obj = json.loads(dump_universe(u23))
        obj["params"].update(params)
        (name,) = params
        with pytest.raises(ValueError, match=f"universe param {name} is "):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj, e: _set_cell(e, e[0], e[0]), "names no off-diagonal Y cell"),
            (lambda obj, e: _set_cell(e, e[1], e[0]), "names no off-diagonal Y cell"),
            (lambda obj, e: _set_cell(e, e[0], len(obj["classes"])), "names no off-diagonal Y cell"),
            (lambda obj, e: _set_cell(e, True, e[1]), "names no off-diagonal Y cell"),
            (lambda obj, e: obj["witnesses"].append(json.loads(json.dumps(e))), "is listed twice"),
            (lambda obj, e: obj["witnesses"].remove(e), r"\]\[\d+\] is 'Y' but has no witness"),
            (lambda obj, e: e[2].update(q_sequence=[True]), "not a list of integers"),
            (lambda obj, e: e[2].update(subset=[1.0, 2.0]), "not a list of integers"),
            (lambda obj, e: e[2].update(p_sequence=None), "not a list of integers"),
            (lambda obj, e: e[2].update(subset=e[2]["subset"][::-1]), "subset out of order"),
            (lambda obj, e: e[2].update(subset=[1, 1]), "subset out of order"),
            (lambda obj, e: e[2].update(subset=[1, 99]), "subset out of order"),
            (lambda obj, e: e[2].update(subset=[0, 1]), "subset out of order"),
            (lambda obj, e: e[2].update(subset=[1]), "subset out of order"),
            (lambda obj, e: e[2].update(q_sequence=[4]), "index out of range"),
            (lambda obj, e: e[2].update(p_sequence=[0]), "index out of range"),
            (lambda obj, e: e[2].pop("p_sequence"), "malformed universe"),
            (lambda obj, e: obj.pop("witnesses"), "lists no witnesses: rebuild it"),
        ],
        ids=["diagonal", "N-cell", "cell-out-of-range", "bool-index", "repeated", "missing",
             "bool-entry", "float-entry", "null-field", "subset-decreasing", "subset-repeated",
             "subset-above-size", "subset-below-one", "subset-size", "q-step-above-n",
             "p-step-below-one", "missing-field", "no-witnesses"],
    )
    def test_malformed_witness_rejected(self, u32, edit, message):
        # the first witness of a rank-2 class into a rank-3 one: its subset
        # has two indices, and the reversed cell is N
        obj = json.loads(dump_universe(u32))
        entry = next(e for e in obj["witnesses"] if len(e[2]["subset"]) == 2)
        edit(obj, entry)
        with pytest.raises(ValueError, match=message):
            load_universe(json.dumps(obj))

    def test_a_seed_of_another_shape_than_its_matrix_rejected(self, u32):
        # the seed a rank-2 class's witnesses are range-checked against
        obj = json.loads(dump_universe(u32))
        low = next(c for c in obj["classes"] if c["rank"] == 2)
        low["seed"] = next(c for c in obj["classes"] if c["rank"] == 3)["seed"]
        with pytest.raises(ValueError, match=f"class {low['hash'][:12]} has a seed of another shape"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("size, rank", [(2, 7), (2, 1), (2, 2.0), (1, True)],
                             ids=["above", "below", "float", "bool"])
    def test_a_rank_other_than_the_matrix_size_rejected(self, size, rank):
        # once loaded, such a file would be dumped again with the true rank
        obj = json.loads(dump_universe(build_universe(2, 1)))
        entry = next(c for c in obj["classes"] if c["rank"] == size)
        entry["rank"] = rank
        with pytest.raises(ValueError, match=f"class {entry['hash'][:12]} has rank {rank!r}, "):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("params", [{"r": 1}, {"w": 1}, {"w": 0}, {"family": "skew"}],
                             ids=["r", "w", "w-zero", "family"])
    def test_a_class_seed_outside_the_params_is_rejected_at_load(self, params):
        # r3 w2 quiver seeds: rank 3, entries up to 2, no frozen index
        obj = json.loads(dump_universe(build_universe(3, 2)))
        obj["params"].update(params)
        if params == {"family": "skew"}:  # a quiver passes as a skew seed
            assert load_universe(json.dumps(obj)).family == "skew"
            return
        with pytest.raises(ValueError, match=r"universe class \w{12} has seed .*, outside r="):
            load_universe(json.dumps(obj))

    def test_a_skew_seed_in_a_quiver_file_is_rejected(self):
        obj = json.loads(dump_universe(build_universe(2, 1, family="skew")))
        obj["params"]["family"] = "quiver"
        with pytest.raises(ValueError, match="outside r=2 w=1 family quiver"):
            load_universe(json.dumps(obj))

    def test_missing_family_means_quiver(self, u23):
        obj = json.loads(dump_universe(u23))
        del obj["params"]["family"]
        assert load_universe(json.dumps(obj)) == u23

    def test_find_by_prefix(self, u23, pt):
        full = khash(pt)
        assert u23.find(full[:10]).hash == full
        with pytest.raises(KeyError):
            u23.find("zzzz")


class TestBuildAndLoadAgree:
    """Build refuses what load refuses: the caps, the family, and the class
    seeds against them are one check."""

    def test_an_unknown_family_with_given_seeds_fails_at_build(self):
        # once built it would dump to a file that load refuses
        with pytest.raises(ValueError, match="universe param family is 'bogus'"):
            build_universe(2, 1, family="bogus", seeds=list(iter_quiver_seeds(2, 1)))

    def test_an_unknown_family_without_seeds_fails_at_build(self):
        with pytest.raises(ValueError, match="universe param family is 'bogus'"):
            build_universe(2, 1, family="bogus")

    def test_given_seeds_above_the_caps_fail_at_build_and_at_load(self):
        seeds = list(iter_quiver_seeds(3, 2))
        with pytest.raises(ValueError, match="outside r=1 w=0 family quiver"):
            build_universe(1, 0, seeds=seeds)
        # the file such a build once wrote: 15 classes up to rank 3 under r=1, w=0
        u = build_universe(3, 2, seeds=seeds)
        assert len(u.classes) == 15 and max(cls.rank for cls in u.classes) == 3
        obj = json.loads(dump_universe(u))
        obj["params"].update(r=1, w=0)
        with pytest.raises(ValueError, match="outside r=1 w=0 family quiver"):
            load_universe(json.dumps(obj))

    @pytest.mark.parametrize("caps", [(0, 1), (2, -1), (True, 1), (2, False)],
                             ids=["r-zero", "w-negative", "r-bool", "w-bool"])
    def test_caps_out_of_range_fail_at_build(self, caps):
        with pytest.raises(ValueError, match="universe param [rw] is "):
            build_universe(*caps)


class TestSeedIterators:
    def test_the_generators_match_the_two_loop_reference(self):
        assert list(iter_quiver_seeds(4, 1)) == list(oracles.reference_quiver_seeds(4, 1))
        assert list(iter_skew_seeds(3, 2)) == list(oracles.reference_skew_seeds(3, 2))

    def test_quiver_seed_count(self):
        # size 2 with entries in [-2, 2]: five matrices plus the point
        assert sum(1 for _ in iter_quiver_seeds(2, 2)) == 6

    def test_skew_seeds_are_valid(self):
        seeds = list(iter_skew_seeds(2, 2))
        assert all(s.size <= 2 for s in seeds)
        assert any(s.m == 1 for s in seeds)
        assert any(s.d != (1,) * s.size for s in seeds)
