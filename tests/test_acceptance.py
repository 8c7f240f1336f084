"""Acceptance suite: one test per exit criterion, each printing a PASS or
FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them all).

Regression constants in this module were computed first with the
brute-force oracles in oracles.py and then pinned.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations, product

import pytest

import oracles
from conftest import quiver, random_quiver, random_skew, weighted_pair
from mutopo import (
    Budget,
    Store,
    Verdict,
    build,
    canonical_form,
    class_key,
    closure,
    collect_classes,
    density_witness,
    dump_universe,
    embeds,
    enumerate_class,
    in_E_N,
    is_clopen,
    is_closed,
    is_mutation_finite,
    is_N_abundant,
    is_open,
    iter_quiver_seeds,
    mutate,
    replay_embedding,
    same_class,
    build_universe,
)

A4_CLASS_SIZE = 6  # |[A4]| up to isomorphism, pinned from the oracle


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="session")
def acceptance_store(tmp_path_factory):
    with Store(tmp_path_factory.mktemp("acceptance-cache")) as store:
        yield store


@pytest.fixture(scope="session")
def u33_timed(acceptance_store):
    started = time.perf_counter()
    u = build_universe(3, 3, store=acceptance_store)
    return u, time.perf_counter() - started


@pytest.fixture(scope="session")
def u32(acceptance_store):
    return build_universe(3, 2, store=acceptance_store)


def _named():
    return {
        "pt": quiver([[0]]),
        "i2": quiver([[0, 0], [0, 0]]),
        "w1": weighted_pair(1),
        "w2": weighted_pair(2),
        "w3": weighted_pair(3),
        "w5": weighted_pair(5),
        "a3": quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),
        "disc": quiver([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
        "cyc321": quiver([[0, -1, 3], [1, 0, -2], [-3, 2, 0]]),
        "markov": quiver([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]),
    }


def test_criterion_1_figure_one_facts(u33_timed, acceptance_store):
    with criterion(1, "Figure-1 embedding facts on universe(r=3, w=3)"):
        u, build_seconds = u33_timed
        started = time.perf_counter()
        named = _named()
        keys = {
            name: class_key(B, u.budget, acceptance_store).hash
            for name, B in named.items()
            if name != "w5"  # entries above w: its class is not a universe node
        }
        for name in ("pt", "i2", "w1", "w2", "w3", "a3", "disc", "markov"):
            assert keys[name] in u.hashes
        assert all(u.verdict(keys["pt"], cls.hash) == "Y" for cls in u.classes)
        assert u.verdict(keys["i2"], keys["a3"]) == "Y"
        assert u.verdict(keys["w1"], keys["a3"]) == "Y"
        assert u.verdict(keys["i2"], keys["disc"]) == "Y"
        assert u.verdict(keys["w1"], keys["disc"]) == "Y"
        for name in ("w1", "w2", "w3", "w5"):
            ev = embeds(named[name], named["cyc321"], u.budget, store=acceptance_store)
            assert ev.verdict is Verdict.YES
            assert replay_embedding(named[name], named["cyc321"], ev)
        ev = embeds(named["w2"], named["markov"], u.budget, store=acceptance_store)
        assert ev.verdict is Verdict.YES
        assert u.verdict(keys["w2"], keys["markov"]) == "Y"
        ev = embeds(named["w3"], named["markov"], u.budget, store=acceptance_store)
        assert ev.verdict is Verdict.NO
        assert u.verdict(keys["w3"], keys["markov"]) == "N"
        elapsed = build_seconds + (time.perf_counter() - started)
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_example_closed_set(u32, acceptance_store):
    with criterion(2, "closure of the rank-3 path class is the documented 4-class set"):
        named = _named()
        keys = {
            name: class_key(named[name], u32.budget, acceptance_store).hash
            for name in ("pt", "i2", "w1", "a3")
        }
        started = time.perf_counter()
        got = closure(u32, [keys["a3"]])
        elapsed = time.perf_counter() - started
        assert got == {keys["a3"], keys["w1"], keys["i2"], keys["pt"]}
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_class_sizes(acceptance_store):
    with criterion(3, "class sizes match the brute-force oracle (A2, A3, Markov, A4)"):
        named = _named()
        a4 = quiver([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]])
        expected = {"a2": 1, "a3": 4, "markov": 1}
        named["a2"] = named.pop("w1")
        for name, count in expected.items():
            B = named[name]
            members, closed = oracles.enumerate_class([list(r) for r in B.b], B.n)
            assert closed and len(members) == count
            enum = enumerate_class(B, store=acceptance_store)
            assert enum.status == "CLOSED" and enum.count == count
        started = time.perf_counter()
        verdict = is_mutation_finite(a4, store=acceptance_store)
        elapsed = time.perf_counter() - started
        assert verdict.kind.value == "FINITE"
        assert verdict.members == A4_CLASS_SIZE
        oracle_members, oracle_closed = oracles.enumerate_class(
            [list(r) for r in a4.b], 4
        )
        assert oracle_closed and len(oracle_members) == A4_CLASS_SIZE
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_mutation_algebra():
    with criterion(4, "involution, symmetrizer preservation, and graph/matrix "
                      "agreement on 1000 random quivers"):
        rng = random.Random(0xC4)
        for _ in range(1000):
            size = rng.randint(2, 6)
            B = random_quiver(rng, size, 3)
            k = rng.randint(1, size)
            out = mutate(B, k)
            assert mutate(out, k).b == B.b
            assert out.d == B.d
            for i in range(size):
                for j in range(size):
                    assert out.d[i] * out.b[i][j] == -out.d[j] * out.b[j][i]
            expected = oracles.graph_mutate([list(r) for r in B.b], k)
            assert [list(r) for r in out.b] == expected


def test_criterion_5_topology_axioms(u32):
    with criterion(5, "topology axioms and clopen triviality on universe(r=3, w=2)"):
        rng = random.Random(0x5A)
        hashes = sorted(u32.hashes)
        full = u32.hashes
        assert is_clopen(u32, [])
        assert is_clopen(u32, full)
        nontrivial = 0
        for _ in range(1000):
            density = rng.random()
            A = frozenset(h for h in hashes if rng.random() < density)
            if A and A != full:
                nontrivial += 1
                assert not is_clopen(u32, A)
        assert nontrivial > 800  # the sample really exercised nontrivial subsets
        rank_of = {cls.hash: cls.rank for cls in u32.classes}
        for _ in range(200):
            density = rng.random()
            A = frozenset(h for h in hashes if rng.random() < density)
            B = A | frozenset(h for h in hashes if rng.random() < 0.2)
            closed_a = closure(u32, A)
            closed_b = closure(u32, B)
            assert A <= closed_a
            assert closed_a <= closed_b
            assert closure(u32, closed_a) == closed_a
            assert closure(u32, A | B) == closed_a | closed_b
            assert is_open(u32, A) == is_closed(u32, full - A)
            if A:
                assert max(rank_of[h] for h in closed_a) == max(rank_of[h] for h in A)
        # comparability graph is connected
        count = len(u32.classes)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(count):
                if j not in seen and (
                    u32.relation[i][j] == "Y" or u32.relation[j][i] == "Y"
                ):
                    seen.add(j)
                    frontier.append(j)
        assert seen == set(range(count))


def test_criterion_6_chains(u33_timed, acceptance_store):
    with criterion(6, "C3 within C2 within C1 = E1 within E2, all closed, on "
                      "universe(r=3, w=3)"):
        u, _ = u33_timed
        reps = {cls.hash: cls.key.form.matrix for cls in u.classes}
        abundant = {
            bound: {
                h: is_N_abundant(rep, bound, u.budget, store=acceptance_store)
                for h, rep in reps.items()
            }
            for bound in (1, 2, 3)
        }
        avoiding = {
            bound: {
                h: in_E_N(rep, bound, u.budget, store=acceptance_store)
                for h, rep in reps.items()
            }
            for bound in (1, 2)
        }
        for h in reps:
            assert abundant[1][h] == avoiding[1][h], f"C1 != E1 at {h[:12]}"
        sets = {
            "C3": {h for h, v in abundant[3].items() if v is Verdict.YES},
            "C2": {h for h, v in abundant[2].items() if v is Verdict.YES},
            "C1": {h for h, v in abundant[1].items() if v is Verdict.YES},
            "E1": {h for h, v in avoiding[1].items() if v is Verdict.YES},
            "E2": {h for h, v in avoiding[2].items() if v is Verdict.YES},
        }
        assert sets["C3"] <= sets["C2"] <= sets["C1"]
        assert sets["C1"] == sets["E1"]
        assert sets["E1"] <= sets["E2"]
        assert sets["C3"] < sets["C2"] < sets["E2"]  # the chain is strict here
        for name, subset in sets.items():
            assert is_closed(u, subset), f"{name} is not closed"


def test_criterion_7_density_mechanism():
    with criterion(7, "density witnesses replay for 100 random pairs"):
        rng = random.Random(0xD7)
        for _ in range(100):
            if rng.random() < 0.5:
                P = random_quiver(rng, rng.randint(1, 4), 3)
            else:
                n = rng.randint(1, 3)
                P = random_skew(rng, n, rng.randint(0, 4 - n))
            Q = random_quiver(rng, rng.randint(1, 4), 2)
            R, vp, vq = density_witness(P, Q)
            assert R.size == P.size + Q.size
            assert vp.verdict is Verdict.YES and vq.verdict is Verdict.YES
            assert replay_embedding(P, R, vp)
            assert replay_embedding(Q, R, vq)


def _iter_m0_candidates(n, cap):
    """All sign-coherent integer matrices with m = 0, |entries| <= cap."""
    options = [(0, 0)]
    for a in range(1, cap + 1):
        for c in range(1, cap + 1):
            options.append((a, -c))
            options.append((-a, c))
    pairs = list(combinations(range(n), 2))
    for values in product(options, repeat=len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for (i, j), (x, y) in zip(pairs, values):
            rows[i][j] = x
            rows[j][i] = y
        yield rows


def test_criterion_8_oracle_equivalence(acceptance_store):
    with criterion(8, "canonical forms, class identity, and embeddings match "
                      "the exhaustive oracle"):
        from mutopo.matrix import NotSkewSymmetrizable

        # canonical forms: every skew-symmetrizable matrix, n <= 4, m = 0,
        # entries bounded by 2
        checked = 0
        for n in (1, 2, 3, 4):
            for rows in _iter_m0_candidates(n, 2):
                try:
                    B = build(n, 0, rows)
                except NotSkewSymmetrizable:
                    continue
                flat = tuple(v for row in canonical_form(B).matrix.b for v in row)
                assert flat == oracles.lexmin_relabeling(rows, n, 0)
                checked += 1
        assert checked > 10_000

        # class identity and embeddings, on the classes those matrices form;
        # exhaustive at rank <= 3, rank 4 against all smaller ranks plus a
        # deterministic same-rank sample
        classes = collect_classes(iter_quiver_seeds(4, 2), Budget(), acceptance_store)
        small = [c for c in classes if c.rank <= 3]
        rank4 = [c for c in classes if c.rank == 4]
        sample = rank4[:: max(1, len(rank4) // 12)]
        pairs = [(a, b) for a in small for b in small]
        pairs += [(a, b) for a in small for b in sample]
        pairs += [(a, b) for a in sample for b in sample[:4]]
        caps = {"max_members": 120, "max_entry": 32}
        compared_same = compared_embeds = 0
        for ca, cb in pairs:
            A = ca.key.form.matrix
            B = cb.key.form.matrix
            rows_a = [list(r) for r in A.b]
            rows_b = [list(r) for r in B.b]
            oracle = oracles.same_class(rows_a, rows_b, A.n, **caps)
            if oracle != "UNKNOWN":
                ours = same_class(A, B, store=acceptance_store)
                assert ours.value == oracle, f"same_class {ca.hash[:8]} {cb.hash[:8]}"
                compared_same += 1
            oracle = oracles.embeds(rows_a, A.n, rows_b, B.n, **caps)
            if oracle != "UNKNOWN":
                ours = embeds(A, B, store=acceptance_store)
                assert ours.verdict.value == oracle, f"embeds {ca.hash[:8]} {cb.hash[:8]}"
                compared_embeds += 1
        assert compared_same > 300 and compared_embeds > 150


def test_criterion_9_cache_transparency(tmp_path_factory):
    with criterion(9, "warm-cache results are byte-identical to cold and to "
                      "cache-free runs over the Figure-1 workload"):
        named = _named()

        def witness_json(ev):
            payload = {"verdict": ev.verdict.value, "witness": None}
            if ev.witness is not None:
                payload["witness"] = {
                    "q_sequence": list(ev.witness.q_sequence),
                    "subset": list(ev.witness.subset),
                    "p_sequence": list(ev.witness.p_sequence),
                }
            return json.dumps(payload, sort_keys=True)

        def workload(store):
            results = {}
            u = build_universe(3, 3, store=store)
            results["universe"] = dump_universe(u)
            for name, B in named.items():
                enum = enumerate_class(B, store=store)
                results[f"class/{name}"] = json.dumps(
                    {
                        "seed": enum.seed.hash,
                        "status": enum.status,
                        "members": [
                            [mem.form.hash, list(mem.witness)] for mem in enum.members
                        ],
                    }
                )
            targets = ["a3", "disc", "cyc321", "markov"]
            for p_name in ("pt", "i2", "w1", "w2", "w3", "w5"):
                for q_name in targets:
                    ev = embeds(named[p_name], named[q_name], store=store)
                    results[f"embeds/{p_name}/{q_name}"] = witness_json(ev)
            return results

        cache_dir = tmp_path_factory.mktemp("transparency-cache")
        with Store(cache_dir) as store:
            cold = workload(store)
        with Store(cache_dir) as store:
            warm = workload(store)
        uncached = workload(None)
        assert cold == warm
        assert cold == uncached
        mismatches = [key for key in cold if warm[key] != uncached[key]]
        assert mismatches == []
