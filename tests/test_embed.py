import random

import oracles
from conftest import quiver, random_quiver, random_skew, weighted_pair
from mutopo import (
    Budget,
    Verdict,
    build,
    canonical_form,
    density_witness,
    embeds,
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
        assert embeds(a3, a2).verdict is Verdict.NO

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
            R, vp, vq = density_witness(P, Q)
            assert replay_embedding(P, R, vp)
            assert replay_embedding(Q, R, vq)
