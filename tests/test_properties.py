import pytest

from conftest import quiver, weighted_pair
from mutopo import (
    Budget,
    Verdict,
    build,
    disjoint_union,
    in_E_N,
    is_avoiding,
    is_k_universal_bounded,
    is_mutation_acyclic,
    is_N_abundant,
    isolated_quiver,
)


class TestAvoiding:
    def test_markov_avoids_arrowless_pair(self, markov, i2):
        assert is_avoiding(markov, [i2]) is Verdict.YES

    def test_a3_does_not_avoid_arrowless_pair(self, a3, i2):
        assert is_avoiding(a3, [i2]) is Verdict.NO

    def test_nothing_avoids_the_point(self, pt, a3, markov, cycle321):
        for Q in (a3, markov, cycle321):
            assert is_avoiding(Q, [pt]) is Verdict.NO

    def test_order_of_patterns_is_irrelevant(self, markov, i2, a2):
        w3 = weighted_pair(3)
        assert is_avoiding(markov, [i2, w3]) is Verdict.YES
        assert is_avoiding(markov, [w3, i2]) is Verdict.YES

    def test_unknown_propagates(self, cycle321):
        # weight 4 against a truncated gcd-1 class: the search cannot settle it
        star = quiver([[0, 3, 2], [-3, 0, 0], [-2, 0, 0]])
        assert is_avoiding(star, [weighted_pair(4)]) is Verdict.UNKNOWN


class TestMutationAcyclic:
    def test_seed_already_acyclic(self, a3):
        assert is_mutation_acyclic(a3) is Verdict.YES

    def test_unit_cycle_reaches_a_path(self):
        cycle = quiver([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        assert is_mutation_acyclic(cycle) is Verdict.YES

    def test_markov_is_not(self, markov):
        assert is_mutation_acyclic(markov) is Verdict.NO

    def test_wild_cyclic_class_is_unknown(self, w333):
        # w333 is cyclic with weights >= 2 and Markov constant 0 <= 4, so it
        # is mutation-cyclic (Beineke, Brüstle & Hille) though TRUNCATED
        assert is_mutation_acyclic(w333, Budget(max_members=200)) is Verdict.NO
        # the double 4-cycle: no acyclic member found, and no such triangle
        double_4_cycle = quiver(
            [[0, -2, 0, 2], [2, 0, -2, 0], [0, 2, 0, -2], [-2, 0, 2, 0]]
        )
        assert is_mutation_acyclic(double_4_cycle, Budget(max_members=200)) is Verdict.UNKNOWN


class TestAbundance:
    def test_markov_two_abundant(self, markov):
        assert is_N_abundant(markov, 2) is Verdict.YES

    def test_a3_not_one_abundant(self, a3):
        assert is_N_abundant(a3, 1) is Verdict.NO

    def test_point_trivially_abundant(self, pt):
        for bound in (1, 2, 10):
            assert is_N_abundant(pt, bound) is Verdict.YES

    def test_markov_not_three_abundant(self, markov):
        assert is_N_abundant(markov, 3) is Verdict.NO

    def test_wild_class_with_every_edge_present(self, cycle321):
        # the enumeration truncates, but the reflection orbit shows no
        # member ever drops an edge
        assert is_N_abundant(cycle321, 1) is Verdict.YES

    def test_unknown_on_truncated_cyclic_class(self, w333):
        # no acyclic member is ever discovered, but every member of the
        # class of w333 is cyclic with weights >= 2 (Beineke, Brüstle & Hille)
        assert is_N_abundant(w333, 1, Budget(max_members=200)) is Verdict.YES
        # a TRUNCATED rank-4 class: no member seen drops an arrow, and the
        # rank-3 grounds for YES do not apply
        double_tournament = quiver(
            [[0, 2, 2, 2], [-2, 0, 2, 2], [-2, -2, 0, 2], [-2, -2, -2, 0]]
        )
        assert is_N_abundant(double_tournament, 1, Budget(max_members=200)) is Verdict.UNKNOWN

    def test_bound_must_be_positive(self, markov):
        with pytest.raises(ValueError):
            is_N_abundant(markov, 0)

    def test_skew_symmetrizable_uses_min_of_pair(self):
        B = build(2, 0, [[0, 1], [-2, 0]])
        assert is_N_abundant(B, 2) is Verdict.NO


class TestIsolatedAvoidance:
    def test_markov_in_e1(self, markov):
        assert in_E_N(markov, 1) is Verdict.YES

    def test_a3_not_in_e1(self, a3):
        assert in_E_N(a3, 1) is Verdict.NO

    def test_rank_bound_gives_yes(self, cycle321, w333):
        # rank of the isolated quiver exceeds the input rank: exhaustive NO embed
        assert in_E_N(cycle321, 3) is Verdict.YES
        assert in_E_N(w333, 3) is Verdict.YES

    def test_isolated_quiver_shape(self):
        iso = isolated_quiver(4)
        assert iso.size == 4 and iso.max_abs_entry == 0


class TestBoundedUniversality:
    def test_a3_fails_weight2(self, a3):
        assert is_k_universal_bounded(a3, 2, 2) is Verdict.NO

    def test_markov_fails_arrowless(self, markov):
        assert is_k_universal_bounded(markov, 2, 1) is Verdict.NO

    def test_point_is_too_small(self, pt):
        assert is_k_universal_bounded(pt, 2, 1) is Verdict.NO

    def test_positive_case(self, i2, a2):
        Q = disjoint_union(i2, a2)
        assert is_k_universal_bounded(Q, 2, 1) is Verdict.YES

    def test_k_must_exceed_one(self, markov):
        with pytest.raises(ValueError):
            is_k_universal_bounded(markov, 1, 1)

    def test_entry_cap_must_be_non_negative(self, a3):
        # with no cap check the test set holds only the rank-1 class: YES
        with pytest.raises(ValueError, match="entry cap is -1, not an integer >= 0"):
            is_k_universal_bounded(a3, 2, -1)


# each checker's integer parameters, with the least value each takes
INTEGER_PARAMETERS = {
    "k": (lambda Q, v: is_k_universal_bounded(Q, v, 1), 2),
    "entry cap": (lambda Q, v: is_k_universal_bounded(Q, 2, v), 0),
    "arrow bound": (lambda Q, v: is_N_abundant(Q, v), 1),
    "bound": (lambda Q, v: in_E_N(Q, v), 1),
}


@pytest.mark.parametrize("label", INTEGER_PARAMETERS)
def test_an_integer_parameter_is_an_exact_int_of_at_least_its_least(a3, label):
    # as for a universe's r and w: True once answered as 1 and 1.5 as 2,
    # and in_E_N(a3, 1.5) failed with a TypeError inside range
    check, least = INTEGER_PARAMETERS[label]
    for value in (True, 1.5, None, least - 1):
        with pytest.raises(ValueError, match=rf"^{label} is {value!r}, not an integer >= {least}$"):
            check(a3, value)
