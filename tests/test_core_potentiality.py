"""Tests for repro.core.potentiality (Def. 1 of the paper)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.potentiality import PotentialityScorer, counterexample_potentiality


class TestDefinitionCases:
    def test_verified_node_has_minus_infinity(self):
        assert counterexample_potentiality(0.5, False, 3, 10, 0.5, -1.0) == float("-inf")

    def test_valid_counterexample_has_plus_infinity(self):
        assert counterexample_potentiality(-0.5, True, 3, 10, 0.5, -1.0) == float("inf")

    def test_false_alarm_is_finite_and_in_unit_interval(self):
        value = counterexample_potentiality(-0.5, False, 3, 10, 0.5, -1.0)
        assert 0.0 <= value <= 1.0

    def test_matches_formula(self):
        lam, depth, total, p_hat, p_min = 0.3, 4, 20, -0.6, -2.0
        expected = lam * depth / total + (1 - lam) * (p_hat / p_min)
        assert counterexample_potentiality(p_hat, False, depth, total, lam, p_min) \
            == pytest.approx(expected)

    def test_zero_p_hat_uses_depth_only(self):
        value = counterexample_potentiality(0.0, False, 5, 10, 0.5, -1.0)
        assert value == pytest.approx(0.5 * 0.5)


class TestMonotonicity:
    def test_deeper_nodes_score_higher(self):
        shallow = counterexample_potentiality(-0.5, False, 1, 10, 0.5, -1.0)
        deep = counterexample_potentiality(-0.5, False, 5, 10, 0.5, -1.0)
        assert deep > shallow

    def test_more_negative_bounds_score_higher(self):
        mild = counterexample_potentiality(-0.1, False, 2, 10, 0.5, -1.0)
        severe = counterexample_potentiality(-0.9, False, 2, 10, 0.5, -1.0)
        assert severe > mild

    def test_lambda_zero_ignores_depth(self):
        a = counterexample_potentiality(-0.4, False, 1, 10, 0.0, -1.0)
        b = counterexample_potentiality(-0.4, False, 9, 10, 0.0, -1.0)
        assert a == pytest.approx(b)

    def test_lambda_one_ignores_bound(self):
        a = counterexample_potentiality(-0.1, False, 3, 10, 1.0, -1.0)
        b = counterexample_potentiality(-0.9, False, 3, 10, 1.0, -1.0)
        assert a == pytest.approx(b)


class TestNormalisation:
    def test_depth_term_clamped_at_one(self):
        value = counterexample_potentiality(0.0, False, 50, 10, 1.0, -1.0)
        assert value == pytest.approx(1.0)

    def test_violation_term_clamped_at_one(self):
        value = counterexample_potentiality(-5.0, False, 0, 10, 0.0, -1.0)
        assert value == pytest.approx(1.0)

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            counterexample_potentiality(-0.5, False, 1, 10, 1.5, -1.0)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            counterexample_potentiality(-0.5, False, -1, 10, 0.5, -1.0)

    def test_invalid_neuron_count_rejected(self):
        with pytest.raises(ValueError):
            counterexample_potentiality(-0.5, False, 1, 0, 0.5, -1.0)


class TestScorer:
    def test_observe_tracks_most_negative_bound(self):
        scorer = PotentialityScorer(num_relu_neurons=10, lam=0.5)
        scorer.observe(-0.5)
        scorer.observe(-2.0)
        scorer.observe(-1.0)
        assert scorer.p_hat_min == pytest.approx(-2.0)

    def test_observe_ignores_positive_and_minus_infinity(self):
        scorer = PotentialityScorer(num_relu_neurons=10, lam=0.5)
        scorer.observe(-1.0)
        scorer.observe(0.7)
        scorer.observe(float("-inf"))
        assert scorer.p_hat_min == pytest.approx(-1.0)

    def test_score_uses_current_normalisation(self):
        scorer = PotentialityScorer(num_relu_neurons=10, lam=0.0)
        scorer.observe(-2.0)
        assert scorer.score(-1.0, False, 0) == pytest.approx(0.5)

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_invalid_lambda_rejected_at_construction(self, lam):
        with pytest.raises(ValueError, match="lam"):
            PotentialityScorer(num_relu_neurons=10, lam=lam)

    @pytest.mark.parametrize("neurons", [0, -3])
    def test_invalid_neuron_count_rejected_at_construction(self, neurons):
        with pytest.raises(ValueError, match="ReLU"):
            PotentialityScorer(num_relu_neurons=neurons, lam=0.5)

    def test_score_matches_the_checked_definition(self):
        scorer = PotentialityScorer(num_relu_neurons=12, lam=0.3)
        scorer.observe(-1.7)
        for p_hat, valid, depth in ((-0.4, False, 5), (0.2, False, 1),
                                    (-0.4, True, 2), (0.0, False, 30)):
            assert scorer.score(p_hat, valid, depth) == counterexample_potentiality(
                p_hat, valid, depth, 12, 0.3, scorer.p_hat_min)

    def test_score_special_cases(self):
        scorer = PotentialityScorer(num_relu_neurons=10, lam=0.5)
        assert scorer.score(0.3, False, 2) == float("-inf")
        assert scorer.score(-0.3, True, 2) == float("inf")


@settings(max_examples=50, deadline=None)
@given(p_hat=st.floats(min_value=-10.0, max_value=-1e-6),
       depth=st.integers(min_value=0, max_value=100),
       total=st.integers(min_value=1, max_value=100),
       lam=st.floats(min_value=0.0, max_value=1.0),
       p_min=st.floats(min_value=-10.0, max_value=-1e-3))
def test_false_alarm_potentiality_always_in_unit_interval(p_hat, depth, total, lam, p_min):
    value = counterexample_potentiality(p_hat, False, depth, total, lam, p_min)
    assert 0.0 <= value <= 1.0
