"""Tests for repro.verifiers.result."""

import pytest

from repro.utils.timing import Budget
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    Verifier,
    make_budget,
)


class TestVerificationStatus:
    def test_conclusive_statuses(self):
        assert VerificationStatus.VERIFIED.is_conclusive
        assert VerificationStatus.FALSIFIED.is_conclusive
        assert not VerificationStatus.TIMEOUT.is_conclusive
        assert not VerificationStatus.UNKNOWN.is_conclusive


class TestVerificationResult:
    def test_solved_reflects_status(self):
        solved = VerificationResult(VerificationStatus.VERIFIED, "v")
        unsolved = VerificationResult(VerificationStatus.TIMEOUT, "v")
        assert solved.solved and not unsolved.solved

    def test_summary_contains_key_fields(self):
        result = VerificationResult(VerificationStatus.FALSIFIED, "ABONN",
                                    elapsed_seconds=1.5, nodes_explored=42, bound=-0.3)
        text = result.summary()
        assert "ABONN" in text and "falsified" in text and "42" in text

    def test_check_counterexample(self, small_network, small_spec):
        violating = None
        for sample in small_spec.input_box.sample(0, count=500):
            if small_spec.margin(small_network, sample) < 0:
                violating = sample
                break
        result = VerificationResult(VerificationStatus.FALSIFIED, "v",
                                    counterexample=violating)
        if violating is None:
            assert not result.check_counterexample(small_network, small_spec)
        else:
            assert result.check_counterexample(small_network, small_spec)

    def test_check_counterexample_without_one(self, small_network, small_spec):
        result = VerificationResult(VerificationStatus.VERIFIED, "v")
        assert not result.check_counterexample(small_network, small_spec)


class TestMakeBudget:
    def test_default_budget(self):
        budget = make_budget(None, default_nodes=123)
        assert budget.max_nodes == 123
        assert budget.nodes == 0

    def test_copy_semantics(self):
        original = Budget(max_nodes=10)
        original.charge_node(5)
        budget = make_budget(original)
        assert budget.nodes == 0
        assert budget.max_nodes == 10
        # The original is untouched by the verifier run.
        assert original.nodes == 5


class TestVerifierInterface:
    def test_base_class_is_abstract(self, small_network, small_spec):
        with pytest.raises(NotImplementedError):
            Verifier().verify(small_network, small_spec)

    def test_repr(self):
        assert "Verifier" in repr(Verifier())
