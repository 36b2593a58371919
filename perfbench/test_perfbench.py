"""Tests of the benchmark's own helpers (run: ``PYTHONPATH=src python3 -m pytest perfbench``)."""

from __future__ import annotations

import random
import types

import numpy as np
import pytest

from perfbench import layers
from perfbench.metrics import Record, check_records, end_to_end, percentile
from perfbench.tracer import Site, Span, Tracer, self_times, union_length
from repro.nn import dense_network
from repro.specs.properties import InputBox, LinearOutputSpec, Specification
from repro.verifiers.result import VerificationResult, VerificationStatus


class FakeClock:
    """A clock that advances one unit per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_p90_of_100_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    p90 = percentile(values, 0.9)
    assert p90 == 90
    assert sum(1 for value in values if value > p90) == 10
    assert percentile(values, 0.5) == 50
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_only_direct_children():
    spans = [Span(0, "round", 0.0, None, 1, False, end=10.0),
             Span(1, "bound", 1.0, 0, 1, False, end=4.0),
             Span(2, "kernel", 2.0, 1, 1, False, end=3.0),
             Span(3, "lp", 5.0, 0, 1, False, end=7.0)]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([]) == 0.0


def test_tracer_nests_spans_and_marks_reentrant_calls():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("problem"):
        with tracer.span("round"):
            with tracer.span("round"):
                pass
    outer, round_, inner = tracer.spans
    assert (round_.parent, inner.parent) == (outer.id, round_.id)
    assert not round_.reentrant and inner.reentrant
    assert [span.duration for span in tracer.spans] == [5.0, 3.0, 1.0]


def _double(value):
    return 2 * value


class _Widget:
    def scale(self, value):
        return 3 * value


def test_install_wraps_then_restores_the_original_objects():
    module = types.ModuleType("fake_module")
    module.double = _double
    original_function, original_method = module.double, vars(_Widget)["scale"]
    tracer = Tracer(clock=FakeClock())
    sites = [Site(module, "double", "double", lambda args, kwargs: args[0]),
             Site(_Widget, "scale", "scale")]
    with pytest.raises(RuntimeError):
        with tracer.installed(sites):
            assert module.double is not original_function
            assert module.double(4) == 8 and _Widget().scale(2) == 6
            raise RuntimeError("the block fails")
    assert module.double is original_function
    assert vars(_Widget)["scale"] is original_method
    assert [(span.name, span.detail) for span in tracer.spans] == [("double", 4), ("scale", None)]


def test_every_library_site_is_restored():
    sites = layers.sites()
    originals = [vars(site.owner)[site.attr] for site in sites]
    with Tracer().installed(sites):
        assert all(vars(site.owner)[site.attr] is not original
                   for site, original in zip(sites, originals))
    assert all(vars(site.owner)[site.attr] is original
               for site, original in zip(sites, originals))


@pytest.fixture(scope="module")
def violated_problem():
    """A network and a specification violated at the centre of its box."""
    network = dense_network([2, 4, 2], seed=0, name="check")
    box = InputBox(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    output = np.asarray(network.forward(box.center.reshape(1, -1))).reshape(-1)
    coefficients = np.array([[1.0, -1.0]])
    offset = -(output[0] - output[1]) - 1.0
    spec = Specification(box, LinearOutputSpec(coefficients, np.array([offset])))
    return network, spec


def _result(status, counterexample=None):
    return VerificationResult(status=status, verifier="test", nodes_explored=3,
                              counterexample=counterexample)


def test_check_counts_a_tampered_counterexample(violated_problem):
    network, spec = violated_problem
    centre = spec.input_box.center
    records = [Record("genuine", 0.1, _result(VerificationStatus.FALSIFIED, centre)),
               Record("tampered", 0.1, _result(VerificationStatus.FALSIFIED, centre + 5.0))]
    failures = check_records(records, {"genuine": violated_problem,
                                       "tampered": violated_problem}, seed=0)
    assert [(record.key, reason) for record, reason in failures] == [
        ("tampered", "counterexample does not violate the specification")]
    metrics = end_to_end([(records, 1.0)], len(failures), setup_s=0.5)
    assert metrics["ok_frac"] == 0.5


def test_check_counts_errors_wrong_verdicts_and_disagreements(violated_problem):
    problems = {key: violated_problem for key in "abc"}
    records = [Record("a", 0.1, None, error="ValueError: boom"),
               Record("b", 0.1, _result(VerificationStatus.VERIFIED)),
               Record("c", 0.1, _result(VerificationStatus.TIMEOUT)),
               Record("c", 0.1, _result(VerificationStatus.TIMEOUT)),
               Record("c", 0.1, _result(VerificationStatus.UNKNOWN))]
    reasons = [reason for _, reason in check_records(records, problems, seed=0)]
    assert reasons == ["ValueError: boom",
                       "a sampled input violates a VERIFIED specification",
                       "verdict unknown differs from an earlier timeout"]
