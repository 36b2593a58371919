"""What a bound report holds, and how it is laid out.

A DeepPoly or α-CROWN report bounds only the spec rows, from below; the
logits are bounded by asking for the rows ``[I; −I]``.  The hidden bounds
of a batched call live in one layer-major
array per side: each report's flat row is a view of it, siblings share it,
and the per-layer bounds are views of the row.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import make_random_dense_problem
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bounds import (
    TOLERANCE,
    assert_report_matches,
    logit_spec,
    reference_deeppoly,
)

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment


def _children(root):
    """Both children of the root's first two unstable neurons."""
    splits, parents = [], []
    for layer, unit in root.unstable_neurons()[:2]:
        for phase in (ACTIVE, INACTIVE):
            split = ReluSplit(layer, unit, phase)
            splits.append(SplitAssignment.empty(
                np.diff(root.hidden_bounds.offsets).tolist()).with_split(split))
            parents.append((root, split))
    return splits, parents


class TestFlatRows:
    def test_sibling_rows_share_one_batch_array(self):
        network, spec = make_random_dense_problem(3, 3, 6, 0.2)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        root = analyzer.analyze(box, spec=spec.output_spec)
        splits, parents = _children(root)
        assert len(splits) >= 2
        batches = [analyzer.analyze_batch(box, splits, spec=spec.output_spec,
                                          parents=parents),
                   analyzer.analyze_batch(box, splits, spec=spec.output_spec)]
        for reports in batches:
            first = reports[0].flat_bounds()
            lower, upper = first.lower.base, first.upper.base
            assert lower.shape == upper.shape == (len(reports), first.offsets[-1])
            for report in reports:
                flat = report.flat_bounds()
                assert flat is report.hidden_bounds
                assert flat.offsets is first.offsets
                assert flat.lower.base is lower and flat.upper.base is upper
                assert np.shares_memory(flat.lower, lower)
                assert np.shares_memory(flat.upper, upper)
                for layer, bounds in enumerate(report.pre_activation_bounds):
                    assert np.shares_memory(bounds.lower, flat.lower)
                    np.testing.assert_array_equal(bounds.lower,
                                                  flat.layer(flat.lower, layer))
                    np.testing.assert_array_equal(bounds.upper,
                                                  flat.layer(flat.upper, layer))
            # Distinct rows: a sibling's row is its own slice of the array.
            assert not np.shares_memory(reports[0].hidden_bounds.lower,
                                        reports[1].hidden_bounds.lower)

    def test_layers_cannot_be_replaced_in_place(self):
        network, spec = make_random_dense_problem(5, 2, 4, 0.1)
        report = DeepPolyAnalyzer(network).analyze(spec.input_box,
                                                   spec=spec.output_spec)
        with pytest.raises(TypeError):
            report.pre_activation_bounds[0] = report.pre_activation_bounds[1]


class TestSpecRowsFromBelow:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6), epsilon=st.floats(0.02, 0.3))
    def test_deeppoly_spec_rows_match_the_oracle(self, seed, depth, width, epsilon):
        """The spec rows, ``p̂`` and the candidate match the oracle (roots
        and children alike), on the problem's spec and on the logit rows.
        The hidden bounds do not depend on the spec, bit for bit."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        logit_rows = logit_spec(network.output_dim)
        root = analyzer.analyze(box, spec=spec.output_spec)
        splits, parents = _children(root)
        children = analyzer.analyze_batch(box, splits, spec=spec.output_spec,
                                          parents=parents)
        plain = analyzer.analyze_batch(box, splits, logit_rows, parents=parents)
        assert_report_matches(root, reference_deeppoly(network, box, None,
                                                       spec.output_spec))
        for child_splits, child, logits in zip(splits, children, plain):
            assert child.spec_row_lower.shape == (spec.output_spec.num_constraints,)
            assert logits.spec_row_lower.shape == (2 * network.output_dim,)
            assert_report_matches(child, reference_deeppoly(
                network, box, child_splits, spec.output_spec, parent=root))
            assert_report_matches(logits, reference_deeppoly(
                network, box, child_splits, logit_rows, parent=root))
            np.testing.assert_array_equal(child.hidden_bounds.lower,
                                          logits.hidden_bounds.lower)
            np.testing.assert_array_equal(child.hidden_bounds.upper,
                                          logits.hidden_bounds.upper)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6))
    def test_alpha_crown_spec_rows_match_the_oracle(self, seed, depth, width):
        """An α-CROWN report's spec rows match the oracle run with the
        report's optimised slopes."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.15)
        analyzer = AlphaCrownAnalyzer(network, AlphaCrownConfig(iterations=3))
        box = spec.input_box
        splits_list = [SplitAssignment.empty(network.relu_layer_sizes())] + _children(
            DeepPolyAnalyzer(network).analyze(box, spec=spec.output_spec))[0]
        reports = analyzer.analyze_batch(box, splits_list, spec=spec.output_spec)
        for splits, report in zip(splits_list, reports):
            slopes = analyzer._slope_store[splits.key]
            want = reference_deeppoly(network, box, splits, spec.output_spec,
                                      lower_slopes=slopes)
            np.testing.assert_allclose(report.spec_row_lower, want.spec_row_lower,
                                       rtol=0, atol=TOLERANCE)
            assert_report_matches(report, want)
