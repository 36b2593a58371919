"""Tests for repro.specs.properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.specs.properties import InputBox, LinearOutputSpec


class TestInputBox:
    def test_basic_construction(self):
        box = InputBox([0.0, 0.1], [1.0, 0.9])
        assert box.dimension == 2
        np.testing.assert_allclose(box.center, [0.5, 0.5])
        np.testing.assert_allclose(box.radius, [0.5, 0.4])

    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError):
            InputBox([1.0], [0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            InputBox([np.nan], [1.0])

    def test_from_linf_ball_clips_to_domain(self):
        box = InputBox.from_linf_ball(np.array([0.05, 0.95]), 0.1)
        np.testing.assert_allclose(box.lower, [0.0, 0.85])
        np.testing.assert_allclose(box.upper, [0.15, 1.0])

    def test_from_linf_ball_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            InputBox.from_linf_ball(np.zeros(2), -0.1)

    def test_contains(self):
        box = InputBox([0.0, 0.0], [1.0, 1.0])
        assert box.contains(np.array([0.5, 0.5]))
        assert not box.contains(np.array([1.5, 0.5]))

    def test_clip(self):
        box = InputBox([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(box.clip(np.array([-1.0, 2.0])), [0.0, 1.0])

    def test_sample_stays_inside(self):
        box = InputBox([0.2, -0.5], [0.4, 0.5])
        samples = box.sample(0, count=50)
        assert samples.shape == (50, 2)
        assert all(box.contains(s) for s in samples)

    def test_corners(self):
        box = InputBox([0.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(box.corners(np.array([1.0, -1.0])), [1.0, 0.0])

    def test_volume_log(self):
        box = InputBox([0.0, 0.0], [1.0, np.e])
        assert box.volume_log == pytest.approx(1.0)

    def test_degenerate_volume(self):
        box = InputBox([0.5], [0.5])
        assert box.volume_log == float("-inf")


class TestLinearOutputSpec:
    def test_margin_and_satisfaction(self):
        spec = LinearOutputSpec(np.array([[1.0, -1.0]]), np.array([0.0]))
        assert spec.margin(np.array([2.0, 1.0])) == pytest.approx(1.0)
        assert spec.satisfied(np.array([2.0, 1.0]))
        assert not spec.satisfied(np.array([0.0, 1.0]))

    def test_margin_is_minimum_over_rows(self):
        spec = LinearOutputSpec(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, -5.0]))
        assert spec.margin(np.array([1.0, 2.0])) == pytest.approx(-3.0)

    def test_constraint_values_shape(self):
        spec = LinearOutputSpec(np.eye(3), np.zeros(3))
        assert spec.constraint_values(np.ones(3)).shape == (3,)

    def test_dimension_mismatch_rejected(self):
        spec = LinearOutputSpec(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            spec.margin(np.ones(3))

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            LinearOutputSpec(np.zeros((0, 3)), np.zeros(0))

    def test_offset_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearOutputSpec(np.eye(2), np.zeros(3))


class TestSpecification:
    def test_counterexample_detection(self, small_network, small_spec):
        inside_violating = None
        # A point far from the reference label region should violate for some sample.
        samples = small_spec.input_box.sample(0, count=200)
        for sample in samples:
            if small_spec.margin(small_network, sample) < 0:
                inside_violating = sample
                break
        if inside_violating is not None:
            assert small_spec.is_counterexample(small_network, inside_violating)

    def test_point_outside_box_is_not_counterexample(self, small_network, small_spec):
        outside = small_spec.input_box.upper + 1.0
        assert not small_spec.is_counterexample(small_network, outside)

    def test_margin_matches_output_spec(self, small_network, small_spec):
        point = small_spec.input_box.center
        output = small_network.forward(point.reshape(1, -1))[0]
        assert small_spec.margin(small_network, point) == pytest.approx(
            small_spec.output_spec.margin(output))

    def test_dims(self, small_spec):
        assert small_spec.input_dim == 4
        assert small_spec.output_dim == 3


@settings(max_examples=30, deadline=None)
@given(center=hnp.arrays(float, 3, elements=st.floats(0.0, 1.0)),
       epsilon=st.floats(0.0, 0.5))
def test_linf_ball_always_contains_center_property(center, epsilon):
    box = InputBox.from_linf_ball(center, epsilon)
    assert box.contains(np.clip(center, 0.0, 1.0))
