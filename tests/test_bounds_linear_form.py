"""Tests for repro.bounds.linear_form.

The concretisation functions are exercised on single forms as batches of
one (the module-level helpers below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.linear_form import (
    ScalarBounds,
    concretize_center_radius,
    concretize_upper_batch,
    minimizing_corner_batch,
)
from repro.specs.properties import InputBox


BOX = InputBox([0.0, -1.0, 2.0], [1.0, 1.0, 3.0])


def concretize_lower(coefficients, constants, box):
    """Per-row minimum of one ``(rows, dim)`` form: a batch of one."""
    return concretize_center_radius(np.asarray(coefficients, dtype=float)[None],
                                    np.asarray(constants, dtype=float)[None],
                                    box.center, box.radius, -1.0)[0]


def concretize_upper(coefficients, constants, box):
    """Per-row maximum of one ``(rows, dim)`` form: a batch of one."""
    return concretize_upper_batch(np.asarray(coefficients)[None],
                                  np.asarray(constants)[None], box)[0]


def minimizing_corner(coefficients, box):
    """The corner minimising one coefficient row: a batch of one."""
    return minimizing_corner_batch(np.asarray(coefficients)[None], box)[0]


class TestConcretization:
    def test_lower_bound_single_row(self):
        coefficients = np.array([[1.0, -2.0, 0.5]])
        constants = np.array([1.0])
        lower = concretize_lower(coefficients, constants, BOX)
        # min = 1*0 + (-2)*1 + 0.5*2 + 1 = 0
        assert lower[0] == pytest.approx(0.0)

    def test_upper_bound_single_row(self):
        coefficients = np.array([[1.0, -2.0, 0.5]])
        constants = np.array([1.0])
        upper = concretize_upper(coefficients, constants, BOX)
        # max = 1*1 + (-2)*(-1) + 0.5*3 + 1 = 5.5
        assert upper[0] == pytest.approx(5.5)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(0)
        coefficients = rng.normal(size=(6, 3))
        constants = rng.normal(size=6)
        lower = concretize_lower(coefficients, constants, BOX)
        upper = concretize_upper(coefficients, constants, BOX)
        assert np.all(lower <= upper + 1e-12)

    def test_minimizing_corner_attains_lower(self):
        rng = np.random.default_rng(1)
        coefficients = rng.normal(size=(1, 3))
        constants = rng.normal(size=1)
        corner = minimizing_corner(coefficients[0], BOX)
        value = coefficients[0] @ corner + constants[0]
        assert value == pytest.approx(concretize_lower(coefficients, constants, BOX)[0])

    def test_center_radius_form_matches_corner_form(self):
        """``A @ center ∓ |A| @ radius`` is the textbook corner sum."""
        rng = np.random.default_rng(4)
        coefficients = rng.normal(size=(2, 5, 3))
        constants = rng.normal(size=(2, 5))
        positive, negative = np.maximum(coefficients, 0.0), np.minimum(coefficients, 0.0)
        np.testing.assert_allclose(
            concretize_center_radius(coefficients, constants, BOX.center, BOX.radius, -1.0),
            positive @ BOX.lower + negative @ BOX.upper + constants, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            concretize_center_radius(coefficients, constants, BOX.center, BOX.radius, 1.0),
            positive @ BOX.upper + negative @ BOX.lower + constants, rtol=0, atol=1e-12)

    def test_extreme_finite_box_does_not_overflow(self):
        """Centre and radius of a ``±1e308`` box are finite, and so are the
        bounds of a unit form over it."""
        box = InputBox([-1e308, 1e308], [1e308, 1e308])
        assert np.all(np.isfinite(box.center)) and np.all(np.isfinite(box.radius))
        np.testing.assert_array_equal(box.center, [0.0, 1e308])
        np.testing.assert_array_equal(box.radius, [1e308, 0.0])
        coefficients = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(concretize_lower(coefficients, np.zeros(2), box),
                                      [-1e308, 1e308])
        np.testing.assert_array_equal(concretize_upper(coefficients, np.zeros(2), box),
                                      [1e308, 1e308])


class TestLinearForm:
    def test_point_box_evaluates_the_form(self):
        coefficients, constants = np.array([[1.0, 0.0, 2.0]]), np.array([0.5])
        point = InputBox([1.0, 5.0, 2.0], [1.0, 5.0, 2.0])
        assert concretize_lower(coefficients, constants, point)[0] == pytest.approx(5.5)
        assert concretize_upper(coefficients, constants, point)[0] == pytest.approx(5.5)

    def test_bounds_contain_sampled_values(self):
        rng = np.random.default_rng(2)
        coefficients, constants = rng.normal(size=(4, 3)), rng.normal(size=4)
        lower = concretize_lower(coefficients, constants, BOX)
        upper = concretize_upper(coefficients, constants, BOX)
        for sample in BOX.sample(3, count=100):
            values = coefficients @ sample + constants
            assert np.all(values >= lower - 1e-9)
            assert np.all(values <= upper + 1e-9)

    def test_minimizer_and_maximizer_in_box(self):
        rng = np.random.default_rng(3)
        coefficients = rng.normal(size=(2, 3))
        assert BOX.contains(minimizing_corner(coefficients[0], BOX))
        assert BOX.contains(minimizing_corner(-coefficients[1], BOX))

    def test_maximizer_attains_upper(self):
        coefficients, constants = np.array([[1.0, -1.0, 0.0]]), np.array([0.0])
        maximizer = minimizing_corner(-coefficients[0], BOX)
        value = coefficients[0] @ maximizer + constants[0]
        assert value == pytest.approx(concretize_upper(coefficients, constants, BOX)[0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concretize_upper_batch(np.zeros((1, 2, 3)), np.zeros((1, 3)), BOX)

    def test_wrong_input_dimension_rejected(self):
        with pytest.raises(ValueError):
            minimizing_corner(np.zeros(2), BOX)


class TestScalarBounds:
    def test_consistency(self):
        assert ScalarBounds([0.0, 1.0], [1.0, 2.0]).is_consistent()
        assert not ScalarBounds([2.0], [1.0]).is_consistent()

    def test_contains(self):
        bounds = ScalarBounds([0.0, 0.0], [1.0, 1.0])
        assert bounds.contains(np.array([0.5, 1.0]))
        assert not bounds.contains(np.array([0.5, 1.5]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScalarBounds([0.0], [1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_concretization_soundness_property(seed):
    """Random linear forms: every sampled value lies within the concretised bounds."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    lower = rng.normal(size=dim)
    upper = lower + rng.random(dim)
    box = InputBox(lower, upper)
    coefficients = rng.normal(size=(3, dim))
    constants = rng.normal(size=3)
    low = concretize_lower(coefficients, constants, box)
    high = concretize_upper(coefficients, constants, box)
    for sample in box.sample(rng, count=20):
        values = coefficients @ sample + constants
        assert np.all(values >= low - 1e-9)
        assert np.all(values <= high + 1e-9)
