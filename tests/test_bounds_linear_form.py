"""Tests for repro.bounds.linear_form.

The concretisation functions and :class:`BatchedLinearForm` are exercised
on single forms as batches of one (the module-level helpers below).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.linear_form import (
    BatchedLinearForm,
    ScalarBounds,
    concretize_lower_batch,
    concretize_upper_batch,
    minimizing_corner_batch,
)
from repro.specs.properties import InputBox


BOX = InputBox([0.0, -1.0, 2.0], [1.0, 1.0, 3.0])


def concretize_lower(coefficients, constants, box):
    """Per-row minimum of one ``(rows, dim)`` form: a batch of one."""
    return concretize_lower_batch(coefficients[None], constants[None], box)[0]


def concretize_upper(coefficients, constants, box):
    """Per-row maximum of one ``(rows, dim)`` form: a batch of one."""
    return concretize_upper_batch(coefficients[None], constants[None], box)[0]


def minimizing_corner(coefficients, box):
    """The corner minimising one coefficient row: a batch of one."""
    return minimizing_corner_batch(coefficients[None], box)[0]


def single_form(coefficients, constants):
    """One ``(rows, dim)`` form as a batch of one."""
    return BatchedLinearForm(np.asarray(coefficients)[None], np.asarray(constants)[None])


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


class TestLinearForm:
    def test_evaluate(self):
        form = single_form(np.array([[1.0, 0.0, 2.0]]), np.array([0.5]))
        assert form.evaluate(np.array([1.0, 5.0, 2.0]))[0, 0] == pytest.approx(5.5)

    def test_bounds_contain_sampled_values(self):
        rng = np.random.default_rng(2)
        form = single_form(rng.normal(size=(4, 3)), rng.normal(size=4))
        lower = form.lower_bound(BOX)
        upper = form.upper_bound(BOX)
        for sample in BOX.sample(3, count=100):
            values = form.evaluate(sample)
            assert np.all(values >= lower - 1e-9)
            assert np.all(values <= upper + 1e-9)

    def test_minimizer_and_maximizer_in_box(self):
        rng = np.random.default_rng(3)
        coefficients, constants = rng.normal(size=(2, 3)), rng.normal(size=2)
        assert BOX.contains(single_form(coefficients, constants).minimizers(BOX, [0])[0])
        assert BOX.contains(single_form(-coefficients, -constants).minimizers(BOX, [1])[0])

    def test_maximizer_attains_upper(self):
        form = single_form(np.array([[1.0, -1.0, 0.0]]), np.array([0.0]))
        negated = single_form(np.array([[-1.0, 1.0, 0.0]]), np.array([0.0]))
        maximizer = negated.minimizers(BOX, [0])[0]
        value = form.evaluate(maximizer)[0, 0]
        assert value == pytest.approx(form.upper_bound(BOX)[0, 0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BatchedLinearForm(np.zeros((1, 2, 3)), np.zeros((1, 3)))

    def test_wrong_input_dimension_rejected(self):
        form = single_form(np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ValueError):
            form.evaluate(np.zeros(2))


class TestScalarBounds:
    def test_consistency(self):
        assert ScalarBounds([0.0, 1.0], [1.0, 2.0]).is_consistent()
        assert not ScalarBounds([2.0], [1.0]).is_consistent()

    def test_width(self):
        np.testing.assert_allclose(ScalarBounds([0.0, -1.0], [1.0, 1.0]).width, [1.0, 2.0])

    def test_intersect(self):
        merged = ScalarBounds([0.0, 0.0], [2.0, 2.0]).intersect(ScalarBounds([1.0, -1.0],
                                                                             [3.0, 1.0]))
        np.testing.assert_allclose(merged.lower, [1.0, 0.0])
        np.testing.assert_allclose(merged.upper, [2.0, 1.0])

    def test_contains(self):
        bounds = ScalarBounds([0.0, 0.0], [1.0, 1.0])
        assert bounds.contains(np.array([0.5, 1.0]))
        assert not bounds.contains(np.array([0.5, 1.5]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScalarBounds([0.0], [1.0]).intersect(ScalarBounds([0.0, 0.0], [1.0, 1.0]))


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
