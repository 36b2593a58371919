"""Tests for repro.specs.vnnlib (parser and writer)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.specs.properties import InputBox, LinearOutputSpec, Specification
from repro.specs.robustness import local_robustness_spec
from repro.specs.vnnlib import (
    VnnLibError,
    load_vnnlib,
    parse_vnnlib,
    save_vnnlib,
    specification_to_vnnlib,
)

ROBUSTNESS_EXAMPLE = """
; a 2-input, 3-output robustness property (label 0)
(declare-const X_0 Real)
(declare-const X_1 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(declare-const Y_2 Real)

(assert (>= X_0 0.1))
(assert (<= X_0 0.3))
(assert (>= X_1 0.4))
(assert (<= X_1 0.6))

(assert (or (and (<= Y_0 Y_1)) (and (<= Y_0 Y_2))))
"""


class TestParsing:
    def test_input_box(self):
        parsed = parse_vnnlib(ROBUSTNESS_EXAMPLE)
        np.testing.assert_allclose(parsed.input_lower, [0.1, 0.4])
        np.testing.assert_allclose(parsed.input_upper, [0.3, 0.6])

    def test_counts(self):
        parsed = parse_vnnlib(ROBUSTNESS_EXAMPLE)
        assert parsed.num_inputs == 2
        assert parsed.num_outputs == 3
        assert len(parsed.unsafe_disjuncts) == 2

    def test_specification_semantics(self):
        spec = parse_vnnlib(ROBUSTNESS_EXAMPLE).to_specification()
        # Safe when Y_0 strictly dominates the others.
        assert spec.output_spec.satisfied(np.array([2.0, 1.0, 0.0]))
        # Unsafe (violated) when some other class wins.
        assert not spec.output_spec.satisfied(np.array([0.0, 1.0, -1.0]))

    def test_reversed_bound_direction(self):
        text = ROBUSTNESS_EXAMPLE.replace("(assert (>= X_0 0.1))", "(assert (<= 0.1 X_0))")
        parsed = parse_vnnlib(text)
        np.testing.assert_allclose(parsed.input_lower[0], 0.1)

    def test_comments_ignored(self):
        parsed = parse_vnnlib("; leading comment\n" + ROBUSTNESS_EXAMPLE)
        assert parsed.num_inputs == 2

    def test_constant_output_constraint(self):
        text = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (>= Y_0 3.5))
"""
        spec = parse_vnnlib(text).to_specification()
        # The unsafe region is Y_0 >= 3.5, so the property is Y_0 <= 3.5.
        assert spec.output_spec.satisfied(np.array([3.0]))
        assert not spec.output_spec.satisfied(np.array([4.0]))

    def test_missing_input_bound_rejected(self):
        text = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (>= Y_0 1.0))
"""
        with pytest.raises(VnnLibError):
            parse_vnnlib(text)

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(VnnLibError):
            parse_vnnlib("(assert (>= X_0 0.0)")

    def test_missing_outputs_rejected(self):
        with pytest.raises(VnnLibError):
            parse_vnnlib("(declare-const X_0 Real)\n(assert (>= X_0 0.0))")

    def test_multi_atom_disjunct_rejected_on_conversion(self):
        text = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (or (and (<= Y_0 Y_1) (<= Y_0 0.5))))
"""
        parsed = parse_vnnlib(text)
        with pytest.raises(VnnLibError):
            parsed.to_specification()

    def test_no_output_constraints_rejected_on_conversion(self):
        text = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
"""
        with pytest.raises(VnnLibError):
            parse_vnnlib(text).to_specification()


class TestWriting:
    def test_roundtrip_robustness_spec(self, tmp_path):
        reference = np.array([0.3, 0.6, 0.5])
        original = local_robustness_spec(reference, 0.1, label=1, num_classes=3)
        path = tmp_path / "prop.vnnlib"
        save_vnnlib(original, path)
        restored = load_vnnlib(path)
        np.testing.assert_allclose(restored.input_box.lower, original.input_box.lower)
        np.testing.assert_allclose(restored.input_box.upper, original.input_box.upper)
        # Same satisfaction behaviour on a few outputs.
        for logits in (np.array([0.0, 1.0, 0.5]), np.array([2.0, 0.0, 0.0]),
                       np.array([0.0, 0.3, 0.8])):
            assert (restored.output_spec.satisfied(logits)
                    == original.output_spec.satisfied(logits))

    def test_single_output_constraint_written(self, tmp_path):
        spec = Specification(InputBox([0.0], [1.0]),
                             LinearOutputSpec(np.array([[1.0]]), np.array([-2.0])))
        text = specification_to_vnnlib(spec)
        assert "Y_0" in text
        restored = parse_vnnlib(text).to_specification()
        assert restored.output_spec.satisfied(np.array([3.0]))
        assert not restored.output_spec.satisfied(np.array([1.0]))

    def test_unwritable_constraint_rejected(self):
        spec = Specification(InputBox([0.0], [1.0]),
                             LinearOutputSpec(np.array([[1.0, 2.0]]), np.array([0.0])))
        with pytest.raises(VnnLibError):
            specification_to_vnnlib(spec)


MINIMAL = """
(declare-const X_0 Real)
(declare-const Y_0 Real)
(declare-const Y_1 Real)
(assert (>= X_0 0.0))
(assert (<= X_0 1.0))
(assert (<= Y_0 Y_1))
"""


class TestHostileInput:
    """Each defect once escaped as a non-structured error or a huge allocation."""

    @pytest.mark.parametrize("extra", [
        "(declare-const)",                      # IndexError
        "(declare-const X_1) (assert (>= X_1 0.0)) (assert (<= X_1 1.0))",  # no sort
        "(assert (<= X_0 (+ 1 2)))",            # TypeError
        "(assert (<= X_0 1.0 2.0))",            # unpack ValueError
        "(assert (<= X_0))",                    # unpack ValueError
        "(assert (<= X_0 abc))",                # float ValueError
        "(assert (<= X_0 X_0))",                # float ValueError
        "(assert (<= X_0 Y_0))",                # float ValueError
        "(assert (<= X_7 1.0))",                # IndexError: undeclared input
        "(assert (<= Y_0 inf))",                # parsed as an infinite constant
        "(assert (<= -1e308 1e308))",           # constant difference overflows
    ])
    def test_malformed_atom_or_declaration_raises_vnnlib_error(self, extra):
        with pytest.raises(VnnLibError):
            parse_vnnlib(MINIMAL + extra)

    def test_nan_bound_is_rejected_not_dropped(self):
        # min/max silently discarded the nan next to the finite bound.
        with pytest.raises(VnnLibError):
            parse_vnnlib(MINIMAL + "(assert (<= X_0 nan))")

    def test_sparse_declaration_is_rejected_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(VnnLibError):
                parse_vnnlib(MINIMAL + "(declare-const X_40000000 Real)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("declarations", [
        "(declare-const X_1 Real)",                              # gap at 0
        "(declare-const X_0 Real)\n(declare-const X_0 Real)",    # duplicate
        "(declare-const X_0 Real)\n(declare-const X_2 Real)",    # gap at 1
    ])
    def test_declared_indices_must_be_contiguous(self, declarations):
        # Every index is bounded, so only the declarations are at fault.
        bounds = "".join(f"(assert (>= X_{i} 0.0)) (assert (<= X_{i} 1.0))"
                         for i in range(3))
        text = (declarations + "\n(declare-const Y_0 Real)\n" + bounds
                + "(assert (<= Y_0 1.0))")
        with pytest.raises(VnnLibError):
            parse_vnnlib(text)

    def test_inverted_box_raises_vnnlib_error(self):
        with pytest.raises(VnnLibError):
            parse_vnnlib(MINIMAL + "(assert (<= X_0 -1.0))").to_specification()

    def test_deep_nesting_raises_vnnlib_error(self):
        with pytest.raises(VnnLibError):
            parse_vnnlib(MINIMAL + "(assert " + "(" * 5000 + ")" * 5001)

    def test_scientific_and_signed_numerals_parse(self):
        text = MINIMAL.replace("0.0", "-1.5e-1").replace("1.0", "+2E0")
        parsed = parse_vnnlib(text)
        np.testing.assert_allclose(parsed.input_lower, [-0.15])
        np.testing.assert_allclose(parsed.input_upper, [2.0])


_VOCABULARY = ["(", ")", "(", ")", "declare-const", "assert", "Real", "and", "or",
               "<=", ">=", "X_0", "X_1", "X_2", "Y_0", "Y_1", "Y_2", "X_40000000",
               "0.0", "1.0", "-2.5", "1e999", "nan", "inf", "abc", "+", "; c\n"]


def _parses_or_raises_vnnlib_error(text):
    """The fuzz property: a spec, or :class:`VnnLibError`, and nothing else."""
    try:
        spec = parse_vnnlib(text).to_specification()
    except VnnLibError:
        return
    assert np.all(np.isfinite(spec.input_box.lower))
    assert np.all(spec.input_box.lower <= spec.input_box.upper)


@st.composite
def _mutated_example(draw):
    text = "\n".join(line for line in ROBUSTNESS_EXAMPLE.splitlines()
                     if not line.startswith(";"))
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(tokens) - 1))
        action = draw(st.sampled_from(["delete", "duplicate", "replace", "insert"]))
        if action == "delete" and len(tokens) > 1:
            del tokens[position]
        elif action == "duplicate":
            tokens.insert(position, tokens[position])
        elif action == "replace":
            tokens[position] = draw(st.sampled_from(_VOCABULARY))
        else:
            tokens.insert(position, draw(st.sampled_from(_VOCABULARY)))
    return " ".join(tokens)


@st.composite
def _writable_spec(draw):
    """Specs the writer can express exactly: ±1 single-output or pairwise rows."""
    dimension = draw(st.integers(1, 4))
    outputs = draw(st.integers(2, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    ends = [sorted(draw(st.tuples(finite, finite))) for _ in range(dimension)]
    rows, offsets = [], []
    for _ in range(draw(st.integers(1, 4))):
        row = np.zeros(outputs)
        first, second = draw(st.lists(st.integers(0, outputs - 1), min_size=2,
                                      max_size=2, unique=True))
        if draw(st.booleans()):
            row[first], row[second] = 1.0, -1.0
            offsets.append(0.0)
        else:
            row[first] = draw(st.sampled_from([1.0, -1.0]))
            offsets.append(draw(finite))
        rows.append(row)
    return Specification(InputBox([low for low, _ in ends], [high for _, high in ends]),
                         LinearOutputSpec(np.array(rows), np.array(offsets)))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_VOCABULARY), max_size=40))
    def test_token_soup(self, tokens):
        _parses_or_raises_vnnlib_error(" ".join(tokens))

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_arbitrary_text(self, text):
        _parses_or_raises_vnnlib_error(text)

    @settings(max_examples=300, deadline=None)
    @given(_mutated_example())
    def test_mutated_valid_file(self, text):
        _parses_or_raises_vnnlib_error(text)

    @settings(max_examples=100, deadline=None)
    @given(_writable_spec())
    def test_write_then_parse_round_trips(self, spec):
        restored = parse_vnnlib(specification_to_vnnlib(spec)).to_specification()
        np.testing.assert_array_equal(restored.input_box.lower, spec.input_box.lower)
        np.testing.assert_array_equal(restored.input_box.upper, spec.input_box.upper)
        np.testing.assert_array_equal(restored.output_spec.coefficients,
                                      spec.output_spec.coefficients)
        np.testing.assert_array_equal(restored.output_spec.offsets,
                                      spec.output_spec.offsets)
