"""Tests for repro.bounds.splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    layer_rows,
    stack_rows,
)


class TestReluSplit:
    def test_negation(self):
        split = ReluSplit(1, 3, ACTIVE)
        assert split.negated() == ReluSplit(1, 3, INACTIVE)

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            ReluSplit(0, 0, 2)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ReluSplit(-1, 0, ACTIVE)

    def test_string_representation(self):
        assert str(ReluSplit(0, 2, ACTIVE)) == "r+(0,2)"
        assert str(ReluSplit(1, 0, INACTIVE)) == "r-(1,0)"


#: Hidden layer sizes of the assignments below (flat row of 9 neurons).
SIZES = (4, 3, 2)


def _assignment(*splits):
    return SplitAssignment.from_splits(SIZES, splits)


class TestSplitAssignment:
    def test_empty(self):
        assignment = SplitAssignment.empty(SIZES)
        assert len(assignment) == 0
        assert assignment.phase_of(0, 0) == 0
        assert not assignment.is_decided(0, 0)
        assert assignment.row.dtype == np.int8
        assert assignment.row.shape == (sum(SIZES),)
        assert assignment.offsets == (0, 4, 7, 9)

    def test_with_split_is_persistent(self):
        base = SplitAssignment.empty(SIZES)
        extended = base.with_split(ReluSplit(0, 1, ACTIVE))
        assert len(base) == 0
        assert len(extended) == 1
        assert extended.phase_of(0, 1) == ACTIVE
        assert extended.offsets is base.offsets

    def test_conflicting_split_rejected(self):
        assignment = _assignment(ReluSplit(0, 1, ACTIVE))
        with pytest.raises(ValueError):
            assignment.with_split(ReluSplit(0, 1, INACTIVE))

    def test_repeated_identical_split_allowed(self):
        assignment = _assignment(ReluSplit(0, 1, ACTIVE))
        again = assignment.with_split(ReluSplit(0, 1, ACTIVE))
        assert len(again) == 1
        assert again == assignment

    def test_row_is_flat_layer_major(self):
        assignment = _assignment(ReluSplit(0, 1, ACTIVE), ReluSplit(1, 0, INACTIVE),
                                 ReluSplit(2, 1, INACTIVE))
        assert assignment.row.tolist() == [0, 1, 0, 0, -1, 0, 0, 0, -1]

    @pytest.mark.parametrize("layer, unit", [(0, 4), (1, 3), (3, 0), (5, 1)])
    def test_out_of_range_split_rejected(self, layer, unit):
        with pytest.raises(ValueError, match="outside"):
            SplitAssignment.empty(SIZES).with_split(ReluSplit(layer, unit, ACTIVE))
        with pytest.raises(ValueError, match="outside"):
            _assignment(ReluSplit(0, 0, ACTIVE), ReluSplit(layer, unit, INACTIVE))
        with pytest.raises(ValueError, match="outside"):
            SplitAssignment.empty(SIZES).phase_of(layer, unit)

    def test_layer_rows(self):
        batch = [_assignment(ReluSplit(0, 1, ACTIVE), ReluSplit(0, 3, INACTIVE)),
                 None, _assignment(ReluSplit(1, 0, INACTIVE))]
        rows = stack_rows(batch, SplitAssignment.empty(SIZES))
        assert rows.shape == (3, 9)
        offsets = batch[0].offsets
        assert layer_rows(rows, offsets, 0).tolist() == [[0, 1, 0, -1], [0] * 4, [0] * 4]
        assert layer_rows(rows, offsets, 1).tolist() == [[0] * 3, [0] * 3, [-1, 0, 0]]
        assert layer_rows(rows, offsets, 2) is None

    def test_stack_rows_rejects_another_layout(self):
        other = SplitAssignment.empty((3, 4, 2))
        with pytest.raises(ValueError):
            stack_rows([other], SplitAssignment.empty(SIZES))

    def test_equality_and_hash(self):
        a = _assignment(ReluSplit(0, 1, ACTIVE), ReluSplit(1, 2, INACTIVE))
        b = _assignment(ReluSplit(1, 2, INACTIVE), ReluSplit(0, 1, ACTIVE))
        assert a == b
        assert hash(a) == hash(b)
        assert a.key == b.key
        assert a != SplitAssignment.from_splits((3, 4, 2), list(a))

    def test_key_without_is_the_parent_key(self):
        parent = _assignment(ReluSplit(0, 1, ACTIVE))
        split = ReluSplit(2, 0, INACTIVE)
        assert parent.with_split(split).key_without(split) == parent.key

    def test_iteration_is_sorted(self):
        assignment = _assignment(ReluSplit(1, 0, ACTIVE), ReluSplit(0, 2, INACTIVE))
        neurons = [split.neuron for split in assignment]
        assert neurons == [(0, 2), (1, 0)]

    def test_str(self):
        assert str(SplitAssignment.empty(SIZES)) == "Γ=ε"
        assignment = _assignment(ReluSplit(0, 0, ACTIVE))
        assert "r+(0,0)" in str(assignment)

    def test_satisfied_by(self):
        assignment = SplitAssignment.from_splits((2, 2), [ReluSplit(0, 0, ACTIVE),
                                                          ReluSplit(1, 1, INACTIVE)])
        pre = [np.array([0.5, -1.0]), np.array([3.0, -0.2])]
        assert assignment.satisfied_by(pre)
        pre_bad = [np.array([-0.5, -1.0]), np.array([3.0, -0.2])]
        assert not assignment.satisfied_by(pre_bad)

    def test_satisfied_by_another_layout(self):
        assignment = _assignment(ReluSplit(2, 0, ACTIVE))
        assert not assignment.satisfied_by([np.array([1.0])])


class _DictAssignment:
    """The dict-backed reference model of a split assignment."""

    def __init__(self, phases=None):
        self.phases = dict(phases or {})

    def with_split(self, split):
        existing = self.phases.get(split.neuron)
        if existing is not None and existing != split.phase:
            raise ValueError("conflict")
        return _DictAssignment({**self.phases, split.neuron: split.phase})

    def splits(self):
        return [ReluSplit(layer, unit, phase)
                for (layer, unit), phase in sorted(self.phases.items())]


_neurons = st.integers(0, len(SIZES) - 1).flatmap(
    lambda layer: st.tuples(st.just(layer), st.integers(0, SIZES[layer] - 1)))
_splits = st.builds(lambda neuron, phase: ReluSplit(neuron[0], neuron[1], phase),
                    _neurons, st.sampled_from([ACTIVE, INACTIVE]))


class TestRowAgainstDictReference:
    """The phase row behaves exactly as a ``{neuron: phase}`` dict would."""

    @staticmethod
    def _build(splits):
        row, model, history = SplitAssignment.empty(SIZES), _DictAssignment(), []
        for split in splits:
            try:
                expected = model.with_split(split)
            except ValueError:
                with pytest.raises(ValueError, match="conflicting"):
                    row.with_split(split)
                continue
            history.append((row, model))
            row, model = row.with_split(split), expected
        return row, model, history

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_splits, max_size=12))
    def test_matches_dict_reference(self, splits):
        row, model, history = self._build(splits)
        # Every earlier assignment is unchanged by its extensions.
        for older, older_model in history + [(row, model)]:
            assert len(older) == len(older_model.phases)
            assert list(older) == older_model.splits()
            for layer, size in enumerate(SIZES):
                for unit in range(size):
                    assert (older.phase_of(layer, unit)
                            == older_model.phases.get((layer, unit), 0))
                    assert older.is_decided(layer, unit) == ((layer, unit) in older_model.phases)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_splits, max_size=10), st.lists(_splits, max_size=10))
    def test_equality_hash_and_key_follow_the_dict(self, first, second):
        a, model_a, _ = self._build(first)
        b, model_b, _ = self._build(second)
        same = model_a.phases == model_b.phases
        assert (a == b) == same
        assert (a.key == b.key) == same
        if same:
            assert hash(a) == hash(b)
        # Rebuilding from the iterated splits, in any order, is the same key.
        assert SplitAssignment.from_splits(SIZES, reversed(list(a))).key == a.key
