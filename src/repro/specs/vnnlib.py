"""A reader and writer for the VNN-LIB property format (robustness subset).

VNN-COMP (which the paper's benchmarks come from) distributes verification
properties as ``.vnnlib`` files: SMT-LIB-flavoured text that declares input
variables ``X_i`` and output variables ``Y_j``, asserts box constraints on
the inputs, and asserts an *unsafe region* over the outputs (the property is
violated iff some input in the box maps into the unsafe region).

This module supports the subset used by local-robustness benchmarks:

* input constraints ``(assert (<= X_i c))`` and ``(assert (>= X_i c))``;
* output constraints that are either a conjunction of atoms asserted at the
  top level, or a single ``(assert (or (and atom) (and atom) ...))`` whose
  disjuncts each contain one atom (the standard encoding of "some other
  class wins");
* atoms of the form ``(<= a b)`` / ``(>= a b)`` where each side is an output
  variable ``Y_j`` or a numeric constant.

Constants must be finite decimal numerals, and the declared ``X_i`` and
``Y_j`` must be numbered exactly ``0..n-1`` (checked before any array is
sized by them).  Any input outside this subset raises :class:`VnnLibError`.

The parsed unsafe region is converted to a :class:`Specification` whose
output property is the *negation* of the unsafe region (a conjunction of
linear constraints), matching the semantics used throughout the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.specs.properties import InputBox, LinearOutputSpec, Specification


class VnnLibError(ValueError):
    """Raised when a ``.vnnlib`` file cannot be parsed or converted."""


# ---------------------------------------------------------------------------
# S-expression tokenising / parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> List[str]:
    text = re.sub(r";[^\n]*", "", text)  # strip comments
    text = text.replace("(", " ( ").replace(")", " ) ")
    return text.split()


#: Deepest parenthesis nesting accepted (robustness properties need four).
MAX_NESTING = 64


def _parse_sexprs(tokens: List[str]) -> List[object]:
    """Parse a flat token list into nested lists (one per top-level form)."""
    forms: List[object] = []
    stack: List[List[object]] = []
    for token in tokens:
        if token == "(":
            if len(stack) == MAX_NESTING:
                raise VnnLibError(f"forms nested deeper than {MAX_NESTING} levels")
            stack.append([])
        elif token == ")":
            if not stack:
                raise VnnLibError("unbalanced parenthesis in vnnlib file")
            finished = stack.pop()
            if stack:
                stack[-1].append(finished)
            else:
                forms.append(finished)
        else:
            if not stack:
                raise VnnLibError(f"unexpected token {token!r} outside any form")
            stack[-1].append(token)
    if stack:
        raise VnnLibError("unbalanced parenthesis in vnnlib file")
    return forms


# ---------------------------------------------------------------------------
# Atom model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearAtom:
    """A single linear constraint ``coeffs @ y + offset >= 0`` over outputs."""

    coefficients: np.ndarray
    offset: float

    def negated(self) -> "LinearAtom":
        """Logical negation, treating the boundary as satisfied either way."""
        return LinearAtom(-self.coefficients, -self.offset)


@dataclass
class ParsedVnnLib:
    """Raw contents of a parsed ``.vnnlib`` file."""

    num_inputs: int
    num_outputs: int
    input_lower: np.ndarray
    input_upper: np.ndarray
    #: Unsafe region as a disjunction of conjunctions of atoms.
    unsafe_disjuncts: List[List[LinearAtom]] = field(default_factory=list)

    def to_specification(self, name: str = "vnnlib") -> Specification:
        """Convert to a conjunctive :class:`Specification`.

        Requires every disjunct of the unsafe region to contain exactly one
        atom (the standard robustness encoding); the safe property is then
        the conjunction of the negated atoms.
        """
        if not self.unsafe_disjuncts:
            raise VnnLibError("vnnlib file contains no output constraints")
        rows = []
        offsets = []
        for disjunct in self.unsafe_disjuncts:
            if len(disjunct) != 1:
                raise VnnLibError(
                    "only single-atom disjuncts are supported when converting to a "
                    "conjunctive specification (standard robustness encoding)")
            atom = disjunct[0].negated()
            rows.append(atom.coefficients)
            offsets.append(atom.offset)
        output_spec = LinearOutputSpec(np.vstack(rows), np.asarray(offsets),
                                       description="negation of vnnlib unsafe region")
        input_box = InputBox(self.input_lower, self.input_upper)
        return Specification(input_box, output_spec, name=name,
                             metadata={"kind": "vnnlib"})


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_VARIABLE_RE = re.compile(r"([XY])_([0-9]+)")
_NUMERAL_RE = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _variable(token: object) -> Optional[Tuple[str, int]]:
    if not isinstance(token, str):
        return None
    match = _VARIABLE_RE.fullmatch(token)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


def _numeral(token: object) -> Optional[float]:
    """The value of a finite decimal numeral token, else ``None``."""
    if not isinstance(token, str) or _NUMERAL_RE.fullmatch(token) is None:
        return None
    value = float(token)
    return value if np.isfinite(value) else None


def _dimension(kind: str, indices: List[int]) -> int:
    """The variable count, once the declared indices are exactly ``0..n-1``."""
    if not indices:
        raise VnnLibError("vnnlib file must declare X_* and Y_* variables")
    if sorted(indices) != list(range(len(indices))):
        raise VnnLibError(f"declared {kind}_* indices must be exactly 0..{len(indices) - 1}")
    return len(indices)


def _term_to_linear(term: object, num_outputs: int) -> Tuple[np.ndarray, float]:
    """Convert a term (Y variable or constant) to ``(coeffs, constant)``."""
    coefficients = np.zeros(num_outputs)
    variable = _variable(term)
    if variable is not None:
        kind, index = variable
        if kind != "Y":
            raise VnnLibError("input variables are not allowed in output constraints")
        if index >= num_outputs:
            raise VnnLibError(f"output variable Y_{index} out of range")
        coefficients[index] = 1.0
        return coefficients, 0.0
    value = _numeral(term)
    if value is None:
        raise VnnLibError(f"unsupported term in output constraint: {term!r}")
    return coefficients, value


def _atom_from_form(form: List[object], num_outputs: int) -> LinearAtom:
    if len(form) != 3 or form[0] not in ("<=", ">="):
        raise VnnLibError(f"unsupported output atom: {form!r}")
    operator, left, right = form
    left_coeffs, left_const = _term_to_linear(left, num_outputs)
    right_coeffs, right_const = _term_to_linear(right, num_outputs)
    if operator == "<=":
        # left <= right  <=>  right - left >= 0
        atom = LinearAtom(right_coeffs - left_coeffs, right_const - left_const)
    else:
        # left >= right  <=>  left - right >= 0
        atom = LinearAtom(left_coeffs - right_coeffs, left_const - right_const)
    if not np.isfinite(atom.offset):
        raise VnnLibError(f"output atom constant overflows: {form!r}")
    return atom


def parse_vnnlib(text: str) -> ParsedVnnLib:
    """Parse ``.vnnlib`` text into a :class:`ParsedVnnLib` structure."""
    forms = _parse_sexprs(_tokenize(text))

    input_indices: List[int] = []
    output_indices: List[int] = []
    asserts: List[List[object]] = []
    for form in forms:
        if not isinstance(form, list) or not form:
            continue
        head = form[0]
        if head == "declare-const":
            variable = _variable(form[1]) if len(form) == 3 else None
            if variable is None or form[2] != "Real":
                raise VnnLibError(f"cannot parse declaration {form!r}")
            kind, index = variable
            (input_indices if kind == "X" else output_indices).append(index)
        elif head == "assert":
            if len(form) != 2:
                raise VnnLibError(f"malformed assert {form!r}")
            asserts.append(form[1])

    # Checked before any per-variable array is allocated.
    num_inputs = _dimension("X", input_indices)
    num_outputs = _dimension("Y", output_indices)

    lower = np.full(num_inputs, -np.inf)
    upper = np.full(num_inputs, np.inf)
    unsafe_disjuncts: List[List[LinearAtom]] = []
    conjunctive_atoms: List[LinearAtom] = []

    for form in asserts:
        if not isinstance(form, list) or not form:
            raise VnnLibError(f"malformed assertion {form!r}")
        if form[0] in ("<=", ">=") and _is_input_atom(form):
            _apply_input_bound(form, lower, upper)
        elif form[0] in ("<=", ">="):
            conjunctive_atoms.append(_atom_from_form(form, num_outputs))
        elif form[0] == "or":
            for disjunct in form[1:]:
                unsafe_disjuncts.append(_parse_disjunct(disjunct, num_outputs))
        elif form[0] == "and":
            conjunctive_atoms.extend(_atom_from_form(atom, num_outputs)
                                     for atom in form[1:])
        else:
            raise VnnLibError(f"unsupported assertion {form!r}")

    if conjunctive_atoms:
        # Top-level conjunction of output atoms describes a single unsafe region.
        unsafe_disjuncts.append(conjunctive_atoms)

    if np.any(~np.isfinite(lower)) or np.any(~np.isfinite(upper)):
        raise VnnLibError("every input variable needs both a lower and an upper bound")
    if np.any(lower > upper):
        raise VnnLibError("an input variable's lower bound exceeds its upper bound")

    return ParsedVnnLib(num_inputs, num_outputs, lower, upper, unsafe_disjuncts)


def _is_input_atom(form: List[object]) -> bool:
    for term in form[1:]:
        variable = _variable(term)
        if variable is not None and variable[0] == "X":
            return True
    return False


def _apply_input_bound(form: List[object], lower: np.ndarray, upper: np.ndarray) -> None:
    """Tighten the box by one ``(<= X_i c)``-style atom (either side order)."""
    if len(form) != 3:
        raise VnnLibError(f"cannot interpret input bound {form!r}")
    operator, left, right = form
    left_var, right_var = _variable(left), _variable(right)
    if left_var is not None and left_var[0] == "X":
        index, value, is_upper = left_var[1], _numeral(right), operator == "<="
    elif right_var is not None and right_var[0] == "X":
        index, value, is_upper = right_var[1], _numeral(left), operator == ">="
    else:
        raise VnnLibError(f"cannot interpret input bound {form!r}")
    if value is None or index >= len(lower):
        raise VnnLibError(f"cannot interpret input bound {form!r}")
    if is_upper:
        upper[index] = min(upper[index], value)
    else:
        lower[index] = max(lower[index], value)


def _parse_disjunct(disjunct: object, num_outputs: int) -> List[LinearAtom]:
    if not isinstance(disjunct, list) or not disjunct:
        raise VnnLibError(f"malformed disjunct {disjunct!r}")
    if disjunct[0] == "and":
        return [_atom_from_form(atom, num_outputs) for atom in disjunct[1:]]
    return [_atom_from_form(disjunct, num_outputs)]


def load_vnnlib(path: Union[str, Path], name: Optional[str] = None) -> Specification:
    """Load a ``.vnnlib`` file and convert it to a :class:`Specification`."""
    path = Path(path)
    parsed = parse_vnnlib(path.read_text())
    return parsed.to_specification(name=name or path.stem)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

def specification_to_vnnlib(spec: Specification) -> str:
    """Serialise a conjunctive specification as a ``.vnnlib`` robustness property.

    Each output constraint ``c @ y + d >= 0`` becomes one disjunct of the
    unsafe region asserting its violation ``c @ y + d <= 0``.  Only
    constraints mentioning at most two outputs with coefficients ±1 and the
    common single-output form are expressible in the standard atom syntax;
    other rows raise :class:`VnnLibError`.
    """
    lines: List[str] = ["; generated by repro.specs.vnnlib"]
    box = spec.input_box
    for index in range(box.dimension):
        lines.append(f"(declare-const X_{index} Real)")
    for index in range(spec.output_spec.output_dim):
        lines.append(f"(declare-const Y_{index} Real)")
    lines.append("")
    for index in range(box.dimension):
        lines.append(f"(assert (>= X_{index} {float(box.lower[index])!r}))")
        lines.append(f"(assert (<= X_{index} {float(box.upper[index])!r}))")
    lines.append("")
    disjuncts = []
    for row, offset in zip(spec.output_spec.coefficients, spec.output_spec.offsets):
        disjuncts.append(f"(and {_atom_text(row, float(offset))})")
    lines.append(f"(assert (or {' '.join(disjuncts)}))")
    lines.append("")
    return "\n".join(lines)


def _atom_text(coefficients: np.ndarray, offset: float) -> str:
    """Render the violation ``c @ y + d <= 0`` of one constraint row as an atom."""
    nonzero = np.nonzero(coefficients)[0]
    if len(nonzero) == 1 and abs(offset) >= 0:
        index = int(nonzero[0])
        coefficient = coefficients[index]
        bound = float(-offset / coefficient)
        operator = "<=" if coefficient > 0 else ">="
        return f"({operator} Y_{index} {bound!r})"
    if len(nonzero) == 2 and offset == 0.0:
        first, second = int(nonzero[0]), int(nonzero[1])
        if np.isclose(coefficients[first], 1.0) and np.isclose(coefficients[second], -1.0):
            return f"(<= Y_{first} Y_{second})"
        if np.isclose(coefficients[first], -1.0) and np.isclose(coefficients[second], 1.0):
            return f"(<= Y_{second} Y_{first})"
    raise VnnLibError("only ±1 pairwise or single-output constraints can be written")


def save_vnnlib(spec: Specification, path: Union[str, Path]) -> None:
    """Write ``spec`` to ``path`` in VNN-LIB syntax."""
    Path(path).write_text(specification_to_vnnlib(spec))
