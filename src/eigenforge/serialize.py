"""Deterministic JSON/CSV serialization.

Floats are written with 17 significant digits (round-trip exact for binary64),
dict keys keep insertion order, lines end with LF: identical inputs produce
byte-identical files. ``dumps`` renders exactly the types the library's
documents hold, each recognised by its exact type: ``float``, ``int``,
``bool``, ``str``, ``dict``, ``list`` and ``tuple``; ``None``, numpy scalars
and subclasses are refused. An array whose elements are all exactly ``float``
and whose sum is finite is rendered in one pass, ``"%.17g"`` mapped over it,
the same bytes as ``format_float`` element by element, and so is a pair of an
exact int and a finite exact float (a Ritz trace entry); any other array takes
the per-element path, which names the first non-finite value it refuses.
Strings and keys are quoted as ``json.dumps`` quotes them. Parsing is strict:
unknown keys are rejected.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from typing import Any, Mapping, Sequence

from .action import ActionSpectrum, action_of_amplitude
from .errors import DomainError
from .godel import DefinableStates
from .polynomials import MAX_DEGREE, Polynomial
from .sigma_model import (
    CoeffField,
    DimensionSpec,
    IterationReport,
    ModeSpec,
    SeparableEigenstate,
    SigmaModelSpec,
)
from .sturm_liouville import (
    VANISH_DERIVATIVE,
    VANISH_VALUE,
    BoundaryCondition,
    EigenPair,
    RitzTrace,
    SLProblem,
)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


_INDENT = 2
_FLOAT_ONLY = frozenset((float,))
_NUMBERS = frozenset((int, float))
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str, byte for byte


def _layout(level: int) -> tuple[str, str, str]:
    """What opens, separates and closes the items of a container at ``level``."""
    inner = "\n" + " " * (_INDENT * (level + 1))
    return inner, "," + inner, "\n" + " " * (_INDENT * level)


def dumps(obj: Any) -> str:
    """Render with fixed key order, two-space indents and 17-significant-digit floats.

    Every piece is appended to one output list, joined once at the end. Each
    node is dispatched once, on its exact type: ``float``, ``int``, ``bool``,
    ``str``, ``dict``, ``list`` and ``tuple`` are rendered, and any other
    value, ``None``, a numpy scalar or a subclass, raises
    ``DomainError("cannot serialize <type name>")``.
    """
    out: list[str] = []
    append = out.append

    def sequence(node, level):
        if not node:
            append("[]")
            return
        # A Ritz trace entry [degree, value]: an exact int and an exact,
        # finite float take one format call, the per-element bytes.
        if (len(node) == 2 and type(node[0]) is int and type(node[1]) is float
                and math.isfinite(node[1])):
            append("[%d, %.17g]" % (node[0], node[1]))
            return
        kinds = set(map(type, node))
        # Only exact floats, and a finite sum means every one is finite:
        # "%.17g" is then format_float's text, with no check per element.
        if kinds == _FLOAT_ONLY and math.isfinite(sum(node)):
            append("[" + ", ".join(map("%.17g".__mod__, node)) + "]")
            return
        if kinds <= _NUMBERS:
            append("[" + ", ".join([format_float(v) if type(v) is float else str(v)
                                    for v in node]) + "]")
            return
        opening, between, closing = _layout(level)
        append("[")
        for v in node:
            append(opening)
            opening = between
            render(v, level + 1)
        append(closing + "]")

    def mapping(node, level):
        if not node:
            append("{}")
            return
        opening, between, closing = _layout(level)
        append("{")
        for k, v in node.items():
            append(opening + _quote(str(k)) + ": ")
            opening = between
            render(v, level + 1)
        append(closing + "}")

    def render(node, level):
        kind = type(node)
        if kind is float:
            append(format_float(node))
        elif kind is str:
            append(_quote(node))
        elif kind is dict:
            mapping(node, level)
        elif kind is list or kind is tuple:
            sequence(node, level)
        elif kind is int:
            append(str(node))
        elif kind is bool:
            append("true" if node else "false")
        else:
            raise DomainError(f"cannot serialize {kind.__name__}")

    render(obj, 0)
    append("\n")
    return "".join(out)


def check_keys(mapping: Mapping, required: Sequence[str], optional: Sequence[str] = (),
               context: str = "object") -> None:
    if not isinstance(mapping, Mapping):
        raise DomainError(f"{context} must be a JSON object")
    keys = set(mapping)
    missing = [k for k in required if k not in keys]
    if missing:
        raise DomainError(f"{context} is missing keys {missing}")
    unknown = sorted(keys - set(required) - set(optional))
    if unknown:
        raise DomainError(f"{context} has unknown keys {unknown}")


# -- polynomials -------------------------------------------------------------

def poly_to_obj(p: Polynomial) -> dict:
    return {"coeffs": list(p.coeffs), "interval": list(p.interval)}


def _array(value, context: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"{context} must be an array")
    return value


def _number(value, context: str) -> float:
    """A finite JSON number; a bool, a numeric string or an int beyond the
    largest float (compared exactly, not converted) is refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise DomainError(f"{context} must be a finite number")
    return float(value)


def _integer(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{context} must be an integer")
    return value


def _interval_from_obj(value, context: str) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise DomainError(f"{context} must be a two-element array")
    return _number(value[0], f"{context}[0]"), _number(value[1], f"{context}[1]")


def poly_from_obj(obj, context: str = "polynomial") -> Polynomial:
    check_keys(obj, ["coeffs", "interval"], context=context)
    coeffs = _array(obj["coeffs"], f"{context}.coeffs")
    if not coeffs:
        raise DomainError(f"{context}.coeffs must be a non-empty array")
    p = Polynomial(tuple(_number(c, f"{context}.coeffs[{i}]") for i, c in enumerate(coeffs)),
                   _interval_from_obj(obj["interval"], f"{context}.interval"))
    if p.degree > MAX_DEGREE:
        raise DomainError(f"{context}.coeffs has degree {p.degree}, above the cap {MAX_DEGREE}")
    return p


# -- eigenproblems -----------------------------------------------------------

_BC_NAMES = {VANISH_VALUE, VANISH_DERIVATIVE}


def bc_from_obj(obj, context: str = "bc") -> BoundaryCondition:
    check_keys(obj, ["a", "b"], context=context)
    for side in ("a", "b"):
        if not isinstance(obj[side], str) or obj[side] not in _BC_NAMES:
            raise DomainError(f"{context}.{side} must be one of {sorted(_BC_NAMES)}")
    return BoundaryCondition(obj["a"], obj["b"])


def bc_to_obj(bc: BoundaryCondition) -> dict:
    return {"a": bc.at_a, "b": bc.at_b}


def problem_from_obj(obj) -> SLProblem:
    check_keys(obj, ["p", "q", "r", "bc"], context="problem")
    return SLProblem(
        poly_from_obj(obj["p"], "problem.p"),
        poly_from_obj(obj["q"], "problem.q"),
        poly_from_obj(obj["r"], "problem.r"),
        bc_from_obj(obj["bc"], "problem.bc"),
    )


def solution_to_obj(pairs: Sequence[EigenPair], trace: RitzTrace) -> dict:
    return {
        "modes": [
            {"lambda": p.lambda_, "legendre": list(p.u.coeffs), "degree": p.degree_used}
            for p in pairs
        ],
        "trace": [[n, lam] for n, lam in trace.entries],
    }


# -- field models ------------------------------------------------------------

def _dimension_from_obj(obj, context: str) -> DimensionSpec:
    check_keys(obj, ["interval", "r", "bc"], context=context)
    interval = _interval_from_obj(obj["interval"], f"{context}.interval")
    return DimensionSpec(interval, poly_from_obj(obj["r"], f"{context}.r"),
                         bc_from_obj(obj["bc"], f"{context}.bc"))


def _dimension_to_obj(dim: DimensionSpec) -> dict:
    return {"interval": list(dim.interval), "r": poly_to_obj(dim.r), "bc": bc_to_obj(dim.bc)}


def _coeff_field_from_obj(obj, context: str) -> CoeffField:
    check_keys(obj, ["terms"], optional=["coupling_g"], context=context)
    terms = tuple(
        tuple(poly_from_obj(f, f"{context}.terms[{i}][{j}]")
              for j, f in enumerate(_array(term, f"{context}.terms[{i}]")))
        for i, term in enumerate(_array(obj["terms"], f"{context}.terms"))
    )
    return CoeffField(terms=terms,
                      coupling_g=_number(obj.get("coupling_g", 0.0), f"{context}.coupling_g"))


def _coeff_field_to_obj(field: CoeffField) -> dict:
    return {
        "terms": [[poly_to_obj(f) for f in term] for term in field.terms],
        "coupling_g": field.coupling_g,
    }


def model_from_obj(obj) -> SigmaModelSpec:
    check_keys(obj, ["space_dims", "time_dim", "P", "Q", "modes"],
               optional=["components"], context="model")
    space = tuple(
        _dimension_from_obj(d, f"model.space_dims[{i}]")
        for i, d in enumerate(_array(obj["space_dims"], "model.space_dims"))
    )
    time = _dimension_from_obj(obj["time_dim"], "model.time_dim")
    modes = []
    for i, m in enumerate(_array(obj["modes"], "model.modes")):
        context = f"model.modes[{i}]"
        check_keys(m, ["label", "targets"], context=context)
        if not isinstance(m["label"], str):
            raise DomainError(f"{context}.label must be a string")
        targets = _array(m["targets"], f"{context}.targets")
        modes.append(ModeSpec(m["label"], tuple(_integer(t, f"{context}.targets[{j}]")
                                                for j, t in enumerate(targets))))
    return SigmaModelSpec(
        space_dims=space,
        time_dim=time,
        P=_coeff_field_from_obj(obj["P"], "model.P"),
        Q=_coeff_field_from_obj(obj["Q"], "model.Q"),
        components=_integer(obj.get("components", 2), "model.components"),
        modes=tuple(modes),
    )


def model_to_obj(spec: SigmaModelSpec) -> dict:
    return {
        "space_dims": [_dimension_to_obj(d) for d in spec.space_dims],
        "time_dim": _dimension_to_obj(spec.time_dim),
        "components": spec.components,
        "P": _coeff_field_to_obj(spec.P),
        "Q": _coeff_field_to_obj(spec.Q),
        "modes": [{"label": m.label, "targets": list(m.targets)} for m in spec.modes],
    }


def _factor_to_obj(pair: EigenPair, norm: float | None = None) -> dict:
    out = {
        "lambda": pair.lambda_,
        "legendre": list(pair.u.coeffs),
        "interval": list(pair.u.interval),
        "degree": pair.degree_used,
    }
    if norm is not None:
        out["norm"] = norm
    return out


def state_to_obj(state: SeparableEigenstate, report: IterationReport,
                 null_residual: float, alpha: float, targets: Sequence[int]) -> dict:
    return {
        "label": state.label,
        "targets": list(targets),
        "omega": state.omega,
        "amplitude": state.amplitude,
        "components": state.components,
        "space_factors": [
            _factor_to_obj(p, norm) for p, norm in zip(state.space_factors, state.space_norms)
        ],
        "time_factors": [_factor_to_obj(p) for p in state.time_factors],
        "indicial_residual": state.indicial_residual(),
        "null_residual": null_residual,
        "action_alpha": alpha,
        "report": {
            "iterations": report.iterations,
            "converged": report.converged,
            "factor_changes": list(report.factor_changes),
        },
    }


def solution_actions_from_obj(obj) -> tuple[list[str], list[float]]:
    """The labels and actions of a stored solution's modes, as ``sigma`` wrote
    them with ``state_to_obj``. A mode's action is ``action_of_amplitude`` of
    its amplitude and its space factors' norms, taken as the mode is read, so
    the first fault in file order is the one refused."""
    check_keys(obj, ["modes"], optional=["action_spectrum"], context="solution")
    labels, alphas = [], []
    for i, mode in enumerate(_array(obj["modes"], "solution.modes")):
        context = f"solution.modes[{i}]"
        check_keys(mode, ["label", "omega", "amplitude"],
                   optional=["targets", "components", "space_factors", "time_factors",
                             "indicial_residual", "null_residual", "action_alpha", "report"],
                   context=context)
        norms = []
        factors = _array(mode.get("space_factors", []), f"{context}.space_factors")
        for j, factor in enumerate(factors):
            factor_context = f"{context}.space_factors[{j}]"
            check_keys(factor, [], optional=["lambda", "legendre", "interval", "degree", "norm"],
                       context=factor_context)
            if "norm" in factor:
                norms.append(_number(factor["norm"], f"{factor_context}.norm"))
        if not isinstance(mode["label"], str):
            raise DomainError(f"{context}.label must be a string")
        omega = _number(mode["omega"], f"{context}.omega")
        if not omega > 0:
            raise DomainError(f"{context}.omega must be positive, got {omega}")
        amplitude = _number(mode["amplitude"], f"{context}.amplitude")
        labels.append(mode["label"])
        alphas.append(action_of_amplitude(amplitude, norms))
    return labels, alphas


def spectrum_to_obj(spectrum: ActionSpectrum, closure_ok: bool) -> dict:
    return {
        "alphas": [
            {"mode": label, "alpha": alpha}
            for label, alpha in zip(spectrum.labels, spectrum.alphas)
        ],
        "I": spectrum.quantum,
        "multipliers": list(spectrum.multipliers),
        "residuals": list(spectrum.residuals),
        "h": spectrum.h,
        "closure": closure_ok,
    }


# -- CSV ---------------------------------------------------------------------

def enumeration_csv(states: DefinableStates) -> str:
    """Header plus one ``godel,n1;n2;...,energy`` row per state, LF-terminated.
    All rows are written by one ``%`` call, ``%d,%s,%s`` repeated once per
    state, over the enumeration's stored rows flattened in order, with no
    per-state object built. The energy text is the ``%.17g`` the enumeration
    stored, the bytes of ``format_float``, ``-0`` included. A non-finite
    energy raises DomainError."""
    rows = states.rows
    text = ("%d,%s,%s\n" * len(rows)) % tuple(chain.from_iterable(rows))
    if "n" in text:  # no finite row holds an n; "inf" and "nan" do
        nonfinite = [float(e) for _, _, e in rows if not math.isfinite(float(e))]
        if nonfinite:
            raise DomainError(f"cannot serialize non-finite number {nonfinite[0]!r}")
    return "godel_integer,occupations,energy\n" + text
