"""Span tracing of the library's layers, installed only for the traced run.

``installed`` replaces the public functions of each layer, wherever an
eigenforge module holds a reference to them (``sigma_model.sl_solve`` is
``sturm_liouville.solve``, ``sigma_model.integrate_product`` is
``polynomials.integrate_product``, ...), and the ``Polynomial`` operators,
with wrappers that record one span per call: name, start, end, parent span and
request id. Spans live in flat arrays until ``summarize`` turns them into
per-layer counts and self times (a span's duration minus the time its child
spans cover) and ``save`` writes them out.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from eigenforge import action, godel, polynomials, qstar, serialize, sigma_model
from eigenforge import sturm_liouville as sl
from eigenforge.errors import NonConvergenceError
from eigenforge.polynomials import Polynomial

REQUEST = "request"
ARITH_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__")
# A request's top-level span is opened and closed inside the runner's own
# clock reads; allow this much per request for the calls in between, both for
# the cover check and for the self times adding up to the traced wall time.
COVER_SLACK_S = 1e-3
# Self times are sums of differences of clock reads; allow their rounding,
# not an overlap.
SELF_SLACK_S = 1e-6

_COUNT, _MS = "count", "ms"
# Per-layer metrics printed by the traced run, in BENCHMARK.json order.
PER_LAYER = [
    ("polynomials.integrate_product.calls", _COUNT),
    ("polynomials.integrate_product.self_ms", _MS),
    ("polynomials.arith.calls", _COUNT),
    ("polynomials.arith.self_ms", _MS),
    ("polynomials.chebyshev_fit.calls", _COUNT),
    ("polynomials.chebyshev_fit.self_ms", _MS),
    ("sturm_liouville.solve.calls", _COUNT),
    ("sturm_liouville.solve.self_ms", _MS),
    ("sturm_liouville.solve.fail", _COUNT),
    ("sturm_liouville.solve.degrees_visited", _COUNT),
    ("sturm_liouville.solve.final_degree_mean", "degree"),
    ("sigma_model.solve_state.calls", _COUNT),
    ("sigma_model.solve_state.self_ms", _MS),
    ("sigma_model.solve_state.fail", _COUNT),
    ("sigma_model.solve_state.sweeps", _COUNT),
    ("sigma_model.sl_solves_per_state", "ratio"),
    ("sigma_model.effective_coeffs.calls", _COUNT),
    ("sigma_model.effective_coeffs.self_ms", _MS),
    ("sigma_model.null_postulate_residual.self_ms", _MS),
    ("action.make_time_pair.calls", _COUNT),
    ("action.make_time_pair.self_ms", _MS),
    ("action.make_time_pair.reuse_ratio", "ratio"),
    ("action.fit_spectrum.self_ms", _MS),
    ("action.closure_check.self_ms", _MS),
    ("godel.enumerate_definable.calls", _COUNT),
    ("godel.enumerate_definable.self_ms", _MS),
    ("godel.enumerate_definable.states", _COUNT),
    ("godel.encode.calls", _COUNT),
    ("godel.encode.self_ms", _MS),
    ("godel.decode.calls", _COUNT),
    ("godel.decode.self_ms", _MS),
    ("qstar.parse.calls", _COUNT),
    ("qstar.parse.self_ms", _MS),
    ("qstar.classify.self_ms", _MS),
    ("qstar.equal.self_ms", _MS),
    ("qstar.identical.self_ms", _MS),
    ("serialize.dumps.calls", _COUNT),
    ("serialize.dumps.self_ms", _MS),
    ("serialize.dumps.bytes", "bytes"),
    ("serialize.enumeration_csv.self_ms", _MS),
    ("serialize.enumeration_csv.bytes", "bytes"),
    ("request.self_ms", _MS),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.request = array("q")
        self._stack = [-1]
        self.request_id = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.time_pair_args: set = set()
        self.request_nid = self.name_id(REQUEST)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, fn, span_name: str, on_result=None, on_error=None):
    nid = tracer.name_id(span_name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            close(idx)
            if on_error is not None:
                on_error(tracer, exc)
            raise
        close(idx)
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return traced


# ---- per-call counters ------------------------------------------------------

def _solve_ok(tracer, args, kwargs, result):
    _pairs, trace = result
    tracer.counts["sturm_liouville.solve.degrees_visited"] += len(trace.entries)
    tracer.counts["sturm_liouville.solve.final_degree_sum"] += trace.degrees[-1]
    tracer.counts["sturm_liouville.solve.ok"] += 1


def _solve_err(tracer, exc):
    tracer.counts["sturm_liouville.solve.fail"] += 1
    if isinstance(exc, NonConvergenceError) and exc.trace is not None:
        tracer.counts["sturm_liouville.solve.degrees_visited"] += len(exc.trace.entries)


def _state_ok(tracer, args, kwargs, result):
    tracer.counts["sigma_model.solve_state.sweeps"] += result[1].iterations


def _state_err(tracer, exc):
    tracer.counts["sigma_model.solve_state.fail"] += 1
    if isinstance(exc, NonConvergenceError) and exc.report is not None:
        tracer.counts["sigma_model.solve_state.sweeps"] += exc.report.iterations


def _time_pair(tracer, args, kwargs, result):
    key = (args, tuple(sorted(kwargs.items())))
    if key in tracer.time_pair_args:
        tracer.counts["action.make_time_pair.repeats"] += 1
    else:
        tracer.time_pair_args.add(key)


def _counter(metric, measure):
    def hook(tracer, args, kwargs, result):
        tracer.counts[metric] += measure(result)
    return hook


# (module, function name, span name, on_result, on_error)
LAYER_FUNCTIONS = [
    (polynomials, "integrate_product", "polynomials.integrate_product", None, None),
    (polynomials, "chebyshev_fit", "polynomials.chebyshev_fit", None, None),
    (sl, "solve", "sturm_liouville.solve", _solve_ok, _solve_err),
    (sigma_model, "solve_state", "sigma_model.solve_state", _state_ok, _state_err),
    (sigma_model, "effective_coeffs", "sigma_model.effective_coeffs", None, None),
    (sigma_model, "null_postulate_residual", "sigma_model.null_postulate_residual", None, None),
    (action, "make_time_pair", "action.make_time_pair", _time_pair, None),
    (action, "action_for_state", "action.action_for_state", None, None),
    (action, "fit_spectrum", "action.fit_spectrum", None, None),
    (action, "closure_check", "action.closure_check", None, None),
    (godel, "enumerate_definable", "godel.enumerate_definable",
     _counter("godel.enumerate_definable.states", len), None),
    (godel, "encode", "godel.encode", None, None),
    (godel, "decode", "godel.decode", None, None),
    (qstar, "parse", "qstar.parse", None, None),
    (qstar, "classify", "qstar.classify", None, None),
    (qstar, "equal", "qstar.equal", None, None),
    (qstar, "identical", "qstar.identical", None, None),
    (serialize, "dumps", "serialize.dumps", _counter("serialize.dumps.bytes", len), None),
    (serialize, "enumeration_csv", "serialize.enumeration_csv",
     _counter("serialize.enumeration_csv.bytes", len), None),
]


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "eigenforge" or name.startswith("eigenforge."))]


class installed:
    """Context manager: wrap every layer function and operator, restore on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = _library_modules()
        for owner, attr, span_name, on_result, on_error in LAYER_FUNCTIONS:
            original = getattr(owner, attr)
            traced = _wrap(self.tracer, original, span_name, on_result, on_error)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, traced)
        for op in ARITH_OPERATORS:
            original = Polynomial.__dict__[op]
            self._undo.append((Polynomial, op, original))
            setattr(Polynomial, op, _wrap(self.tracer, original, "polynomials.arith"))
        return self.tracer

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False


# ---- summary ------------------------------------------------------------------

def _arrays(tracer: Tracer):
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    name = np.frombuffer(tracer.name, dtype=np.uint16)
    request = np.frombuffer(tracer.request, dtype=np.int64)
    return start, end, parent, name, request


def self_times(tracer: Tracer) -> np.ndarray:
    start, end, parent, _name, _request = _arrays(tracer)
    duration = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    return duration - child_time


def check_spans(tracer: Tracer, measured: list[tuple[int, float, float]]) -> float:
    """Verify span structure against the runner's own clock reads.

    ``measured`` holds (root span index, t0, t1) per request. Every span must
    lie inside its parent and share its request id; no span's children may
    cover more than the span itself (negative self time means overlapping
    siblings or a child filed under the wrong parent); each root must cover the
    request's measured interval; the self times of all spans must add up to the
    summed measured request time. Summed over all spans, self times telescope
    to the roots' durations, so the last check follows from the cover check and
    is kept as the stated form of it. Returns that gap relative to the request
    time.
    """
    start, end, parent, _name, request = _arrays(tracer)
    if np.any(end < start):
        raise RuntimeError("a span ends before it starts")
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
        raise RuntimeError("a child span escapes its parent")
    if np.any(request[child] != request[p]):
        raise RuntimeError("a child span carries another request id")
    selfs = self_times(tracer)
    if np.any(selfs < -SELF_SLACK_S):
        worst = int(np.argmin(selfs))
        raise RuntimeError(f"span {worst} ({tracer.names[_name[worst]]}) has self time "
                           f"{selfs[worst]:.3e} s: its children overlap")
    wall = 0.0
    for root, t0, t1 in measured:
        if start[root] < t0 or end[root] > t1 or (t1 - t0) - (end[root] - start[root]) > COVER_SLACK_S:
            raise RuntimeError(f"request span {root} does not cover its measured wall time")
        wall += t1 - t0
    total_self = float(selfs.sum())
    if abs(total_self - wall) > COVER_SLACK_S * len(measured):
        raise RuntimeError(f"self times {total_self:.6f} s do not add up to the traced "
                           f"wall time {wall:.6f} s")
    return abs(total_self - wall) / wall


def _nested_count(tracer: Tracer, inner: str, outer: str) -> int:
    """Number of ``inner`` spans with an ``outer`` span among their ancestors."""
    _start, _end, parent, name, _request = _arrays(tracer)
    inner_id, outer_id = tracer.name_id(inner), tracer.name_id(outer)
    count = 0
    for idx in np.nonzero(name == inner_id)[0]:
        idx = parent[idx]
        while idx >= 0 and name[idx] != outer_id:
            idx = parent[idx]
        count += idx >= 0
    return int(count)


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer values for every PER_LAYER name except trace.overhead_ratio,
    which needs the untraced pass and is added by the runner."""
    _start, _end, parent, name, _request = _arrays(tracer)
    selfs = self_times(tracer)
    calls, self_ms = {}, {}
    for nid, label in enumerate(tracer.names):
        mask = name == nid
        calls[label] = int(mask.sum())
        self_ms[label] = float(selfs[mask].sum()) * 1e3
    c = tracer.counts
    derived = {
        "sturm_liouville.solve.final_degree_mean": lambda: _ratio(
            c["sturm_liouville.solve.final_degree_sum"], c["sturm_liouville.solve.ok"]),
        "sigma_model.sl_solves_per_state": lambda: _ratio(
            _nested_count(tracer, "sturm_liouville.solve", "sigma_model.solve_state"),
            calls.get("sigma_model.solve_state", 0)),
        "action.make_time_pair.reuse_ratio": lambda: _ratio(
            c["action.make_time_pair.repeats"], calls.get("action.make_time_pair", 0)),
    }
    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER:
        label, _, kind = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]()
        elif kind == "calls":
            out[metric] = calls.get(label, 0)
        elif kind == "self_ms":
            out[metric] = self_ms.get(label, 0.0)
        elif metric != "trace.overhead_ratio":
            out[metric] = c[metric]
    return out


def save(tracer: Tracer, path) -> None:
    start, end, parent, name, request = _arrays(tracer)
    np.savez(path, start=start, end=end, parent=parent, name=name, request=request,
             names=np.array(tracer.names))
