"""Spans and counters recorded around dapalloc's public functions.

The modules import each other with ``from x import y``, so a function is
traced by rebinding its name in every module that calls it.  Nothing in
``src/`` changes: :func:`instrument` installs the wrappers and puts the
originals back on exit.

A span records its name, start, end, parent span and trace id (one per
drop, link-level point or curvature probe).  The innermost numerics
boundary (erfc/erfcx, Lambert W, quadrature; about a thousand calls per
drop) is kept as a call count, element count and total time per parent
span name instead, to bound memory.  A span's self time is its duration
minus the time its child spans and counters cover.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dapalloc import allocator, bench, dapa, linklevel, metrics, nonconvexity, pa_model

# Per-layer metric -> unit.  "/unit" is per drop, link-level point or
# curvature probe of the workload, so a count does not depend on how
# many units fit in a run.
PER_LAYER = {
    "numerics.erfc.calls": "count/unit",
    "numerics.erfc.self_ms": "ms/unit",
    "numerics.erfc.elems_per_call": "count",
    "numerics.lambert_w.calls": "count/unit",
    "numerics.lambert_w.self_ms": "ms/unit",
    "numerics.quad.calls": "count/unit",
    "numerics.quad.self_ms": "ms/unit",
    "pa_model.soft.calls": "count/unit",
    "pa_model.soft.self_ms": "ms/unit",
    "pa_model.rapp.points": "count/unit",
    "pa_model.rapp.quad_per_point": "count",
    "pa_model.rapp.distinct_psi": "count",
    "pa_model.rapp.self_ms": "ms/unit",
    "metrics.evaluate.calls": "count/unit",
    "metrics.evaluate.self_ms": "ms/unit",
    "metrics.operating_point_at.calls": "count/unit",
    "metrics.operating_point_at.self_ms": "ms/unit",
    "dapa.solve.calls": "count/unit",
    "dapa.solve.ms_p50": "ms",
    "dapa.solve.ms_p90": "ms",
    "dapa.solve.self_ms": "ms/unit",
    "dapa.solve.failures": "count/unit",
    "dapa.derivative.calls_per_solve": "count",
    "dapa.guard.evaluate_per_solve": "count",
    "dapa.guard.share": "frac",
    "fpda.solve.calls": "count/unit",
    "fpda.solve.self_ms": "ms/unit",
    "fpda.breakpoints.self_ms": "ms/unit",
    "allocator.dapa_fpda.ms_p50": "ms",
    "allocator.dapa_fpda.ms_p90": "ms",
    "allocator.dapa_e.ms_p50": "ms",
    "allocator.dapa_e.ms_p90": "ms",
    "allocator.ref_fpda.ms_p50": "ms",
    "allocator.ref_fpda.ms_p90": "ms",
    "allocator.ref_e.ms_p50": "ms",
    "allocator.ref_e.ms_p90": "ms",
    "allocator.ao.iterations_p50": "count",
    "allocator.ao.iterations_max": "count",
    "allocator.ao.converged_frac": "frac",
    "allocator.ao.safeguard_evaluate_calls": "count/unit",
    "scenario.drop_ues.calls_per_drop": "count",
    "scenario.drop_ues.self_ms": "ms/unit",
    "bench.driver.self_ms": "ms/unit",
    "bench.summarize.ms": "ms/unit",
    "bench.csv.ms": "ms/unit",
    "bench.csv.bytes": "bytes/unit",
    "linklevel.point.ms": "ms",
    "linklevel.fft.self_ms": "ms/unit",
    "linklevel.einsum.self_ms": "ms/unit",
    "linklevel.linalg.self_ms": "ms/unit",
    "linklevel.gflop_computed": "GFLOP/unit",
    "linklevel.channel_redraws": "count/unit",
    "nonconvexity.hessian_eigs.calls_per_probe": "count",
    "nonconvexity.evaluate_per_probe": "count",
    "nonconvexity.self_ms": "ms/unit",
    "trace.overhead_frac": "frac",
    "gain_p50": "ratio",
    "sdr_err_db_max": "dB",
    "failed_frac": "frac",
}

_STRATEGIES = {
    "DAPA-FPDA": "allocator.dapa_fpda",
    "DAPA-E": "allocator.dapa_e",
    "REF-FPDA": "allocator.ref_fpda",
    "REF-E": "allocator.ref_e",
}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.trace_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")  # time covered by child spans and counters
        self.failed = array("b")
        # (counter name, parent span name id) -> [calls, elements, seconds]
        self.counters: dict[tuple[str, int], list] = {}
        self.observed: dict[str, list] = defaultdict(list)
        self.batch = 0
        self._trace = -1
        self._next_trace = -1
        self._trace_ids: dict[tuple, int] = {}
        self._stack: list[int] = []
        self._open_covered: list[float] = []

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter_trace(self, key) -> None:
        if key is not None and (self.batch, key) in self._trace_ids:
            self._trace = self._trace_ids[(self.batch, key)]
            return
        self._next_trace += 1
        self._trace = self._next_trace
        if key is not None:
            self._trace_ids[(self.batch, key)] = self._trace

    def span(self, name: str, fn, trace_key=None, observe=None):
        """Wrap ``fn`` in a span.

        ``trace_key(args)`` starts (or re-enters) the trace of one unit of
        work; returning None starts a fresh one.  ``observe(args, result)``
        records a value from a successful call.
        """
        nid = self.name_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if trace_key is not None:
                self._enter_trace(trace_key(args))
            index = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trace_id.append(self._trace)
            self.start.append(0.0)
            self.end.append(0.0)
            self.covered.append(0.0)
            self.failed.append(1)
            self._stack.append(index)
            self._open_covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                self.failed[index] = 0
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                self.covered[index] = self._open_covered.pop()
                if self._open_covered:
                    self._open_covered[-1] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` in a counter attributed to the enclosing span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = self.name_id[self._stack[-1]] if self._stack else -1
                entry = self.counters.setdefault((name, parent), [0, 0, 0.0])
                entry[0] += 1
                entry[1] += np.size(args[0]) if args else 0
                entry[2] += dt
                if self._open_covered:
                    self._open_covered[-1] += dt

        return counted

    def save(self, path: str) -> None:
        """Write every span and counter as a compressed ``.npz`` file."""
        keys = sorted(self.counters)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace_id=np.frombuffer(self.trace_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            covered=np.frombuffer(self.covered, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
            counter_name=np.array([name for name, _ in keys]),
            counter_parent=np.array([self.names[p] if p >= 0 else "" for _, p in keys]),
            counter_calls=np.array([self.counters[k][0] for k in keys], dtype=np.int64),
            counter_elems=np.array([self.counters[k][1] for k in keys], dtype=np.int64),
            counter_seconds=np.array([self.counters[k][2] for k in keys]),
        )


class _Namespace:
    """Forwards attribute reads to ``target`` except the given overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# Operation counts computed from array shapes with the textbook formulas
# (complex multiply-add = 8 real flops, FFT = 5 n log2 n per transform,
# singular values only = 4 q p^2 - 4 p^3 / 3, LU solve = 2 n^3 / 3 +
# 2 n^2 nrhs, complex = 4x real).  They ignore cache effects and the
# operator-form matmul, which no wrapper sees.
def _einsum_flops(args) -> float:
    subscripts, *operands = args
    sizes: dict[str, int] = {}
    for letters, operand in zip(subscripts.split("->")[0].split(","), operands):
        sizes.update(zip(letters, np.shape(operand)))
    per = 8 if any(np.iscomplexobj(op) for op in operands) else 2
    return per * math.prod(sizes.values())


def _fft_flops(args) -> float:
    a = args[0]
    n = a.shape[1]  # linklevel transforms along axis 1
    return 5.0 * a.size * math.log2(n)


def _svd_flops(args) -> float:
    a = args[0]
    p, q = sorted(a.shape[-2:])
    return 4.0 * (a.size // (p * q)) * (4.0 * q * p * p - 4.0 * p**3 / 3.0)


def _solve_flops(args) -> float:
    a, b = args
    n = a.shape[-1]
    return 4.0 * (a.size // (n * n)) * (2.0 * n**3 / 3.0 + 2.0 * n * n * b.shape[-1])


def _patch(saved: list, target, key, value) -> None:
    if isinstance(target, dict):
        saved.append((target, key, target[key]))
        target[key] = value
    else:
        saved.append((target, key, getattr(target, key)))
        setattr(target, key, value)


@contextmanager
def instrument(tracer: Tracer):
    """Rebind dapalloc's layer boundaries to traced wrappers."""
    saved: list = []
    obs = tracer.observed

    def span(module, attr, name, **kw):
        _patch(saved, module, attr, tracer.span(name, getattr(module, attr), **kw))

    def count(module, attr, name):
        _patch(saved, module, attr, tracer.counter(name, getattr(module, attr)))

    def note(key, value_of):
        return lambda args, result: obs[key].append(value_of(args, result))

    def ao_result(args, result):
        obs["ao_iterations"].append(result[1].iterations)
        obs["ao_converged"].append(result[1].converged)

    try:
        span(bench, "run_montecarlo", "bench.driver")
        span(bench, "evaluate_rapp_mode", "bench.driver")
        span(bench, "summarize", "bench.summarize")
        span(bench, "write_drop_results_csv", "bench.csv",
             observe=note("csv_bytes", lambda a, r: os.path.getsize(a[1])))
        span(bench, "drop_ues", "scenario.drop_ues", trace_key=lambda a: ("drop", a[1]))
        span(bench, "evaluate", "metrics.evaluate")
        for label, name in _STRATEGIES.items():
            _patch(saved, bench.ALGORITHMS, label,
                   tracer.span(name, bench.ALGORITHMS[label]))

        span(allocator, "alternating_optimize", "allocator.ao", observe=ao_result)
        span(allocator, "solve_dapa", "dapa.solve")
        span(allocator, "breakpoints", "fpda.breakpoints")
        span(allocator, "solve_fpda", "fpda.solve")
        span(allocator, "evaluate", "metrics.evaluate")
        span(allocator, "operating_point_at", "metrics.operating_point_at")

        span(dapa, "sum_rate_derivative", "dapa.derivative")
        span(dapa, "evaluate", "metrics.evaluate")
        span(dapa, "bussgang_gain_soft", "pa_model.soft")
        span(dapa, "distortion_coeff_soft", "pa_model.soft")
        count(dapa, "erfc", "numerics.erfc")
        count(dapa, "erfcx", "numerics.erfc")
        count(dapa, "lambert_w0_of_log", "numerics.lambert_w")

        span(metrics, "operating_point_at", "metrics.operating_point_at")
        span(metrics, "bussgang_gain_soft", "pa_model.soft")
        span(metrics, "distortion_coeff_soft", "pa_model.soft")
        span(metrics, "bussgang_gain_rapp", "pa_model.rapp",
             observe=note("rapp_psi", lambda a, r: float(a[0])))
        span(metrics, "distortion_coeff_rapp", "pa_model.rapp")
        count(pa_model, "erfc", "numerics.erfc")
        count(pa_model, "erfcx", "numerics.erfc")
        count(pa_model, "integrate_semi_infinite", "numerics.quad")

        span(linklevel, "_simulate_point", "linklevel.point",
             trace_key=lambda a: ("point", a[0].n_users, a[2]),
             observe=note("channel_redraws", lambda a, r: r.n_channel_redraws))
        span(linklevel, "bussgang_gain_soft", "pa_model.soft")
        span(linklevel, "distortion_coeff_soft", "pa_model.soft")

        def kernel(name, fn, flops):
            return tracer.span(name, fn, observe=note("flops", lambda a, r: flops(a)))

        _patch(saved, linklevel, "np", _Namespace(
            np,
            einsum=kernel("linklevel.einsum", np.einsum, _einsum_flops),
            fft=_Namespace(
                np.fft,
                fft=kernel("linklevel.fft", np.fft.fft, _fft_flops),
                ifft=kernel("linklevel.fft", np.fft.ifft, _fft_flops),
            ),
            linalg=_Namespace(
                np.linalg,
                svd=kernel("linklevel.linalg", np.linalg.svd, _svd_flops),
                solve=kernel("linklevel.linalg", np.linalg.solve, _solve_flops),
            ),
        ))

        span(nonconvexity, "scan_grid", "nonconvexity.scan_grid")
        span(nonconvexity, "find_indefinite_point", "nonconvexity.find_indefinite_point")
        span(nonconvexity, "hessian_eigs", "nonconvexity.hessian_eigs",
             trace_key=lambda a: None)
        span(nonconvexity, "evaluate", "metrics.evaluate")
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase that completed ``units`` units.

    Returns every :data:`PER_LAYER` metric except the run-level ones
    (``trace.overhead_frac``, ``gain_p50``, ``sdr_err_db_max``,
    ``failed_frac``), which the caller adds.  A layer the workload does
    not reach reads 0.
    """
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    self_time = dur - np.frombuffer(tracer.covered)
    failed = np.frombuffer(tracer.failed, dtype=np.int8)
    parent_id = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)

    def is_(name: str) -> np.ndarray:
        return name_id == tracer.name_of(name)

    def under(name: str, parent_name: str) -> np.ndarray:
        return is_(name) & (parent_id == tracer.name_of(parent_name))

    def counter(name: str) -> tuple[int, int, float]:
        rows = [v for (n, _), v in tracer.counters.items() if n == name]
        return (
            sum(r[0] for r in rows),
            sum(r[1] for r in rows),
            sum(r[2] for r in rows),
        )

    def per_unit(value: float) -> float:
        return value / units

    def self_ms(mask: np.ndarray) -> float:
        return per_unit(1e3 * float(self_time[mask].sum()))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for key, name in (("erfc", "numerics.erfc"), ("lambert_w", "numerics.lambert_w"),
                      ("quad", "numerics.quad")):
        calls, elems, seconds = counter(name)
        m[f"numerics.{key}.calls"] = per_unit(calls)
        m[f"numerics.{key}.self_ms"] = per_unit(1e3 * seconds)
        if key == "erfc":
            m["numerics.erfc.elems_per_call"] = ratio(elems, calls)

    soft, rapp = is_("pa_model.soft"), is_("pa_model.rapp")
    psi = tracer.observed["rapp_psi"]
    m["pa_model.soft.calls"] = per_unit(int(soft.sum()))
    m["pa_model.soft.self_ms"] = self_ms(soft)
    m["pa_model.rapp.points"] = per_unit(len(psi))
    m["pa_model.rapp.quad_per_point"] = ratio(counter("numerics.quad")[0], len(psi))
    m["pa_model.rapp.distinct_psi"] = len(set(psi))
    m["pa_model.rapp.self_ms"] = self_ms(rapp)

    for name in ("metrics.evaluate", "metrics.operating_point_at"):
        mask = is_(name)
        m[f"{name}.calls"] = per_unit(int(mask.sum()))
        m[f"{name}.self_ms"] = self_ms(mask)

    solve = is_("dapa.solve")
    n_solve = int(solve.sum())
    solve_ms = 1e3 * dur[solve]
    guard = under("metrics.evaluate", "dapa.solve")
    m["dapa.solve.calls"] = per_unit(n_solve)
    m["dapa.solve.ms_p50"] = _pct(solve_ms, 50)
    m["dapa.solve.ms_p90"] = _pct(solve_ms, 90)
    m["dapa.solve.self_ms"] = self_ms(solve)
    m["dapa.solve.failures"] = per_unit(int(failed[solve].sum()))
    m["dapa.derivative.calls_per_solve"] = ratio(
        int(under("dapa.derivative", "dapa.solve").sum()), n_solve)
    m["dapa.guard.evaluate_per_solve"] = ratio(int(guard.sum()), n_solve)
    m["dapa.guard.share"] = ratio(float(dur[guard].sum()), float(dur[solve].sum()))

    fpda_solve = is_("fpda.solve")
    m["fpda.solve.calls"] = per_unit(int(fpda_solve.sum()))
    m["fpda.solve.self_ms"] = self_ms(fpda_solve)
    m["fpda.breakpoints.self_ms"] = self_ms(is_("fpda.breakpoints"))

    for name in _STRATEGIES.values():
        strategy_ms = 1e3 * dur[is_(name)]
        m[f"{name}.ms_p50"] = _pct(strategy_ms, 50)
        m[f"{name}.ms_p90"] = _pct(strategy_ms, 90)
    iterations = tracer.observed["ao_iterations"]
    m["allocator.ao.iterations_p50"] = _pct(iterations, 50)
    m["allocator.ao.iterations_max"] = float(max(iterations, default=0))
    m["allocator.ao.converged_frac"] = ratio(
        sum(tracer.observed["ao_converged"]), len(iterations))
    # Each AO iteration evaluates its water-filled iterate once; the
    # rest of the evaluate calls under the AO span are the safeguard.
    m["allocator.ao.safeguard_evaluate_calls"] = per_unit(
        int(under("metrics.evaluate", "allocator.ao").sum()) - sum(iterations))

    drop_ues = is_("scenario.drop_ues")
    m["scenario.drop_ues.calls_per_drop"] = per_unit(int(drop_ues.sum()))
    m["scenario.drop_ues.self_ms"] = self_ms(drop_ues)

    m["bench.driver.self_ms"] = self_ms(is_("bench.driver"))
    m["bench.summarize.ms"] = per_unit(1e3 * float(dur[is_("bench.summarize")].sum()))
    m["bench.csv.ms"] = per_unit(1e3 * float(dur[is_("bench.csv")].sum()))
    m["bench.csv.bytes"] = per_unit(sum(tracer.observed["csv_bytes"]))

    m["linklevel.point.ms"] = _pct(1e3 * dur[is_("linklevel.point")], 50)
    for kind in ("fft", "einsum", "linalg"):
        m[f"linklevel.{kind}.self_ms"] = self_ms(is_(f"linklevel.{kind}"))
    m["linklevel.gflop_computed"] = per_unit(sum(tracer.observed["flops"]) / 1e9)
    m["linklevel.channel_redraws"] = per_unit(sum(tracer.observed["channel_redraws"]))

    probe_layer = (is_("nonconvexity.scan_grid") | is_("nonconvexity.find_indefinite_point")
                   | is_("nonconvexity.hessian_eigs"))
    m["nonconvexity.hessian_eigs.calls_per_probe"] = per_unit(
        int(is_("nonconvexity.hessian_eigs").sum()))
    m["nonconvexity.evaluate_per_probe"] = per_unit(
        int(under("metrics.evaluate", "nonconvexity.hessian_eigs").sum()))
    m["nonconvexity.self_ms"] = self_ms(probe_layer)
    return m
