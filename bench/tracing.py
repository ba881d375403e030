"""Outside-in tracing for the benchmark's traced pass.

The recorder wraps public functions of the five stiefelcd modules from the
benchmark process, so nothing under src/ changes: it rebinds the names
that solvers, problems, diagnostics, cli (and core itself) hold for the
core kernels, wraps the ALGORITHM_RUNNERS and IDENTITY_CHECKS entries,
the CLI's suite and factory imports, two problems methods, and a problem's
phi_subgrad and reg.prox fields through dataclasses.replace.  Every call
becomes a span (id, name, start, end, parent, operation, thread) kept in
memory; self time is the span's duration minus its children on the same
thread.  uninstall() restores every original binding.
"""

from __future__ import annotations

import functools
import itertools
import operator
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from stiefelcd import cli, core, diagnostics, problems, solvers

CORE_KERNELS = (
    "apply_A",
    "jacobian_apply",
    "feasibility_violation",
    "project_stiefel",
    "project_tangent",
    "inverse_A",
    "validate_matrix",
)
SPAN_KEEP = 200_000  # spans kept for writing; later ones only count in the totals

SPCA, L1PCA, GRID, VERIFY = "spca_desk", "l1pca_traced", "circle_grid", "verify"
_CORE_TARGET = {
    "apply_A": SPCA,
    "jacobian_apply": L1PCA,
    "feasibility_violation": SPCA,
    "project_stiefel": L1PCA,
    "project_tangent": L1PCA,
    "inverse_A": VERIFY,
    "validate_matrix": SPCA,
}


def _run_s(*workloads):
    return " ".join(f"run_s@{w}" for w in workloads)


# (name, unit, better, the end-to-end metric@workload it should move)
PER_LAYER = (
    *(
        (f"core.{k}.{field}", unit, "lower", _run_s(w))
        for k, w in _CORE_TARGET.items()
        for field, unit in (("calls", "count"), ("us", "us"))
    ),
    ("core.calls_per_iter", "count", "lower", _run_s(SPCA)),
    ("core.self_share", "ratio", "lower", _run_s(SPCA)),
    ("problems.oracle.calls", "count", "lower", _run_s(L1PCA, SPCA)),
    ("problems.oracle.us", "us", "lower", _run_s(L1PCA, SPCA)),
    ("problems.f_value.us", "us", "lower", _run_s(L1PCA, SPCA)),
    ("problems.prox.us", "us", "lower", _run_s(SPCA)),
    ("problems.noise_draw.us", "us", "lower", _run_s(L1PCA)),
    ("problems.self_share", "ratio", "lower", _run_s(L1PCA, SPCA)),
    ("problems.build_s", "s", "lower", f"setup_s@{L1PCA}"),
    ("problems.estimate_constants_s", "s", "lower", f"setup_s@{L1PCA}"),
    ("solvers.iterations", "count", "lower", _run_s(SPCA, L1PCA)),
    *(
        (f"solvers.iter_us.{a}", "us", "lower", _run_s(GRID if a == "rsgd_baseline" else SPCA))
        for a in solvers.ALGORITHMS
    ),
    ("solvers.self_us_per_iter", "us", "lower", _run_s(SPCA, GRID)),
    ("solvers.iter_us.p50", "us", "lower", _run_s(L1PCA)),
    ("solvers.iter_us.p99", "us", "lower", _run_s(L1PCA)),
    ("solvers.trace_ratio", "ratio", "lower", _run_s(L1PCA)),
    ("solvers.final_stationarity", "norm", "lower", f"quality@{SPCA}"),
    ("solvers.final_feasibility", "norm", "lower", f"quality@{SPCA}"),
    ("solvers.grid.finite_ratio", "ratio", "higher", _run_s(GRID)),
    ("solvers.grid.candidate_s.p50", "s", "lower", _run_s(GRID)),
    ("solvers.grid.candidate_s.max", "s", "lower", _run_s(GRID)),
    ("solvers.grid.wait_s", "s", "lower", _run_s(GRID)),
    ("solvers.grid.busy_ratio", "ratio", "higher", _run_s(GRID)),
    ("solvers.grid.threads", "count", "lower", _run_s(GRID)),
    *(
        (f"diagnostics.check.{name}_s", "s", "lower", _run_s(VERIFY))
        for name, _ in diagnostics.IDENTITY_CHECKS
    ),
    ("diagnostics.stationarity_suite_s", "s", "lower", _run_s(VERIFY)),
    ("diagnostics.sphere_oracle_s", "s", "lower", f"setup_s@{GRID}"),
    ("cli.build_s", "s", "lower", _run_s(GRID, VERIFY)),
    ("cli.main.self_s", "s", "lower", _run_s(GRID, VERIFY)),
    ("cli.exit_nonzero", "count", "lower", _run_s(GRID, VERIFY)),
    ("trace.overhead_ratio", "ratio", "lower", _run_s(SPCA, L1PCA, GRID, VERIFY)),
)


class Recorder:
    """Spans and per-name totals for one traced pass."""

    def __init__(self):
        # name -> [calls, seconds, self seconds]; setup spans are kept apart
        # so that layer shares cover the timed operations only
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.setup_stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.first_op_calls = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.op = None  # index of the traced operation in progress
        self.root = None  # span id of that operation
        self.runs = []  # (algorithm, op, start, end, thread, iterations, finished)
        self.grids = []  # (op, start, end)
        self.exit_codes = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _close(self, span_id, name, t0, t1, parent, self_s):
        with self._lock:
            stats = self.setup_stats if self.op is None else self.stats
            entry = stats[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += self_s
            if self.op == 0:
                self.first_op_calls[name] += 1
            if len(self.spans) < SPAN_KEEP:
                self.spans.append(
                    (span_id, name, t0, t1, parent, self.op, threading.get_ident())
                )
            else:
                self.dropped += 1

    def wrap(self, name, fn, on_exit=None):
        """fn with every call recorded as a span; on_exit(t0, t1, result or error)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self.root
            frame = [next(self._ids), 0.0]  # span id, time covered by children
            stack.append(frame)
            outcome = None
            t0 = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as err:
                outcome = err
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self._close(frame[0], name, t0, t1, parent, t1 - t0 - frame[1])
                if on_exit is not None:
                    on_exit(t0, t1, outcome)

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def operation(self, index, fn, arg):
        """fn(arg) as traced operation index, the root span of its calls."""
        stack = self._stack()
        self.op = index
        self.root = next(self._ids)
        frame = [self.root, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(arg)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._close(self.root, "bench.op", t0, t1, None, t1 - t0 - frame[1])
            self.op = self.root = None

    def instrument(self, problem):
        """problem with its oracle and proximal map recorded."""
        reg = problem.reg
        if reg is not None and reg.prox is not None:
            reg = replace(reg, prox=self.wrap("problems.prox", reg.prox))
        return replace(
            problem, phi_subgrad=self.wrap("problems.oracle", problem.phi_subgrad), reg=reg
        )

    # -- installing and removing the wrappers

    def _patch(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._undo.append((operator.setitem, mapping, key, mapping[key]))
        mapping[key] = value

    def install(self):
        for kernel in CORE_KERNELS:
            original = getattr(core, kernel)
            wrapped = self.wrap("core." + kernel, original)
            for module in (core, solvers, problems, diagnostics, cli):
                if getattr(module, kernel, None) is original:
                    self._patch(module, kernel, wrapped)
        for algorithm, runner in list(solvers.ALGORITHM_RUNNERS.items()):
            self._patch_item(
                solvers.ALGORITHM_RUNNERS,
                algorithm,
                self.wrap("solvers." + algorithm, runner, self._runner_done(algorithm)),
            )
        self._patch(
            cli,
            "run_step_grid",
            self.wrap("solvers.run_step_grid", cli.run_step_grid, self._grid_done),
        )
        self._patch(
            diagnostics,
            "IDENTITY_CHECKS",
            tuple(
                (name, self.wrap("diagnostics.check." + name, fn))
                for name, fn in diagnostics.IDENTITY_CHECKS
            ),
        )
        for attr, name in (
            ("run_identity_suite", "diagnostics.identity_suite"),
            ("run_stationarity_suite", "diagnostics.stationarity_suite"),
        ):
            self._patch(cli, attr, self.wrap(name, getattr(cli, attr)))
        estimate = self.wrap("problems.estimate_constants", problems.estimate_constants)
        make = problems.make_quadratic_trace
        factory = self.wrap("problems.build", lambda *a, **k: self.instrument(make(*a, **k)))
        for module in (cli, diagnostics):
            self._patch(module, "estimate_constants", estimate)
            self._patch(module, "make_quadratic_trace", factory)
        build = cli.build_problem
        self._patch(
            cli,
            "build_problem",
            self.wrap("cli.build_problem", lambda conf: self.instrument(build(conf))),
        )
        self._patch(cli, "build_solver", self.wrap("cli.build_solver", cli.build_solver))
        self._patch(cli, "main", self.wrap("cli.main", cli.main, self._main_done))
        for cls, attr, name in (
            (problems.NoiseModel, "draw", "problems.noise_draw"),
            (problems.ProblemDefinition, "f_value", "problems.f_value"),
        ):
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def _runner_done(self, algorithm):
        def done(t0, t1, outcome):
            # guard errors carry the partial run as .result
            result = getattr(outcome, "result", outcome)
            iterations = getattr(result, "iterations", 0)
            finished = not isinstance(outcome, Exception)
            with self._lock:
                self.runs.append(
                    (algorithm, self.op, t0, t1, threading.get_ident(), iterations, finished)
                )

        return done

    def _grid_done(self, t0, t1, outcome):
        self.grids.append((self.op, t0, t1))

    def _main_done(self, t0, t1, outcome):
        self.exit_codes.append(outcome)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op,thread\n")
            for span in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def layer_metrics(rec, overhead_ratio, trace_ratio, quality, iteration_seconds, workers):
    """Every PER_LAYER value, and for each one not measured here the reason.

    overhead_ratio is the traced over the untraced operation cost,
    trace_ratio the solvers' stride-1 over trace-off cost (or None),
    quality (stationarity, feasibility) pairs, iteration_seconds the
    solvers' own per-iteration times (or None), workers the CLI's grid
    pool size.  Unmeasured metrics read 0.
    """
    values, absent = {}, {}
    stats = rec.stats
    busy = sum(v[2] for v in stats.values())  # every thread's self time, summed

    def total(name, field, table=stats):
        return table[name][field] if name in table else 0

    def mean(name, scale=1.0):
        calls = total(name, 0) + total(name, 0, rec.setup_stats)
        seconds = total(name, 1) + total(name, 1, rec.setup_stats)
        return scale * seconds / calls if calls else None

    def share(prefix):
        return sum(v[2] for k, v in stats.items() if k.startswith(prefix)) / busy

    runs = [r for r in rec.runs if r[1] is not None]
    first_iters = sum(r[5] for r in runs if r[1] == 0)
    iters = sum(r[5] for r in runs)

    for kernel in CORE_KERNELS:
        values[f"core.{kernel}.calls"] = rec.first_op_calls.get("core." + kernel, 0)
        values[f"core.{kernel}.us"] = mean("core." + kernel, 1e6)
    core_calls = sum(rec.first_op_calls.get("core." + k, 0) for k in CORE_KERNELS)
    values["core.calls_per_iter"] = core_calls / first_iters if first_iters else None
    values["core.self_share"] = share("core.")

    values["problems.oracle.calls"] = rec.first_op_calls.get("problems.oracle", 0)
    values["problems.oracle.us"] = mean("problems.oracle", 1e6)
    values["problems.f_value.us"] = mean("problems.f_value", 1e6)
    values["problems.prox.us"] = mean("problems.prox", 1e6)
    values["problems.noise_draw.us"] = mean("problems.noise_draw", 1e6)
    values["problems.self_share"] = share("problems.")
    values["problems.build_s"] = mean("problems.build")
    values["problems.estimate_constants_s"] = mean("problems.estimate_constants")

    values["solvers.iterations"] = first_iters if runs else None
    for algorithm in solvers.ALGORITHMS:
        own = [r for r in runs if r[0] == algorithm]
        n = sum(r[5] for r in own)
        values[f"solvers.iter_us.{algorithm}"] = (
            1e6 * sum(r[3] - r[2] for r in own) / n if n else None
        )
    runner_self = sum(total("solvers." + a, 2) for a in solvers.ALGORITHMS)
    values["solvers.self_us_per_iter"] = 1e6 * runner_self / iters if iters else None
    if iteration_seconds is not None and len(iteration_seconds):
        values["solvers.iter_us.p50"] = 1e6 * float(np.percentile(iteration_seconds, 50))
        values["solvers.iter_us.p99"] = 1e6 * float(np.percentile(iteration_seconds, 99))
    else:
        absent["solvers.iter_us.p50"] = absent["solvers.iter_us.p99"] = (
            "read from the trace seconds column, which only l1pca_traced records per step"
        )
    values["solvers.trace_ratio"] = trace_ratio
    if trace_ratio is None:
        absent["solvers.trace_ratio"] = "measured on the l1pca_traced problem only"
    if quality:
        values["solvers.final_stationarity"] = statistics.median(q[0] for q in quality)
        values["solvers.final_feasibility"] = statistics.median(q[1] for q in quality)
    else:
        absent["solvers.final_stationarity"] = absent["solvers.final_feasibility"] = (
            "the workload does not return solver results to the benchmark"
        )

    candidates = [
        (r, g) for g in rec.grids for r in runs if r[1] == g[0] and g[1] <= r[2] <= g[2]
    ]
    if candidates:
        durations = [r[3] - r[2] for r, _ in candidates]
        threads = defaultdict(set)
        for r, g in candidates:
            threads[g].add(r[4])
        values["solvers.grid.finite_ratio"] = sum(r[6] for r, _ in candidates) / len(candidates)
        values["solvers.grid.candidate_s.p50"] = statistics.median(durations)
        values["solvers.grid.candidate_s.max"] = max(durations)
        values["solvers.grid.wait_s"] = statistics.median(r[2] - g[1] for r, g in candidates)
        values["solvers.grid.busy_ratio"] = sum(durations) / sum(
            (g[2] - g[1]) * workers for g in rec.grids
        )
        values["solvers.grid.threads"] = max(len(t) for t in threads.values())
    else:
        for name in ("finite_ratio", "candidate_s.p50", "candidate_s.max", "wait_s",
                     "busy_ratio", "threads"):
            absent["solvers.grid." + name] = "the workload runs no grid search"

    for name, _ in diagnostics.IDENTITY_CHECKS:
        values[f"diagnostics.check.{name}_s"] = mean("diagnostics.check." + name)
    values["diagnostics.stationarity_suite_s"] = mean("diagnostics.stationarity_suite")
    values["diagnostics.sphere_oracle_s"] = mean("diagnostics.sphere_oracle")

    mains = total("cli.main", 0)
    builds = total("cli.build_problem", 1) + total("cli.build_solver", 1)
    values["cli.build_s"] = builds / mains if mains and builds else None
    values["cli.main.self_s"] = total("cli.main", 2) / mains if mains else None
    values["cli.exit_nonzero"] = sum(1 for code in rec.exit_codes if code != 0)
    if not mains:
        absent["cli.exit_nonzero"] = "the workload does not call cli.main"

    values["trace.overhead_ratio"] = overhead_ratio

    for name, *_ in PER_LAYER:
        if values.get(name) is None:
            absent.setdefault(name, "not exercised by this workload")
    return {name: values.get(name) or 0 for name, *_ in PER_LAYER}, absent
