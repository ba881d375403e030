"""Command-line front end: configured runs, build verification, step grids.

Subcommands:

  stiefelcd run <config.json>      execute one solver run, write trace CSV
                                   and a summary record
  stiefelcd verify [--seed --samples --tol-scale]
                                   run the identity and stationarity suites
  stiefelcd grid <config.json>     step-size grid table and selection

Exit codes are a stable contract: 0 success, 1 verification failure,
2 divergence, 3 configuration error (including bad arguments or configs).

Config files are JSON objects with at most these three sections:

  {"problem": {"kind": ..., ...},
   "solver": {"algorithm": ..., "beta": ..., "schedule": {...}, ...},
   "output": {"trace_path": ..., "summary_path": ...}}

Any other top-level key is a configuration error.

Trace CSV columns are fixed: iter,f,h,feas,stat,seconds.  Floats are
written with shortest round-trip formatting, so parsing the file back
reproduces the run's doubles exactly.  All columns except seconds are
deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

# cmd_verify calls _stationarity_reports to reuse its m1; run_stationarity_suite
# stays importable here because bench/tracing.py wraps cli.run_stationarity_suite
from .diagnostics import (  # noqa: F401
    _internal_smooth_problem,
    _stationarity_reports,
    format_reports,
    run_identity_suite,
    run_stationarity_suite,
)
from .errors import ConfigurationError, DivergenceError, SafeguardViolationError
from .problems import (
    NoiseModel,
    attach_noise,
    estimate_constants,
    gaussian_matrix,
    load_matrix_csv,
    make_l1_pca,
    make_orthogonal_mlp,
    make_quadratic_trace,
    make_sparse_pca,
    spiked_covariance,
    synthetic_mlp_dataset,
)
from .core import feasibility_violation
from .solvers import (
    ALGORITHM_RUNNERS,
    SolverConfig,
    StepSchedule,
    best_grid_step,
    run_step_grid,
    stationarity_estimate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DIVERGED = 2
EXIT_BAD_CONFIG = 3

TRACE_HEADER = "iter,f,h,feas,stat,seconds"


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors, exit code 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_CONFIG)


# ---------------------------------------------------------------------------
# config reading


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"config {path} is not valid JSON (line {err.lineno}, column {err.colno}): "
            f"{err.msg}"
        ) from err
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} must be a JSON object at top level")
    unknown = sorted(set(cfg) - {"problem", "solver", "output"})
    if unknown:
        raise ConfigurationError(
            f"config: unknown top-level keys {unknown}; the sections are problem, solver "
            "and output"
        )
    return cfg


def _section(cfg: dict, name: str, required=True) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigurationError(f"{name}: section missing from config")
        return {}
    if not isinstance(sec, dict):
        raise ConfigurationError(f"{name}: must be a JSON object")
    return sec


def _known_keys(sec: dict, allowed, path: str):
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {unknown}")


def _output_section(cfg: dict) -> dict:
    out_spec = _section(cfg, "output", required=False)
    _known_keys(out_spec, {"trace_path", "summary_path"}, "output")
    return out_spec


def _get_num(sec, key, path, default=None, required=False, minimum=None, integer=False):
    if key not in sec:
        if required:
            raise ConfigurationError(f"{path}.{key}: required field missing")
        return default
    value = sec[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the magnitude test also rejects nan, inf and integers beyond double range
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigurationError(f"{path}.{key}: expected a finite number, got {value!r}")
    if integer and (int(value) != value or abs(value) >= 2**63):
        raise ConfigurationError(f"{path}.{key}: expected a 64-bit integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return int(value) if integer else float(value)


def _get_num_list(sec, key, path, default=None, length=None, **num):
    """sec[key] as a list of numbers, each checked by _get_num under path.key.i."""
    if key not in sec:
        return default
    value = sec[key]
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" {length}"
        raise ConfigurationError(f"{path}.{key}: expected a list of{size} numbers, got {value!r}")
    entries = dict(enumerate(value))
    return [_get_num(entries, i, f"{path}.{key}", required=True, **num) for i in entries]


def build_problem(conf: dict):
    """ProblemDefinition from the config's problem section."""
    try:
        problem = _problem_of_kind(conf)
    except ConfigurationError:
        raise
    except (ValueError, OSError) as err:
        # a factory's check across fields (n >= p, ...) or an unreadable data file
        raise ConfigurationError(f"problem: {err}") from err
    noise = conf.get("noise")
    if noise is not None:
        if not isinstance(noise, dict):
            raise ConfigurationError("problem.noise: must be a JSON object")
        _known_keys(noise, {"sigma", "bound"}, "problem.noise")
        sigma = _get_num(noise, "sigma", "problem.noise", required=True, minimum=0.0)
        bound = _get_num(noise, "bound", "problem.noise", default=None)
        try:
            problem = attach_noise(problem, NoiseModel(sigma=sigma, bound=bound))
        except ValueError as err:
            raise ConfigurationError(f"problem.noise: {err}") from err
    return problem


def _kind_keys(conf: dict, shared, seeded):
    """Check the problem keys: shared by both data sources, or for seeded data only."""
    _known_keys(conf, {"kind", "data_path", "noise", *shared, *seeded}, "problem")
    ignored = sorted(set(conf) & set(seeded)) if "data_path" in conf else []
    if ignored:
        raise ConfigurationError(f"problem: data_path excludes the seeded-data keys {ignored}")


def _problem_of_kind(conf: dict):
    """The problem section's objective, before any noise is attached."""
    path = conf.get("data_path", "")
    if not isinstance(path, str):
        raise ConfigurationError(f"problem.data_path: expected a file path, got {path!r}")
    kind = conf.get("kind")
    if kind == "quadratic_trace":
        _kind_keys(conf, {"p"}, {"n", "seed", "scale"})
        p = _get_num(conf, "p", "problem", required=True, minimum=1, integer=True)
        if "data_path" in conf:
            mat = load_matrix_csv(conf["data_path"])
        else:
            n = _get_num(conf, "n", "problem", required=True, minimum=1, integer=True)
            seed = _get_num(conf, "seed", "problem", default=0, minimum=0, integer=True)
            scale = _get_num(conf, "scale", "problem", default=1.0)
            m = gaussian_matrix(n, n, seed, scale)
            mat = 0.5 * (m + m.T)
        return make_quadratic_trace(mat, p)
    if kind == "sparse_pca":
        _kind_keys(conf, {"p", "gamma"}, {"n", "seed", "top_eigenvalues"})
        p = _get_num(conf, "p", "problem", required=True, minimum=1, integer=True)
        gamma = _get_num(conf, "gamma", "problem", required=True, minimum=0.0)
        if "data_path" in conf:
            cov = load_matrix_csv(conf["data_path"])
        else:
            n = _get_num(conf, "n", "problem", required=True, minimum=1, integer=True)
            seed = _get_num(conf, "seed", "problem", default=0, minimum=0, integer=True)
            top = _get_num_list(
                conf, "top_eigenvalues", "problem", [10.0, 8.0, 6.0, 4.0, 2.0], minimum=0.0
            )
            cov = spiked_covariance(n, top, seed)
        return make_sparse_pca(cov, p, gamma)
    if kind == "l1_pca":
        _kind_keys(conf, {"p"}, {"rows", "n", "seed"})
        p = _get_num(conf, "p", "problem", required=True, minimum=1, integer=True)
        if "data_path" in conf:
            data = load_matrix_csv(conf["data_path"])
        else:
            rows = _get_num(conf, "rows", "problem", required=True, minimum=1, integer=True)
            n = _get_num(conf, "n", "problem", required=True, minimum=1, integer=True)
            seed = _get_num(conf, "seed", "problem", default=0, minimum=0, integer=True)
            data = gaussian_matrix(rows, n, seed)
        return make_l1_pca(data, p)
    if kind == "orthogonal_mlp":
        _known_keys(conf, {"kind", "widths", "n_samples", "seed", "noise"}, "problem")
        widths = _get_num_list(conf, "widths", "problem", length=3, minimum=1, integer=True)
        if widths is None:
            raise ConfigurationError("problem.widths: expected [d_in, hidden, d_out]")
        n_samples = _get_num(conf, "n_samples", "problem", required=True, minimum=1, integer=True)
        seed = _get_num(conf, "seed", "problem", default=0, minimum=0, integer=True)
        dataset = synthetic_mlp_dataset(n_samples, widths, seed)
        return make_orthogonal_mlp(dataset, widths, seed=seed)
    if kind is None:
        raise ConfigurationError("problem.kind: required field missing")
    raise ConfigurationError(f"problem.kind: unknown problem kind {kind!r}")


def build_solver(conf: dict, problem):
    """(SolverConfig, algorithm name, budget_epochs or None) from the solver section."""
    _known_keys(
        conf,
        {
            "algorithm", "beta", "max_iters", "seed", "schedule", "feas_shell_check",
            "safeguards", "stop_tol_stationarity", "stop_tol_feasibility",
            "trace_stride", "budget_epochs",
        },
        "solver",
    )
    algorithm = conf.get("algorithm", "ncdf_sgd")
    if not isinstance(algorithm, str) or algorithm not in ALGORITHM_RUNNERS:
        raise ConfigurationError(
            f"solver.algorithm: unknown algorithm {algorithm!r}, "
            f"expected one of {sorted(ALGORITHM_RUNNERS)}"
        )
    sched_spec = conf.get("schedule", {})
    if not isinstance(sched_spec, dict):
        raise ConfigurationError("solver.schedule: must be a JSON object")
    _known_keys(sched_spec, {"kind", "eta0", "epoch_len", "values"}, "solver.schedule")
    values = _get_num_list(sched_spec, "values", "solver.schedule")
    try:
        schedule = StepSchedule(
            kind=sched_spec.get("kind", "harmonic_decay"),
            eta0=_get_num(sched_spec, "eta0", "solver.schedule", default=0.1),
            epoch_len=_get_num(
                sched_spec, "epoch_len", "solver.schedule", default=1, integer=True
            ),
            values=tuple(values) if values is not None else None,
        )
    except ConfigurationError as err:
        raise ConfigurationError(f"solver.schedule.{err}") from err

    seed = _get_num(conf, "seed", "solver", default=0, minimum=0, integer=True)
    if conf.get("safeguards") == "estimate":
        safeguards = estimate_constants(problem, seed=seed)
    else:
        safeguards = tuple(
            _get_num_list(conf, "safeguards", "solver", [0.0, 0.0, 0.0], length=3)
        )
    shell_check = conf.get("feas_shell_check", False)
    if not isinstance(shell_check, bool):
        raise ConfigurationError(
            f"solver.feas_shell_check: expected true or false, got {shell_check!r}"
        )

    try:
        cfg = SolverConfig(
            beta=_get_num(conf, "beta", "solver", default=0.1),
            schedule=schedule,
            max_iters=_get_num(conf, "max_iters", "solver", default=1000, integer=True),
            feas_shell_check=shell_check,
            safeguards=safeguards,
            seed=seed,
            stop_tol_stationarity=_get_num(
                conf, "stop_tol_stationarity", "solver", default=0.0
            ),
            stop_tol_feasibility=_get_num(
                conf, "stop_tol_feasibility", "solver", default=0.0
            ),
            trace_stride=_get_num(conf, "trace_stride", "solver", default=1, integer=True),
        )
    except ConfigurationError as err:
        raise ConfigurationError(f"solver.{err}") from err
    budget = _get_num(conf, "budget_epochs", "solver", default=None, minimum=1, integer=True)
    return cfg, algorithm, budget


# ---------------------------------------------------------------------------
# output writing


def _fmt(value) -> str:
    return repr(float(value))


def write_trace_csv(path, trace):
    rows = [TRACE_HEADER]
    for i in range(len(trace)):
        rows.append(
            ",".join(
                [
                    str(trace.iters[i]),
                    _fmt(trace.f[i]),
                    _fmt(trace.h[i]),
                    _fmt(trace.feas[i]),
                    _fmt(trace.stat[i]),
                    _fmt(trace.seconds[i]),
                ]
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def read_trace_csv(path):
    """Trace CSV back as a dict of numpy arrays keyed by column name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigurationError(f"{path}: unexpected trace header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, 6)
    cols = TRACE_HEADER.split(",")
    return {name: data[:, j] for j, name in enumerate(cols)}


def _summarize(problem, result, seconds: float) -> dict:
    projected = result.projected
    final_f = None if projected is None else problem.f_value(projected.matrix)
    stat = None if projected is None else stationarity_estimate(problem, projected)
    finite = bool(np.all(np.isfinite(result.final_x)))
    feas = feasibility_violation(result.final_x) if finite else None
    return {
        "final_f": final_f,
        "final_feasibility": feas,
        "stationarity": stat,
        "iterations": result.iterations,
        "seconds": seconds,
        "termination": result.termination,
    }


def _emit_outputs(problem, result, out_spec: dict, seconds: float):
    trace_path = out_spec.get("trace_path")
    if trace_path:
        write_trace_csv(trace_path, result.trace)
    summary = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in _summarize(problem, result, seconds).items()
    }
    line = json.dumps(summary, sort_keys=True, allow_nan=False)
    summary_path = out_spec.get("summary_path")
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args) -> int:
    cfg_dict = _load_config(args.config)
    problem = build_problem(_section(cfg_dict, "problem"))
    solver_cfg, algorithm, _ = build_solver(_section(cfg_dict, "solver"), problem)
    out_spec = _output_section(cfg_dict)
    runner = ALGORITHM_RUNNERS[algorithm]
    t0 = time.perf_counter()
    try:
        result = runner(problem, solver_cfg)
    except (DivergenceError, SafeguardViolationError) as err:
        partial = getattr(err, "result", None)
        if partial is not None:
            _emit_outputs(problem, partial, out_spec, time.perf_counter() - t0)
        if isinstance(err, DivergenceError):
            print(f"run diverged: {err}", file=sys.stderr)
            return EXIT_DIVERGED
        print(f"safeguard violated (solver.feas_shell_check): {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ConfigurationError as err:
        # the run's own checks: the safeguard step caps, a short custom schedule
        raise ConfigurationError(f"solver: {err}") from err
    _emit_outputs(problem, result, out_spec, time.perf_counter() - t0)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_identity_suite(seed=args.seed, samples=args.samples, tol_scale=args.tol_scale)
    problem = _internal_smooth_problem(np.random.default_rng(args.seed))
    m1, mt, mh = estimate_constants(problem, seed=args.seed)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    # run_identity_suite has checked samples and the internal problem is smooth, so
    # skip run_stationarity_suite's checks and its second estimate of the same m1
    reports += _stationarity_reports(problem, beta, m1, args.seed, min(args.samples, 500))
    print(format_reports(reports))
    failing = [r.name for r in reports if not r.passed]
    if failing:
        print("FAILED checks: " + ", ".join(sorted(set(failing))), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg_dict = _load_config(args.config)
    problem = build_problem(_section(cfg_dict, "problem"))
    solver_cfg, algorithm, budget = build_solver(_section(cfg_dict, "solver"), problem)
    _output_section(cfg_dict)  # grid writes no files, but a typo in output is still an error
    if budget is None:
        raise ConfigurationError("solver.budget_epochs: required for grid search")
    rows = run_step_grid(problem, solver_cfg, budget, algorithm)
    for eta, val in rows:
        print(f"{_fmt(eta)} {_fmt(val)}")
    best_eta = best_grid_step(rows)
    if best_eta is None:
        print("grid search failed: every candidate diverged or was rejected", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"selected {_fmt(best_eta)}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stiefelcd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured solver run")
    p_run.add_argument("config", help="path to a JSON run config")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run the build verification suites")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale")
    p_verify.set_defaults(func=cmd_verify)

    p_grid = sub.add_parser("grid", help="step-size grid search over 10 candidates")
    p_grid.add_argument("config", help="path to a JSON run config with budget_epochs")
    p_grid.set_defaults(func=cmd_grid)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # ConfigurationError is a ValueError
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
