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

Any other top-level key is a configuration error, and so is null for any
section or key: a key left out takes its default.

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
from dataclasses import fields
from functools import partial

import numpy as np

from .diagnostics import (
    _internal_smooth_problem,
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
from .core import feasibility_violation, sym
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


def _null(path: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: expected a value, got null")


def _section(conf: dict, name: str, parent: str = "", required=True) -> dict:
    """conf[name], a JSON object, as a dict; {} if left out and not required."""
    path = f"{parent}.{name}" if parent else name
    if name not in conf:
        if required:
            raise ConfigurationError(f"{path}: section missing from config")
        return {}
    sec = conf[name]
    if sec is None:
        raise _null(path)
    if not isinstance(sec, dict):
        raise ConfigurationError(f"{path}: must be a JSON object")
    return sec


def _known_keys(sec: dict, allowed, path: str):
    """Reject unknown keys, then keys given as null, naming the first by its dotted path."""
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {unknown}")
    nulls = sorted(key for key, value in sec.items() if value is None)
    if nulls:
        raise _null(f"{path}.{nulls[0]}")


def _file_path(sec: dict, key: str, path: str) -> str:
    """sec[key], a nonempty string; "" if left out."""
    value = sec.get(key, "")
    if key in sec and not (isinstance(value, str) and value):
        raise ConfigurationError(f"{path}.{key}: expected a file path, got {value!r}")
    return value


def _output_section(cfg: dict) -> dict:
    out_spec = _section(cfg, "output", required=False)
    _known_keys(out_spec, {"trace_path", "summary_path"}, "output")
    return {key: _file_path(out_spec, key, "output") for key in out_spec}


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


def _get_num_list(sec, key, path, default=None, length=None, missing=None, **num):
    """sec[key] as a list of numbers, each checked by _get_num under path.key.i."""
    if key not in sec:
        if missing:
            raise ConfigurationError(f"{path}.{key}: {missing}")
        return default
    value = sec[key]
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" {length}"
        raise ConfigurationError(f"{path}.{key}: expected a list of{size} numbers, got {value!r}")
    entries = dict(enumerate(value))
    return [_get_num(entries, i, f"{path}.{key}", required=True, **num) for i in entries]


_COUNT = partial(_get_num, required=True, minimum=1, integer=True)
_SEED = partial(_get_num, default=0, minimum=0, integer=True)
_TOP = partial(_get_num_list, default=(10.0, 8.0, 6.0, 4.0, 2.0), minimum=0.0)
_WIDTHS = partial(
    _get_num_list, length=3, missing="expected [d_in, hidden, d_out]", minimum=1, integer=True
)
# kind: (keys read with either data source, keys read only for seeded data, the seeded
# data from the keys read, the problem from the data and the keys read), each key
# mapped to its reader; every kind but those in _NO_DATA_PATH may load data_path instead
_KINDS = {
    "quadratic_trace": (
        {"p": _COUNT},
        {"n": _COUNT, "seed": _SEED, "scale": partial(_get_num, default=1.0)},
        lambda k: sym(gaussian_matrix(k["n"], k["n"], k["seed"], k["scale"])),
        lambda data, k: make_quadratic_trace(data, k["p"]),
    ),
    "sparse_pca": (
        {"p": _COUNT, "gamma": partial(_get_num, required=True, minimum=0.0)},
        {"n": _COUNT, "seed": _SEED, "top_eigenvalues": _TOP},
        lambda k: spiked_covariance(k["n"], k["top_eigenvalues"], k["seed"]),
        lambda data, k: make_sparse_pca(data, k["p"], k["gamma"]),
    ),
    "l1_pca": (
        {"p": _COUNT},
        {"rows": _COUNT, "n": _COUNT, "seed": _SEED},
        lambda k: gaussian_matrix(k["rows"], k["n"], k["seed"]),
        lambda data, k: make_l1_pca(data, k["p"]),
    ),
    "orthogonal_mlp": (
        {},
        {"widths": _WIDTHS, "n_samples": _COUNT, "seed": _SEED},
        lambda k: synthetic_mlp_dataset(k["n_samples"], k["widths"], k["seed"]),
        lambda data, k: make_orthogonal_mlp(data, k["widths"], seed=k["seed"]),
    ),
}
_NO_DATA_PATH = {"orthogonal_mlp"}
_NOISE = {"sigma": partial(_get_num, required=True, minimum=0.0), "bound": _get_num}


def build_problem(conf: dict):
    """ProblemDefinition from the config's problem section, read by its kind's _KINDS entry.

    data_path, where the kind takes it, replaces the seeded-data keys; an
    optional noise section (sigma, bound) attaches oracle noise.
    """
    kind = conf.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        if kind is None and "kind" in conf:
            raise _null("problem.kind")
        what = "required field missing" if kind is None else f"unknown problem kind {kind!r}"
        raise ConfigurationError(f"problem.kind: {what}")
    shared, seeded, seeded_data, build = _KINDS[kind]
    loads = [] if kind in _NO_DATA_PATH else ["data_path"]
    _known_keys(conf, {"kind", "noise", *loads, *shared, *seeded}, "problem")
    path = _file_path(conf, "data_path", "problem")
    loaded = "data_path" in conf
    ignored = sorted(set(conf) & set(seeded)) if loaded else []
    if ignored:
        raise ConfigurationError(f"problem: data_path excludes the seeded-data keys {ignored}")
    readers = shared if loaded else {**shared, **seeded}
    keys = {key: read(conf, key, "problem") for key, read in readers.items()}
    try:
        problem = build(load_matrix_csv(path) if loaded else seeded_data(keys), keys)
    except (ValueError, OSError) as err:
        # a factory's check across fields (n >= p, ...) or an unreadable data file
        raise ConfigurationError(f"problem: {err}") from err
    if "noise" in conf:
        noise = _section(conf, "noise", "problem")
        _known_keys(noise, _NOISE, "problem.noise")
        model = {key: read(noise, key, "problem.noise") for key, read in _NOISE.items()}
        try:
            problem = attach_noise(problem, NoiseModel(**model))
        except ValueError as err:
            raise ConfigurationError(f"problem.noise: {err}") from err
    return problem


def _numbers(cls, sec: dict, path: str, **minimum) -> dict:
    """sec's int and float fields of dataclass cls, a left-out key at its field's default."""
    # solvers.py postpones annotations, so a field's type is the type's name
    return {
        f.name: _get_num(
            sec, f.name, path, f.default, minimum=minimum.get(f.name), integer=f.type == "int"
        )
        for f in fields(cls)
        if f.type in ("int", "float")
    }


def build_solver(conf: dict, problem):
    """(SolverConfig, algorithm name, budget_epochs or None) from the solver section.

    Its keys are SolverConfig's fields, algorithm and budget_epochs, and the
    schedule's are StepSchedule's; a key left out takes its field's default.
    """
    field_names = {f.name for f in fields(SolverConfig)}
    _known_keys(conf, {"algorithm", "budget_epochs", *field_names}, "solver")
    algorithm = conf.get("algorithm", "ncdf_sgd")
    if not isinstance(algorithm, str) or algorithm not in ALGORITHM_RUNNERS:
        raise ConfigurationError(
            f"solver.algorithm: unknown algorithm {algorithm!r}, "
            f"expected one of {sorted(ALGORITHM_RUNNERS)}"
        )
    sched_spec = _section(conf, "schedule", "solver", required=False)
    _known_keys(sched_spec, {f.name for f in fields(StepSchedule)}, "solver.schedule")
    _get_num_list(sched_spec, "values", "solver.schedule")  # StepSchedule converts them
    sched = {**sched_spec, **_numbers(StepSchedule, sched_spec, "solver.schedule")}
    try:
        schedule = StepSchedule(**sched)
    except ConfigurationError as err:
        raise ConfigurationError(f"solver.schedule.{err}") from err
    # a custom schedule reads values only, and the other kinds all its keys but values
    unread = {"eta0", "epoch_len"} if schedule.kind == "custom" else {"values"}
    unread = sorted(unread & set(sched_spec))
    if unread:
        raise ConfigurationError(
            f"solver.schedule: kind {schedule.kind!r} excludes the keys {unread}"
        )

    given = {key: value for key, value in conf.items() if key in field_names}
    given.update(_numbers(SolverConfig, conf, "solver", seed=0), schedule=schedule)
    if conf.get("safeguards") == "estimate":
        given["safeguards"] = estimate_constants(problem, seed=given["seed"])
    elif "safeguards" in conf:
        given["safeguards"] = tuple(_get_num_list(conf, "safeguards", "solver", length=3))
    try:
        cfg = SolverConfig(**given)
    except ConfigurationError as err:
        raise ConfigurationError(f"solver.{err}") from err
    budget = _get_num(conf, "budget_epochs", "solver", minimum=1, integer=True)
    return cfg, algorithm, budget


# ---------------------------------------------------------------------------
# output writing


def _fmt(value) -> str:
    return repr(float(value))


def write_trace_csv(path, trace):
    columns = (trace.f, trace.h, trace.feas, trace.stat, trace.seconds)
    rows = [TRACE_HEADER]
    for i, k in enumerate(trace.iters):
        rows.append(",".join([str(k), *(_fmt(col[i]) for col in columns)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def _summarize(problem, result, seconds: float) -> dict:
    projected = result.projected
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run's values may overflow
        final_f = None if projected is None else problem.f_value(projected.matrix)
        stat = None if projected is None else stationarity_estimate(problem, projected)
        feas = feasibility_violation(result.final_x) if np.isfinite(result.final_x).all() else None
    return {
        "final_f": final_f,
        "final_feasibility": feas,
        "stationarity": stat,
        "iterations": result.iterations,
        "seconds": seconds,
        "termination": result.termination,
    }


def _emit_outputs(problem, result, out_spec: dict, seconds: float):
    if trace_path := out_spec.get("trace_path"):
        write_trace_csv(trace_path, result.trace)
    summary = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in _summarize(problem, result, seconds).items()
    }
    line = json.dumps(summary, sort_keys=True, allow_nan=False)
    if summary_path := out_spec.get("summary_path"):
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
    t0 = time.perf_counter()
    try:
        result = ALGORITHM_RUNNERS[algorithm](problem, solver_cfg)
    except (DivergenceError, SafeguardViolationError) as err:
        partial_run = getattr(err, "result", None)
        if partial_run is not None:
            _emit_outputs(problem, partial_run, out_spec, time.perf_counter() - t0)
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
    m1, mt, mh = constants = estimate_constants(problem, seed=args.seed)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    reports += run_stationarity_suite(
        problem, beta, seed=args.seed, samples=min(args.samples, 500), constants=constants
    )
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
    try:
        rows = run_step_grid(problem, solver_cfg, budget, algorithm)
    except ConfigurationError as err:  # the grid's own check: no custom schedule
        raise ConfigurationError(f"solver: {err}") from err
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
    try:
        args = _build_parser().parse_args(argv)
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
