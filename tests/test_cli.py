"""CLI tests: exit codes, config validation, trace files, verify wiring."""

import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stiefelcd.cli as cli
import stiefelcd.core as core
from stiefelcd.cli import TRACE_HEADER, main, write_trace_csv
from stiefelcd.errors import ConfigurationError
from stiefelcd.solvers import IterateTrace, SolverConfig, StepSchedule


def read_trace_csv(path):
    """Trace CSV back as a dict of numpy arrays keyed by column name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ConfigurationError(f"{path}: unexpected trace header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, 6)
    return {name: data[:, j] for j, name in enumerate(TRACE_HEADER.split(","))}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def minimal_config(tmp_path, **solver_overrides):
    solver = {
        "algorithm": "ncdf_sgd",
        "beta": 1.0,
        "max_iters": 100,
        "seed": 3,
        "schedule": {"kind": "constant", "eta0": 0.005},
    }
    solver.update(solver_overrides)
    cfg = {
        "problem": {"kind": "quadratic_trace", "n": 8, "p": 3, "seed": 0},
        "solver": solver,
        "output": {
            "trace_path": str(tmp_path / "trace.csv"),
            "summary_path": str(tmp_path / "summary.json"),
        },
    }
    return cfg


def test_run_minimal_config_writes_trace_and_summary(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,f,h,feas,stat,seconds"
    assert len(lines) == 101  # header + one row per iteration
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["termination"] == "max_iters"
    assert summary["iterations"] == 100
    assert summary["final_feasibility"] < 1.0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == summary


def test_run_trace_roundtrips_doubles(tmp_path):
    cfg = minimal_config(tmp_path, max_iters=20)
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 0
    cols = read_trace_csv(tmp_path / "trace.csv")
    # rerun in-process to get the in-memory trace for exact comparison
    from stiefelcd.cli import build_problem, build_solver
    from stiefelcd.solvers import run_subgradient

    problem = build_problem(cfg["problem"])
    solver_cfg, _, _ = build_solver(cfg["solver"], problem)
    result = run_subgradient(problem, solver_cfg)
    assert np.array_equal(cols["f"], np.array(result.trace.f))
    assert np.array_equal(cols["h"], np.array(result.trace.h))
    assert np.array_equal(cols["feas"], np.array(result.trace.feas))
    assert np.array_equal(cols["stat"], np.array(result.trace.stat))
    assert np.array_equal(cols["iter"], np.arange(20.0))


def test_run_deterministic_apart_from_timing(tmp_path):
    cfg = minimal_config(tmp_path, max_iters=40)
    cfg["output"]["trace_path"] = str(tmp_path / "a.csv")
    path_a = write_config(tmp_path, cfg, "a.json")
    cfg["output"]["trace_path"] = str(tmp_path / "b.csv")
    path_b = write_config(tmp_path, cfg, "b.json")
    assert main(["run", path_a]) == 0
    assert main(["run", path_b]) == 0
    a = read_trace_csv(tmp_path / "a.csv")
    b = read_trace_csv(tmp_path / "b.csv")
    for key in ("iter", "f", "h", "feas", "stat"):
        assert np.array_equal(a[key], b[key]), key


def test_run_negative_eta0_names_field(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["solver"]["schedule"]["eta0"] = -1
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "eta0" in capsys.readouterr().err


def test_run_malformed_json_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": {,}')
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_run_unknown_problem_kind(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["problem"]["kind"] = "tensor_pca"
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "tensor_pca" in capsys.readouterr().err


def test_run_unknown_solver_key(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["solver"]["etaO"] = 0.1
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "etaO" in capsys.readouterr().err


def test_run_rejects_solver_workers(tmp_path, capsys):
    # the grid runs its candidates in lockstep, so there is no worker count to set
    cfg = minimal_config(tmp_path, workers=7)
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "solver" in err and "workers" in err
    assert not (tmp_path / "trace.csv").exists()


def test_run_rejects_non_string_algorithm(tmp_path, capsys):
    cfg = minimal_config(tmp_path, algorithm=["x"])
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "solver.algorithm" in capsys.readouterr().err


def test_run_rejects_noise_seed(tmp_path, capsys):
    # noise is drawn from the solver's keyed generator, so a noise seed would do nothing
    cfg = minimal_config(tmp_path)
    cfg["problem"]["noise"] = {"sigma": 0.05, "seed": 2}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "problem.noise" in err and "seed" in err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "problem, solver, path",
    [
        (None, {"safeguards": [1, 2, "x"]}, "solver.safeguards.2"),
        (None, {"schedule": {"kind": "custom", "values": [0.1, "a"]}}, "solver.schedule.values.1"),
        (
            {"kind": "sparse_pca", "n": 8, "p": 2, "gamma": 0.1, "top_eigenvalues": "abc"},
            {},
            "problem.top_eigenvalues",
        ),
        (
            {"kind": "orthogonal_mlp", "widths": [4, "a", 2], "n_samples": 10},
            {},
            "problem.widths.1",
        ),
    ],
)
def test_list_fields_name_their_bad_entry(tmp_path, capsys, problem, solver, path):
    cfg = minimal_config(tmp_path, **solver)
    if problem is not None:
        cfg["problem"] = problem
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert path in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command", ["run", "grid"])
def test_unknown_top_level_keys_rejected(tmp_path, capsys, command):
    cfg = minimal_config(tmp_path, budget_epochs=5)
    cfg["trace_path"] = cfg["output"].pop("trace_path")
    assert main([command, write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "trace_path" in err
    assert not (tmp_path / "trace.csv").exists()


def test_grid_rejects_unknown_output_key(tmp_path, capsys):
    cfg = minimal_config(tmp_path, budget_epochs=5)
    cfg["output"]["trace"] = "t.csv"
    assert main(["grid", write_config(tmp_path, cfg)]) == 3
    assert "output: unknown keys ['trace']" in capsys.readouterr().err


def test_readme_example_config_writes_its_outputs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(example)
    assert main(["run", "config.json"]) == 0
    assert read_trace_csv(tmp_path / "trace.csv")["iter"].size > 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["termination"] == "max_iters"


def test_run_missing_problem_section(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    del cfg["problem"]
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "problem" in capsys.readouterr().err


def test_run_divergence_exits_2_with_partial_trace(tmp_path, capsys):
    cfg = minimal_config(tmp_path, beta=0.1, max_iters=200)
    cfg["solver"]["schedule"] = {"kind": "constant", "eta0": 50.0}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert "diverged" in captured.err
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,f,h,feas,stat,seconds"
    assert len(lines) >= 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["termination"] == "divergence_guard"


def _reject_constant(name):
    raise ValueError(f"summary line is not strict JSON: {name}")


def test_run_summary_is_strict_json_when_a_value_overflows(tmp_path, capsys):
    # the stationarity norm's plain sum of squares of entries near 1e200
    # overflows; the norm is rescaled instead of being lost to inf
    cfg = minimal_config(tmp_path, algorithm="ncdf_proxsgd", max_iters=50)
    cfg["problem"] = {"kind": "quadratic_trace", "n": 6, "p": 2, "seed": 0, "scale": 1e200}
    cfg["solver"]["schedule"] = {"kind": "constant", "eta0": 1e200}
    with np.errstate(all="ignore"):
        assert main(["run", write_config(tmp_path, cfg)]) == 2
    line = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(line, parse_constant=_reject_constant)
    assert isinstance(summary["stationarity"], float)
    assert 1e199 < summary["stationarity"] < 1e202
    assert summary["termination"] == "divergence_guard"
    assert json.loads((tmp_path / "summary.json").read_text()) == summary
    # the trace's stat column takes the same norm
    stat = read_trace_csv(tmp_path / "trace.csv")["stat"]
    assert len(stat) == 1 and 1e199 < stat[0] < 1e202


def test_run_overflowing_divergence_prints_only_its_error_line(tmp_path, capsys):
    # overflow in the run (the stationarity norm, the proximal step) ends it
    # through the finiteness checks, so numpy's warnings would only repeat it
    cfg = minimal_config(tmp_path, algorithm="ncdf_proxsgd", max_iters=50)
    cfg["problem"] = {"kind": "quadratic_trace", "n": 6, "p": 2, "seed": 0, "scale": 1e200}
    cfg["solver"]["schedule"] = {"kind": "constant", "eta0": 1e200}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    expected = "run diverged: proximal step produced non-finite entries at iteration 0\n"
    assert capsys.readouterr().err == expected


def test_run_diverged_to_a_huge_iterate_prints_only_its_error_line(tmp_path):
    # the run ends at a finite iterate whose Gram matrix overflows; the summary's
    # feasibility of it is null, and no numpy warning reaches stderr in a fresh process
    import os
    import subprocess
    import sys

    cfg = minimal_config(tmp_path, algorithm="ncdf_proxsgd", max_iters=20)
    cfg["problem"] = {
        "kind": "sparse_pca", "n": 10, "p": 2, "seed": 1, "gamma": 0.5,
        "top_eigenvalues": [1e150, 5],
    }
    cfg["solver"]["schedule"] = {"kind": "constant", "eta0": 1e100}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "stiefelcd.cli", "run", write_config(tmp_path, cfg)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 2
    expected = "run diverged: Gram residual inf exceeded the divergence guard at iteration 1\n"
    assert done.stderr == expected
    assert json.loads(done.stdout)["final_feasibility"] is None


def test_main_reuses_one_parser_that_importing_cli_does_not_build(tmp_path, capsys):
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import stiefelcd.cli as c; print(c._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.stdout == "0\n"
    parser = cli._build_parser()
    assert main(["verify", "--samples", "many"]) == 3
    assert main(["grid", str(tmp_path / "missing.json")]) == 3
    assert cli._build_parser() is parser
    err = capsys.readouterr().err
    assert "argument --samples: invalid int value: 'many'" in err
    assert "missing.json" in err


def test_run_with_an_overflowing_exact_subgradient_exits_2_with_a_null_stationarity(tmp_path):
    # every entry of the L1-PCA data is 1e308, so the exact subgradient at iterate 0
    # overflows: the trace's stationarity ends the run, the summary writes the shared
    # routine's nan as null, and stderr holds the error line alone in a fresh process
    import os
    import subprocess
    import sys

    data = tmp_path / "huge.csv"
    data.write_text("\n".join(",".join(["1e308"] * 3) for _ in range(4)) + "\n")
    cfg = {
        "problem": {"kind": "l1_pca", "data_path": str(data), "p": 1},
        "solver": {"algorithm": "ncdf_sgd", "max_iters": 5},
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "stiefelcd.cli", "run", write_config(tmp_path, cfg)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert done.returncode == 2
    expected = "run diverged: stationarity oracle produced non-finite entries at iteration 0\n"
    assert done.stderr == expected
    summary = json.loads(done.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert summary["stationarity"] is None
    assert (summary["termination"], summary["iterations"]) == ("divergence_guard", 0)


def test_run_summary_writes_non_finite_values_as_null(tmp_path, capsys):
    from dataclasses import replace

    from stiefelcd.cli import _emit_outputs, build_problem, build_solver
    from stiefelcd.solvers import run_subgradient

    cfg = minimal_config(tmp_path, max_iters=5)
    problem = build_problem(cfg["problem"])
    result = run_subgradient(problem, build_solver(cfg["solver"], problem)[0])
    overflowing = replace(problem, phi_value=lambda x: -float("inf"))
    _emit_outputs(overflowing, result, cfg["output"], float("nan"))
    line = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(line, parse_constant=_reject_constant)
    assert summary["final_f"] is None
    assert summary["seconds"] is None
    assert json.loads((tmp_path / "summary.json").read_text()) == summary


def test_run_summary_measures_stationarity_without_noise(tmp_path, capsys):
    from stiefelcd.cli import build_problem, build_solver
    from stiefelcd.core import project_tangent
    from stiefelcd.solvers import run_subgradient, stationarity_estimate

    cfg = minimal_config(tmp_path, max_iters=40)
    clean = build_problem(dict(cfg["problem"]))
    cfg["problem"]["noise"] = {"sigma": 0.5, "bound": 1.0}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    noisy = build_problem(cfg["problem"])
    result = run_subgradient(noisy, build_solver(cfg["solver"], noisy)[0])
    assert summary["stationarity"] == stationarity_estimate(clean, result.projected)
    # the noisy oracle would have given another value
    x = result.projected.matrix
    w = noisy.f_subgrad(x, np.random.default_rng(0))
    assert summary["stationarity"] != float(np.linalg.norm(project_tangent(x, w)))


def test_run_safeguard_violation_exits_3(tmp_path, capsys):
    # safeguards reported honestly but beta below the required level
    cfg = minimal_config(tmp_path)
    cfg["solver"]["feas_shell_check"] = True
    cfg["solver"]["safeguards"] = [1.0, 1.0, 1.0]
    cfg["solver"]["beta"] = 1.0  # needs >= 60
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "beta" in capsys.readouterr().err


def test_run_short_custom_schedule_exits_3(tmp_path, capsys):
    # the schedule is only found short at the step it lacks, mid-run
    cfg = minimal_config(tmp_path, max_iters=10)
    cfg["solver"]["schedule"] = {"kind": "custom", "values": [0.005] * 4}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "configuration error: solver: custom schedule has 4 values, needed step 4" in err


# 2**62 steps fail at once: neither their list nor numpy's array of them could be allocated
@pytest.mark.parametrize("kind", ["constant", "harmonic_decay"])
@pytest.mark.parametrize("command, key", [("run", "max_iters"), ("grid", "budget_epochs")])
def test_a_step_list_too_large_to_allocate_exits_3_naming_its_key(
    tmp_path, capsys, command, key, kind
):
    cfg = minimal_config(tmp_path, **{key: 2**62})
    cfg["solver"]["schedule"] = {"kind": kind, "eta0": 0.005}
    assert main([command, write_config(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"configuration error: solver: {key}: {2**62} steps do not fit in memory\n"


def test_run_feas_shell_check_must_be_boolean(tmp_path, capsys):
    # bool("false") is True, so a string would silently turn the check on
    cfg = minimal_config(tmp_path, feas_shell_check="false")
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "solver.feas_shell_check" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_run_mlp_widths_checked_before_building_the_dataset(tmp_path, capsys):
    cfg = minimal_config(tmp_path)
    cfg["problem"] = {"kind": "orthogonal_mlp", "widths": [4, 6, 2], "n_samples": 10}
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert "first layer must be tall" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_run_other_problem_kinds(tmp_path):
    for problem in [
        {"kind": "sparse_pca", "n": 20, "p": 2, "gamma": 0.1, "seed": 1},
        {"kind": "l1_pca", "rows": 30, "n": 10, "p": 2, "seed": 1,
         "noise": {"sigma": 0.05}},
        {"kind": "orthogonal_mlp", "widths": [6, 3, 2], "n_samples": 40, "seed": 1},
    ]:
        cfg = {
            "problem": problem,
            "solver": {
                "algorithm": "ncdf_proxsgd" if problem["kind"] == "sparse_pca" else "rsgd_baseline",
                "beta": 1.0,
                "max_iters": 30,
                "schedule": {"kind": "constant", "eta0": 0.002},
            },
            "output": {"trace_path": str(tmp_path / "t.csv")},
        }
        assert main(["run", write_config(tmp_path, cfg)]) == 0, problem["kind"]


def test_run_quadratic_from_csv(tmp_path):
    mat = np.diag([3.0, 2.0, 1.0])
    data_path = tmp_path / "mat.csv"
    np.savetxt(data_path, mat, delimiter=",")
    cfg = {
        "problem": {"kind": "quadratic_trace", "data_path": str(data_path), "p": 1},
        "solver": {"beta": 1.0, "max_iters": 20,
                   "schedule": {"kind": "constant", "eta0": 0.01}},
        "output": {"trace_path": str(tmp_path / "t.csv")},
    }
    assert main(["run", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize(
    "kind, extra, seeded",
    [
        ("l1_pca", {}, {"rows": "abc", "n": -5, "seed": 1.5}),
        ("sparse_pca", {"gamma": 0.1}, {"n": 6, "top_eigenvalues": [3.0]}),
    ],
)
def test_run_data_path_loads_and_rejects_seeded_data_keys(tmp_path, capsys, kind, extra, seeded):
    data = np.random.default_rng(1).standard_normal((8, 4))
    data_path = tmp_path / "data.csv"
    np.savetxt(data_path, data.T @ data if kind == "sparse_pca" else data, delimiter=",")
    cfg = minimal_config(tmp_path, max_iters=10)
    cfg["problem"] = {"kind": kind, "data_path": str(data_path), "p": 2, **extra}
    assert main(["run", write_config(tmp_path, cfg)]) == 0
    assert len(read_trace_csv(tmp_path / "trace.csv")["iter"]) == 10
    # with data_path the seeded-data keys would be silently ignored
    capsys.readouterr()
    cfg["problem"].update(seeded)
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert f"problem: data_path excludes the seeded-data keys {sorted(seeded)}" in err


@pytest.mark.parametrize("key", ["stop_tol_stationarity", "stop_tol_feasibility"])
def test_run_one_stop_tolerance_alone_exits_3(tmp_path, capsys, key):
    # the stopping rule needs both, so one alone would run silently to max_iters
    cfg = minimal_config(tmp_path, **{key: 1e30})
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "configuration error: solver.stop_tol_stationarity and stop_tol_feasibility" in err
    assert not (tmp_path / "trace.csv").exists()


def test_run_leaving_the_shell_exits_3_with_partial_outputs(tmp_path, capsys):
    cfg = minimal_config(tmp_path, max_iters=50, feas_shell_check=True, safeguards=[0, 0, 0])
    cfg["problem"]["scale"] = 50
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith(
        "safeguard violated (solver.feas_shell_check): iterate left the 1/6 feasibility shell "
        "at iteration 1"
    )
    assert list(read_trace_csv(tmp_path / "trace.csv")["iter"]) == [0]
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["termination"] == "divergence_guard"
    assert summary["iterations"] == 1
    assert json.loads((tmp_path / "summary.json").read_text()) == summary


# ---------------------------------------------------------------------------
# verify


def test_verify_exits_zero_and_prints_reports(capsys):
    assert main(["verify", "--samples", "60"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 14  # 12 identity checks + 2 stationarity checks
    for line in out:
        record = json.loads(line)
        assert record["passed"] is True


def test_verify_single_sample_still_passes(capsys):
    assert main(["verify", "--samples", "1"]) == 0


def test_verify_detects_flipped_coefficients(monkeypatch, capsys):
    for flipped in [(-15.0, -10.0, 3.0), (15.0, 10.0, 3.0), (15.0, -10.0, -3.0)]:
        monkeypatch.setattr(core, "_A_COEFFS", flipped)
        assert main(["verify", "--samples", "40"]) == 1
        err = capsys.readouterr().err
        assert "FAILED checks" in err


def test_verify_rejects_bad_samples(capsys):
    assert main(["verify", "--samples", "0"]) == 3


def test_verify_rejects_a_negative_seed_naming_it(capsys):
    assert main(["verify", "--seed", "-1", "--samples", "1"]) == 3
    assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"


def test_verify_rejects_non_finite_tol_scale(capsys):
    assert main(["verify", "--samples", "1", "--tol-scale", "inf"]) == 3
    assert capsys.readouterr().err == "configuration error: tol_scale must be finite, got inf\n"


# ---------------------------------------------------------------------------
# grid


def test_grid_prints_table_and_selection(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic_trace", "n": 6, "p": 2, "seed": 0},
        "solver": {
            "beta": 2.0,
            "schedule": {"kind": "constant"},
            "max_iters": 10,
            "seed": 7,
            "budget_epochs": 150,
        },
    }
    assert main(["grid", write_config(tmp_path, cfg)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 11
    table = [line.split() for line in out[:10]]
    etas = [float(a) for a, _ in table]
    values = [float(b) for _, b in table]
    assert etas == [0.01, 0.03, 0.05, 0.07, 0.09, 0.1, 0.3, 0.5, 0.7, 0.9]
    assert out[10].startswith("selected ")
    selected = float(out[10].split()[1])
    finite = [v for v in values if np.isfinite(v)]
    assert finite and values[etas.index(selected)] == min(finite)


def test_grid_requires_budget(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic_trace", "n": 6, "p": 2},
        "solver": {"max_iters": 10},
    }
    assert main(["grid", write_config(tmp_path, cfg)]) == 3
    assert "budget_epochs" in capsys.readouterr().err


def test_grid_rejects_custom_schedule(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic_trace", "n": 6, "p": 2},
        "solver": {
            "schedule": {"kind": "custom", "values": [0.01] * 20},
            "max_iters": 20,
            "budget_epochs": 20,
        },
    }
    assert main(["grid", write_config(tmp_path, cfg)]) == 3
    assert "custom" in capsys.readouterr().err


def test_grid_all_candidates_diverging_exits_2(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "quadratic_trace", "n": 6, "p": 2, "scale": 1e6},
        "solver": {"beta": 0.1, "schedule": {"kind": "constant"}, "budget_epochs": 50},
    }
    assert main(["grid", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert "every candidate diverged" in captured.err
    assert all(line.split()[1] == "inf" for line in captured.out.splitlines())


def test_grid_all_candidates_rejected_exits_2(tmp_path, capsys):
    # every step exceeds the shell check's cap 1/(2 beta), so no candidate runs at all
    cfg = {
        "problem": {"kind": "l1_pca", "rows": 20, "n": 6, "p": 2, "seed": 1},
        "solver": {
            "safeguards": "estimate",
            "feas_shell_check": True,
            "beta": 5000,
            "budget_epochs": 5,
        },
    }
    assert main(["grid", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert "every candidate diverged or was rejected" in captured.err
    assert all(line.split()[1] == "inf" for line in captured.out.splitlines())


# ---------------------------------------------------------------------------
# argument handling and helpers


def test_no_subcommand_exits_3(capsys):
    assert main([]) == 3


def test_unknown_flag_exits_3(capsys):
    assert main(["verify", "--bogus"]) == 3


def test_verify_rejects_workers_flag(capsys):
    # the identity suite runs serially; threads only slowed it down
    assert main(["verify", "--workers", "2"]) == 3
    assert "--workers" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "stiefelcd" in capsys.readouterr().out


def test_trace_csv_write_read_exact(tmp_path):
    rng = np.random.default_rng(0)
    f, h, feas, stat, seconds = (rng.random(7) * scale for scale in (1.0, 1e-7, 1e3, 1.0, 1.0))
    columns = (f.tolist(), h.tolist(), feas.tolist(), stat.tolist(), seconds.tolist())
    trace = IterateTrace(list(range(7)), *columns)
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace)
    cols = read_trace_csv(path)
    assert np.array_equal(cols["f"], np.array(trace.f))
    assert np.array_equal(cols["h"], np.array(trace.h))
    assert np.array_equal(cols["seconds"], np.array(trace.seconds))


def test_read_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("iter,f,h\n0,1,2\n")
    with pytest.raises(ConfigurationError):
        read_trace_csv(path)


# ---------------------------------------------------------------------------
# config fuzzing

_BASE_PROBLEMS = {
    "quadratic_trace": {"kind": "quadratic_trace", "n": 5, "p": 2, "seed": 0},
    "sparse_pca": {"kind": "sparse_pca", "n": 6, "p": 2, "gamma": 0.1, "seed": 0},
    "l1_pca": {"kind": "l1_pca", "rows": 8, "n": 4, "p": 2, "seed": 0},
    "orthogonal_mlp": {"kind": "orthogonal_mlp", "widths": [4, 2, 1], "n_samples": 6},
}
_PROBLEM_KEYS = (
    "kind", "n", "p", "seed", "scale", "data_path", "noise", "gamma", "top_eigenvalues",
    "rows", "widths", "n_samples", "bogus",
)
_SOLVER_KEYS = (
    "algorithm", "beta", "max_iters", "seed", "schedule", "feas_shell_check", "safeguards",
    "stop_tol_stationarity", "stop_tol_feasibility", "trace_stride", "budget_epochs",
    "workers", "bogus",
)
# small magnitudes only, so that a fuzzed size or iteration count stays cheap
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(-3.0, 3.0),
    st.sampled_from([float("nan"), float("inf"), 1e300]),
    st.sampled_from(["", "x", "estimate", "ncdf_proxsgd", "constant", "custom"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.dictionaries(
        st.sampled_from(["kind", "eta0", "epoch_len", "values", "sigma", "bound", "seed"]),
        st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
        max_size=3,
    ),
)
# a config path, dotted below its section: problem, solver.schedule.eta0, ...
_PATH = re.compile(r"\b(problem|solver|output)(\.\w+)*")


@settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["run", "grid"]),
    kind=st.sampled_from(sorted(_BASE_PROBLEMS)),
    problem_edits=st.dictionaries(st.sampled_from(_PROBLEM_KEYS), _VALUES, max_size=3),
    solver_edits=st.dictionaries(st.sampled_from(_SOLVER_KEYS), _VALUES, max_size=3),
)
def test_fuzzed_configs_exit_0_2_or_3(
    tmp_path, capsys, command, kind, problem_edits, solver_edits
):
    cfg = {
        "problem": {**_BASE_PROBLEMS[kind], **problem_edits},
        "solver": {"max_iters": 5, "budget_epochs": 2, "beta": 1.0, **solver_edits},
        "output": {"trace_path": str(tmp_path / "t.csv")},
    }
    code = main([command, write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code == 3:
        assert _PATH.search(err), err


# ---------------------------------------------------------------------------
# config schema: error paths, keys a schedule does not read, README coverage


@pytest.mark.parametrize(
    "key, value, expected",
    [
        (key, "x", "expected a finite number, got 'x'")
        for key in ("beta", "max_iters", "seed", "stop_tol_stationarity",
                    "stop_tol_feasibility", "trace_stride", "schedule.eta0",
                    "schedule.epoch_len")
    ]
    + [
        (key, 1.5, "expected a 64-bit integer, got 1.5")
        for key in ("max_iters", "seed", "trace_stride", "schedule.epoch_len")
    ],
)
def test_numeric_solver_key_fault_names_its_path_once(tmp_path, capsys, key, value, expected):
    cfg = minimal_config(tmp_path)
    section, _, name = key.rpartition(".")
    (cfg["solver"][section] if section else cfg["solver"])[name] = value
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == f"configuration error: solver.{key}: {expected}\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "schedule, unread",
    [
        ({"kind": "custom", "values": [0.005] * 100, "eta0": -5}, ["eta0"]),
        ({"kind": "custom", "values": [0.005] * 100, "epoch_len": 2, "eta0": 0.1},
         ["epoch_len", "eta0"]),
        ({"kind": "harmonic_decay", "eta0": 0.005, "values": [1.0]}, ["values"]),
        ({"kind": "constant", "eta0": 0.005, "epoch_len": 3, "values": [1.0]}, ["values"]),
        ({"eta0": 0.005, "values": [1.0]}, ["values"]),
    ],
)
def test_schedule_keys_its_kind_does_not_read_exit_3(tmp_path, capsys, schedule, unread):
    cfg = minimal_config(tmp_path)
    cfg["solver"]["schedule"] = schedule
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    kind = schedule.get("kind", "harmonic_decay")
    expected = f"configuration error: solver.schedule: kind {kind!r} excludes the keys {unread}\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "trace.csv").exists()
    # without the keys it does not read, the same schedule runs
    for key in unread:
        del schedule[key]
    assert main(["run", write_config(tmp_path, cfg)]) == 0


def test_grid_custom_schedule_error_names_the_solver_section(tmp_path, capsys):
    cfg = minimal_config(tmp_path, budget_epochs=2)
    cfg["solver"]["schedule"] = {"kind": "custom", "values": [0.01]}
    assert main(["grid", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("configuration error: solver: grid search varies")


def _schema_paths():
    """Every dotted config path the parser knows, read from its tables and dataclasses."""
    problem = {"kind", "data_path", "noise"}
    for shared, seeded, *_ in cli._KINDS.values():
        problem |= {*shared, *seeded}
    solver = {"algorithm", "budget_epochs", *(f.name for f in fields(SolverConfig))}
    return {
        "problem", "solver", "output", "output.trace_path", "output.summary_path",
        *(f"problem.{key}" for key in problem),
        *(f"problem.noise.{key}" for key in cli._NOISE),
        *(f"solver.{key}" for key in solver),
        *(f"solver.schedule.{f.name}" for f in fields(StepSchedule)),
    }


def test_schema_knows_the_documented_keys():
    # a sample of the paths, so that an empty table cannot pass the test below
    assert {"problem.top_eigenvalues", "problem.widths", "problem.noise.bound", "solver.beta",
            "solver.safeguards", "solver.schedule.values", "output.summary_path"} <= _schema_paths()


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["run", "grid"]),
    kind=st.sampled_from(sorted(_BASE_PROBLEMS)),
    problem_edits=st.dictionaries(st.sampled_from(_PROBLEM_KEYS), _VALUES, max_size=3),
    solver_edits=st.dictionaries(st.sampled_from(_SOLVER_KEYS), _VALUES, max_size=3),
)
def test_fuzzed_config_errors_name_a_path_the_schema_knows(
    tmp_path, capsys, command, kind, problem_edits, solver_edits
):
    cfg = {
        "problem": {**_BASE_PROBLEMS[kind], **problem_edits},
        "solver": {"max_iters": 5, "budget_epochs": 2, "beta": 1.0, **solver_edits},
        "output": {"trace_path": str(tmp_path / "t.csv")},
    }
    code = main([command, write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    if code == 3:
        found = _PATH.search(err)
        assert found, err
        # a list entry is named by its index under the list's key
        path = re.sub(r"(\.\d+)+$", "", found.group(0))
        assert path in _schema_paths(), err


@pytest.mark.parametrize("dotted", sorted(_schema_paths()))
def test_null_for_any_section_or_key_exits_3_naming_its_path(tmp_path, capsys, dotted):
    cfg = minimal_config(tmp_path, max_iters=5)
    key = dotted.rsplit(".", 1)[-1]
    kinds = [kind for kind, (shared, seeded, *_) in cli._KINDS.items() if key in shared | seeded]
    if dotted.startswith("problem.") and kinds:  # a key its kind reads
        cfg["problem"] = dict(_BASE_PROBLEMS[kinds[0]])
    if dotted.startswith("problem.noise"):
        cfg["problem"]["noise"] = {"sigma": 0.01}
    *parents, last = dotted.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[last] = None
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == f"configuration error: {dotted}: expected a value, got null\n"
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("key", ["trace_path", "summary_path"])
@pytest.mark.parametrize("value", [5, True, ["t.csv"], ""])
def test_output_paths_must_be_nonempty_strings(tmp_path, capsys, key, value):
    # an integer path would be taken as an open file descriptor, and "" skipped the file
    cfg = minimal_config(tmp_path, max_iters=5)
    cfg["output"][key] = value
    assert main(["run", write_config(tmp_path, cfg)]) == 3
    expected = f"configuration error: output.{key}: expected a file path, got {value!r}\n"
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "trace.csv").exists()


def test_readme_command_line_section_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = {word for span in re.findall(r"`([^`]+)`", prose)
             for word in re.findall(r"[a-z_][a-z_0-9]*", span)}

    def example_keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from example_keys(value)

    named |= set(example_keys(example))
    keys = {path.rsplit(".", 1)[-1] for path in _schema_paths()}
    assert keys - named == set()
