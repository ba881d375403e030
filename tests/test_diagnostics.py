"""Diagnostics suite tests: coverage checklist, determinism, oracles."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import stiefelcd.core as core
import stiefelcd.diagnostics as diagnostics
from stiefelcd.diagnostics import (
    IDENTITY_CHECKS,
    CheckReport,
    brute_force_sphere_oracle,
    format_reports,
    run_identity_suite,
    run_stationarity_suite,
)
from stiefelcd.errors import ConfigurationError, DimensionError
from stiefelcd.problems import (
    ProblemDefinition,
    estimate_constants,
    make_l1_pca,
    make_quadratic_trace,
)

# every map/projection invariant promised by the core module must have a
# named executable binding here; build fails if one goes missing
REQUIRED_CHECKS = {
    "fixed_point_on_manifold",
    "exact_factorization",
    "cubic_feasibility_bound",
    "jacobian_finite_difference",
    "jacobian_manifold_form",
    "jacobian_self_adjoint",
    "jacobian_normal_component",
    "inverse_roundtrip",
    "projection_distance",
    "projection_map_distance",
    "stationarity_lower_bound",
    "projection_descent",
}


def test_identity_suite_covers_every_invariant():
    names = {name for name, _ in IDENTITY_CHECKS}
    assert names == REQUIRED_CHECKS
    reports = run_identity_suite(seed=0, samples=2)
    assert {r.name for r in reports} == REQUIRED_CHECKS
    assert len(reports) == len(REQUIRED_CHECKS)


def test_identity_suite_all_pass_at_moderate_sample_count():
    reports = run_identity_suite(seed=0, samples=150)
    failing = [r.name for r in reports if not r.passed]
    assert failing == []


def test_identity_suite_pass_flag_consistent_even_when_failing():
    # shrink every tolerance until something fails; the flag must track
    # the violation/tolerance comparison exactly
    reports = run_identity_suite(seed=0, samples=30, tol_scale=1e-14)
    assert any(not r.passed for r in reports)
    for r in reports:
        assert r.passed == (r.max_violation <= r.tolerance)


def test_identity_suite_deterministic_and_sorted():
    a = run_identity_suite(seed=3, samples=25)
    b = run_identity_suite(seed=3, samples=25)
    assert a == b
    assert [r.name for r in a] == sorted(r.name for r in a)
    c = run_identity_suite(seed=4, samples=25)
    assert any(x.max_violation != y.max_violation for x, y in zip(a, c))


def test_identity_suite_validation():
    with pytest.raises(ConfigurationError):
        run_identity_suite(samples=0)
    with pytest.raises(ConfigurationError):
        run_identity_suite(samples=10, tol_scale=0.0)


@pytest.mark.parametrize("tol_scale", [math.nan, math.inf])
def test_identity_suite_rejects_non_finite_tol_scale(tol_scale):
    # a nan scale failed every check and an infinite one passed every check
    # with a positive tolerance; either printed lines that are not strict JSON
    with pytest.raises(ConfigurationError, match="finite"):
        run_identity_suite(samples=1, tol_scale=tol_scale)


def test_identity_suite_detects_flipped_coefficient(monkeypatch):
    for flipped in [(-15.0, -10.0, 3.0), (15.0, 10.0, 3.0), (15.0, -10.0, -3.0)]:
        monkeypatch.setattr(core, "_A_COEFFS", flipped)
        reports = run_identity_suite(seed=0, samples=20)
        assert any(not r.passed for r in reports)
    monkeypatch.undo()
    assert all(r.passed for r in run_identity_suite(seed=0, samples=20))


def test_report_json_lines():
    reports = run_identity_suite(seed=0, samples=2)
    text = format_reports(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports)
    decoded = json.loads(lines[0])
    assert set(decoded) == {
        "name", "samples", "max_violation", "tolerance", "passed", "seed", "error",
    }
    assert decoded["samples"] == 2
    assert decoded["seed"] == 0
    assert decoded["error"] is None


def test_identity_suite_reports_why_a_check_crashed(monkeypatch):
    def crashing(rng, samples, scale):
        raise RuntimeError("kaput")

    monkeypatch.setattr(
        diagnostics, "IDENTITY_CHECKS", diagnostics.IDENTITY_CHECKS + (("crashing", crashing),)
    )
    reports = {r.name: r for r in run_identity_suite(seed=0, samples=2)}
    crashed = reports.pop("crashing")
    assert not crashed.passed
    assert crashed.max_violation == math.inf
    assert crashed.error == "RuntimeError: kaput"
    assert json.loads(crashed.to_line())["error"] == "RuntimeError: kaput"
    assert all(r.error is None for r in reports.values())


def test_identity_suite_fails_checks_whose_samples_are_nan(monkeypatch):
    # a max() reduction drops nan, which let these three checks pass on a
    # map that returns nothing but nan
    monkeypatch.setattr(diagnostics, "apply_A", lambda x: np.full(x.shape, np.nan))
    reports = {r.name: r for r in run_identity_suite(seed=0, samples=5)}
    for name in ("fixed_point_on_manifold", "jacobian_finite_difference", "projection_map_distance"):
        assert not reports[name].passed
        assert math.isnan(reports[name].max_violation)
        assert reports[name].error is None
    for r in reports.values():
        assert r.passed == (r.max_violation <= r.tolerance)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_report_lines_stay_strict_json_when_checks_yield_nan_or_crash(monkeypatch):
    def crashing(rng, samples, scale):
        raise RuntimeError("kaput")

    monkeypatch.setattr(diagnostics, "apply_A", lambda x: np.full(x.shape, np.nan))
    monkeypatch.setattr(
        diagnostics, "IDENTITY_CHECKS", diagnostics.IDENTITY_CHECKS + (("crashing", crashing),)
    )
    reports = run_identity_suite(seed=0, samples=5)
    lines = format_reports(reports).splitlines()
    non_finite = set()
    for report, line in zip(reports, lines, strict=True):
        decoded = json.loads(line, parse_constant=_reject_constant)
        if math.isfinite(report.max_violation):
            assert line == json.dumps(asdict(report), sort_keys=True)
        else:
            assert decoded["max_violation"] is None
            non_finite.add(report.name)
    assert {"crashing", "fixed_point_on_manifold"} <= non_finite
    assert len(non_finite) < len(reports)


def test_sampler_keeps_a_nan_sample_among_finite_ones():
    values = iter([0.5, np.nan, 2.0, 1.0])
    check = diagnostics._sampled(1e-3, lambda rng: next(values))
    worst, tolerance = check(None, 4, 10.0)
    assert math.isnan(worst)
    assert tolerance == pytest.approx(1e-2)
    values = iter([0.5, 2.0, 1.0])
    assert check(None, 3, 1.0) == (2.0, 1e-3)


def test_check_report_fields():
    r = CheckReport(
        name="demo", samples=5, max_violation=0.5, tolerance=1.0, passed=True, seed=2
    )
    assert json.loads(r.to_line())["passed"] is True


# ---------------------------------------------------------------------------
# stationarity suite


def quad_problem(seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((10, 10))
    return make_quadratic_trace(m + m.T, 3)


def test_stationarity_suite_passes_with_safeguarded_beta():
    problem = quad_problem()
    m1, mt, mh = estimate_constants(problem)
    beta = max(16 * m1, 60 * mt, 16 * mh)
    reports = run_stationarity_suite(problem, beta, seed=0, samples=200)
    assert [r.name for r in reports] == ["projection_descent", "stationarity_lower_bound"]
    assert all(r.passed for r in reports)


def test_stationarity_suite_rejects_nonsmooth():
    data = np.random.default_rng(0).standard_normal((30, 8))
    problem = make_l1_pca(data, 2)
    with pytest.raises(ConfigurationError):
        run_stationarity_suite(problem, beta=1.0)


def test_stationarity_suite_weak_beta_still_reports():
    problem = quad_problem()
    m1 = estimate_constants(problem)[0]
    reports = run_stationarity_suite(problem, beta=16 * m1 / 100, seed=0, samples=100)
    assert len(reports) == 2
    for r in reports:
        assert r.passed == (r.max_violation <= r.tolerance)


def test_stationarity_suite_validation():
    problem = quad_problem()
    with pytest.raises(ConfigurationError):
        run_stationarity_suite(problem, beta=0.0)
    with pytest.raises(ConfigurationError):
        run_stationarity_suite(problem, beta=1.0, samples=0)


def test_stationarity_suite_deterministic():
    problem = quad_problem()
    a = run_stationarity_suite(problem, beta=50.0, seed=5, samples=60)
    b = run_stationarity_suite(problem, beta=50.0, seed=5, samples=60)
    assert a == b


# ---------------------------------------------------------------------------
# sphere oracle


def test_sphere_oracle_eigen_value():
    problem = make_quadratic_trace(np.diag([2.0, 1.0]), 1)
    theta, value = brute_force_sphere_oracle(problem, 10000)
    assert abs(value + 2.0) < 1e-6
    assert min(abs(theta - 0.0), abs(theta - math.pi)) < 1e-3


def test_sphere_oracle_zero_objective_first_grid_point():
    problem = ProblemDefinition(
        n=2, p=1, phi_value=lambda x: 0.0,
        phi_subgrad=lambda x, rng=None: np.zeros_like(x), smooth=True,
    )
    theta, value = brute_force_sphere_oracle(problem, 100)
    assert theta == 0.0
    assert value == 0.0


def test_sphere_oracle_refinement_monotone():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 2))
    problem = ProblemDefinition(
        n=2, p=1,
        phi_value=lambda x: float(np.abs(a @ x).sum()),
        phi_subgrad=lambda x, rng=None: a.T @ np.sign(a @ x),
    )
    prev = None
    for steps in (100, 200, 400, 800):
        _, value = brute_force_sphere_oracle(problem, steps)
        if prev is not None:
            assert value <= prev + 1e-15
        prev = value


@pytest.mark.parametrize(
    "steps", [1, 2, diagnostics.SPHERE_CHUNK, 2 * diagnostics.SPHERE_CHUNK + 5]
)
def test_sphere_oracle_matches_its_per_point_values_bitwise(steps):
    # the stacked calls, chunk boundaries included, give each angle its point's f_value
    problem = make_l1_pca(np.random.default_rng(3).standard_normal((6, 2)), 1)
    thetas = 2.0 * math.pi * np.arange(steps) / steps
    cos, sin = np.cos(thetas), np.sin(thetas)
    values = [problem.f_value(np.array([[cos[i]], [sin[i]]])) for i in range(steps)]
    best = int(np.argmin(values))
    assert brute_force_sphere_oracle(problem, steps) == (float(thetas[best]), values[best])


def test_sphere_oracle_validation():
    tall = make_quadratic_trace(np.eye(3), 1)
    with pytest.raises(DimensionError):
        brute_force_sphere_oracle(tall, 100)
    ok = make_quadratic_trace(np.eye(2), 1)
    with pytest.raises(ConfigurationError):
        brute_force_sphere_oracle(ok, 0)
