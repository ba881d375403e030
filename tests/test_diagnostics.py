"""Diagnostics suite tests: coverage checklist, determinism, oracles."""

import json
import math
import os
import select
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import stiefelcd.core as core
import stiefelcd.diagnostics as diagnostics
from stiefelcd.core import (
    PenaltyConfig,
    feasibility_violation,
    ncdf_subgradient,
    ncdf_value,
    project_stiefel,
    random_shell_point,
)
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
    _stacks,
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


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here, the suite's calls that raise included, leaves no child process."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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


# a float count used to be truncated (2.5 ran 2 samples, True ran 1) or to raise a
# bare TypeError, and a negative seed raised numpy's error naming no argument
@pytest.mark.parametrize(
    "run",
    [
        lambda **kw: run_identity_suite(**kw),
        lambda **kw: run_stationarity_suite(quad_problem(), beta=50.0, **kw),
        lambda **kw: estimate_constants(quad_problem(), **kw),
    ],
    ids=["identity", "stationarity", "estimate"],
)
@pytest.mark.parametrize(
    "given, message",
    [
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"samples": True}, "samples must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"seed": False}, "seed must be an integer, got False"),
    ],
    ids=["float-samples", "bool-samples", "negative-seed", "float-seed", "bool-seed"],
)
def test_diagnostics_reject_a_bad_sample_count_or_seed_naming_it(run, given, message):
    with pytest.raises(ConfigurationError) as err:
        run(**given)
    assert str(err.value) == message


def test_diagnostics_take_numpy_integer_counts_and_seeds():
    problem = quad_problem()
    assert estimate_constants(problem, samples=np.int64(9), seed=np.uint32(4)) == estimate_constants(
        problem, samples=9, seed=4
    )
    assert run_identity_suite(seed=np.int16(2), samples=np.int64(2)) == run_identity_suite(seed=2, samples=2)


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
# the checks spread over forked workers

FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
MANY_CPUS = FORKS and len(os.sched_getaffinity(0)) >= 2


def serial_reports(seed, samples):
    """Each IDENTITY_CHECKS entry run here, on its own seeded generator, in name order."""
    reports = []
    for index, (name, fn) in enumerate(IDENTITY_CHECKS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7, index]))
        violation, tolerance = fn(rng, samples, 1.0)
        passed = bool(violation <= tolerance)
        reports.append(CheckReport(name, samples, float(violation), tolerance, passed, seed))
    return sorted(reports, key=lambda r: r.name)


@pytest.mark.parametrize("seed", [0, 5])
def test_identity_suite_equals_each_check_run_serially(seed):
    assert run_identity_suite(seed=seed, samples=20) == serial_reports(seed, 20)


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("forked a child")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.skipif(not FORKS, reason="needs os.fork and os.sched_getaffinity")
def test_identity_suite_on_one_cpu_runs_in_this_process(monkeypatch):
    forbid_fork(monkeypatch)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        reports = run_identity_suite(seed=1, samples=20)
    finally:
        os.sched_setaffinity(0, cpus)
    assert reports == serial_reports(1, 20)


def test_identity_suite_forks_no_more_processes_than_checks(monkeypatch):
    forbid_fork(monkeypatch)
    monkeypatch.setattr(diagnostics, "IDENTITY_CHECKS", diagnostics.IDENTITY_CHECKS[:1])
    (report,) = run_identity_suite(seed=0, samples=20)
    assert report == serial_reports(0, 20)[0]


def test_identity_suite_runs_every_check_itself_when_fork_fails(monkeypatch):
    def fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", fork)
    assert run_identity_suite(seed=2, samples=20) == serial_reports(2, 20)


@pytest.mark.skipif(not MANY_CPUS, reason="needs os.fork and two usable CPUs")
def test_a_check_that_kills_its_worker_fails_naming_the_exit_status(monkeypatch):
    # the caller's first check waits until a child has taken the other one, so one
    # of the two always runs in a child, which it ends with status 3
    caller, (wait, signal) = os.getpid(), os.pipe()
    waited = []

    def check(rng, samples, scale):
        if os.getpid() != caller:
            os.write(signal, b"x")
            os._exit(3)
        if not waited:  # bounded, so a suite that never forks fails here instead of hanging
            ready = select.select([wait], [], [], 30)[0]
            waited.append(os.read(wait, 1) if ready else None)
        return 0.0, 1.0

    monkeypatch.setattr(diagnostics, "IDENTITY_CHECKS", (("a", check), ("b", check)))
    try:
        reports = run_identity_suite(seed=0, samples=2)
    finally:
        os.close(wait)
        os.close(signal)
    assert waited == [b"x"]
    failed = [r for r in reports if not r.passed]
    assert len(reports) == 2 and len(failed) == 1
    assert failed[0].error == "ChildProcessError: the worker running it exited with status 3"
    assert failed[0].max_violation == math.inf
    assert [r.error for r in reports if r.passed] == [None]


@pytest.mark.skipif(not MANY_CPUS, reason="needs os.fork and two usable CPUs")
def test_an_interrupt_in_the_caller_stops_every_worker(monkeypatch):
    # children sleep in their check; the caller, which always gets a check because
    # each child holds one at a time, is interrupted in it and must not wait them out
    caller = os.getpid()

    def check(rng, samples, scale):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    workers = min(4, len(os.sched_getaffinity(0)))
    checks = tuple((f"c{i}", check) for i in range(workers))
    monkeypatch.setattr(diagnostics, "IDENTITY_CHECKS", checks)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_identity_suite(seed=0, samples=2)
    assert time.perf_counter() - t0 < 30


def test_stationarity_suite_takes_the_constants_it_would_estimate():
    problem = quad_problem()
    constants = estimate_constants(problem, seed=3)
    assert run_stationarity_suite(problem, 80.0, seed=3, samples=40, constants=constants) == (
        run_stationarity_suite(problem, 80.0, seed=3, samples=40)
    )


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


def user_quad_problem(seed=0, subgrad=None):
    # the quadratic trace objective through unmarked 2-d callables, called once per slice
    m = np.random.default_rng(seed).standard_normal((10, 10))
    a = m + m.T
    return ProblemDefinition(
        n=10,
        p=3,
        phi_value=lambda x: float(-np.sum(x * (a @ x))),
        phi_subgrad=subgrad or (lambda x, rng=None: -2.0 * (a @ x)),
        smooth=True,
    )


def per_sample_gaps(problem, beta, m1, seed, samples):
    # the violations one sample at a time through the public kernels, on the
    # suite's streams: stationarity on stream 0, descent on stream 1
    penalty = PenaltyConfig(beta=beta)
    r = 0.9 * beta / (2.0 * beta + 8.0 * m1)
    cap = min(0.5, 0.999 * beta / (16.0 * m1))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 8, 0]))
    stationarity = []
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, r * (1.0 - rng.random()))
        grad = ncdf_subgradient(problem.f_subgrad, x, penalty)
        stationarity.append(0.25 * beta * feasibility_violation(x) - float(np.linalg.norm(grad)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 8, 1]))
    descent = []
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, cap * (1.0 - rng.random()))
        h_x = ncdf_value(problem.f_value, x, penalty)
        descent.append(ncdf_value(problem.f_value, project_stiefel(x).matrix, penalty) - h_x)
    return stationarity, descent


# 30 entries make stacks of one 10 x 3 point, and 90 stacks of three with a remainder
@pytest.mark.parametrize(
    "stack_entries", [diagnostics.STACK_ENTRIES, 30, 90], ids=["one-stack", "stacks-of-1", "stacks-of-3"]
)
@pytest.mark.parametrize("samples", [1, 7, 200])
@pytest.mark.parametrize("make", [quad_problem, user_quad_problem], ids=["internal", "user-2d"])
def test_stacked_gaps_equal_the_per_sample_public_kernels(monkeypatch, make, samples, stack_entries):
    monkeypatch.setattr(diagnostics, "STACK_ENTRIES", stack_entries)
    problem = make(seed=2)
    m1, mt, mh = estimate_constants(problem, seed=2)
    for beta in (max(16 * m1, 60 * mt, 16 * mh), 16 * m1 / 100):
        stationarity, descent = per_sample_gaps(problem, beta, m1, 2, samples)
        for index, (gaps, want) in enumerate(
            ((diagnostics._stationarity_gaps, stationarity), (diagnostics._descent_gaps, descent))
        ):
            rng = np.random.default_rng(np.random.SeedSequence([2, 8, index]))
            assert repr(gaps(problem, beta, m1, rng, samples).tolist()) == repr(want)
        reports = {r.name: r for r in run_stationarity_suite(problem, beta, seed=2, samples=samples)}
        assert repr(reports["stationarity_lower_bound"].max_violation) == repr(max(stationarity))
        assert repr(reports["projection_descent"].max_violation) == repr(max(descent))


def faulty_subgrad(bad_call, fault):
    # the quadratic oracle, but its bad_call-th call returns fault(w) instead of w
    m = np.random.default_rng(0).standard_normal((10, 10))
    neg2a = -2.0 * (m + m.T)
    calls = iter(range(1, 10**9))

    def subgrad(x, rng=None):
        w = neg2a @ x
        return fault(w) if next(calls) == bad_call else w

    return subgrad


# estimate_constants makes 400 oracle calls at its 200 samples; call 403 is the
# stacked stationarity check's third sample, in the identity suite and in the
# stationarity suite alike
@pytest.mark.parametrize(
    "fault, kind, message",
    [
        (lambda w: np.where(w > 0, np.nan, w), ValueError, "subgradient contains non-finite entries"),
        (lambda w: w[:, :2], DimensionError, "oracle output shape (10, 2) != expected shape (10, 3)"),
    ],
    ids=["nan", "wrong-shape"],
)
def test_a_faulty_sample_of_a_user_oracle_fails_its_report_with_the_error(
    monkeypatch, fault, kind, message
):
    monkeypatch.setattr(
        diagnostics,
        "_internal_smooth_problem",
        lambda rng: user_quad_problem(subgrad=faulty_subgrad(403, fault)),
    )
    reports = {r.name: r for r in run_identity_suite(seed=0, samples=7)}
    failed = reports.pop("stationarity_lower_bound")
    assert (failed.passed, failed.max_violation) == (False, math.inf)
    assert failed.error == f"{kind.__name__}: {message}"
    assert reports["projection_descent"].passed and reports["projection_descent"].error is None
    problem = user_quad_problem(subgrad=faulty_subgrad(403, fault))
    with pytest.raises(kind) as err:
        run_stationarity_suite(problem, beta=100.0, seed=0, samples=7)
    assert str(err.value) == message


def test_a_nan_value_sample_fails_the_descent_report_without_an_error(monkeypatch):
    base = quad_problem()
    calls = iter(range(1, 10**9))

    def phi_value(x):
        value = float(base.phi_value(x))
        return math.nan if next(calls) == 5 else value

    problem = ProblemDefinition(
        n=10, p=3, phi_value=phi_value, phi_subgrad=lambda x, rng=None: base.phi_subgrad(x, rng),
        smooth=True,
    )
    monkeypatch.setattr(diagnostics, "_internal_smooth_problem", lambda rng: problem)
    report = {r.name: r for r in run_identity_suite(seed=0, samples=7)}["projection_descent"]
    assert not report.passed and math.isnan(report.max_violation) and report.error is None


def test_the_projection_certificate_is_checked_for_every_slice(monkeypatch):
    # nudge one slice's polar factor off the manifold: the descent check raises
    # project_stiefel's error for that slice, though the others are feasible
    polar, nudged = diagnostics._polar, []

    def off_manifold(x):
        q, smallest = polar(x)
        q[min(3, len(q) - 1)] *= 1.0 + 1e-9
        nudged.append(q[min(3, len(q) - 1)])
        return q, smallest

    monkeypatch.setattr(diagnostics, "_polar", off_manifold)
    reports = {r.name: r for r in run_identity_suite(seed=0, samples=7)}
    # the suite may have run the check in a forked worker, whose nudges this process
    # does not see: run it here as well, where its report must be the suite's
    index = [name for name, _ in IDENTITY_CHECKS].index("projection_descent")
    assert diagnostics._identity_check(index, 0, 7, 1.0) == reports["projection_descent"]
    with pytest.raises(ValueError) as err:
        core.StiefelPoint(nudged[0])
    failed = reports["projection_descent"]
    assert (failed.passed, failed.max_violation) == (False, math.inf)
    assert failed.error == f"ValueError: {err.value}"
    assert str(err.value).startswith("point is not feasible")


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


C = diagnostics.SPHERE_CHUNK
SPHERE_STEPS = [1, 2, C - 1, C, C + 1, 3 * C + 7]


def full_array_sphere_oracle(problem, grid_steps):
    # the oracle as it was before it streamed its angles: every angle, its cos and sin
    # and every value held at once, then one argmin
    thetas = 2.0 * math.pi * np.arange(grid_steps) / grid_steps
    cos, sin = np.cos(thetas), np.sin(thetas)
    values = np.empty(grid_steps)
    for lo in range(0, grid_steps, C):
        values[lo : lo + C] = problem.f_values(
            np.stack([cos[lo : lo + C], sin[lo : lo + C]], axis=-1)[..., None]
        )
    best = int(np.argmin(values))
    return float(thetas[best]), float(values[best])


def tabled(table):
    # a 2 x 1 problem whose values are read off table in the order the angles come,
    # so a test puts its ties and nans at chosen grid indices
    read = [0]

    @_stacks
    def phi_value(x):
        lo = read[0]
        read[0] += len(x)
        return table[lo : lo + len(x)].copy()

    return ProblemDefinition(n=2, p=1, phi_value=phi_value, phi_subgrad=lambda x, rng: x)


def sphere_tables(steps):
    # values with a nan after a -inf, and values whose least one recurs on both sides
    # of chunk boundaries
    rng = np.random.default_rng(steps)
    nan = rng.standard_normal(steps)
    nan[steps // 2], nan[steps - 1] = -np.inf, np.nan
    tie = rng.integers(0, 3, steps).astype(float)
    tie[[i for i in (C - 1, C, C + 1, 2 * C, steps - 1) if i < steps]] = -1.0
    return {"nan": nan, "tie": tie}


@pytest.mark.parametrize("steps", SPHERE_STEPS)
def test_sphere_chunks_take_the_full_arrays_angles_bitwise(steps):
    # numpy's SIMD loops could treat a short tail differently; they must not
    thetas = 2.0 * math.pi * np.arange(steps) / steps
    for lo in range(0, steps, C):
        part = 2.0 * math.pi * np.arange(lo, min(lo + C, steps)) / steps
        for fn in (np.positive, np.cos, np.sin):
            assert fn(part).tobytes() == fn(thetas)[lo : lo + C].tobytes()


@pytest.mark.parametrize("steps", SPHERE_STEPS)
def test_sphere_oracle_matches_the_full_array_reference_bitwise(steps):
    problem = make_l1_pca(np.random.default_rng(3).standard_normal((6, 2)), 1)
    got = brute_force_sphere_oracle(problem, steps)
    assert got == full_array_sphere_oracle(problem, steps)
    thetas = 2.0 * math.pi * np.arange(steps) / steps
    for name, table in sphere_tables(steps).items():
        best = int(np.argmin(table))  # the first nan if there is one, else the first least
        expected = (float(thetas[best]), float(table[best]))
        assert repr(brute_force_sphere_oracle(tabled(table), steps)) == repr(expected), name
        assert repr(full_array_sphere_oracle(tabled(table), steps)) == repr(expected), name
    assert math.isnan(brute_force_sphere_oracle(tabled(sphere_tables(steps)["nan"]), steps)[1])


def test_sphere_oracle_memory_does_not_grow_with_the_grid():
    # the four grid_steps-long arrays would take 32 MB at 10^6 angles
    problem = make_l1_pca(np.random.default_rng(3).standard_normal((6, 2)), 1)
    tracemalloc.start()
    try:
        brute_force_sphere_oracle(problem, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sphere_oracle_validation():
    tall = make_quadratic_trace(np.eye(3), 1)
    with pytest.raises(DimensionError):
        brute_force_sphere_oracle(tall, 100)
    ok = make_quadratic_trace(np.eye(2), 1)
    with pytest.raises(ConfigurationError, match="^grid_steps must be >= 1, got 0$"):
        brute_force_sphere_oracle(ok, 0)


def test_sphere_oracle_rejects_a_grid_size_that_is_not_an_integer():
    # 2.5 raised numpy's bare TypeError from np.empty
    ok = make_quadratic_trace(np.eye(2), 1)
    for bad in (2.5, 100.0, "100", True):
        with pytest.raises(ConfigurationError, match="^grid_steps must be an integer, got "):
            brute_force_sphere_oracle(ok, bad)
    assert brute_force_sphere_oracle(ok, np.int64(100)) == brute_force_sphere_oracle(ok, 100)
