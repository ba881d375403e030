"""Solver loop tests: frozen single-step values, determinism, guards, grids."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelcd import core, solvers
from stiefelcd.core import (
    apply_A,
    feasibility_violation,
    jacobian_apply,
    project_stiefel,
    project_tangent,
    random_stiefel,
)
from stiefelcd.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    GridSearchError,
    SafeguardViolationError,
)
from stiefelcd.problems import (
    NoiseModel,
    ProblemDefinition,
    attach_noise,
    estimate_constants,
    gaussian_matrix,
    l1_regularizer,
    make_l1_pca,
    make_quadratic_trace,
    make_sparse_pca,
    spiked_covariance,
)
from stiefelcd.solvers import (
    ALGORITHM_RUNNERS,
    IterateTrace,
    SolverConfig,
    StepSchedule,
    default_initial_point,
    grid_candidates,
    grid_search_eta0,
    prox_subgradient_step,
    run_prox_subgradient,
    run_riemannian_baseline,
    run_step_grid,
    run_subgradient,
    stationarity_estimate,
    subgradient_step,
)


def quadratic_problem(n=8, p=3, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return make_quadratic_trace(m + m.T, p)


def gentle_config(**overrides):
    """Config with a step small enough for the random quadratics above."""
    base = dict(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.005),
        max_iters=50,
    )
    base.update(overrides)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# schedules and configuration


def test_schedule_harmonic_values():
    sched = StepSchedule(kind="harmonic_decay", eta0=1.0, epoch_len=1)
    assert abs(sched.step(0) - 1.0) < 1e-15
    assert abs(sched.step(10) - 0.5) < 1e-15
    assert abs(sched.step(90) - 0.1) < 1e-15


def test_schedule_epoch_len_freezes_step_within_epoch():
    sched = StepSchedule(kind="harmonic_decay", eta0=1.0, epoch_len=50)
    assert sched.step(0) == sched.step(49)
    assert sched.step(50) < sched.step(49)
    assert abs(sched.step(50) - 1.0 / 1.1) < 1e-15


def test_schedule_constant_and_custom():
    assert StepSchedule(kind="constant", eta0=0.3).step(12345) == 0.3
    sched = StepSchedule(kind="custom", values=(0.5, 0.25, 0.125))
    assert sched.step(2) == 0.125
    with pytest.raises(ConfigurationError):
        sched.step(3)


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        StepSchedule(kind="linear")
    with pytest.raises(ConfigurationError):
        StepSchedule(eta0=0.0)
    with pytest.raises(ConfigurationError):
        StepSchedule(kind="custom", values=())
    with pytest.raises(ConfigurationError):
        StepSchedule(kind="custom", values=(0.1, -0.2))
    with pytest.raises(ConfigurationError):
        StepSchedule(epoch_len=0)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(beta=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iters=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(trace_stride=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(safeguards=(1.0, -1.0, 0.0))
    with pytest.raises(ConfigurationError):
        SolverConfig(seed=-1)
    with pytest.raises(ConfigurationError):
        SolverConfig(stop_tol_stationarity=-1e-3)
    cfg = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.02))
    assert cfg.eta0 == 0.02


# ---------------------------------------------------------------------------
# single steps, frozen scalar values


def test_subgradient_step_scalar_frozen():
    # x = 2, d = 1, eta = 0.1, beta = 1: penalty pull is x(x^2 - 1) = 6,
    # so the update is 2 - 0.1 * (1 + 6) = 1.3
    out = subgradient_step(np.array([[2.0]]), np.array([[1.0]]), 0.1, 1.0)
    assert abs(out[0, 0] - 1.3) < 1e-15


def test_subgradient_step_matches_penalty_gradient_formula():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.5, 1.5, size=(6, 2))
    d = rng.standard_normal((6, 2))
    eta, beta = 0.05, 3.0
    out = subgradient_step(x, d, eta, beta)
    manual = x - eta * (d + beta * x @ (x.T @ x - np.eye(2)))
    assert np.linalg.norm(out - manual) < 1e-14


def test_subgradient_step_validation():
    x = np.eye(3, 2)
    with pytest.raises(ConfigurationError):
        subgradient_step(x, np.eye(3), 0.1, 1.0)
    with pytest.raises(ConfigurationError):
        subgradient_step(x, x, -0.1, 1.0)


def test_subgradient_step_zero_step_is_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.5, 1.5, size=(5, 3))
    d = rng.standard_normal((5, 3))
    assert np.array_equal(subgradient_step(x, d, 0.0, 2.0), x)


def test_prox_step_zero_step_contracts_cubically():
    # with eta = 0 the update is pure application of the map, so the Gram
    # residual falls at cubic rate until it hits the float noise floor
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(6, 2))
    x = x / np.linalg.norm(x) * 1.1  # modest violation
    reg = l1_regularizer(0.5, 12)
    feas = [feasibility_violation(x)]
    for _ in range(4):
        x = prox_subgradient_step(x, np.zeros_like(x), 0.0, reg)
        feas.append(feasibility_violation(x))
    for before, after in zip(feas, feas[1:]):
        assert after <= before**3 + 1e-12


def test_prox_step_scalar_frozen():
    # A(2) = 5.75; with d = 1, eta = 0.1 the landing point is 5.65, and the
    # l1 prox at threshold eta * gamma = 0.05 shrinks it to 5.6
    reg = l1_regularizer(0.5, 1)
    out = prox_subgradient_step(np.array([[2.0]]), np.array([[1.0]]), 0.1, reg)
    assert abs(out[0, 0] - 5.6) < 1e-14


def test_prox_step_identity_without_regularizer():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.5, 1.5, size=(5, 2))
    d = rng.standard_normal((5, 2))
    out = prox_subgradient_step(x, d, 0.2, None)
    assert np.linalg.norm(out - (apply_A(x) - 0.2 * d)) < 1e-14


def test_prox_step_requires_prox():
    reg = l1_regularizer(0.5, 4)
    stripped = reg.__class__(
        value=reg.value, prox=None, subgrad=reg.subgrad, lipschitz=reg.lipschitz,
        gamma=reg.gamma,
    )
    with pytest.raises(ConfigurationError):
        prox_subgradient_step(np.eye(4, 1), np.eye(4, 1), 0.1, stripped)


# ---------------------------------------------------------------------------
# stationarity estimate


def test_stationarity_estimate_matches_projected_norm():
    problem = quadratic_problem()
    rng = np.random.default_rng(11)
    x = random_stiefel(rng, problem.n, problem.p)
    w = problem.f_subgrad(x)
    expected = np.linalg.norm(project_tangent(x, w))
    assert abs(stationarity_estimate(problem, x) - expected) < 1e-14


def test_stationarity_estimate_zero_at_eigenbasis():
    # for f = -trace(X' diag(d) X) the leading eigenvector block is stationary
    d = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
    problem = make_quadratic_trace(d, 2)
    x = np.eye(5, 2)
    assert stationarity_estimate(problem, x) < 1e-14


def test_stationarity_estimate_rejects_infeasible():
    problem = quadratic_problem()
    with pytest.raises(ValueError):
        stationarity_estimate(problem, np.full((8, 3), 0.9))


# ---------------------------------------------------------------------------
# full runs: termination, determinism, traces


def test_run_subgradient_converges_on_quadratic():
    d = np.diag(np.arange(6.0, 0.0, -1.0))
    problem = make_quadratic_trace(d, 2)
    cfg = SolverConfig(
        beta=problem.lipschitz_est * 16,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (32 * problem.lipschitz_est)),
        max_iters=4000,
        seed=5,
    )
    result = run_subgradient(problem, cfg)
    assert result.termination == "max_iters"
    assert result.iterations == 4000
    # optimum is -(6 + 5) = -11
    assert abs(problem.f_value(result.projected.matrix) + 11.0) < 1e-6
    assert feasibility_violation(result.projected.matrix) < 1e-12


def test_run_subgradient_trace_columns():
    problem = quadratic_problem()
    cfg = gentle_config(max_iters=25, trace_stride=10, seed=1)
    result = run_subgradient(problem, cfg)
    trace = result.trace
    assert trace.iters == [0, 10, 20]
    assert len(trace.f) == len(trace.h) == len(trace.feas) == len(trace.stat) == 3
    assert len(trace.seconds) == 3
    assert trace.h_mapped is None
    assert all(b >= a for a, b in zip(trace.seconds, trace.seconds[1:]))


def test_run_subgradient_deterministic():
    problem = quadratic_problem(seed=2)
    cfg = gentle_config(max_iters=60, trace_stride=7, seed=9)
    a = run_subgradient(problem, cfg)
    b = run_subgradient(problem, cfg)
    assert np.array_equal(a.final_x, b.final_x)
    assert a.trace.f == b.trace.f
    assert a.trace.stat == b.trace.stat
    assert a.trace.feas == b.trace.feas


def test_run_subgradient_seed_changes_run():
    problem = quadratic_problem(seed=2)
    a = run_subgradient(problem, gentle_config(max_iters=30, seed=0))
    b = run_subgradient(problem, gentle_config(max_iters=30, seed=1))
    assert not np.array_equal(a.final_x, b.final_x)


def test_run_subgradient_early_stop():
    d = np.diag([4.0, 3.0, 1.0, 0.5])
    problem = make_quadratic_trace(d, 1)
    cfg = SolverConfig(
        beta=16 * problem.lipschitz_est,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (32 * problem.lipschitz_est)),
        max_iters=50000,
        seed=3,
        stop_tol_stationarity=1e-8,
        stop_tol_feasibility=1e-8,
        trace_stride=100,
    )
    result = run_subgradient(problem, cfg)
    assert result.termination == "tol_met"
    assert result.iterations < 50000
    assert stationarity_estimate(problem, result.projected) <= 1e-8


def test_run_subgradient_divergence_guard():
    problem = quadratic_problem()
    cfg = SolverConfig(
        beta=0.1,
        schedule=StepSchedule(kind="constant", eta0=50.0),
        max_iters=200,
        seed=0,
    )
    with pytest.raises(DivergenceError) as excinfo:
        run_subgradient(problem, cfg)
    # the error carries the partial run for callers that emit traces
    partial = excinfo.value.result
    assert partial.termination == "divergence_guard"
    assert len(partial.trace) >= 1
    assert partial.iterations >= 1


def test_run_subgradient_safeguard_config_errors():
    problem = quadratic_problem()
    m1, mt, mh = estimate_constants(problem)
    weak_beta = SolverConfig(
        beta=0.5 * max(16 * m1, 60 * mt, 16 * mh),
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
    )
    with pytest.raises(ConfigurationError):
        run_subgradient(problem, weak_beta)
    beta = max(16 * m1, 60 * mt, 16 * mh)
    big_step = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / beta),
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
    )
    with pytest.raises(ConfigurationError):
        run_subgradient(problem, big_step)


def test_run_subgradient_shell_check_stays_inside():
    problem = quadratic_problem(n=6, p=2, seed=4)
    m1, mt, mh = estimate_constants(problem)
    beta = max(16 * m1, 60 * mt, 16 * mh)
    cfg = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (2 * beta)),
        max_iters=500,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        seed=8,
    )
    result = run_subgradient(problem, cfg)
    assert max(result.trace.feas) <= 1.0 / 6.0 + 1e-12


def test_run_subgradient_shell_violation_raises():
    # honest safeguards but a deliberately infeasible start outside the shell
    problem = quadratic_problem(n=6, p=2, seed=4)
    m1, mt, mh = estimate_constants(problem)
    beta = max(16 * m1, 60 * mt, 16 * mh)
    cfg = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (2 * beta)),
        max_iters=50,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
    )
    x0 = 1.4 * np.eye(6, 2)
    with pytest.raises(SafeguardViolationError):
        run_subgradient(problem, cfg, x0=x0)


def test_run_subgradient_x0_shape_checked():
    problem = quadratic_problem()
    with pytest.raises(ConfigurationError):
        run_subgradient(problem, SolverConfig(max_iters=5), x0=np.eye(4, 2))


def test_default_initial_point_feasible_and_seeded():
    problem = quadratic_problem()
    a = default_initial_point(problem, 123)
    b = default_initial_point(problem, 123)
    c = default_initial_point(problem, 124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert feasibility_violation(a) < 1e-12


# ---------------------------------------------------------------------------
# proximal runs


def sparse_pca_problem(n=20, p=2, gamma=0.1, seed=0):
    data = gaussian_matrix(50, n, seed=seed)
    cov = data.T @ data / 50.0
    return make_sparse_pca(cov, p, gamma)


def test_run_prox_subgradient_records_both_merits():
    problem = sparse_pca_problem()
    cfg = gentle_config(max_iters=40, trace_stride=5, seed=2)
    result = run_prox_subgradient(problem, cfg)
    trace = result.trace
    assert trace.h_mapped is not None
    assert len(trace.h_mapped) == len(trace.h) == len(trace.iters)


def test_run_prox_subgradient_decreases_objective():
    problem = sparse_pca_problem(seed=1)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.01),
        max_iters=800,
        seed=4,
    )
    result = run_prox_subgradient(problem, cfg)
    first = result.trace.f[0]
    last = problem.f_value(result.projected.matrix)
    assert last < first - 1e-3
    assert feasibility_violation(result.projected.matrix) < 1e-12


def test_run_prox_subgradient_step_cap_checked():
    problem = sparse_pca_problem()
    m1, mt, mh = estimate_constants(problem)
    m_r = problem.reg.lipschitz
    cap = 1.0 / (19.0 * (mt + m_r))
    too_big = SolverConfig(
        schedule=StepSchedule(kind="constant", eta0=2 * cap),
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        max_iters=10,
    )
    with pytest.raises(ConfigurationError):
        run_prox_subgradient(problem, too_big)
    ok = SolverConfig(
        schedule=StepSchedule(kind="constant", eta0=0.9 * cap),
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        max_iters=10,
    )
    run_prox_subgradient(problem, ok)


def test_run_prox_subgradient_smooth_problem_identity_prox():
    problem = quadratic_problem(n=6, p=2)
    cfg = SolverConfig(
        schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=100, seed=1
    )
    result = run_prox_subgradient(problem, cfg)
    assert np.all(np.isfinite(result.final_x))


# ---------------------------------------------------------------------------
# baseline


def test_baseline_iterates_exactly_feasible():
    problem = quadratic_problem(seed=6)
    cfg = SolverConfig(max_iters=50, trace_stride=10, seed=3)
    result = run_riemannian_baseline(problem, cfg)
    assert max(result.trace.feas) < 1e-12
    assert feasibility_violation(result.final_x) < 1e-12


def test_baseline_converges_on_quadratic():
    d = np.diag(np.arange(6.0, 0.0, -1.0))
    problem = make_quadratic_trace(d, 2)
    cfg = SolverConfig(
        schedule=StepSchedule(kind="constant", eta0=0.02),
        max_iters=3000,
        seed=5,
    )
    result = run_riemannian_baseline(problem, cfg)
    assert abs(problem.f_value(result.final_x) + 11.0) < 1e-6


# ---------------------------------------------------------------------------
# grid search


def test_grid_candidates_frozen():
    assert grid_candidates() == (0.01, 0.03, 0.05, 0.07, 0.09, 0.1, 0.3, 0.5, 0.7, 0.9)


def test_grid_search_tie_prefers_smaller_step():
    # constant objective: every candidate lands on the same value
    problem = ProblemDefinition(
        n=4,
        p=2,
        phi_value=lambda x: 0.0,
        phi_subgrad=lambda x, rng=None: np.zeros_like(x),
        smooth=True,
    )
    cfg = SolverConfig(max_iters=10, seed=0)
    assert grid_search_eta0(problem, cfg, budget_epochs=5) == 0.01


def test_grid_search_picks_working_step():
    d = np.diag(np.arange(6.0, 0.0, -1.0))
    problem = make_quadratic_trace(d, 2)
    cfg = SolverConfig(
        beta=2.0,
        schedule=StepSchedule(kind="constant", epoch_len=1),
        seed=7,
        max_iters=10,
    )
    rows = run_step_grid(problem, cfg, budget_epochs=300)
    by_eta = dict(rows)
    best = grid_search_eta0(problem, cfg, budget_epochs=300)
    assert by_eta[best] == min(by_eta.values())
    assert by_eta[best] < -10.0


def test_grid_search_all_divergent_raises():
    problem = ProblemDefinition(
        n=3,
        p=1,
        phi_value=lambda x: float(np.sum(x)),
        phi_subgrad=lambda x, rng=None: np.full_like(x, 1e12),
        smooth=True,
    )
    cfg = SolverConfig(
        beta=0.1, schedule=StepSchedule(kind="constant"), max_iters=400, seed=0
    )
    with pytest.raises(GridSearchError):
        grid_search_eta0(problem, cfg, budget_epochs=1)


def test_grid_search_validation():
    problem = quadratic_problem()
    cfg = SolverConfig(max_iters=10)
    with pytest.raises(ConfigurationError):
        run_step_grid(problem, cfg, budget_epochs=0)
    with pytest.raises(ConfigurationError):
        run_step_grid(problem, cfg, budget_epochs=1, algorithm="adam")
    # the grid varies eta0, which a custom schedule ignores
    custom = SolverConfig(max_iters=10, schedule=StepSchedule(kind="custom", values=(0.1,) * 10))
    with pytest.raises(ConfigurationError, match="custom"):
        run_step_grid(problem, custom, budget_epochs=1)


# ---------------------------------------------------------------------------
# the lockstep grid against one single run per candidate

GRID_MASKED = (DivergenceError, SafeguardViolationError, ConfigurationError)


def serial_grid(problem, cfg, budget_epochs, algorithm):
    """Grid rows from one single run per candidate, and each run's outcome."""
    rows, outcomes = [], []
    for i, eta in enumerate(grid_candidates()):
        seed = int(np.random.SeedSequence([cfg.seed, 1000 + i]).generate_state(1)[0])
        run_cfg = SolverConfig(
            beta=cfg.beta,
            schedule=StepSchedule(
                kind=cfg.schedule.kind, eta0=eta, epoch_len=cfg.schedule.epoch_len
            ),
            max_iters=budget_epochs * cfg.schedule.epoch_len,
            feas_shell_check=cfg.feas_shell_check,
            safeguards=cfg.safeguards,
            seed=seed,
            stop_tol_stationarity=cfg.stop_tol_stationarity,
            stop_tol_feasibility=cfg.stop_tol_feasibility,
            trace_stride=cfg.trace_stride,
        )
        try:
            result = ALGORITHM_RUNNERS[algorithm](problem, run_cfg)
        except GRID_MASKED as err:
            rows.append((eta, float("inf")))
            outcomes.append(type(err).__name__)
            continue
        rows.append((eta, problem.f_value(result.projected.matrix)))
        outcomes.append(result.termination)
    return rows, outcomes


def _shell_problem():
    # scaled so that the smallest steps pass the safeguard bounds; the
    # constants are underestimated fourfold, so some runs leave the shell
    problem = make_sparse_pca(0.05 * spiked_covariance(20, [10, 8, 6, 4], 1), 3, 0.005)
    return problem, tuple(m / 4 for m in estimate_constants(problem, samples=50))


GRID_SCENARIOS = {
    # name: (problem factory, config overrides, budget_epochs)
    "l1_pca_stride_1": (lambda: (l1_pca_problem(noisy=False), None), dict(trace_stride=1), 25),
    "l1_pca_noisy_stride_budget": (
        lambda: (l1_pca_problem(noisy=True), None), dict(trace_stride=30), 30
    ),
    "sparse_pca_prox": (lambda: (sparse_pca_problem(n=20, p=3), None), dict(trace_stride=7), 30),
    "shell_check_estimated": (
        _shell_problem,
        dict(schedule=StepSchedule(kind="constant"), feas_shell_check=True, trace_stride=5),
        30,
    ),
    "all_diverge_stride_1": (
        lambda: (make_quadratic_trace(1e3 * np.diag(np.arange(6.0, 0.0, -1.0)), 2), None),
        dict(trace_stride=1),
        20,
    ),
    "stop_tolerances": (
        lambda: (make_quadratic_trace(np.diag(np.arange(6.0, 0.0, -1.0)), 2), None),
        dict(stop_tol_stationarity=3.0, stop_tol_feasibility=1e-2, trace_stride=30),
        30,
    ),
}


@functools.lru_cache(maxsize=None)
def scenario_problem(name):
    return GRID_SCENARIOS[name][0]()


def grid_scenario(name, seed):
    _, overrides, budget = GRID_SCENARIOS[name]
    problem, safeguards = scenario_problem(name)
    cfg = {"beta": 1.0, "schedule": StepSchedule(kind="harmonic_decay"), "seed": seed, **overrides}
    if safeguards is not None:
        cfg["beta"] = max(16.0 * safeguards[0], 60.0 * safeguards[1], 16.0 * safeguards[2])
        cfg["safeguards"] = safeguards
    return problem, SolverConfig(**cfg), budget


@pytest.mark.parametrize("scenario", sorted(GRID_SCENARIOS))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHM_RUNNERS))
@settings(max_examples=3, deadline=None, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lockstep_grid_matches_serial_runs(algorithm, scenario, seed):
    problem, cfg, budget = grid_scenario(scenario, seed)
    expected, _ = serial_grid(problem, cfg, budget, algorithm)
    assert run_step_grid(problem, cfg, budget, algorithm) == expected


def test_lockstep_grid_scenarios_cover_every_outcome():
    seen = set()
    for scenario in GRID_SCENARIOS:
        problem, cfg, budget = grid_scenario(scenario, 0)
        for algorithm in ALGORITHM_RUNNERS:
            seen.update(serial_grid(problem, cfg, budget, algorithm)[1])
    assert seen == {
        "max_iters",
        "tol_met",
        "DivergenceError",
        "SafeguardViolationError",
        "ConfigurationError",
    }


@pytest.mark.parametrize("algorithm", ["ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline"])
def test_grid_propagates_oracle_dimension_error(algorithm):
    calls = []

    def oracle(x, rng):
        # the ten candidates' trace estimates at k = 0 get valid outputs
        calls.append(1)
        return 2.0 * x if len(calls) <= 10 else np.ones((4, 3))

    cfg = SolverConfig(schedule=StepSchedule(kind="constant"), max_iters=5, trace_stride=5)
    with pytest.raises(DimensionError, match="shape"):
        run_step_grid(problem_with_oracle(oracle), cfg, budget_epochs=5, algorithm=algorithm)
    assert len(calls) == 11


# ---------------------------------------------------------------------------
# projection finishing


def test_projection_finishing_does_not_increase_merit():
    problem = quadratic_problem(seed=9)
    m1, mt, mh = estimate_constants(problem)
    beta = max(16 * m1, 60 * mt, 16 * mh)
    cfg = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (2 * beta)),
        max_iters=2000,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        seed=11,
    )
    result = run_subgradient(problem, cfg)

    def merit(x):
        v = feasibility_violation(x)
        return problem.f_value(apply_A(x)) + 0.25 * beta * v * v

    assert merit(result.projected.matrix) <= merit(result.final_x) + 1e-10


def test_merit_monotone_on_smooth_constant_small_step():
    d = np.diag(np.arange(6.0, 0.0, -1.0))
    problem = make_quadratic_trace(d, 2)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=1e-3),
        max_iters=300,
        seed=7,
    )
    result = run_subgradient(problem, cfg)
    h = result.trace.h
    assert all(b <= a + 1e-10 for a, b in zip(h, h[1:]))


def test_trace_append_and_len():
    trace = IterateTrace()
    trace.append(0, 1.0, 2.0, 0.1, 0.5, 0.01)
    trace.append(1, 0.5, 1.5, 0.05, 0.4, 0.02, h_mapped=1.4)
    assert len(trace) == 2
    assert trace.h_mapped == [1.4]


# ---------------------------------------------------------------------------
# the fused loop against a step-by-step run on the public kernels


def keyed_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def reference_run(problem, cfg, algorithm, x0):
    """The loop rebuilt from public kernels only: (final x, trace rows)."""
    x = x0.copy()
    rows = []
    for k in range(cfg.max_iters):
        feas = feasibility_violation(x)
        if k % cfg.trace_stride == 0:
            mapped = apply_A(x)
            h = problem.f_value(mapped) + 0.25 * cfg.beta * feas * feas
            proj = project_stiefel(x).matrix
            w = problem.f_subgrad(proj, keyed_rng(cfg.seed, 3, k))
            stat = float(np.linalg.norm(project_tangent(proj, w)))
            h_mapped = None
            if algorithm == "ncdf_proxsgd":
                feas_m = feasibility_violation(mapped)
                h_mapped = problem.f_value(apply_A(mapped)) + 0.25 * cfg.beta * feas_m**2
            rows.append((k, problem.f_value(proj), h, feas, stat, h_mapped))
        eta = cfg.schedule.step(k)
        rng = keyed_rng(cfg.seed, 0, k)
        if algorithm == "ncdf_sgd":
            w = problem.f_subgrad(apply_A(x), rng)
            x = subgradient_step(x, jacobian_apply(x, w), eta, cfg.beta)
        elif algorithm == "ncdf_proxsgd":
            x = prox_subgradient_step(x, problem.phi_subgrad(x, rng), eta, problem.reg)
        else:
            w = problem.f_subgrad(x, rng)
            x = project_stiefel(x - eta * project_tangent(x, w)).matrix
    return x, rows


RUNNERS = {
    "ncdf_sgd": run_subgradient,
    "ncdf_proxsgd": run_prox_subgradient,
    "rsgd_baseline": run_riemannian_baseline,
}


def l1_pca_problem(noisy):
    problem = make_l1_pca(gaussian_matrix(20, 6, seed=5), 2)
    if noisy:
        problem = attach_noise(problem, NoiseModel(sigma=0.05, bound=0.1))
    return problem


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_fused_loop_bitwise_matches_public_kernels(algorithm, noisy, stride):
    problem = l1_pca_problem(noisy)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="harmonic_decay", eta0=0.002),
        max_iters=60,
        seed=9,
        trace_stride=stride,
    )
    x0 = default_initial_point(problem, 4)
    result = RUNNERS[algorithm](problem, cfg, x0=x0)
    final_x, rows = reference_run(problem, cfg, algorithm, x0)
    assert np.array_equal(result.final_x, final_x)
    trace = result.trace
    iters, f, h, feas, stat, h_mapped = (list(col) for col in zip(*rows))
    assert trace.iters == iters
    assert trace.f == f
    assert trace.h == h
    assert trace.feas == feas
    assert trace.stat == stat
    if algorithm == "ncdf_proxsgd":
        assert trace.h_mapped == h_mapped
    else:
        assert trace.h_mapped is None


def test_deterministic_oracle_builds_no_generator(monkeypatch):
    built = []
    real = solvers._rng

    def counting(seed, *key):
        built.append(key)
        return real(seed, *key)

    monkeypatch.setattr(solvers, "_rng", counting)
    cfg = gentle_config(max_iters=30, trace_stride=30, seed=2)
    problem = l1_pca_problem(noisy=False)
    x0 = np.eye(problem.n, problem.p)
    for runner in RUNNERS.values():
        runner(problem, cfg, x0=x0)
    assert built == []
    # a noisy oracle draws at every step, so each step builds its generator
    run_subgradient(l1_pca_problem(noisy=True), cfg, x0=x0)
    assert sorted(built) == sorted([(3, 0)] + [(0, k) for k in range(30)])


def problem_with_oracle(oracle):
    return ProblemDefinition(
        n=4, p=2, phi_value=lambda x: float(np.sum(x * x)), phi_subgrad=oracle
    )


@pytest.mark.parametrize(
    "algorithm, error",
    [
        ("ncdf_sgd", DimensionError),
        ("ncdf_proxsgd", DimensionError),
        ("rsgd_baseline", DimensionError),
    ],
)
def test_oracle_output_shape_checked_in_loop(algorithm, error):
    calls = []

    def oracle(x, rng):
        # the trace's stationarity check at k = 0 gets a valid output
        calls.append(1)
        return 2.0 * x if len(calls) == 1 else np.ones((4, 3))

    cfg = SolverConfig(max_iters=5, trace_stride=5)
    with pytest.raises(error, match="shape"):
        RUNNERS[algorithm](problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_non_finite_oracle_output_aborts_as_divergence(algorithm):
    calls = []

    def oracle(x, rng):
        calls.append(1)
        return 2.0 * x if len(calls) < 4 else np.full(x.shape, np.nan)

    cfg = SolverConfig(max_iters=10, trace_stride=10, seed=1)
    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        RUNNERS[algorithm](problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))
    partial = excinfo.value.result
    assert partial.iterations == 2
    assert len(partial.trace) == 1


def poisoned(problem, seed, k, bad):
    """problem whose oracle returns bad in every call of iteration k of the run seeded seed.

    The solver hands the oracle a generator keyed by (seed, stream, iteration),
    stream 0 for the step direction and 3 for the trace's stationarity
    estimate, so one draw from it tells the oracle which call it is serving.
    """
    marks = {solvers._rng(seed, stream, k).random() for stream in (0, 3)}
    base = problem.phi_subgrad

    def oracle(x, rng):
        return np.full(x.shape, bad) if rng.random() in marks else base(x, rng)

    return replace(problem, phi_subgrad=oracle)


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def small_sparse_pca():
    # scaled so that most grid candidates of every algorithm stay finite
    data = gaussian_matrix(50, 6, seed=0)
    return make_sparse_pca(0.1 * data.T @ data / 50.0, 2, 0.01)


# a non-finite oracle output makes numpy warn before the guard turns it into an error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, database=None)
@given(
    algorithm=st.sampled_from(sorted(RUNNERS)),
    k=st.integers(0, 29),
    stride=st.integers(1, 40),
    bad=NON_FINITE,
)
def test_poisoned_oracle_ends_the_run_at_that_iteration(algorithm, k, stride, bad):
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.01),
        max_iters=30,
        seed=4,
        trace_stride=stride,
    )
    clean = RUNNERS[algorithm](problem, cfg)
    assert clean.termination == "max_iters"
    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        RUNNERS[algorithm](poisoned(problem, cfg.seed, k, bad), cfg)
    partial = excinfo.value.result
    assert partial.iterations == k
    rows = sum(1 for i in clean.trace.iters if i < k)
    assert partial.trace.iters == clean.trace.iters[:rows]
    for column in ("f", "h", "feas", "stat"):
        assert getattr(partial.trace, column) == getattr(clean.trace, column)[:rows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None, database=None)
@given(
    algorithm=st.sampled_from(sorted(RUNNERS)),
    candidate=st.integers(0, 9),
    k=st.integers(0, 19),
    stride=st.integers(1, 25),
    bad=NON_FINITE,
)
def test_poisoned_oracle_fails_only_its_grid_candidate(algorithm, candidate, k, stride, bad):
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0, schedule=StepSchedule(kind="constant"), seed=6, trace_stride=stride
    )
    # the candidate's seed as run_step_grid derives it
    seed = int(np.random.SeedSequence([cfg.seed, 1000 + candidate]).generate_state(1)[0])
    clean = run_step_grid(problem, cfg, 20, algorithm)
    rows = run_step_grid(poisoned(problem, seed, k, bad), cfg, 20, algorithm)
    assert rows[candidate][1] == float("inf")
    assert rows[:candidate] == clean[:candidate]
    assert rows[candidate + 1 :] == clean[candidate + 1 :]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "algorithm, label",
    [("ncdf_sgd", "subgradient"), ("ncdf_proxsgd", "proximal"), ("rsgd_baseline", "baseline")],
)
def test_non_finite_step_names_its_iteration(algorithm, label):
    # k = 13 is not traced, so only the step's own oracle call returns nan
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.01),
        max_iters=30,
        seed=4,
        trace_stride=10,
    )
    message = f"^{label} step produced non-finite entries at iteration 13$"
    with pytest.raises(DivergenceError, match=message) as excinfo:
        RUNNERS[algorithm](poisoned(small_sparse_pca(), cfg.seed, 13, np.nan), cfg)
    assert excinfo.value.result.iterations == 13


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_short_custom_schedule_raises_without_partial_run(algorithm):
    cfg = SolverConfig(
        schedule=StepSchedule(kind="custom", values=(0.01,) * 4), max_iters=10, trace_stride=3
    )
    message = "custom schedule has 4 values, needed step 4"
    with pytest.raises(ConfigurationError, match=message) as excinfo:
        RUNNERS[algorithm](small_sparse_pca(), cfg)
    assert not hasattr(excinfo.value, "result")


STRIDE_PROBLEMS = {
    "l1_pca": lambda: l1_pca_problem(noisy=False),
    "l1_pca_noisy": lambda: l1_pca_problem(noisy=True),
    "sparse_pca": small_sparse_pca,
}


@settings(max_examples=25, deadline=None, database=None)
@given(
    algorithm=st.sampled_from(sorted(RUNNERS)),
    kind=st.sampled_from(sorted(STRIDE_PROBLEMS)),
    strides=st.lists(st.integers(1, 70), min_size=2, max_size=2),
    stop_tol=st.sampled_from([0.0, 0.05, 8.0, 10.0]),
)
def test_trace_stride_changes_only_which_rows_are_kept(algorithm, kind, strides, stop_tol):
    # stationarity tolerances of 8 and 10 stop some L1-PCA runs at k = 10
    problem = STRIDE_PROBLEMS[kind]()
    a, b = (
        RUNNERS[algorithm](
            problem,
            SolverConfig(
                beta=1.0,
                schedule=StepSchedule(kind="constant", eta0=0.002),
                max_iters=60,
                seed=2,
                trace_stride=stride,
                stop_tol_stationarity=stop_tol,
                stop_tol_feasibility=0.2 if stop_tol else 0.0,
            ),
        )
        for stride in strides
    )
    assert np.array_equal(a.final_x, b.final_x)
    assert (a.termination, a.iterations) == (b.termination, b.iterations)
    shared = sorted(set(a.trace.iters) & set(b.trace.iters))
    assert shared[0] == 0

    def rows(trace, column):
        values = getattr(trace, column)
        return None if values is None else [values[trace.iters.index(k)] for k in shared]

    for column in ("f", "h", "feas", "stat", "h_mapped"):
        assert rows(a.trace, column) == rows(b.trace, column)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_trace_oracle_output_checked_in_loop(algorithm):
    # the first call is the trace's stationarity estimate at k = 0
    def wrong_shape(x, rng):
        return np.ones((4, 3))

    cfg = SolverConfig(max_iters=5, trace_stride=5)
    with pytest.raises(DimensionError, match="shape"):
        RUNNERS[algorithm](problem_with_oracle(wrong_shape), cfg, x0=np.eye(4, 2))

    def non_finite(x, rng):
        return np.full(x.shape, np.inf)

    with pytest.raises(DivergenceError, match="stationarity oracle") as excinfo:
        RUNNERS[algorithm](problem_with_oracle(non_finite), cfg, x0=np.eye(4, 2))
    assert excinfo.value.result.iterations == 0
    assert len(excinfo.value.result.trace) == 0


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_loop_validates_only_at_the_boundary(monkeypatch, algorithm):
    calls = []
    real = core.validate_matrix

    def counting(x, name="matrix"):
        calls.append(name)
        return real(x, name)

    monkeypatch.setattr(core, "validate_matrix", counting)
    monkeypatch.setattr(solvers, "validate_matrix", counting)
    problem = l1_pca_problem(noisy=True)
    x0 = default_initial_point(problem, 4)
    per_run = []
    for max_iters in (5, 40):
        calls.clear()
        cfg = SolverConfig(
            beta=1.0,
            schedule=StepSchedule(kind="constant", eta0=0.002),
            max_iters=max_iters,
            seed=3,
            stop_tol_stationarity=1e-9,
            stop_tol_feasibility=1e-9,
        )
        RUNNERS[algorithm](problem, cfg, x0=x0)
        per_run.append(list(calls))
    # x0 on entry plus the final projection, however many iterations ran
    assert per_run[0] == per_run[1]
    assert per_run[0][0] == "x0"
