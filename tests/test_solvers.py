"""Solver loop tests: frozen single-step values, determinism, guards, grids."""

import functools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelcd import cli, core, solvers
from stiefelcd.core import (
    apply_A,
    feasibility_violation,
    jacobian_apply,
    project_stiefel,
    project_tangent,
    random_stiefel,
)
from stiefelcd.diagnostics import (
    brute_force_sphere_oracle,
    run_identity_suite,
    run_stationarity_suite,
)
from stiefelcd.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
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
    make_orthogonal_mlp,
    make_quadratic_trace,
    make_sparse_pca,
    spiked_covariance,
    synthetic_mlp_dataset,
)
from stiefelcd.solvers import (
    ALGORITHM_RUNNERS,
    SolverConfig,
    StepSchedule,
    best_grid_step,
    default_initial_point,
    grid_candidates,
    run_prox_subgradient,
    run_riemannian_baseline,
    run_step_grid,
    run_subgradient,
    stationarity_estimate,
)


def keyed_rng(seed, k):
    """A fresh generator, placed where the step of the run seeded seed draws at iteration k.

    The run's Philox is keyed by SeedSequence([seed]); the step at iteration k
    starts its draws at counter (0, 0, k, 0) with nothing buffered.
    """
    key = np.random.SeedSequence([seed]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=(0, 0, k, 0)))


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


def test_schedule_steps_lists_the_first_n_steps():
    for sched in (
        StepSchedule(kind="harmonic_decay", eta0=0.7, epoch_len=3),
        StepSchedule(kind="constant", eta0=0.3),
        StepSchedule(kind="custom", values=(0.5, 0.25, 0.125)),
    ):
        assert sched.steps(3) == [sched.step(k) for k in range(3)]
    with pytest.raises(ConfigurationError, match="custom schedule has 3 values, needed step 3"):
        StepSchedule(kind="custom", values=(0.5, 0.25, 0.125)).steps(4)


@pytest.mark.parametrize(
    "sched",
    [
        StepSchedule(kind="constant", eta0=0.03),
        StepSchedule(kind="constant", eta0=7),
        StepSchedule(kind="harmonic_decay", eta0=0.03),
        StepSchedule(kind="harmonic_decay", eta0=1.0 / 3.0, epoch_len=7),
        StepSchedule(kind="harmonic_decay", eta0=9e-2, epoch_len=250),
        StepSchedule(kind="custom", values=tuple(np.geomspace(0.5, 1e-6, 2500))),
    ],
)
def test_schedule_steps_equal_step_bitwise(sched):
    steps = sched.steps(2500)
    expected = [sched.step(k) for k in range(2500)]
    assert [type(v) for v in steps] == [type(v) for v in expected]
    assert [float(v).hex() for v in steps] == [float(v).hex() for v in expected]
    if sched.kind != "custom":  # the grid's rows, each eta0 over divisors formed once
        etas = [sched.eta0, 0.3, 9e-2]
        rows = solvers._steps(sched, 2500, "budget_epochs", etas)
        for eta, row in zip(etas, rows, strict=True):
            expected = replace(sched, eta0=eta).steps(2500)
            assert [type(v) for v in row] == [type(v) for v in expected]
            assert [float(v).hex() for v in row] == [float(v).hex() for v in expected]


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
    # an estimate beyond float range is the inf it stands for (it raised a bare OverflowError)
    assert SolverConfig(safeguards=(10**400, 0, 0)) == SolverConfig(safeguards=(INF, 0, 0))
    with pytest.raises(ConfigurationError):
        SolverConfig(seed=-1)
    with pytest.raises(ConfigurationError):
        SolverConfig(stop_tol_stationarity=-1e-3)
    # the stopping rule needs both tolerances, so one alone would silently run to max_iters
    with pytest.raises(ConfigurationError, match="only together"):
        SolverConfig(stop_tol_stationarity=1e30)
    with pytest.raises(ConfigurationError, match="only together"):
        SolverConfig(stop_tol_feasibility=1e-3)
    cfg = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.02))
    assert cfg.schedule.eta0 == 0.02


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, name",
    [
        # nan made the shell check's bound max(16 * nan, ...) nan, and beta < nan is false,
        # so this config ran to max_iters where safeguards (1, 0, 0) are rejected
        pytest.param(
            lambda: SolverConfig(beta=0.1, safeguards=(NAN, 0.0, 0.0), feas_shell_check=True),
            "safeguards",
            id="nan-safeguard",
        ),
        # nan tolerances silently turned the stopping rule off
        pytest.param(
            lambda: SolverConfig(stop_tol_stationarity=NAN, stop_tol_feasibility=NAN),
            "stop_tol_stationarity",
            id="nan-stop-tolerances",
        ),
        pytest.param(lambda: SolverConfig(beta=INF), "beta", id="inf-beta"),
        pytest.param(lambda: StepSchedule(kind="constant", eta0=INF), "eta0", id="inf-eta0"),
        pytest.param(
            lambda: StepSchedule(kind="custom", values=(0.1, NAN)), "values", id="nan-value"
        ),
        pytest.param(lambda: StepSchedule(kind="custom", values=(INF,)), "values", id="inf-value"),
    ],
)
def test_non_finite_config_numbers_are_rejected_naming_their_field(build, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must"):
        build()


# each took a string, None or a bool without a typed error: a float field and
# safeguards raised a bare TypeError (beta = True ran as beta = 1), and custom
# values raised a bare TypeError or ValueError from float()
NUMBER_FIELDS = {
    "beta": lambda value: SolverConfig(beta=value),
    "stop_tol_stationarity": lambda value: SolverConfig(stop_tol_stationarity=value),
    "stop_tol_feasibility": lambda value: SolverConfig(stop_tol_feasibility=value),
    "safeguards": lambda value: SolverConfig(safeguards=value),
    "safeguards[1]": lambda value: SolverConfig(safeguards=(0.0, value, 0.0)),
    "eta0": lambda value: StepSchedule(kind="constant", eta0=value),
    "values": lambda value: StepSchedule(kind="custom", values=value),
    "values[1]": lambda value: StepSchedule(kind="custom", values=(0.1, value)),
}
NOT_NUMBERS = st.sampled_from(
    ["1", "x", "", None, True, False, np.True_, 1j, b"1", {}, (), ("a", 1, 2)]
)


@settings(max_examples=150, deadline=None, database=None)
@example(name="beta", bad="1")
@example(name="eta0", bad=None)
@example(name="stop_tol_stationarity", bad="x")
@example(name="safeguards", bad=5.0)  # a number where a sequence is due
@example(name="safeguards", bad=("a", 1, 2))
@example(name="values", bad=5)
@example(name="values", bad=("a",))
@given(name=st.sampled_from(list(NUMBER_FIELDS)), bad=NOT_NUMBERS)
def test_config_numbers_that_are_not_numbers_are_rejected_naming_their_field(name, bad):
    field = name.split("[")[0]
    with pytest.raises(ConfigurationError, match=f"^{field} must be "):
        NUMBER_FIELDS[name](bad)


# an integer beyond float range raised a bare OverflowError; it is now the inf it stands for,
# which a finite-only field rejects and safeguards keeps
@pytest.mark.parametrize("huge", [10**400, -(10**400)])
@pytest.mark.parametrize(
    "name", ["beta", "stop_tol_stationarity", "stop_tol_feasibility", "eta0", "values[1]"]
)
def test_config_integers_beyond_float_range_are_rejected_naming_their_field(name, huge):
    field = name.split("[")[0]
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got "):
        NUMBER_FIELDS[name](huge)


# max_iters = 5.5 or inf failed with a bare TypeError inside StepSchedule.steps,
# seed = 1.5 and trace_stride = 2.5 ran silently, and epoch_len = 2.5 decayed at
# fractional epochs
INTEGER_FIELDS = {
    "max_iters": lambda value: SolverConfig(max_iters=value),
    "seed": lambda value: SolverConfig(seed=value),
    "trace_stride": lambda value: SolverConfig(trace_stride=value),
    "epoch_len": lambda value: StepSchedule(epoch_len=value),
}


@pytest.mark.parametrize("name", list(INTEGER_FIELDS))
def test_integer_config_fields_reject_non_integers_naming_their_field(name):
    build = INTEGER_FIELDS[name]
    for bad in (5.5, 2.0, INF, NAN, True, "3", np.float64(4.0)):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            build(bad)
    for good in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert getattr(build(good), name) == 3


def test_grid_budget_epochs_rejects_non_integers_naming_it():
    # a float budget made max_iters a float, which failed with a bare TypeError
    problem = make_quadratic_trace(np.diag([3.0, 2.0, 1.0]), 1)
    cfg = SolverConfig(beta=1.0, schedule=StepSchedule(kind="constant", eta0=0.1))
    for bad in (2.0, 2.5):
        with pytest.raises(ConfigurationError, match="^budget_epochs must be an integer, got "):
            run_step_grid(problem, cfg, bad, "ncdf_sgd")
    assert len(run_step_grid(problem, cfg, np.int64(2), "ncdf_sgd")) == len(grid_candidates())


# the public scalar arguments that core's checks guard, as (argument name, rule, call
# with the value); every rule rejects before any work is done, so each call is cheap
BOUNDARY_QUAD = make_quadratic_trace(np.diag([3.0, 2.0, 1.0]), 1)
BOUNDARY_CIRCLE = make_quadratic_trace(np.eye(2), 1)
BOUNDARY_L1 = l1_regularizer(0.1, 4)
BOUNDARY = [
    ("beta", "positive", lambda v: core.PenaltyConfig(beta=v)),
    ("tol", "positive", lambda v: core.inverse_A([[5.75]], tol=v)),
    ("radius", "nonnegative", lambda v: core.random_shell_point(np.random.default_rng(0), 3, 2, v)),
    ("beta", "positive", lambda v: SolverConfig(beta=v)),
    ("stop_tol_stationarity", "finite", lambda v: SolverConfig(stop_tol_stationarity=v)),
    ("max_iters", ">= 1", lambda v: SolverConfig(max_iters=v)),
    ("trace_stride", ">= 1", lambda v: SolverConfig(trace_stride=v)),
    ("seed", ">= 0", lambda v: SolverConfig(seed=v)),
    ("eta0", "positive", lambda v: StepSchedule(eta0=v)),
    ("epoch_len", ">= 1", lambda v: StepSchedule(epoch_len=v)),
    ("budget_epochs", ">= 1", lambda v: run_step_grid(BOUNDARY_QUAD, SolverConfig(), v)),
    ("tol_scale", "positive", lambda v: run_identity_suite(samples=1, tol_scale=v)),
    ("samples", ">= 1", lambda v: run_identity_suite(samples=v)),
    ("beta", "positive", lambda v: run_stationarity_suite(BOUNDARY_QUAD, v, samples=1)),
    ("seed", ">= 0", lambda v: estimate_constants(BOUNDARY_QUAD, seed=v)),
    ("grid_steps", ">= 1", lambda v: brute_force_sphere_oracle(BOUNDARY_CIRCLE, v)),
    ("gamma", "nonnegative", lambda v: l1_regularizer(v, 4)),
    ("gamma", "nonnegative", lambda v: make_sparse_pca(np.eye(3), 1, v)),
    ("sigma", "nonnegative", lambda v: NoiseModel(sigma=v)),
    ("n_entries", ">= 0", lambda v: l1_regularizer(0.1, v)),
    ("lipschitz", "bound", lambda v: replace(BOUNDARY_L1, lipschitz=v)),
    ("lipschitz_est", "bound", lambda v: replace(BOUNDARY_QUAD, lipschitz_est=v)),
    ("n", "integer", lambda v: replace(BOUNDARY_QUAD, n=v)),
    ("p", "integer", lambda v: replace(BOUNDARY_QUAD, p=v)),
    ("p", ">= 1", lambda v: make_quadratic_trace(np.eye(3), v)),
    ("p", ">= 1", lambda v: make_sparse_pca(np.eye(3), v, 0.1)),
    ("p", "integer", lambda v: make_l1_pca(np.ones((4, 3)), v)),
    ("widths", "integer", lambda v: make_orthogonal_mlp([(np.ones(3), np.ones(1))], (3, v, 1))),
    ("seed", ">= 0", lambda v: default_initial_point(BOUNDARY_QUAD, v)),
    ("seed", ">= 0", lambda v: make_orthogonal_mlp([(np.ones(3), np.ones(1))], (3, 2, 1), seed=v)),
    ("n", "integer", lambda v: random_stiefel(np.random.default_rng(0), v, 1)),
    ("p", "integer", lambda v: random_stiefel(np.random.default_rng(0), 3, v)),
    ("n", "integer", lambda v: core.random_shell_point(np.random.default_rng(0), v, 1, 0.1)),
    ("n_samples", ">= 0", lambda v: synthetic_mlp_dataset(v, (3, 2, 1), 0)),
]
NOT_REAL = st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.just(np.True_))
BEYOND = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])
NEGATIVE = st.one_of(st.floats(max_value=-5e-324, allow_nan=False), st.integers(max_value=-1))
NOT_INTEGRAL = st.one_of(NOT_REAL, st.floats(), st.just(2.5))
BAD_VALUES = {
    "finite": st.one_of(NOT_REAL, BEYOND),
    "nonnegative": st.one_of(NOT_REAL, BEYOND, NEGATIVE),
    "positive": st.one_of(NOT_REAL, BEYOND, NEGATIVE, st.sampled_from([0, 0.0])),
    # an upper bound may be +inf (a spectral norm that overflows), never nan or negative
    "bound": st.one_of(NOT_REAL, st.just(math.nan), NEGATIVE, st.just(-(10**400))),
    "integer": NOT_INTEGRAL,
    ">= 0": st.one_of(NOT_INTEGRAL, st.integers(max_value=-1)),
    ">= 1": st.one_of(NOT_INTEGRAL, st.integers(max_value=0)),
}


# PenaltyConfig, inverse_A, run_identity_suite, run_stationarity_suite, l1_regularizer
# and ProblemDefinition raised a bare TypeError for a string, and a nan or negative
# Lipschitz bound was accepted
@settings(max_examples=300, deadline=None, database=None)
@given(site=st.sampled_from(range(len(BOUNDARY))), data=st.data())
def test_every_public_scalar_argument_rejects_a_bad_value_naming_it(site, data):
    name, rule, call = BOUNDARY[site]
    bad = data.draw(BAD_VALUES[rule], label="bad")
    with pytest.raises(ConfigurationError) as err:
        call(bad)
    assert str(err.value).startswith(f"{name} must be "), str(err.value)


# default_initial_point ran a seed of 1.5 as seed 1 and raised numpy's bare error for
# -1; make_orthogonal_mlp raised bare errors for both; random_stiefel and
# synthetic_mlp_dataset raised a bare TypeError for a float size
MLP_PAIRS = [(np.ones(3), np.ones(1))]
SEEDS_AND_SIZES = {
    "default_initial_point": ("seed", lambda v: default_initial_point(BOUNDARY_QUAD, v)),
    "make_orthogonal_mlp": ("seed", lambda v: make_orthogonal_mlp(MLP_PAIRS, (3, 2, 1), seed=v)),
    "random_stiefel-n": ("n", lambda v: random_stiefel(np.random.default_rng(0), v, 1)),
    "random_stiefel-p": ("p", lambda v: random_stiefel(np.random.default_rng(0), 3, v)),
    "random_shell_point": ("n", lambda v: core.random_shell_point(np.random.default_rng(0), v, 1, 0.5)),
    "synthetic_mlp_dataset": ("n_samples", lambda v: synthetic_mlp_dataset(v, (3, 2, 1), 0)),
}


@pytest.mark.parametrize("site", SEEDS_AND_SIZES)
@pytest.mark.parametrize("bad", [1.5, True], ids=["float", "bool"])
def test_public_seeds_and_sizes_reject_a_value_that_is_not_an_integer(site, bad):
    name, call = SEEDS_AND_SIZES[site]
    with pytest.raises(ConfigurationError) as err:
        call(bad)
    assert str(err.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("site", SEEDS_AND_SIZES)
def test_public_seeds_and_sizes_reject_minus_one_with_a_typed_error(site):
    name, call = SEEDS_AND_SIZES[site]
    if name in ("n", "p"):  # a size below 1 keeps its shape error
        with pytest.raises(DimensionError, match=r"^need n >= p >= 1, got "):
            call(-1)
    else:
        with pytest.raises(ConfigurationError) as err:
            call(-1)
        assert str(err.value) == f"{name} must be >= 0, got -1"


def test_public_seeds_and_sizes_take_numpy_integers():
    # run_step_grid hands default_initial_point its seeds; numpy integers stay valid
    quad, widths = BOUNDARY_QUAD, (3, 2, 1)
    assert np.array_equal(default_initial_point(quad, np.int64(3)), default_initial_point(quad, 3))
    a = random_stiefel(np.random.default_rng(5), np.int64(4), np.uint8(2))
    assert np.array_equal(a, random_stiefel(np.random.default_rng(5), 4, 2))
    a = make_orthogonal_mlp(MLP_PAIRS, widths, seed=np.uint32(4))
    b = make_orthogonal_mlp(MLP_PAIRS, widths, seed=4)
    assert a.f_value(np.eye(3, 2)) == b.f_value(np.eye(3, 2))
    a = synthetic_mlp_dataset(np.int64(3), widths, 0)
    assert repr(a) == repr(synthetic_mlp_dataset(3, widths, 0))


# ---------------------------------------------------------------------------
# single steps, frozen scalar values


def scalar_state(x):
    """(1 x 1 x 1 stack of x, its Gram residual, its map polynomial / 8)."""
    stack = np.array([[[x]]])
    return (stack, *core._state(stack))


def test_sgd_step_scalar_frozen():
    # x = 2: A'(2) = 16.875, so w = 8/135 transports to the direction d = J(2)[w] = 1;
    # the penalty pull is x(x^2 - 1) = 6, so with eta = 0.1 and beta = 1 the
    # update is 2 - 0.1 * (1 + 6) = 1.3
    x, resid, poly = scalar_state(2.0)
    w = np.array([[[8.0 / 135.0]]])
    out = solvers._METHODS["ncdf_sgd"].step(x, core._map(x, poly), w, 0.1, 1.0, resid, poly)
    assert abs(out[0, 0, 0] - 1.3) < 1e-15


def test_prox_step_scalar_frozen():
    # A(2) = 5.75; with d = 1, eta = 0.1 the landing point is 5.65, and the
    # l1 prox at threshold eta * gamma = 0.05 shrinks it to 5.6
    x, resid, poly = scalar_state(2.0)
    method = solvers._METHODS["ncdf_proxsgd"]
    y = method.step(x, core._map(x, poly), np.ones((1, 1, 1)), 0.1, 1.0, resid, poly)
    out = l1_regularizer(0.5, 1).prox(y, 0.1)
    assert abs(out[0, 0, 0] - 5.6) < 1e-14


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


@pytest.mark.parametrize("kind", ["l1_pca", "quadratic_trace"])
@pytest.mark.parametrize("shape", [(6, 3), (5, 2)])
@pytest.mark.parametrize("certified", [False, True])
def test_stationarity_estimate_rejects_a_point_of_another_shape_before_any_oracle_call(
    kind, shape, certified
):
    # both problems are 6 x 2; a feasible 6 x 3 point used to return a number, and a
    # 5 x 2 one to raise numpy's bare matmul error
    data = gaussian_matrix(20, 6, seed=0)
    base = make_l1_pca(data, 2) if kind == "l1_pca" else make_quadratic_trace(data.T @ data, 2)
    calls = []

    def oracle(x, rng):
        calls.append(x)
        return base.phi_subgrad(x, rng)

    problem = replace(base, phi_subgrad=oracle)
    point = np.eye(*shape)
    with pytest.raises(DimensionError) as err:
        stationarity_estimate(problem, project_stiefel(point) if certified else point)
    assert str(err.value) == f"point shape {shape} != problem shape (6, 2)"
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stationarity_estimate_is_nan_where_the_exact_subgradient_is_not_finite(bad):
    x = np.eye(4, 2)
    w = 2.0 * x
    w[1, 0] = bad
    problem = problem_with_oracle(lambda x, rng: w)
    assert np.isnan(stationarity_estimate(problem, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stationarity_estimate_equals_the_trace_stat_bitwise_across_a_stack():
    # one slice's exact output is ~1e200, so its plain sum of squares overflows and is
    # rescaled; one slice's is nan, which ends its run and makes the estimate nan
    cfg = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=1)
    seeds = [3, 8, 21]
    points = [
        project_stiefel(default_initial_point(problem_with_oracle(None), s)).matrix
        for s in seeds
    ]

    def oracle(x, rng):
        if rng is None and np.allclose(x, points[0], rtol=0.0, atol=1e-12):
            return 1e200 * (x + 1.0)
        if rng is None and np.allclose(x, points[2], rtol=0.0, atol=1e-12):
            return np.full(x.shape, np.nan)
        return 2.0 * x + 1.0

    problem = problem_with_oracle(oracle)
    x = np.stack([default_initial_point(problem, s) for s in seeds])
    steps = [[0.01], [0.01], [0.01]]
    big, clean, ended = solvers._lockstep(
        problem, solvers._METHODS["ncdf_sgd"], cfg, seeds, steps, x
    )
    assert 1e199 < big.trace.stat[0] < math.inf
    assert big.trace.stat[0] == stationarity_estimate(problem, points[0])
    assert clean.trace.stat[0] == stationarity_estimate(problem, points[1])
    err, _, k, trace = ended
    assert (str(err), k, len(trace)) == (
        "stationarity oracle produced non-finite entries at iteration 0", 0, 0
    )
    assert np.isnan(stationarity_estimate(problem, points[2]))


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
    assert trace.iters == list(range(0, 40, 5))
    assert len(trace.f) == len(trace.h) == len(trace.iters)


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


@pytest.mark.parametrize("lipschitz", [math.nan, -10.0])
def test_a_regularizer_lipschitz_that_would_lift_the_step_cap_is_rejected(lipschitz):
    # a nan or negative constant made the proximal shell check skip its step cap,
    # and a step 160 times the cap ran until the divergence guard
    problem = make_sparse_pca(spiked_covariance(6, [3, 2], 0), 2, 0.1)
    cfg = SolverConfig(
        beta=50.0,
        schedule=StepSchedule(kind="constant", eta0=10.0),
        feas_shell_check=True,
        safeguards=(1.0, 0.5, 1.0),
    )
    with pytest.raises(ConfigurationError, match=r"steps <= 1/\(19 \(Mt \+ Mr\)\) = 0.0621821,"):
        run_prox_subgradient(problem, cfg)
    with pytest.raises(ConfigurationError, match=f"^lipschitz must be nonnegative, got {lipschitz}"):
        replace(problem.reg, lipschitz=lipschitz)
    # an infinite constant stays allowed: its cap of 0 rejects every step
    unbounded = replace(problem, reg=replace(problem.reg, lipschitz=math.inf))
    with pytest.raises(ConfigurationError, match=r"\)\) = 0, largest scheduled step is 10$"):
        run_prox_subgradient(unbounded, cfg)


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
    assert best_grid_step(run_step_grid(problem, cfg, budget_epochs=5)) == 0.01


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
    best = best_grid_step(rows)
    assert by_eta[best] == min(by_eta.values())
    assert by_eta[best] < -10.0


def test_grid_search_all_divergent_selects_no_step():
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
    assert best_grid_step(run_step_grid(problem, cfg, budget_epochs=1)) is None


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
    cfg = SolverConfig(schedule=StepSchedule(kind="constant"), max_iters=5, trace_stride=5)
    # the sixth candidate's starting point, as run_step_grid seeds it
    seed = int(np.random.SeedSequence([cfg.seed, 1005]).generate_state(1)[0])
    x5 = default_initial_point(problem_with_oracle(None), seed)

    def oracle(x, rng):
        # only the sixth candidate's trace estimate at k = 0, at the polar factor of x5
        bad = rng is None and np.allclose(x, x5, rtol=0.0, atol=1e-12)
        return np.ones((4, 3)) if bad else 2.0 * x

    with pytest.raises(DimensionError, match="shape"):
        run_step_grid(problem_with_oracle(oracle), cfg, budget_epochs=5, algorithm=algorithm)


@pytest.mark.parametrize("algorithm", ["ncdf_sgd", "ncdf_proxsgd", "rsgd_baseline"])
def test_grid_propagates_an_oracle_divergence_error_at_one_candidates_point(algorithm):
    cfg = SolverConfig(schedule=StepSchedule(kind="constant"), max_iters=5, trace_stride=5)
    # the fourth candidate's starting point, as run_step_grid seeds it
    seed = int(np.random.SeedSequence([cfg.seed, 1003]).generate_state(1)[0])
    x3 = default_initial_point(problem_with_oracle(None), seed)

    def oracle(x, rng):
        # only the fourth candidate's trace estimate at k = 0, at the polar factor of x3
        if rng is None and np.allclose(x, x3, rtol=0.0, atol=1e-12):
            raise DivergenceError("refused the stationarity point")
        assert x.ndim == 2
        return 2.0 * x

    # the user's own error leaves the grid and the candidate's single run alike, unwrapped
    clean = run_step_grid(problem_with_oracle(lambda x, rng: 2.0 * x), cfg, 5, algorithm)
    assert all(math.isfinite(value) for _, value in clean)
    with pytest.raises(DivergenceError, match="^refused the stationarity point$") as excinfo:
        run_step_grid(problem_with_oracle(oracle), cfg, 5, algorithm)
    assert type(excinfo.value) is DivergenceError and not hasattr(excinfo.value, "result")
    eta = StepSchedule(kind="constant", eta0=grid_candidates()[3])
    with pytest.raises(DivergenceError, match="^refused the stationarity point$") as excinfo:
        RUNNERS[algorithm](problem_with_oracle(oracle), replace(cfg, seed=seed, schedule=eta))
    assert type(excinfo.value) is DivergenceError and not hasattr(excinfo.value, "result")


def test_grid_traces_only_iteration_0():
    # nothing reads the candidates' trace rows, so a stride-1 config traces iteration 0 only:
    # one stationarity call and max_iters step calls per candidate
    calls = []

    def oracle(x, rng):
        calls.append(1)
        return 2.0 * x

    cfg = SolverConfig(schedule=StepSchedule(kind="constant"), trace_stride=1)
    rows = run_step_grid(problem_with_oracle(oracle), cfg, budget_epochs=5)
    assert all(np.isfinite(value) for _, value in rows)
    assert len(calls) == len(rows) * (1 + 5)


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


# ---------------------------------------------------------------------------
# the fused loop against a step-by-step run on the public kernels


def reference_outcome(problem, cfg, algorithm, x0):
    """A run rebuilt from public kernels only, one trace row at a time.

    Returns (final x, trace rows, termination or the message of the error
    that ended the run, iterations).  Like the driver, it keeps the
    divergence guard (not the shell check) and the stopping rule.  Oracle
    noise comes from a generator built afresh for every step by
    keyed_rng, and stat from the oracle called without one.
    """
    x = x0.copy()
    rows = []
    for k in range(cfg.max_iters + 1):
        feas = feasibility_violation(x)
        if not feas <= solvers.DIVERGENCE_FEAS_LIMIT:
            guard = f"Gram residual {feas:.3g} exceeded the divergence guard at iteration {k}"
            return x, rows, guard, k
        if k == cfg.max_iters:
            return x, rows, "max_iters", k
        traced = k % cfg.trace_stride == 0
        stopping = cfg.stop_tol_stationarity > 0 and k % 10 == 0
        if traced or stopping:
            proj = project_stiefel(x).matrix
            w = problem.f_subgrad(proj)
            if not np.isfinite(w).all():
                message = f"stationarity oracle produced non-finite entries at iteration {k}"
                return x, rows, message, k
            stat = float(np.linalg.norm(project_tangent(proj, w)))
        if traced:
            mapped = apply_A(x)
            h = problem.f_value(mapped) + 0.25 * cfg.beta * feas * feas
            rows.append((k, problem.f_value(proj), h, feas, stat))
        if stopping and stat <= cfg.stop_tol_stationarity and feas <= cfg.stop_tol_feasibility:
            return x, rows, "tol_met", k
        eta = cfg.schedule.step(k)
        rng = keyed_rng(cfg.seed, k)
        if algorithm == "ncdf_sgd":
            w = problem.f_subgrad(apply_A(x), rng)
            resid = x.T @ x - np.eye(x.shape[1])
            x = x - eta * (jacobian_apply(x, w) + cfg.beta * (x @ resid))
        elif algorithm == "ncdf_proxsgd":
            x = apply_A(x) - eta * problem.phi_subgrad(x, rng)
            if problem.reg is not None:
                x = np.asarray(problem.reg.prox(x, eta), dtype=float)
        else:
            w = problem.f_subgrad(x, rng)
            x = project_stiefel(x - eta * project_tangent(x, w)).matrix


def reference_run(problem, cfg, algorithm, x0):
    """(final x, trace rows) of reference_outcome."""
    x, rows, _, _ = reference_outcome(problem, cfg, algorithm, x0)
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
    iters, f, h, feas, stat = (list(col) for col in zip(*rows))
    assert trace.iters == iters
    assert trace.f == f
    assert trace.h == h
    assert trace.feas == feas
    assert trace.stat == stat


def assert_run_matches_reference(problem, cfg, algorithm, x0):
    """The driver's outcome, final x and trace equal reference_outcome's bitwise."""
    try:
        final_x, rows, ending, iterations = reference_outcome(problem, cfg, algorithm, x0)
    except ValueError as err:  # an oracle's own error propagates from both
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            RUNNERS[algorithm](problem, cfg, x0=x0)
        return
    try:
        result = RUNNERS[algorithm](problem, cfg, x0=x0)
        ended = result.termination
    except DivergenceError as err:
        result, ended = err.result, str(err)
    assert (ended, result.iterations) == (ending, iterations)
    assert np.array_equal(result.final_x, final_x)
    trace = result.trace
    assert list(zip(trace.iters, trace.f, trace.h, trace.feas, trace.stat)) == rows


def stat_poisoned(problem, q, seed, raise_from=None):
    """problem whose exact (stationarity) oracle is nan at the point q, on 2-d calls and stacks.

    With raise_from, the step oracle of the run seeded seed also raises a
    ValueError from iteration raise_from on; see poisoned.
    """
    base = problem.phi_subgrad
    marks = {keyed_rng(seed, k).random(): k for k in range(100)}

    @functools.wraps(base)  # keeps the mark, so blocks still make stacked calls
    def oracle(x, rng):
        if rng is not None and raise_from is not None and marks[rng.random()] >= raise_from:
            raise ValueError("oracle refused a late iterate")
        w = np.array(base(x, rng), dtype=float)
        if rng is None:
            w[np.all(np.abs(x - q) <= 1e-12, axis=(-2, -1))] = np.nan
        return w

    return replace(problem, phi_subgrad=oracle)


# guard: a quadratic on which both penalty methods diverge within a few iterations;
# nan_stat: the exact oracle is nan at iterate k0's polar factor, and with
# then_raise the step oracle raises a ValueError from iteration k0 + 1 on
QUEUE_SCENARIOS = ("plain", "guard", "stop", "nan_stat", "nan_stat_then_raise")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@example(
    algorithm="ncdf_sgd", scenario="guard", block=4, blocks=3, offset=0, stride=1, k0=0
)
@example(
    algorithm="ncdf_proxsgd", scenario="stop", block=4, blocks=4, offset=-1, stride=3, k0=1
)
@example(
    algorithm="rsgd_baseline", scenario="nan_stat", block=3, blocks=3, offset=1, stride=1, k0=4
)
@example(
    algorithm="ncdf_sgd",
    scenario="nan_stat_then_raise",
    block=3,
    blocks=3,
    offset=0,
    stride=1,
    k0=1,
)
@given(
    algorithm=st.sampled_from(sorted(RUNNERS)),
    scenario=st.sampled_from(QUEUE_SCENARIOS),
    block=st.integers(1, 6),
    blocks=st.integers(1, 4),
    offset=st.sampled_from([-1, 0, 1]),
    stride=st.sampled_from([1, 3]),
    k0=st.integers(0, 30),
)
def test_queued_trace_rows_match_the_row_by_row_reference(
    algorithm, scenario, block, blocks, offset, stride, k0
):
    # max_iters just below, at or above a multiple of the block; stride 1 queues one row per k
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.09 if scenario == "guard" else 0.002),
        max_iters=max(1, blocks * block + offset),
        seed=9,
        trace_stride=stride,
        # stops the L1-PCA runs at k = 10 or 20
        stop_tol_stationarity=(5.0 + k0 % 2) if scenario == "stop" else 0.0,
        stop_tol_feasibility=0.2 if scenario == "stop" else 0.0,
    )
    if scenario == "guard":
        problem = make_quadratic_trace(np.diag(np.arange(6.0, 0.0, -1.0)), 2)
    else:
        # the raising oracle draws from the step's generator, so its base must draw nothing
        problem = l1_pca_problem(noisy=scenario in ("plain", "nan_stat"))
    x0 = default_initial_point(problem, 4)
    if scenario.startswith("nan_stat"):
        if scenario.endswith("raise"):  # row k0 opens a block, so it waits in the queue
            k0 = block * (k0 % blocks)
        k0 %= cfg.max_iters
        xk = x0 if k0 == 0 else reference_run(problem, replace(cfg, max_iters=k0), algorithm, x0)[0]
        raise_from = k0 + 1 if scenario.endswith("raise") else None
        problem = stat_poisoned(problem, project_stiefel(xk).matrix, cfg.seed, raise_from)
    entries = block * problem.n * problem.p
    with mock.patch.object(solvers, "TRACE_QUEUE_ENTRIES", entries):
        assert_run_matches_reference(problem, cfg, algorithm, x0)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_trace_rows_match_the_reference_around_the_default_block(algorithm, offset):
    problem = l1_pca_problem(noisy=True)
    block = solvers.TRACE_QUEUE_ENTRIES // (problem.n * problem.p)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="harmonic_decay", eta0=0.002),
        max_iters=block + offset,
        seed=9,
    )
    assert_run_matches_reference(problem, cfg, algorithm, default_initial_point(problem, 4))


def test_deterministic_oracle_builds_no_generator(monkeypatch):
    built = []
    real = solvers._philox

    def counting(seed):
        built.append(seed)
        return real(seed)

    monkeypatch.setattr(solvers, "_philox", counting)
    cfg = gentle_config(max_iters=30, trace_stride=1, seed=2)
    problem = l1_pca_problem(noisy=False)
    x0 = np.eye(problem.n, problem.p)
    for runner in RUNNERS.values():
        runner(problem, cfg, x0=x0)
    assert built == []
    # a noisy oracle draws at every step, all from the run's one generator
    for runner in RUNNERS.values():
        runner(l1_pca_problem(noisy=True), cfg, x0=x0)
    assert built == [cfg.seed] * len(RUNNERS)


def test_oracle_draws_continue_within_one_call():
    draws = []

    def oracle(x, rng):
        if rng is not None:
            draws.append((rng.standard_normal(x.shape), rng.standard_normal(x.shape)))
        return 2.0 * x

    cfg = gentle_config(max_iters=4, trace_stride=4, seed=3)
    run_subgradient(problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))
    # only the step's call at each k gets a generator; the trace's stationarity call at k = 0 none
    assert len(draws) == 4
    for k, (first, second) in enumerate(draws):
        assert not np.array_equal(first, second)
        rng = keyed_rng(cfg.seed, k)
        assert np.array_equal(first, rng.standard_normal((4, 2)))
        assert np.array_equal(second, rng.standard_normal((4, 2)))


def philox_at(seed, k, philox=solvers._philox):
    """A fresh _philox(seed) moved to counter (0, 0, k, 0) with nothing buffered."""
    gen = philox(seed)
    state = gen.bit_generator.state
    state["state"]["counter"] = np.array([0, 0, k, 0], dtype=np.uint64)
    gen.bit_generator.state = state
    return gen


# one draw of each kind, the int32 ones odd-sized so that a half-used 64-bit word is left over
DRAWS = {
    "normal": lambda g: g.normal(0.0, 0.05, (3, 2)),
    "standard_normal": lambda g: g.standard_normal(5),
    "random": lambda g: g.random(3),
    "integers": lambda g: g.integers(0, 1000, 3),
    "integers32": lambda g: g.integers(-5, 5, 7, dtype=np.int32),
}


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.lists(
        st.tuples(st.integers(0, 2**40), st.lists(st.sampled_from(sorted(DRAWS)), max_size=4)),
        max_size=10,
    ),
    repeat=st.booleans(),
)
def test_run_noise_hands_each_call_its_iterations_fresh_generator(seed, calls, repeat):
    # iterations in any order, repeated or drawing nothing; a call's draws continue
    # from one another; the Philox is built at the first draw and only then
    if repeat:  # the same iteration twice in a row, as a rerun of one k would
        calls = [call for call in calls for _ in range(2)]
    built, drew, philox = [], False, solvers._philox
    noise = solvers._RunNoise(seed)
    with mock.patch.object(solvers, "_philox", lambda s: built.append(s) or philox(s)):
        for k, draws in calls:
            rng, fresh = noise.at(k), philox_at(seed, k)
            for draw in draws:
                got, expected = DRAWS[draw](rng), DRAWS[draw](fresh)
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            drew = drew or bool(draws)
            assert built == ([seed] if drew else [])


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_noisy_trace_stat_is_noise_free_norm_at_polar_factor(algorithm):
    problem = l1_pca_problem(noisy=True)
    clean = make_l1_pca(gaussian_matrix(20, 6, seed=5), 2)
    cfg = gentle_config(max_iters=12, trace_stride=1, seed=8)
    x0 = default_initial_point(problem, 4)
    trace = RUNNERS[algorithm](problem, cfg, x0=x0).trace
    for k in range(cfg.max_iters):
        # iterate k is where the run cut at k iterations ends
        xk = x0 if k == 0 else RUNNERS[algorithm](problem, replace(cfg, max_iters=k), x0=x0).final_x
        q = project_stiefel(xk).matrix
        expected = float(np.linalg.norm(project_tangent(q, clean.f_subgrad(q))))
        assert trace.stat[k] == expected


def test_self_drawing_oracle_gets_no_generator_for_stationarity():
    # an oracle that draws its own noise, without attach_noise: every stationarity call
    # (trace row, stopping rule, stationarity_estimate) is exact, every step call draws
    c = np.arange(8.0).reshape(4, 2)
    calls = []

    def oracle(x, rng):
        if rng is None:
            calls.append(None)
            return c
        calls.append(rng.standard_normal(x.shape))
        return c + calls[-1]

    problem = ProblemDefinition(
        n=4, p=2, phi_value=lambda x: float(np.sum(c * x)), phi_subgrad=oracle
    )
    cfg = gentle_config(
        max_iters=20, trace_stride=20, seed=3, stop_tol_stationarity=1e-9, stop_tol_feasibility=1e-9
    )
    result = run_subgradient(problem, cfg, x0=np.eye(4, 2))
    assert result.termination == "max_iters"
    assert result.trace.stat == [float(np.linalg.norm(project_tangent(np.eye(4, 2), c)))]
    q = result.projected.matrix
    assert stationarity_estimate(problem, q) == float(np.linalg.norm(project_tangent(q, c)))
    # k = 0: the trace row and the stopping rule share one call; k = 10: the stopping rule
    exact = [0, 11, 22]
    assert [i for i, call in enumerate(calls) if call is None] == exact
    steps = [call for i, call in enumerate(calls) if i not in exact]
    assert len(steps) == cfg.max_iters
    for k, draw in enumerate(steps):
        assert np.array_equal(draw, keyed_rng(cfg.seed, k).standard_normal((4, 2)))


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_non_finite_stationarity_oracle_ends_the_run_at_its_traced_iteration(algorithm):
    exact_calls = []

    def oracle(x, rng):
        if rng is None:
            exact_calls.append(1)
            if len(exact_calls) == 3:
                return np.full(x.shape, np.nan)
        return 2.0 * x

    cfg = SolverConfig(max_iters=12, trace_stride=3, seed=1)
    message = "^stationarity oracle produced non-finite entries at iteration 6$"
    with pytest.raises(DivergenceError, match=message) as excinfo:
        RUNNERS[algorithm](problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))
    partial = excinfo.value.result
    assert partial.iterations == 6
    assert partial.trace.iters == [0, 3]


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
    cfg = SolverConfig(max_iters=10, trace_stride=10, seed=1)
    # one draw from the step's generator tells the oracle its iteration; see poisoned
    marks = {keyed_rng(cfg.seed, k).random(): k for k in range(cfg.max_iters)}

    def oracle(x, rng):
        # exact (trace) calls stay finite; the steps from iteration 2 on are nan
        late = rng is not None and marks[rng.random()] >= 2
        return np.full(x.shape, np.nan) if late else 2.0 * x

    with pytest.raises(DivergenceError, match="non-finite") as excinfo:
        RUNNERS[algorithm](problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))
    partial = excinfo.value.result
    assert partial.iterations == 2
    assert len(partial.trace) == 1


def poisoned(problem, seed, k, bad):
    """problem whose oracle returns bad in the step of iteration k of the run seeded seed."""
    return poisoned_runs(problem, [seed], k, bad)


def poisoned_runs(problem, seeds, k, bad):
    """problem whose oracle returns bad in the step of iteration k of each run seeded in seeds.

    The solver positions the step oracle's generator at (seed, iteration), so
    one draw from it tells the oracle which iteration it is serving.
    Stationarity calls get no generator and pass through to the clean oracle.
    """
    marks = {keyed_rng(seed, k).random() for seed in seeds}
    base = problem.phi_subgrad

    def oracle(x, rng):
        if rng is not None and rng.random() in marks:
            return np.full(x.shape, bad)
        return base(x, rng)

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
    # a traced iteration k writes its row before the poisoned step
    rows = sum(1 for i in clean.trace.iters if i <= k)
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
def test_other_step_oracle_error_propagates_as_raised_after_the_queued_rows(algorithm):
    # the trace rows of iterations 0 and 2 are queued, and clean, when step 3's oracle raises
    cfg = SolverConfig(
        schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=10, trace_stride=2, seed=5
    )
    mark = keyed_rng(cfg.seed, 3).random()
    raised = []

    def oracle(x, rng):
        if rng is not None and rng.random() == mark:
            raised.append(KeyError("step 3"))
            raise raised[-1]
        return 2.0 * x

    with pytest.raises(KeyError) as excinfo:
        RUNNERS[algorithm](problem_with_oracle(oracle), cfg, x0=np.eye(4, 2))
    assert excinfo.value is raised[0]
    assert excinfo.value.__context__ is None


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_short_custom_schedule_raises_without_partial_run(algorithm):
    cfg = SolverConfig(
        schedule=StepSchedule(kind="custom", values=(0.01,) * 4), max_iters=10, trace_stride=3
    )
    message = "custom schedule has 4 values, needed step 4"
    calls = []
    problem = small_sparse_pca()

    def oracle(x, rng):
        calls.append(1)
        return problem.phi_subgrad(x, rng)

    with pytest.raises(ConfigurationError, match=message) as excinfo:
        RUNNERS[algorithm](replace(problem, phi_subgrad=oracle), cfg)
    assert not hasattr(excinfo.value, "result")
    # the schedule is resolved before the first iteration
    assert calls == []


@pytest.mark.parametrize("algorithm", ["ncdf_sgd", "ncdf_proxsgd"])
def test_shell_check_reads_only_the_steps_within_max_iters(algorithm):
    values = (1e-6,) * 5 + (1e6,)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="custom", values=values),
        max_iters=5,
        feas_shell_check=True,
        safeguards=(1e-3, 1e-3, 1e-3),
        trace_stride=5,
    )
    # the huge last value lies past max_iters, so it is never checked
    assert RUNNERS[algorithm](small_sparse_pca(), cfg).termination == "max_iters"
    with pytest.raises(ConfigurationError, match="largest scheduled step is 1e\\+06"):
        RUNNERS[algorithm](small_sparse_pca(), replace(cfg, max_iters=6))


def test_proximal_run_needs_a_regularizer_with_a_prox():
    problem = small_sparse_pca()
    problem = replace(problem, reg=replace(problem.reg, prox=None))
    with pytest.raises(ConfigurationError, match="regularizer with a prox"):
        run_prox_subgradient(problem, gentle_config(max_iters=5))


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
        return [values[trace.iters.index(k)] for k in shared]

    for column in ("f", "h", "feas", "stat"):
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


# ---------------------------------------------------------------------------
# oracles called once on the whole stack

# (data rows, n, p): the 6 x 2 circle with p = 1, 30 x 12 L1-PCA with p = 3, 100 x 5 sparse PCA
STACK_SHAPES = [(6, 2, 1), (30, 12, 3), (100, 100, 5)]


@pytest.mark.parametrize("batch", [1, 2, 10, 64])
@pytest.mark.parametrize("rows, n, p", STACK_SHAPES)
def test_stacked_builtin_oracles_match_their_per_row_calls_bitwise(rows, n, p, batch):
    data = gaussian_matrix(rows, n, seed=rows)
    reg = l1_regularizer(0.1, n * p)
    mlp = make_orthogonal_mlp(synthetic_mlp_dataset(rows, (n, p, 2), rows), (n, p, 2))
    callables = [
        make_quadratic_trace(data.T @ data / rows, p).phi_subgrad,
        make_l1_pca(data, p).phi_subgrad,
        lambda x, rng: reg.subgrad(x),
        mlp.phi_subgrad,
    ]
    x = np.random.default_rng(batch).standard_normal((batch, n, p))
    for fn in callables:
        stacked = fn(x, (solvers._RunNoise(s).at(5) for s in range(batch)))
        assert np.array_equal(stacked, np.stack([fn(x[i], None) for i in range(batch)]))
    # each row of a noisy stack draws what that row's run draws alone at iteration 5
    model = NoiseModel(sigma=0.05, bound=0.1)
    noisy = attach_noise(make_l1_pca(data, p), model)
    seeds = [11 * s + 3 for s in range(batch)]
    # noise on noise: both wrappers read each row's generator, inner draws first
    for fn in (noisy.phi_subgrad, attach_noise(noisy, model).phi_subgrad):
        stacked = fn(x, (solvers._RunNoise(s).at(5) for s in seeds))
        per_row = [fn(x[i], solvers._RunNoise(s).at(5)) for i, s in enumerate(seeds)]
        assert np.array_equal(stacked, np.stack(per_row))
        assert not np.array_equal(stacked, fn(x, None))
    # the marked value callables map the stack to one value per slice
    spca = make_sparse_pca(data.T @ data / rows, p, 0.1)
    for fn in (make_l1_pca(data, p).phi_value, spca.phi_value, spca.reg.value, mlp.phi_value):
        assert fn._stacks
        assert np.array_equal(fn(x), [fn(x[i]) for i in range(batch)])
    assert np.array_equal(spca.f_values(x), [spca.f_value(x[i]) for i in range(batch)])


def test_f_values_calls_unmarked_value_callables_per_slice():
    seen = []

    def phi_value(x):
        seen.append(np.ndim(x))
        return float(np.sum(x * x))

    problem = replace(small_sparse_pca(), phi_value=phi_value)
    x = np.random.default_rng(0).standard_normal((5, 6, 2))
    assert np.array_equal(problem.f_values(x), [problem.f_value(x[i]) for i in range(5)])
    assert set(seen) == {2}


@pytest.mark.parametrize(
    "conf",
    [
        {"kind": "quadratic_trace", "n": 6, "p": 2, "seed": 1},
        {"kind": "sparse_pca", "n": 8, "p": 3, "gamma": 0.1, "seed": 2},
        {"kind": "l1_pca", "rows": 12, "n": 5, "p": 2, "seed": 3},
        {"kind": "l1_pca", "rows": 12, "n": 5, "p": 2, "noise": {"sigma": 0.05, "bound": 0.1}},
        {"kind": "orthogonal_mlp", "widths": [6, 3, 2], "n_samples": 20, "seed": 4},
    ],
    ids=["quadratic_trace", "sparse_pca", "l1_pca", "noisy_l1_pca", "orthogonal_mlp"],
)
def test_f_value_matches_the_frozen_formula_bitwise(conf):
    # f_value is float(f_values(x)); before, it summed phi and the regularizer as floats
    problem = cli.build_problem(conf)
    user = replace(problem, phi_value=lambda x: float(np.sum(np.sin(x))))  # a 2-d user callable
    rng = np.random.default_rng(9)
    for prob in (problem, user):
        for scale in (1e-3, 1.0, 1e3):
            x = scale * rng.standard_normal((prob.n, prob.p))
            expected = float(prob.phi_value(x))
            if prob.reg is not None:
                expected += float(prob.reg.value(x))
            value = prob.f_value(x)
            assert type(value) is float and repr(value) == repr(expected)


def counted(problem, calls):
    """problem whose phi_subgrad appends each call's iterate ndim to calls; wraps keeps its mark."""
    base = problem.phi_subgrad

    @functools.wraps(base)
    def oracle(x, rng):
        calls.append(np.ndim(x))
        return base(x, rng)

    return replace(problem, phi_subgrad=oracle)


def stack_grid_config():
    return SolverConfig(beta=1.0, schedule=StepSchedule(kind="constant"), trace_stride=1, seed=5)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_builtin_grid_makes_one_oracle_call_per_iteration(algorithm, noisy):
    problem = small_sparse_pca()
    if noisy:
        problem = attach_noise(problem, NoiseModel(sigma=0.05, bound=0.1))
    calls = []
    rows = run_step_grid(counted(problem, calls), stack_grid_config(), 20, algorithm)
    assert sum(np.isfinite(value) for _, value in rows) >= 2  # the stack never shrinks to one
    # one stacked call per iteration, plus one for the candidates' trace rows at iteration 0
    assert calls == [3] * 21
    assert rows == run_step_grid(problem, stack_grid_config(), 20, algorithm)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_unmarked_regularizer_subgrad_keeps_per_row_calls_unless_proximal(algorithm):
    # the adapter calls the 2-d subgrad once per row; the oracle still gets the whole stack
    problem = small_sparse_pca()
    subgrad, seen = problem.reg.subgrad, []

    def user_subgrad(x):
        seen.append(np.ndim(x))
        return subgrad(x)

    problem = replace(problem, reg=replace(problem.reg, subgrad=user_subgrad))
    calls = []
    rows = run_step_grid(counted(problem, calls), stack_grid_config(), 20, algorithm)
    assert calls == [3] * 21
    if algorithm == "ncdf_proxsgd":  # steps along phi alone
        assert set(seen) == {2} and len(seen) == 10  # the trace rows at iteration 0
    else:
        assert set(seen) == {2} and len(seen) > 10
    assert rows == run_step_grid(small_sparse_pca(), stack_grid_config(), 20, algorithm)


def refusing(problem, refusals, nan_at=None):
    """problem with a 2-d user oracle raising DivergenceError("refused {seed} at {k}") in
    the step of iteration k of the run seeded seed, for each (seed, k) in refusals.

    With nan_at, its exact (stationarity) output is nan at that point.
    """
    marks = {keyed_rng(s, k).random(): f"refused {s} at {k}" for s, k in refusals}
    base = problem.phi_subgrad

    def oracle(x, rng):
        assert x.ndim == 2
        message = None if rng is None else marks.get(rng.random())
        if message is not None:
            raise DivergenceError(message)
        w = base(x, None)  # the base draws nothing
        if rng is None and nan_at is not None and np.allclose(x, nan_at, rtol=0.0, atol=1e-12):
            w = np.full(x.shape, np.nan)
        return w

    return replace(problem, phi_subgrad=oracle)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_replaced_per_row_oracle_runs_a_full_grid(algorithm):
    problem = attach_noise(small_sparse_pca(), NoiseModel(sigma=0.05, bound=0.1))
    base = problem.phi_subgrad

    def per_row(x, rng):
        assert x.ndim == 2
        return base(x, rng)

    cfg = stack_grid_config()
    rows = run_step_grid(replace(problem, phi_subgrad=per_row), cfg, 20, algorithm)
    assert rows == run_step_grid(problem, cfg, 20, algorithm)
    # a 2-d oracle that refuses to serve candidate 1's step at k = 1, where its clean
    # run goes on, ends the whole grid with the refusal as raised
    seed = int(np.random.SeedSequence([cfg.seed, 1001]).generate_state(1)[0])
    assert run_step_grid(small_sparse_pca(), cfg, 20, algorithm)[1][1] < float("inf")
    with pytest.raises(DivergenceError, match=f"^refused {seed} at 1$") as excinfo:
        run_step_grid(refusing(small_sparse_pca(), [(seed, 1)]), cfg, 20, algorithm)
    assert type(excinfo.value) is DivergenceError


# ---------------------------------------------------------------------------
# the driver against a loop frozen on the earlier kernel formulas: a
# symmetrized Gram matrix, the map (x @ M) / 8 with M = 15 I - 10 G + 3 G^2,
# the quadratic oracle -2.0 * (a @ x) and a finiteness check after every
# step.  The driver stores M / 8, holds -2A and leaves a non-finite step to
# the next guard; each of those is exact only if the BLAS at hand computes
# scaled products and X'X as assumed, and a failure here names the case.


def frozen_outcome(oracle, value, prox, cfg, algorithm, x0, eta0=None, shell=False):
    """(final x, trace rows, ending) of one run on the frozen formulas.

    oracle(x, rng) is the step's subgradient, value(x) f and prox(y, eta)
    the regularizer's proximal map, whose regularizer is l1 with weight
    prox.gamma, or None.  The ending is "max_iters", "guard" or
    "non-finite"; with shell, every residual must stay inside the shell.
    """
    x = x0.copy()
    p = x.shape[1]
    eye = np.eye(p)
    rows = []
    schedule = cfg.schedule if eta0 is None else replace(cfg.schedule, eta0=eta0)

    def state(x):
        g = x.T @ x
        g = 0.5 * (g + g.T)
        return g - eye, 15.0 * eye + -10.0 * g + 3.0 * (g @ g)

    def tangent(q, w):
        return w - q @ (0.5 * (q.T @ w + w.T @ q))

    def polar(y):
        u, _, vt = np.linalg.svd(y, full_matrices=False)
        return u @ vt

    for k in range(cfg.max_iters + 1):
        resid, m = state(x)
        feas = float(np.linalg.norm(resid))
        if not feas <= solvers.DIVERGENCE_FEAS_LIMIT:
            return x, rows, "guard"
        assert not shell or feas <= core.SHELL_RADIUS
        if k == cfg.max_iters:
            return x, rows, "max_iters"
        mapped = x @ m / 8.0
        if k % cfg.trace_stride == 0:
            q = polar(x)
            w = oracle(q, None) if prox is None else oracle(q, None) + prox.gamma * np.sign(q)
            stat = float(np.linalg.norm(tangent(q, w)))
            h = value(mapped) + 0.25 * cfg.beta * feas * feas
            rows.append((k, value(q), h, feas, stat))
        eta = schedule.step(k)
        rng = keyed_rng(cfg.seed, k)
        if algorithm == "ncdf_sgd":
            w = oracle(mapped, rng)
            s = 0.5 * (x.T @ w + w.T @ x)
            mix = s @ resid
            jac = w @ m / 8.0 - x @ s + 1.5 * (x @ (0.5 * (mix + mix.T)))
            y = x - eta * (jac + cfg.beta * (x @ resid))
        elif algorithm == "ncdf_proxsgd":
            y = mapped - eta * oracle(x, rng)
            y = y if prox is None else prox(y, eta)
        else:
            y = x - eta * tangent(x, oracle(x, rng))
        if not np.isfinite(y).all():
            return x, rows, "non-finite"
        x = y if algorithm != "rsgd_baseline" else polar(y)


def frozen_sparse_pca(cov, gamma):
    """(oracle of the smooth part, f, prox) of make_sparse_pca(cov, p, gamma), frozen."""
    a = 0.5 * (cov + cov.T)

    def value(x):
        return float(-np.sum(x * (a @ x))) + float(gamma * np.sum(np.abs(x)))

    def prox(y, eta):
        return np.sign(y) * np.maximum(np.abs(y) - eta * gamma, 0.0)

    prox.gamma = gamma
    return (lambda x, rng: -2.0 * (a @ x)), value, prox


def frozen_l1_pca(data, noise=None):
    """(oracle, f) of make_l1_pca(data, p), with attach_noise(noise) if given, frozen."""

    def oracle(x, rng):
        w = -data.T @ np.sign(data @ x)
        return w if rng is None or noise is None else w + noise.draw(rng, w.shape)

    return oracle, lambda x: float(-np.sum(np.abs(data @ x)))


def assert_frozen(result, frozen):
    final_x, rows, ending = frozen
    assert ending == "max_iters"
    # bytes, not np.array_equal, which takes -0.0 for +0.0: the prox run ends on signed zeros
    assert result.final_x.shape == final_x.shape
    assert result.final_x.tobytes() == final_x.tobytes()
    trace = result.trace
    assert list(zip(trace.iters, trace.f, trace.h, trace.feas, trace.stat)) == rows


def test_sparse_pca_prox_run_matches_the_frozen_formulas_bitwise():
    cov = spiked_covariance(100, [10.0, 8.0, 6.0, 4.0, 2.0], seed=3)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=5e-3),
        max_iters=300,
        seed=2,
        trace_stride=300,
    )
    problem = make_sparse_pca(cov, 5, 0.1)
    oracle, value, prox = frozen_sparse_pca(cov, 0.1)
    x0 = default_initial_point(problem, cfg.seed)
    frozen = frozen_outcome(oracle, value, prox, cfg, "ncdf_proxsgd", x0)
    assert_frozen(run_prox_subgradient(problem, cfg), frozen)


def test_noisy_l1_pca_sgd_run_matches_the_frozen_formulas_bitwise():
    data = gaussian_matrix(30, 12, seed=4)
    noise = NoiseModel(sigma=0.05, bound=0.1)
    problem = attach_noise(make_l1_pca(data, 3), noise)
    m1, mt, mh = estimate_constants(problem, samples=50)
    beta = max(16.0 * m1, 60.0 * mt, 16.0 * mh)
    cfg = SolverConfig(
        beta=beta,
        schedule=StepSchedule(kind="constant", eta0=1.0 / (2.0 * beta)),
        max_iters=200,
        feas_shell_check=True,
        safeguards=(m1, mt, mh),
        seed=7,
        trace_stride=1,
    )
    oracle, value = frozen_l1_pca(data, noise)
    x0 = default_initial_point(problem, cfg.seed)
    frozen = frozen_outcome(oracle, value, None, cfg, "ncdf_sgd", x0, shell=True)
    assert_frozen(run_subgradient(problem, cfg), frozen)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_circle_grid_matches_the_frozen_formulas_bitwise(algorithm):
    # criterion 10's 2x1 circle, whose larger grid steps diverge
    data = gaussian_matrix(6, 2, seed=11)
    cfg = SolverConfig(
        beta=0.1, schedule=StepSchedule(kind="harmonic_decay", eta0=0.03), seed=5
    )
    budget = 250
    oracle, value = frozen_l1_pca(data)
    expected, endings = [], set()
    for i, eta in enumerate(grid_candidates()):
        seed = int(np.random.SeedSequence([cfg.seed, 1000 + i]).generate_state(1)[0])
        run_cfg = replace(cfg, max_iters=budget, trace_stride=budget, seed=seed)
        x0 = default_initial_point(make_l1_pca(data, 1), seed)
        x, _, ending = frozen_outcome(oracle, value, None, run_cfg, algorithm, x0, eta0=eta)
        endings.add(ending)
        u, _, vt = np.linalg.svd(x, full_matrices=False)
        expected.append((eta, value(u @ vt) if ending == "max_iters" else float("inf")))
    assert "max_iters" in endings
    assert run_step_grid(make_l1_pca(data, 1), cfg, budget, algorithm) == expected


# ---------------------------------------------------------------------------
# a non-finite step is caught by the next iteration's guard (the baseline's
# retraction leaves a non-finite slice as it is) and still reported as the
# step's own error, with the iterate it started from


def iterate_at(problem, cfg, algorithm, k):
    """x_k of the clean run: x0 for k = 0, else the final iterate after k steps."""
    if k == 0:
        return default_initial_point(problem, cfg.seed)
    return RUNNERS[algorithm](problem, replace(cfg, max_iters=k)).final_x


def trace_rows(trace):
    return list(zip(trace.iters, trace.f, trace.h, trace.feas, trace.stat))


LABELS = {"ncdf_sgd": "subgradient", "ncdf_proxsgd": "proximal", "rsgd_baseline": "baseline"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [0, 29])  # the first step and the last one, max_iters - 1
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_overflowing_step_ends_the_run_at_its_own_iteration(algorithm, k):
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant", eta0=0.01),
        max_iters=30,
        seed=4,
        trace_stride=1,
    )
    message = f"^{LABELS[algorithm]} step produced non-finite entries at iteration {k}$"
    with pytest.raises(DivergenceError, match=message) as excinfo:
        RUNNERS[algorithm](poisoned(problem, cfg.seed, k, np.inf), cfg)
    partial = excinfo.value.result
    assert (partial.termination, partial.iterations) == ("divergence_guard", k)
    x_k = iterate_at(problem, cfg, algorithm, k)
    assert np.array_equal(partial.final_x, x_k)
    assert np.array_equal(partial.projected.matrix, project_stiefel(x_k).matrix)
    # rows 0..k: iteration k is traced before its step
    through_k = RUNNERS[algorithm](problem, replace(cfg, max_iters=k + 1))
    assert trace_rows(partial.trace) == trace_rows(through_k.trace)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_overflowing_step_of_one_stacked_row_leaves_the_others_running(algorithm):
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0, schedule=StepSchedule(kind="constant"), max_iters=20, trace_stride=3
    )
    seeds, k = [3, 8, 21], 7
    steps = [[0.01] * cfg.max_iters, [0.02] * cfg.max_iters, [0.03] * cfg.max_iters]
    x = np.stack([default_initial_point(problem, seed) for seed in seeds])
    method = solvers._METHODS[algorithm]
    clean = solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
    hit = solvers._lockstep(
        poisoned(problem, seeds[1], k, np.inf), method, cfg, seeds, steps, x.copy()
    )
    for row in (0, 2):
        assert clean[row].termination == hit[row].termination == "max_iters"
        assert np.array_equal(hit[row].final_x, clean[row].final_x)
        assert trace_rows(hit[row].trace) == trace_rows(clean[row].trace)
    err, x_k, at, trace = hit[1]
    assert str(err) == f"{LABELS[algorithm]} step produced non-finite entries at iteration {k}"
    assert at == k
    row_cfg = replace(cfg, seed=seeds[1], schedule=StepSchedule(kind="constant", eta0=0.02))
    assert np.array_equal(x_k, iterate_at(problem, row_cfg, algorithm, k))
    assert trace_rows(trace) == [r for r in trace_rows(clean[1].trace) if r[0] <= k]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "victims, k",
    [
        ((0, 1, 2), 0),  # every row at once, at the first step
        ((0, 1, 2), 7),
        ((0, 1, 2), 19),  # every row at once, at the last step, max_iters - 1
        ((1,), 19),
        ((0, 2), 19),
    ],
)
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_rows_stepping_non_finite_together_each_end_at_that_step(algorithm, victims, k):
    # the baseline's retraction leaves a non-finite row for the next guard, like the
    # other steps; with every row gone, no iteration follows
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0, schedule=StepSchedule(kind="constant"), max_iters=20, trace_stride=3
    )
    seeds, steps, x = three_rows(problem, cfg)
    method = solvers._METHODS[algorithm]
    clean = solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
    hit_problem = poisoned_runs(problem, [seeds[i] for i in victims], k, np.inf)
    hit = solvers._lockstep(hit_problem, method, cfg, seeds, steps, x.copy())
    for row, seed in enumerate(seeds):
        if row not in victims:
            assert hit[row].termination == clean[row].termination == "max_iters"
            assert np.array_equal(hit[row].final_x, clean[row].final_x)
            assert trace_rows(hit[row].trace) == trace_rows(clean[row].trace)
            continue
        err, x_k, at, trace = hit[row]
        assert type(err) is DivergenceError
        assert str(err) == f"{LABELS[algorithm]} step produced non-finite entries at iteration {k}"
        assert at == k
        eta = StepSchedule(kind="constant", eta0=steps[row][0])
        row_cfg = replace(cfg, seed=seed, schedule=eta)
        assert np.array_equal(x_k, iterate_at(problem, row_cfg, algorithm, k))
        assert trace_rows(trace) == [r for r in trace_rows(clean[row].trace) if r[0] <= k]


# ---------------------------------------------------------------------------
# an oracle's DivergenceError of one slice propagates from the whole stack


def three_rows(problem, cfg, etas=(0.01, 0.02, 0.03)):
    seeds = [3, 8, 21]
    steps = [[eta] * cfg.max_iters for eta in etas]
    x = np.stack([default_initial_point(problem, seed) for seed in seeds])
    return seeds, steps, x


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_an_oracle_divergence_error_of_one_slice_propagates_from_the_stack(algorithm):
    problem = small_sparse_pca()
    cfg = SolverConfig(
        beta=1.0, schedule=StepSchedule(kind="constant"), max_iters=20, trace_stride=3
    )
    seeds, steps, x = three_rows(problem, cfg)
    method = solvers._METHODS[algorithm]
    clean = solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
    assert [outcome.termination for outcome in clean] == ["max_iters"] * 3
    refused = refusing(problem, [(8, 4), (21, 7)])
    # the first refusal, row 1's at k = 4, leaves the stack as the user raised it
    with pytest.raises(DivergenceError, match="^refused 8 at 4$") as excinfo:
        solvers._lockstep(refused, method, cfg, seeds, steps, x.copy())
    assert type(excinfo.value) is DivergenceError
    # and so does row 2's later one from its single run, with no partial run attached
    eta = StepSchedule(kind="constant", eta0=steps[2][0])
    with pytest.raises(DivergenceError, match="^refused 21 at 7$") as excinfo:
        RUNNERS[algorithm](refused, replace(cfg, seed=21, schedule=eta))
    assert type(excinfo.value) is DivergenceError and not hasattr(excinfo.value, "result")


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_stopping_rule_and_queued_rows_end_runs_before_the_oracle_error(algorithm):
    # row 0 meets the stopping rule at k = 0, where its step oracle would refuse;
    # row 1, run alone, has a nan stationarity at iterate 5, where its step oracle
    # refuses too; row 2 is refused at k = 5
    problem = make_quadratic_trace(np.diag(np.arange(6.0, 0.0, -1.0)), 2)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant"),
        max_iters=20,
        trace_stride=1,
        stop_tol_stationarity=3.0,
        stop_tol_feasibility=1e-2,
    )
    seeds, steps, x = three_rows(problem, cfg, (0.01, 0.01, 0.005))
    method = solvers._METHODS[algorithm]
    clean = solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
    assert (clean[0].termination, clean[0].iterations) == ("tol_met", 0)
    assert clean[1].termination == clean[2].termination == "max_iters"
    row_cfg = SolverConfig(beta=1.0, schedule=StepSchedule(kind="constant", eta0=0.01), seed=8)
    x5 = iterate_at(problem, row_cfg, algorithm, 5)
    # the stopping rule drops row 0 before its step's oracle call, so the stack is clean
    hit = solvers._lockstep(refusing(problem, [(3, 0)]), method, cfg, seeds, steps, x.copy())
    for row in range(3):
        assert outcome_record(hit[row])[:2] == outcome_record(clean[row])[:2]
        assert np.array_equal(hit[row].final_x, clean[row].final_x)
        assert trace_rows(hit[row].trace) == trace_rows(clean[row].trace)
    # row 1's single run ends at its queued nan stationarity, not at its oracle's error
    poisoned = refusing(problem, [(8, 5)], nan_at=project_stiefel(x5).matrix)
    (outcome,) = solvers._lockstep(poisoned, method, cfg, [8], steps[1:2], x[1:2].copy())
    err, _, at, trace = outcome
    message = "stationarity oracle produced non-finite entries at iteration 5"
    assert (type(err), str(err), at) == (DivergenceError, message, 5)
    assert trace_rows(trace) == trace_rows(clean[1].trace)[:5]
    # row 2's refusal, which no earlier ending precedes, leaves the stack
    with pytest.raises(DivergenceError, match="^refused 21 at 5$"):
        solvers._lockstep(refusing(problem, [(3, 0), (21, 5)]), method, cfg, seeds, steps, x.copy())


# how runs of a stack end mid-block: plain (none does), guard (a large step
# diverges), stop (the stopping rule, at k = 10 or 20), nan_stat (the exact oracle
# is nan at the victim's iterate k0); or how the stack fails: refused_stat and
# refused_step (a 2-d user oracle raises DivergenceError for the victim's slice of
# the stationarity call at iterate k0, or of the step's call at iteration k0)
LOCKSTEP_SCENARIOS = ("plain", "guard", "stop", "nan_stat", "refused_stat", "refused_step")


def outcome_record(outcome):
    """(ending, k, final x, trace rows without seconds) of one _lockstep outcome."""
    if isinstance(outcome, solvers.SolverResult):
        return outcome.termination, outcome.iterations, outcome.final_x, trace_rows(outcome.trace)
    err, x, k, trace = outcome
    return f"{type(err).__name__}: {err}", k, x, trace_rows(trace)


def refused_at(problem, q):
    """problem with a 2-d user oracle raising DivergenceError on its exact call at the point q."""
    base = problem.phi_subgrad

    def oracle(x, rng):
        assert x.ndim == 2
        if rng is None and np.allclose(x, q, rtol=0.0, atol=1e-12):
            raise DivergenceError("refused the stationarity point")
        return base(x, rng)

    return replace(problem, phi_subgrad=oracle)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@example(algorithm="ncdf_sgd", scenario="guard", seeds=[1, 2, 3], etas=[0.002, 0.3, 0.09],
         block=4, max_iters=12, victim=0, k0=0, traced_shape=False)
@example(algorithm="ncdf_proxsgd", scenario="nan_stat", seeds=[4, 5], etas=[0.002, 0.004],
         block=3, max_iters=9, victim=1, k0=4, traced_shape=False)
@example(algorithm="rsgd_baseline", scenario="refused_stat", seeds=[6, 7, 8, 9],
         etas=[0.001] * 4, block=6, max_iters=8, victim=2, k0=3, traced_shape=False)
@example(algorithm="ncdf_sgd", scenario="refused_step", seeds=[10, 11, 12, 13, 14],
         etas=[0.002] * 5, block=2, max_iters=7, victim=0, k0=5, traced_shape=False)
@example(algorithm="ncdf_proxsgd", scenario="stop", seeds=[15, 16], etas=[0.001, 0.004],
         block=5, max_iters=24, victim=0, k0=0, traced_shape=False)
@example(algorithm="ncdf_sgd", scenario="guard", seeds=[17, 18, 19, 20],
         etas=[0.004, 0.09, 0.002, 0.3], block=3, max_iters=6, victim=0, k0=0, traced_shape=True)
@example(algorithm="ncdf_sgd", scenario="stop", seeds=[21, 22, 23], etas=[0.004, 0.001, 0.002],
         block=4, max_iters=24, victim=0, k0=0, traced_shape=True)
@example(algorithm="ncdf_proxsgd", scenario="nan_stat", seeds=[24, 25, 26],
         etas=[0.002, 0.004, 0.001], block=5, max_iters=11, victim=1, k0=6, traced_shape=True)
@example(algorithm="ncdf_sgd", scenario="nan_stat", seeds=[4, 5], etas=[0.002, 0.004],
         block=3, max_iters=9, victim=1, k0=3, traced_shape=False)
@given(
    algorithm=st.sampled_from(sorted(RUNNERS)),
    scenario=st.sampled_from(LOCKSTEP_SCENARIOS),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=5, unique=True),
    etas=st.lists(st.sampled_from([0.001, 0.002, 0.004, 0.09, 0.3]), min_size=5, max_size=5),
    block=st.integers(1, 6),
    max_iters=st.integers(1, 24),
    victim=st.integers(0, 4),
    k0=st.integers(0, 23),
    traced_shape=st.booleans(),
)
def test_stride_1_stacks_of_seeds_match_each_seeds_single_run(
    algorithm, scenario, seeds, etas, block, max_iters, victim, k0, traced_shape
):
    # blocks of 1-6 rows hold rows of several runs and several iterations; with
    # traced_shape, the runs are the l1pca_traced benchmark's noisy 30x12 L1-PCA with
    # p = 3, whose NCDF steps of 0.09 and 0.3 diverge within two iterations, and a
    # run's rows leave mid-block while the others keep drawing noise
    victim, k0 = victim % len(seeds), k0 % max_iters
    stop = scenario == "stop"
    tol_stat, tol_feas = (25.0, 0.3) if traced_shape else (5.0, 0.2)
    cfg = SolverConfig(
        beta=1.0,
        schedule=StepSchedule(kind="constant"),
        max_iters=max_iters,
        trace_stride=1,
        stop_tol_stationarity=tol_stat if stop else 0.0,  # stops the L1-PCA runs at k = 10 or 20
        stop_tol_feasibility=tol_feas if stop else 0.0,
    )
    if scenario != "guard":  # small steps, which the guard never ends
        etas = [min(eta, 0.004) for eta in etas]
    if traced_shape:
        problem = make_l1_pca(gaussian_matrix(30, 12, seed=0), 3)
        if scenario != "refused_step":
            problem = attach_noise(problem, NoiseModel(sigma=0.05, bound=0.1))
    elif scenario == "guard":  # some of the steps diverge on this quadratic
        problem = make_quadratic_trace(np.diag(np.arange(6.0, 0.0, -1.0)), 2)
    else:
        problem = l1_pca_problem(noisy=scenario != "refused_step")
    steps = [[eta] * max_iters for eta in etas[: len(seeds)]]
    x = np.stack([default_initial_point(problem, seed) for seed in seeds])
    method = solvers._METHODS[algorithm]

    def single(problem, i, cfg=cfg):
        row = [steps[i][: cfg.max_iters]]
        return solvers._lockstep(problem, method, cfg, seeds[i : i + 1], row, x[i : i + 1].copy())[0]

    if scenario in ("nan_stat", "refused_stat"):
        xk = x[victim] if k0 == 0 else single(problem, victim, replace(cfg, max_iters=k0)).final_x
        q = project_stiefel(xk).matrix
        problem = stat_poisoned(problem, q, 0) if scenario == "nan_stat" else refused_at(problem, q)
    elif scenario == "refused_step":
        problem = refusing(problem, [(seeds[victim], k0)])
    if scenario.startswith("refused"):  # the stack raises the victim's single-run error
        with pytest.raises(DivergenceError) as alone:
            single(problem, victim)
        with mock.patch.object(solvers, "TRACE_QUEUE_ENTRIES", block * problem.n * problem.p):
            with pytest.raises(DivergenceError) as excinfo:
                solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
        assert type(excinfo.value) is type(alone.value) is DivergenceError
        assert str(excinfo.value) == str(alone.value)
        return
    with mock.patch.object(solvers, "TRACE_QUEUE_ENTRIES", block * problem.n * problem.p):
        stacked = solvers._lockstep(problem, method, cfg, seeds, steps, x.copy())
    if scenario == "nan_stat":  # the victim ends at k0, the others do not
        assert [outcome_record(o)[1] == k0 and isinstance(o, tuple) for o in stacked] == [
            i == victim for i in range(len(seeds))
        ]
    for i, outcome in enumerate(stacked):
        ending, k, final_x, rows = outcome_record(outcome)
        expected = outcome_record(single(problem, i))
        assert (ending, k, rows) == (expected[0], expected[1], expected[3])
        assert np.array_equal(final_x, expected[2])


# ---------------------------------------------------------------------------
# the grid's stacked start, projection and scoring, and the map polynomial
# formed only where it is read


def circle_problem_and_config():
    """Criterion 10's 2x1 circle, whose larger grid steps diverge, as the benchmark runs it."""
    cfg = SolverConfig(
        beta=0.1, schedule=StepSchedule(kind="harmonic_decay", eta0=0.03), seed=5,
        max_iters=250, trace_stride=250,
    )
    return make_l1_pca(gaussian_matrix(6, 2, seed=11), 1), cfg


@pytest.mark.parametrize("n, p", [(2, 1), (6, 1), (6, 2), (3, 3), (12, 3), (5, 5)])
def test_stacked_starting_points_are_each_seeds_default_initial_point_bytewise(n, p):
    problem = make_l1_pca(gaussian_matrix(n + 3, n, seed=1), p)
    seeds = [0, 1, 7, 2**32 - 1, np.uint32(4_000_000_000), 10**30]
    stack = solvers._initial_points(problem, seeds)
    assert stack.shape == (len(seeds), n, p)
    for seed, x in zip(seeds, stack):
        # the construction default_initial_point had before it became a stack of one
        frozen = random_stiefel(np.random.default_rng(np.random.SeedSequence([int(seed), 1])), n, p)
        single = default_initial_point(problem, seed)
        assert single.shape == frozen.shape == x.shape
        assert x.tobytes() == frozen.tobytes() == single.tobytes()


def same_point(a, b):
    return a.matrix.tobytes() == b.matrix.tobytes() and a.rank_deficient is b.rank_deficient


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_runs_and_grid_rows_project_their_final_iterate_as_project_stiefel_does(
    monkeypatch, algorithm
):
    ends, lockstep = [], solvers._lockstep

    def recording(*args):
        ends.extend(outcomes := lockstep(*args))
        return outcomes

    monkeypatch.setattr(solvers, "_lockstep", recording)
    problem, cfg = circle_problem_and_config()
    run = RUNNERS[algorithm](problem, cfg)
    rows = run_step_grid(problem, cfg, 250, algorithm)
    finished = [o for o in ends[1:] if isinstance(o, solvers.SolverResult)]
    assert len(ends) == 1 + len(rows) and finished
    assert len(finished) < len(rows) or algorithm == "rsgd_baseline"  # NCDF steps diverge here
    for result in [run, *finished]:
        assert result.termination == "max_iters"
        assert same_point(result.projected, project_stiefel(result.final_x))
    # the grid scores each finished candidate with one stacked f_values call, each its f_value
    scores = [value for _, value in rows if math.isfinite(value)]
    assert scores == [problem.f_value(o.projected.matrix) for o in finished]
    # the NCDF steps keep a zero iterate at zero, whose projection is flagged rank deficient
    # as project_stiefel flags it; the baseline's retraction leaves zero at its first step
    zero = RUNNERS[algorithm](problem, replace(cfg, max_iters=3), x0=np.zeros((2, 1)))
    assert same_point(zero.projected, project_stiefel(zero.final_x))
    assert zero.projected.rank_deficient is (algorithm != "rsgd_baseline")


@pytest.mark.parametrize("algorithm", ["ncdf_sgd", "ncdf_proxsgd"])
def test_a_stack_flags_only_its_rank_deficient_slice(algorithm):
    # the NCDF steps keep the zero slice at zero; the stack projects its rows with one SVD
    problem, cfg = circle_problem_and_config()
    cfg = replace(cfg, schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=5)
    seeds = [3, 4, 5, 6]
    x = solvers._initial_points(problem, seeds)
    x[2] = 0.0
    method = solvers._METHODS[algorithm]
    outcomes = solvers._lockstep(problem, method, cfg, seeds, [[0.01] * 5] * 4, x)
    assert [o.projected.rank_deficient for o in outcomes] == [False, False, True, False]
    for outcome in outcomes:
        assert same_point(outcome.projected, project_stiefel(outcome.final_x))


@pytest.mark.parametrize("stride, baseline_forms", [(20, 1), (7, 3), (1, 20)])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_the_map_polynomial_is_formed_only_where_a_step_or_trace_row_reads_it(
    monkeypatch, algorithm, stride, baseline_forms
):
    # the baseline steps from x and reads M / 8 only for a trace row's A(x); the NCDF
    # steps read it on every iteration, so neither count depends on the output
    formed, poly = [], solvers._poly
    monkeypatch.setattr(solvers, "_poly", lambda g, terms: formed.append(1) or poly(g, terms))
    cfg = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=20)
    traced = RUNNERS[algorithm](l1_pca_problem(noisy=True), replace(cfg, trace_stride=stride))
    assert len(traced.trace) == len(range(0, 20, stride))
    assert len(formed) == (baseline_forms if algorithm == "rsgd_baseline" else 20)


@pytest.mark.parametrize("epoch_len", [1, 3, 50, 51, 2**63, 10**30])
def test_harmonic_steps_equal_step_bitwise_for_any_epoch_len(epoch_len):
    sched = StepSchedule(kind="harmonic_decay", eta0=0.3, epoch_len=epoch_len)
    assert [v.hex() for v in sched.steps(50)] == [sched.step(k).hex() for k in range(50)]


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_an_epoch_longer_than_the_run_takes_eta0_at_every_step(algorithm):
    problem = l1_pca_problem(noisy=True)
    cfg = SolverConfig(schedule=StepSchedule(kind="constant", eta0=0.01), max_iters=30)
    harmonic = replace(cfg, schedule=StepSchedule(eta0=0.01, epoch_len=2**63))
    assert np.array_equal(RUNNERS[algorithm](problem, harmonic).final_x,
                          RUNNERS[algorithm](problem, cfg).final_x)


# each size fails at once: its list or array could never be allocated, so nothing is
@pytest.mark.parametrize("schedule", [
    StepSchedule(kind="constant"),
    StepSchedule(kind="harmonic_decay"),
    StepSchedule(kind="constant", epoch_len=2**63),
    StepSchedule(kind="harmonic_decay", epoch_len=2**63),
])
@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_a_step_list_too_large_to_allocate_is_a_configuration_error_naming_its_size(
    algorithm, schedule
):
    problem = l1_pca_problem(noisy=False)
    with pytest.raises(ConfigurationError, match=f"^max_iters: {2**62} steps do not fit in mem"):
        RUNNERS[algorithm](problem, SolverConfig(schedule=schedule, max_iters=2**62))
    budget = 2**62 * schedule.epoch_len
    with pytest.raises(ConfigurationError, match=f"^budget_epochs: {budget} steps do not fit"):
        run_step_grid(problem, SolverConfig(schedule=schedule), 2**62, algorithm)


# ---------------------------------------------------------------------------
# one step formula and one step cap, shared by step, steps, runs and the grid


@pytest.mark.parametrize("call, name", [
    (lambda: StepSchedule(kind="custom", values=(0.5, 0.25, 0.125)).step(-1), "k must be >= 0"),
    (lambda: StepSchedule(eta0=1.0).step(-1), "k must be >= 0"),
    (lambda: StepSchedule(kind="custom", values=(0.5, 0.25, 0.125)).steps(-1), "n must be >= 0"),
    (lambda: StepSchedule().step(2.5), "k must be an integer"),
    (lambda: StepSchedule(kind="custom", values=(0.5, 0.25)).step(1.5), "k must be an integer"),
    (lambda: StepSchedule().steps(3.0), "n must be an integer"),
    (lambda: StepSchedule(kind="constant").step(True), "k must be an integer"),
])
def test_a_bad_step_index_is_a_configuration_error_naming_it(call, name):
    with pytest.raises(ConfigurationError, match=f"^{name}"):
        call()


def test_no_steps_is_an_empty_list_for_every_kind():
    for sched in (StepSchedule(), StepSchedule(kind="constant", epoch_len=7),
                  StepSchedule(kind="custom", values=(0.5,))):
        assert sched.steps(0) == [] and sched.steps(np.int64(0)) == []


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(solvers.SCHEDULE_KINDS)),
    eta0=st.one_of(st.integers(1, 10**6), st.floats(1e-12, 1e12, allow_subnormal=False)),
    epoch_len=st.one_of(st.integers(1, 60), st.integers(1, 10**30)),
    n=st.integers(0, 3000),
    k=st.one_of(st.integers(0, 5000), st.integers(0, 2**62)),
    size=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_steps_and_grid_rows_read_one_formula_bitwise(kind, eta0, epoch_len, n, k, size, seed):
    values = tuple(np.random.default_rng(seed).uniform(1e-6, 1.0, size).tolist())
    sched = StepSchedule(kind=kind, eta0=eta0, epoch_len=epoch_len, values=values)
    bits = lambda steps: [(type(v), float(v).hex()) for v in steps]  # noqa: E731
    k = k % size if kind == "custom" else k

    if kind == "custom" and n > size:  # the list and its first missing step fail alike
        message = f"custom schedule has {size} values, needed step {size}"
        for call in (lambda: sched.steps(n), lambda: sched.step(size)):
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                call()
        n = size
    with mock.patch.object(solvers, "_steps", wraps=solvers._steps) as formula:
        steps, step = sched.steps(n), sched.step(k)
    assert formula.call_count == 2  # neither forms its steps on its own
    assert bits(steps) == bits([sched.step(i) for i in range(n)])
    if k <= 3000:
        assert bits([step]) == bits(sched.steps(k + 1)[k:])
    if kind == "harmonic_decay":  # the step is the Python scalar formula, at any index
        for i in (*range(min(n, 50)), n, k):
            assert bits([sched.step(i)]) == bits([eta0 / (0.1 * (i // epoch_len) + 1.0)])
    if kind != "custom":  # the grid's rows, each eta0 over one set of divisors
        etas = (eta0, *grid_candidates()[::3])
        rows = solvers._steps(sched, n, "budget_epochs", etas)
        assert len(rows) == len(etas)
        for eta, row in zip(etas, rows):
            assert bits(row) == bits(replace(sched, eta0=eta).steps(n))


def test_a_far_step_is_formed_without_its_list():
    import tracemalloc

    for sched in (StepSchedule(eta0=0.3, epoch_len=7), StepSchedule(kind="constant", eta0=0.3)):
        tracemalloc.start()
        try:
            step = sched.step(2**62)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        expected = 0.3 if sched.kind == "constant" else 0.3 / (0.1 * (2**62 // 7) + 1.0)
        assert step.hex() == expected.hex()


class _Reached(Exception):
    """Raised by a recorded _lockstep in place of running."""


def _frozen_pre_run_error(problem, cfg, algorithm, biggest):
    """The pre-run check's message, worded as the per-method checks worded it, or None."""
    reg, guards = problem.reg, cfg.safeguards
    if algorithm == "ncdf_proxsgd":
        if reg is not None and reg.prox is None:
            return "proximal solver needs a regularizer with a prox"
        denom = 19.0 * (guards[1] + (reg.lipschitz if reg is not None else 0.0))
        if cfg.feas_shell_check and denom > 0 and biggest > 1.0 / denom:
            return (f"feas_shell_check requires steps <= 1/(19 (Mt + Mr)) = {1.0 / denom:.6g}, "
                    f"largest scheduled step is {biggest:.6g}")
    if algorithm == "ncdf_sgd" and cfg.feas_shell_check:
        needed = max(16.0 * guards[0], 60.0 * guards[1], 16.0 * guards[2])
        if cfg.beta < needed:
            return (f"feas_shell_check requires beta >= max(16 M1, 60 Mt, 16 Mh) = {needed:.6g}, "
                    f"got beta = {cfg.beta:.6g}")
        if biggest > (cap := 1.0 / (2.0 * cfg.beta)):
            return (f"feas_shell_check requires steps <= 1/(2 beta) = {cap:.6g}, "
                    f"largest scheduled step is {biggest:.6g}")
    return None


_GUARD = st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-6, 1e-2), st.floats(1e-4, 1e3))


_ZERO = (0.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
# a cap equal to a candidate's step keeps it; a decaying row is capped by its first step
@example("ncdf_sgd", _ZERO, 1.0, True, "none", 0.0, "constant", 1, 1)
@example("ncdf_sgd", _ZERO, 1.0 / (2.0 * 0.09), True, "none", 0.0, "harmonic_decay", 1, 3)
@example("ncdf_proxsgd", (0.0, 1.0 / 9.5, 0.0), 1.0, True, "none", 0.0, "constant", 2, 1)
@given(
    algorithm=st.sampled_from(solvers.ALGORITHMS),
    safeguards=st.tuples(_GUARD, _GUARD, _GUARD),
    # 1 / (2 beta) lands on a grid candidate for the first betas
    beta=st.one_of(st.sampled_from([1.0 / (2.0 * eta) for eta in grid_candidates()]),
                   st.floats(1e-3, 1e5)),
    shell=st.booleans(),
    reg=st.sampled_from(["none", "no prox", "lipschitz"]),
    lipschitz=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-4, 1e3)),
    kind=st.sampled_from(["constant", "harmonic_decay"]),
    epoch_len=st.integers(1, 3),
    budget_epochs=st.integers(1, 3),
)
def test_a_grid_candidate_runs_exactly_when_its_single_run_passes_the_pre_run_check(
    algorithm, safeguards, beta, shell, reg, lipschitz, kind, epoch_len, budget_epochs
):
    problem = make_sparse_pca(spiked_covariance(6, [3.0, 1.0], seed=1), 2, 0.1)
    if reg == "none":
        problem = replace(problem, reg=None)
    else:
        prox = None if reg == "no prox" else problem.reg.prox
        problem = replace(problem, reg=replace(problem.reg, prox=prox, lipschitz=lipschitz))
    cfg = SolverConfig(beta=beta, safeguards=safeguards, feas_shell_check=shell,
                       schedule=StepSchedule(kind=kind, eta0=0.1, epoch_len=epoch_len), seed=3)
    calls = []

    def record(problem, method, cfg, seeds, steps, x):
        calls.append(steps)
        raise _Reached

    budget = budget_epochs * epoch_len
    with mock.patch.object(solvers, "_lockstep", record):
        with mock.patch.object(solvers, "_steps", wraps=solvers._steps) as formula:
            try:
                rows = run_step_grid(problem, cfg, budget_epochs, algorithm)
                assert [val for _, val in rows] == [math.inf] * len(rows)
            except _Reached:
                pass
        assert formula.call_count == 1  # the grid's rows come from the one formula
        grid_runs = [row[0] for row in (calls[0] if calls else [])]  # a row's first step is eta0
        for row in calls[0] if calls else []:
            expected = replace(cfg.schedule, eta0=row[0]).steps(budget)
            assert [v.hex() for v in row] == [v.hex() for v in expected]
        single_runs = []
        for eta in grid_candidates():
            single = replace(cfg, schedule=replace(cfg.schedule, eta0=eta), max_iters=budget)
            expected = _frozen_pre_run_error(
                problem, single, algorithm, max(single.schedule.steps(budget))
            )
            try:
                RUNNERS[algorithm](problem, single)
            except _Reached:
                assert expected is None
                single_runs.append(eta)
            except ConfigurationError as err:
                assert str(err) == expected
    assert grid_runs == single_runs
