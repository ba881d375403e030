import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelcd import problems
from stiefelcd.core import random_stiefel
from stiefelcd.errors import ConfigurationError, DimensionError, DivergenceError


def fd_gradient(f, x, t=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = t
            g[i, j] = (f(x + e) - f(x - e)) / (2.0 * t)
    return g


# ---------------------------------------------------------------------------
# quadratic trace
# ---------------------------------------------------------------------------

def test_quadratic_trace_hand_values():
    prob = problems.make_quadratic_trace(np.diag([3.0, 1.0]), p=1)
    x = np.array([[1.0], [0.0]])
    assert prob.phi_value(x) == pytest.approx(-3.0, abs=1e-15)
    grad = prob.phi_subgrad(x, None)
    assert np.allclose(grad, [[-6.0], [0.0]], atol=1e-15)
    assert prob.smooth


def test_quadratic_trace_gradient_matches_fd():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    a = 0.5 * (a + a.T)
    prob = problems.make_quadratic_trace(a, p=2)
    x = rng.standard_normal((5, 2))
    fd = fd_gradient(prob.phi_value, x)
    assert np.linalg.norm(prob.phi_subgrad(x, None) - fd) <= 1e-7


def test_quadratic_trace_lipschitz_bound():
    a = np.diag([3.0, 1.0])
    prob = problems.make_quadratic_trace(a, p=1)
    # the estimate should agree with the eigenvalue oracle
    top = max(abs(np.linalg.eigvalsh(a)))
    assert prob.lipschitz_est == pytest.approx(2.0 * top * np.sqrt(2.0), rel=1e-10)
    # and really bound the gradient on the unit shell
    rng = np.random.default_rng(3)
    for _ in range(100):
        from stiefelcd.core import random_shell_point

        x = random_shell_point(rng, 2, 1, 1.0 - rng.random())
        assert np.linalg.norm(prob.phi_subgrad(x, None)) <= prob.lipschitz_est + 1e-12


def test_spectral_norm_is_the_largest_singular_value():
    # ones/sqrt(n) is a singular vector of the smaller singular value of both
    # matrices, which a power iteration started there never leaves
    assert problems.spectral_norm([[3.0, -3.0], [1.0, 1.0]]) == pytest.approx(np.sqrt(18.0))
    assert problems.spectral_norm(np.zeros((0, 3))) == 0.0
    prob = problems.make_quadratic_trace(np.array([[1.0, -2.0], [-2.0, 1.0]]), p=1)
    x = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
    # the gradient 2 A x has norm 6 at this feasible point
    assert np.linalg.norm(prob.phi_subgrad(x, None)) <= prob.lipschitz_est


def test_quadratic_trace_rejects_asymmetric():
    with pytest.raises(ValueError):
        problems.make_quadratic_trace(np.array([[1.0, 2.0], [0.0, 1.0]]), p=1)


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e300])
def test_symmetry_check_holds_where_the_norms_overflow(scale):
    # from entries of about 1e154 on ||A||_F is inf, which would pass any finite asymmetry
    with pytest.raises(ValueError, match="A must be symmetric"):
        problems.make_quadratic_trace(scale * np.array([[1.0, 5.0], [0.0, 1.0]]), p=1)
    symmetric = scale * np.array([[1.0, 5.0], [5.0, 1.0]])
    prob = problems.make_quadratic_trace(symmetric, p=1)
    x = np.array([[1.0], [0.0]])
    assert np.array_equal(prob.phi_subgrad(x, None), -2.0 * symmetric @ x)


# ---------------------------------------------------------------------------
# regularizer and sparse PCA
# ---------------------------------------------------------------------------

def test_l1_value_is_weighted():
    reg = problems.l1_regularizer(gamma=2.0, n_entries=2)
    assert reg.value(np.array([[1.0, -2.0]])) == pytest.approx(6.0, abs=1e-15)


def test_soft_threshold_closed_form():
    reg = problems.l1_regularizer(gamma=1.0, n_entries=1)
    # tau * gamma = 0.5 shrinks 1.2 to 0.7 and kills anything smaller
    out = reg.prox(np.array([[1.2, -0.3]]), 0.5)
    assert np.allclose(out, [[0.7, 0.0]], atol=1e-15)


def test_prox_optimality_componentwise():
    rng = np.random.default_rng(5)
    gamma, tau = 0.4, 0.7
    reg = problems.l1_regularizer(gamma=gamma, n_entries=12)
    x = rng.standard_normal((4, 3))
    p = reg.prox(x, tau)
    thresh = tau * gamma
    for xi, pi in zip(x.ravel(), p.ravel()):
        if pi != 0.0:
            assert xi - pi == pytest.approx(thresh * np.sign(pi), abs=1e-12)
        else:
            assert abs(xi) <= thresh + 1e-12


def test_l1_convexity_midpoint():
    rng = np.random.default_rng(7)
    reg = problems.l1_regularizer(gamma=1.3, n_entries=6)
    for _ in range(50):
        y = rng.standard_normal((3, 2))
        z = rng.standard_normal((3, 2))
        mid = reg.value(0.5 * (y + z))
        assert mid <= 0.5 * (reg.value(y) + reg.value(z)) + 1e-10


def test_sparse_pca_composite_consistency():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((6, 6))
    cov = b @ b.T
    gamma = 0.3
    prob = problems.make_sparse_pca(cov, p=2, gamma=gamma)
    x = rng.standard_normal((6, 2))
    raw_l1 = float(np.sum(np.abs(x)))
    assert prob.f_value(x) == pytest.approx(prob.phi_value(x) + gamma * raw_l1, rel=1e-12)
    assert not prob.smooth
    assert prob.reg.lipschitz == pytest.approx(gamma * np.sqrt(12))


def test_sparse_pca_gamma_zero_is_smooth_trace_problem():
    cov = np.eye(3)
    prob = problems.make_sparse_pca(cov, p=1, gamma=0.0)
    assert prob.reg is None
    assert prob.smooth


def test_sparse_pca_validation():
    with pytest.raises(ValueError):
        problems.make_sparse_pca(np.eye(3), p=1, gamma=-0.1)
    with pytest.raises(ValueError):
        problems.make_sparse_pca(-np.eye(3), p=1, gamma=0.1)


# a nan or inf gamma made every regularizer value and prox nan; a string or a
# bool is no weight either
BAD_WEIGHTS = [
    (float("nan"), "^gamma must be finite, got nan$"),
    (float("inf"), "^gamma must be finite, got inf$"),
    (-float("inf"), "^gamma must be nonnegative, got -inf$"),
    (-0.1, "^gamma must be nonnegative, got -0.1$"),
    ("0.1", "^gamma must be a number, got '0.1'$"),
    (True, "^gamma must be a number, got True$"),
    # integers beyond float range raised a bare OverflowError
    (10**400, f"^gamma must be finite, got {10**400}$"),
    (-(10**400), f"^gamma must be nonnegative, got {-(10**400)}$"),
]


@pytest.mark.parametrize("gamma, message", BAD_WEIGHTS)
def test_l1_regularizer_rejects_a_weight_that_is_not_a_finite_nonnegative_number(gamma, message):
    with pytest.raises(ValueError, match=message):
        problems.l1_regularizer(gamma, 4)


@pytest.mark.parametrize("gamma, message", BAD_WEIGHTS)
def test_sparse_pca_rejects_a_weight_that_is_not_a_finite_nonnegative_number(gamma, message):
    with pytest.raises(ValueError, match=message):
        problems.make_sparse_pca(np.eye(3), p=1, gamma=gamma)


# ---------------------------------------------------------------------------
# l1 PCA
# ---------------------------------------------------------------------------

# 2.0 and 1.5 built a problem whose first run raised a bare TypeError, True ran as
# p = 1, and a string raised numpy's bare TypeError; each factory now names p
# before its first arithmetic on it
@pytest.mark.parametrize(
    "build",
    [
        lambda p: problems.make_quadratic_trace(np.eye(3), p),
        lambda p: problems.make_sparse_pca(np.eye(3), p, 0.1),
        lambda p: problems.make_l1_pca(np.ones((4, 3)), p),
    ],
    ids=["quadratic", "sparse", "l1"],
)
@pytest.mark.parametrize("p", [2.0, 1.5, True, "2", None, float("nan")])
def test_factories_reject_a_column_count_that_is_not_an_integer(build, p):
    with pytest.raises(ConfigurationError) as err:
        build(p)
    assert str(err.value) == f"p must be an integer, got {p!r}"
    assert build(np.int64(2)).p == 2


def test_problem_sizes_and_lipschitz_estimate_are_checked():
    base = problems.make_l1_pca(np.ones((4, 3)), 2)
    for name, bad in [("n", 3.0), ("p", 2.5), ("p", True), ("n", "3")]:
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got "):
            replace(base, **{name: bad})
    # a string raised a bare TypeError, and nan was accepted
    bad_estimates = [
        ("x", "a number, got 'x'"),
        (float("nan"), "nonnegative, got nan"),
        (-1.0, "nonnegative, got -1.0"),
    ]
    for bad, message in bad_estimates:
        with pytest.raises(ConfigurationError, match=f"^lipschitz_est must be {message}$"):
            replace(base, lipschitz_est=bad)
    # the spectral norm of huge data overflows to inf, which stays allowed
    assert replace(base, lipschitz_est=float("inf")).lipschitz_est == float("inf")


def test_l1_regularizer_checks_its_entry_count():
    # -4 gave a nan Lipschitz constant with numpy's sqrt warning, "x" a bare TypeError
    bad_counts = [(-4, ">= 0, got -4"), ("x", "an integer, got 'x'"), (4.0, "an integer, got 4.0")]
    for bad, message in bad_counts:
        with pytest.raises(ConfigurationError, match=f"^n_entries must be {message}$"):
            problems.l1_regularizer(0.1, bad)
    assert problems.l1_regularizer(0.5, np.int64(4)).lipschitz == 1.0

def test_l1_pca_hand_values():
    prob = problems.make_l1_pca(np.eye(2), p=1)
    x = np.array([[0.6], [-0.8]])
    assert prob.phi_value(x) == pytest.approx(-1.4, abs=1e-15)
    sub = prob.phi_subgrad(x, None)
    assert np.allclose(sub, [[-1.0], [1.0]], atol=1e-15)


def test_l1_pca_zero_rows_get_zero_subgradient():
    data = np.array([[1.0, 0.0], [0.0, 0.0]])
    prob = problems.make_l1_pca(data, p=1)
    x = np.array([[0.0], [1.0]])  # first data row hits an exact zero
    sub = prob.phi_subgrad(x, None)
    assert np.array_equal(sub, np.zeros((2, 1)))


def test_l1_pca_positive_homogeneity():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((7, 4))
    prob = problems.make_l1_pca(data, p=2)
    x = rng.standard_normal((4, 2))
    for c in [0.5, 2.0, 7.3]:
        assert prob.phi_value(c * x) == pytest.approx(c * prob.phi_value(x), rel=1e-12)


def test_l1_pca_subgradient_inequality():
    # convexity of -phi: phi(y) <= phi(x) + <g, y - x> for g in d(phi)(x)
    rng = np.random.default_rng(13)
    data = rng.standard_normal((6, 3))
    prob = problems.make_l1_pca(data, p=2)
    for _ in range(50):
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        g = prob.phi_subgrad(x, None)
        assert prob.phi_value(y) <= prob.phi_value(x) + np.sum(g * (y - x)) + 1e-10


# ---------------------------------------------------------------------------
# two-layer ReLU network
# ---------------------------------------------------------------------------

def test_mlp_zero_weights_mean_square_targets():
    data = [(np.ones(3), np.array([2.0])), (np.ones(3), np.array([-1.0]))]
    prob = problems.make_orthogonal_mlp(
        data,
        widths=(3, 2, 1),
        second_layer=np.zeros((1, 2)),
    )
    x = np.zeros((3, 2))
    assert prob.phi_value(x) == pytest.approx((4.0 + 1.0) / 2.0, abs=1e-15)
    # zero preactivations sit on the ReLU kink; the zero branch gives a
    # zero subgradient there
    assert np.array_equal(prob.phi_subgrad(x, None), np.zeros((3, 2)))


def test_mlp_linear_region_hand_gradient():
    # single sample, strictly positive preactivations: the network is
    # locally linear and the gradient is exact
    x_in = np.array([1.0, 2.0])
    y = np.array([0.0])
    w2 = np.array([[1.0, 1.0]])
    prob = problems.make_orthogonal_mlp(
        [(x_in, y)],
        widths=(2, 2, 1),
        second_layer=w2,
        hidden_bias=np.array([5.0, 5.0]),
    )
    x = np.eye(2)
    # z = x'x_in + b1 = (6, 7); resid = 13; phi = 169
    assert prob.phi_value(x) == pytest.approx(169.0, abs=1e-12)
    grad = prob.phi_subgrad(x, None)
    expected = np.outer(x_in, 2.0 * 13.0 * np.array([1.0, 1.0]))
    assert np.allclose(grad, expected, atol=1e-12)


def test_mlp_gradient_matches_fd_away_from_kinks():
    rng = np.random.default_rng(17)
    data = [(rng.standard_normal(4), rng.standard_normal(2)) for _ in range(5)]
    prob = problems.make_orthogonal_mlp(data, widths=(4, 2, 2), seed=3)
    x = rng.standard_normal((4, 2))
    # verify no preactivation sits near the kink so FD is valid
    xs = np.array([d[0] for d in data])
    z = x.T @ xs.T
    assert np.min(np.abs(z)) > 1e-3
    fd = fd_gradient(prob.phi_value, x)
    assert np.linalg.norm(prob.phi_subgrad(x, None) - fd) <= 1e-6


def test_mlp_rejects_widths_that_are_not_integers():
    # 8.5 was truncated to 8 without a word
    data = problems.synthetic_mlp_dataset(4, (8, 3, 2), 0)
    for widths in [(8.5, 3, 2), (8, "3", 2), (8, 3, True)]:
        with pytest.raises(ConfigurationError, match="^widths must be an integer, got "):
            problems.make_orthogonal_mlp(data, widths)
    assert problems.make_orthogonal_mlp(data, np.array([8, 3, 2])).n == 8


def test_mlp_validation():
    with pytest.raises(ValueError):
        problems.make_orthogonal_mlp([], widths=(3, 2, 1))
    with pytest.raises(ValueError):
        problems.make_orthogonal_mlp([(np.ones(3), np.ones(1))], widths=(2, 3, 1))
    with pytest.raises(ValueError):
        problems.make_orthogonal_mlp([(np.ones(3), np.ones(2))], widths=(3, 2, 1))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_noise_draws_are_bounded_and_centered():
    model = problems.NoiseModel(sigma=0.5)
    assert model.bound == pytest.approx(5.0)
    rng = np.random.default_rng(123)
    draws = np.array([model.draw(rng, (3, 2)) for _ in range(10_000)])
    assert np.max(np.linalg.norm(draws, axis=(1, 2))) <= model.bound + 1e-12
    assert np.max(np.abs(draws.mean(axis=0))) <= 3.0 * model.sigma / 100.0


@pytest.mark.parametrize(
    "sigma, bound, message",
    [
        # nan and inf made the bound nan or inf, and every noisy direction non-finite
        (float("nan"), None, "^sigma must be finite, got nan$"),
        (float("inf"), None, "^sigma must be finite, got inf$"),
        (-float("inf"), None, "^sigma must be nonnegative, got -inf$"),
        ("x", None, "^sigma must be a number, got 'x'$"),  # raised a bare TypeError
        (None, None, "^sigma must be a number, got None$"),
        # integers beyond float range raised a bare OverflowError
        (10**400, None, f"^sigma must be finite, got {10**400}$"),
        (-(10**400), None, f"^sigma must be nonnegative, got {-(10**400)}$"),
        # the bound went unchecked: numpy's bare TypeError on a draw, True kept as 1,
        # and anything at all with sigma 0
        (0.1, "x", "^bound must be a number, got 'x'$"),
        (0.1, [1], r"^bound must be a number, got \[1\]$"),
        (0.1, True, "^bound must be a number, got True$"),
        (0.0, "x", "^bound must be a number, got 'x'$"),
        (0.1, -1, "^bound must be positive, got -1$"),
        (0.1, float("nan"), "^bound must be positive, got nan$"),
    ],
)
def test_noise_model_rejects_a_sigma_that_is_not_a_finite_nonnegative_number(
    sigma, bound, message
):
    with pytest.raises(ValueError, match=message):
        problems.NoiseModel(sigma=sigma, bound=bound)


def test_attach_noise_zero_sigma_is_identity():
    prob = problems.make_quadratic_trace(np.eye(3), p=1)
    assert problems.attach_noise(prob, problems.NoiseModel(sigma=0.0)) is prob


def test_attach_noise_perturbs_oracle_and_clears_smooth_flag():
    prob = problems.make_quadratic_trace(np.eye(3), p=1)
    noisy = problems.attach_noise(prob, problems.NoiseModel(sigma=0.1))
    assert not noisy.smooth
    x = np.ones((3, 1))
    rng = np.random.default_rng(0)
    w = noisy.phi_subgrad(x, rng)
    assert w.shape == (3, 1)
    assert np.linalg.norm(w - prob.phi_subgrad(x, None)) > 0.0
    # same seed, same iteration randomness, bitwise equal draws
    w2 = noisy.phi_subgrad(x, np.random.default_rng(0))
    assert np.array_equal(w, w2)


def test_noisy_oracle_without_generator_is_the_clean_oracle():
    prob = problems.make_l1_pca(problems.gaussian_matrix(20, 6, seed=5), 2)
    model = problems.NoiseModel(sigma=0.05, bound=0.1)
    noisy = problems.attach_noise(prob, model)
    x = problems.gaussian_matrix(6, 2, seed=1)
    # noise on noise still comes off down to the first oracle
    for wrapped in (noisy, problems.attach_noise(noisy, model)):
        assert np.array_equal(wrapped.phi_subgrad(x, None), prob.phi_subgrad(x, None))
        assert np.array_equal(wrapped.f_subgrad(x), prob.f_subgrad(x))
        # with a generator the noise is drawn
        w = wrapped.phi_subgrad(x, np.random.default_rng(0))
        assert not np.array_equal(w, prob.phi_subgrad(x, None))


# ---------------------------------------------------------------------------
# constants estimation
# ---------------------------------------------------------------------------

def test_estimate_constants_samples_the_noisy_oracle():
    # the safeguard bounds cover the noisy directions the solvers step along
    prob = problems.make_l1_pca(problems.gaussian_matrix(20, 6, seed=5), 2)
    noisy = problems.attach_noise(prob, problems.NoiseModel(sigma=0.05, bound=0.1))
    assert problems.estimate_constants(noisy, samples=40, seed=3) == (
        40.48463465489766,
        46.99927665014137,
        40.760236106179505,
    )
    assert problems.estimate_constants(prob, samples=40, seed=3) == (
        41.23153501070482,
        44.37700577938532,
        40.82982176939919,
    )


def test_estimate_constants_zero_objective():
    prob = problems.ProblemDefinition(
        n=4,
        p=2,
        phi_value=lambda x: 0.0,
        phi_subgrad=lambda x, rng: np.zeros((4, 2)),
        smooth=True,
    )
    assert problems.estimate_constants(prob, samples=20, seed=0) == (0.0, 0.0, 0.0)


def test_estimate_constants_are_inflated_lower_bounds():
    prob = problems.make_quadratic_trace(np.diag([4.0, 2.0, 1.0]), p=1)
    m1, mt, mh = problems.estimate_constants(prob, samples=100, seed=1)
    assert 0.0 < m1 <= 1.5 * prob.lipschitz_est
    assert mt > 0.0 and mh > 0.0
    # deterministic given (problem, samples, seed)
    assert (m1, mt, mh) == problems.estimate_constants(prob, samples=100, seed=1)


# a smooth problem's points are sampled on stacks, any other one point at a time
@pytest.mark.parametrize(
    "bad, smooth",
    [
        pytest.param(bad, smooth, id=name + ("-stacked" if smooth else ""))
        for smooth in (False, True)
        for name, bad in (("nan", np.nan), ("inf", np.inf))
    ],
)
def test_estimate_constants_rejects_non_finite_oracle(bad, smooth):
    # max() drops nan, so an all-nan oracle used to give zero bounds
    prob = problems.ProblemDefinition(
        n=4, p=2, phi_value=lambda x: 0.0, phi_subgrad=lambda x, rng: np.full((4, 2), bad),
        smooth=smooth,
    )
    with pytest.raises(ValueError, match="non-finite"):
        problems.estimate_constants(prob, samples=20, seed=0)


def frozen_estimate_constants(problem, samples=200, seed=0):
    # the serial loop through the public kernels, as estimate_constants ran it
    # before it shared one Gram state between the map and the Jacobian
    from stiefelcd.core import apply_A, jacobian_apply, random_shell_point

    rng = np.random.default_rng(seed)
    m1 = mt = mh = 0.0
    for _ in range(samples):
        radius = 1.0 - rng.random()
        x = random_shell_point(rng, problem.n, problem.p, radius)
        w_img = problem.f_subgrad(apply_A(x), rng)
        img = float(np.linalg.norm(w_img))
        raw = float(np.linalg.norm(problem.f_subgrad(x, rng)))
        m1, mh = max(m1, img), max(mh, raw)
        if img > 0:
            mt = max(mt, float(np.linalg.norm(jacobian_apply(x, w_img))))
    return 1.5 * m1, 1.5 * mt, 1.5 * mh


CLI_PROBLEMS = {
    "quadratic_trace": {"kind": "quadratic_trace", "n": 8, "p": 3, "seed": 1},
    "sparse_pca": {"kind": "sparse_pca", "n": 20, "p": 3, "seed": 2, "gamma": 0.1},
    "l1_pca": {"kind": "l1_pca", "rows": 30, "n": 12, "p": 3, "seed": 3},
    "orthogonal_mlp": {"kind": "orthogonal_mlp", "widths": [8, 3, 2], "n_samples": 40, "seed": 5},
}


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "noisy"])
@pytest.mark.parametrize("kind", sorted(CLI_PROBLEMS))
def test_estimate_constants_match_the_frozen_serial_loop(kind, noisy):
    from stiefelcd.cli import build_problem

    conf = dict(CLI_PROBLEMS[kind], **({"noise": {"sigma": 0.05, "bound": 0.1}} if noisy else {}))
    problem = build_problem(conf)
    for samples, seed in ((200, 0), (30, 7)):
        got = problems.estimate_constants(problem, samples=samples, seed=seed)
        assert repr(got) == repr(frozen_estimate_constants(problem, samples, seed))


@pytest.mark.parametrize(
    "output, smooth",
    [
        pytest.param(output, smooth, id=name + ("-stacked" if smooth else ""))
        for smooth in (False, True)
        for name, output in (("narrow", lambda w: w[:, :1]), ("flat", lambda w: w.ravel()))
    ],
)
def test_estimate_constants_rejects_a_wrong_shaped_oracle_output(output, smooth):
    prob = problems.make_quadratic_trace(np.diag([4.0, 2.0, 1.0]), p=2)
    bad = problems.ProblemDefinition(
        n=3, p=2, phi_value=prob.phi_value, phi_subgrad=lambda x, rng: output(prob.phi_subgrad(x, rng)),
        smooth=smooth,
    )
    with pytest.raises(DimensionError, match=r"oracle output shape \(\d"):
        problems.estimate_constants(bad, samples=5, seed=0)


def user_quadratic(a, p):
    # the quadratic trace objective through unmarked 2-d callables with C-ordered output
    return problems.ProblemDefinition(
        n=a.shape[0], p=p, phi_value=lambda x: float(-np.sum(x * (a @ x))),
        phi_subgrad=lambda x, rng: -2.0 * (a @ x), smooth=True,
    )


@settings(max_examples=40, deadline=None, database=None)
@given(
    dims=st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    data_seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    user=st.booleans(),
    stack_entries=st.sampled_from([problems.STACK_ENTRIES, 1, 7, 60]),
)
def test_smooth_estimates_on_stacks_match_the_frozen_serial_loop(
    dims, data_seed, samples, seed, user, stack_entries
):
    # a small STACK_ENTRIES spreads the samples over many stacks, down to stacks of one
    n, p = dims
    m = np.random.default_rng(data_seed).standard_normal((n, n))
    problem = user_quadratic(m + m.T, p) if user else problems.make_quadratic_trace(m + m.T, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "STACK_ENTRIES", stack_entries)
        got = problems.estimate_constants(problem, samples=samples, seed=seed)
    assert repr(got) == repr(frozen_estimate_constants(problem, samples, seed))


def counted(subgrad, calls):
    # subgrad marked as stacking, recording each call's leading shape and generator
    @problems._stacks
    def oracle(x, rng):
        calls.append((np.shape(x)[:-2], rng))
        return subgrad(x, rng)

    return oracle


def test_a_smooth_estimate_calls_its_oracle_twice_per_stack_and_a_noisy_one_per_point():
    base = problems.make_quadratic_trace(np.diag([4.0, 2.0, 1.0, 0.5]), p=2)
    smooth_calls, noisy_calls = [], []
    smooth = replace(base, phi_subgrad=counted(base.phi_subgrad, smooth_calls))
    noisy = problems.attach_noise(
        replace(base, phi_subgrad=counted(base.phi_subgrad, noisy_calls)),
        problems.NoiseModel(sigma=0.05),
    )
    assert smooth.smooth and not noisy.smooth
    problems.estimate_constants(smooth, samples=200, seed=1)
    problems.estimate_constants(noisy, samples=200, seed=1)
    assert smooth_calls == [((200,), None)] * 2
    assert len(noisy_calls) == 400
    assert all(shape == () and isinstance(rng, np.random.Generator) for shape, rng in noisy_calls)


@pytest.mark.parametrize("error", [DivergenceError, ValueError, DimensionError])
@pytest.mark.parametrize("call", [0, 1, 20, 61], ids=["map-0", "raw-0", "map-10", "raw-30"])
def test_a_smooth_oracle_failing_at_one_sample_raises_the_serial_loops_error(call, error):
    # the failing call is keyed by its point, so the stacks meet it at the same
    # sample as the serial loop; the per-slice adapter raises it as it is raised
    a = np.diag([3.0, 2.0, 1.0, 0.5, 0.25])
    points = []
    recording = problems.ProblemDefinition(
        n=5, p=2, phi_value=lambda x: 0.0,
        phi_subgrad=lambda x, rng: points.append(x.copy()) or -2.0 * (a @ x),
    )
    problems.estimate_constants(recording, samples=40, seed=3)
    bad = points[call]

    def subgrad(x, rng):
        if np.array_equal(x, bad):
            raise error(f"oracle failed at call {call}")
        return -2.0 * (a @ x)

    raised = []
    for smooth in (False, True):
        problem = problems.ProblemDefinition(
            n=5, p=2, phi_value=lambda x: 0.0, phi_subgrad=subgrad, smooth=smooth
        )
        with pytest.raises(error) as err:
            problems.estimate_constants(problem, samples=40, seed=3)
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1] == (error, f"oracle failed at call {call}")


def frozen_sampled_estimate(problem, samples=200, seed=0):
    # estimate_constants' loop for a problem that is not smooth, as it ran before it
    # took Mt a stack at a time: the Jacobian and np.linalg.norm at every point
    from stiefelcd.core import _jacobian, _map, _state, random_shell_point

    rng = np.random.default_rng(seed)
    m1 = mt = mh = 0.0
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, 1.0 - rng.random())
        resid, poly = _state(x)
        w_img = problem.f_subgrad(_map(x, poly), rng)
        img = float(np.linalg.norm(w_img))
        raw = float(np.linalg.norm(problem.f_subgrad(x, rng)))
        if not math.isfinite(img + raw):
            raise ValueError("subgradient oracle returned non-finite entries at a sampled point")
        m1, mh = max(m1, img), max(mh, raw)
        if img > 0:
            w_img = np.ascontiguousarray(problems._shaped(w_img, x.shape))
            mt = max(mt, float(np.linalg.norm(_jacobian(x, w_img, resid, poly))))
    return 1.5 * m1, 1.5 * mt, 1.5 * mh


NOISE = {"noise": {"sigma": 0.05, "bound": 0.1}}
SAMPLED_PROBLEMS = {
    "noisy_l1_pca": dict(CLI_PROBLEMS["l1_pca"], **NOISE),
    "noisy_sparse_pca": dict(CLI_PROBLEMS["sparse_pca"], **NOISE),
    "orthogonal_mlp": CLI_PROBLEMS["orthogonal_mlp"],
}


@lru_cache(maxsize=None)
def sampled_problem(kind):
    from stiefelcd.cli import build_problem

    return build_problem(SAMPLED_PROBLEMS[kind])


def recorded(problem, calls, zero_at, fail_at):
    # problem with its oracle recording each point and whether it got a generator, and
    # returning zeros at the calls numbered in zero_at and inf entries at call fail_at
    oracle = problem.phi_subgrad

    @problems._stacks
    def phi_subgrad(x, rng):
        calls.append((x.tobytes(), rng is None))
        w, call = oracle(x, rng), len(calls) - 1
        if call == fail_at:
            return np.full(w.shape, np.inf)
        return np.zeros(w.shape) if call in zero_at else w

    return replace(problem, phi_subgrad=phi_subgrad)


@settings(max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(SAMPLED_PROBLEMS)),
    samples=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    points_per_stack=st.sampled_from([None, 1, 3, 8]),
    zero_at=st.frozensets(st.integers(0, 80), max_size=6),
    fail_at=st.none() | st.integers(0, 80),
)
def test_sampled_estimates_on_stacks_match_the_frozen_serial_loop(
    kind, samples, seed, points_per_stack, zero_at, fail_at
):
    # a small STACK_ENTRIES takes Mt over many stacks, down to stacks of one, and a zero
    # image leaves its point out of them; the oracle must see the same points in the
    # same order, and a non-finite output must end the estimate at the same call with
    # the same error
    problem = sampled_problem(kind)
    assert not problem.smooth
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        if points_per_stack is not None:
            patch.setattr(problems, "STACK_ENTRIES", points_per_stack * problem.n * problem.p)
        for estimate in (problems.estimate_constants, frozen_sampled_estimate):
            calls = []
            try:
                got = repr(estimate(recorded(problem, calls, zero_at, fail_at), samples, seed))
            except ValueError as err:
                got = str(err)
            outcomes.append((got, calls))
    assert outcomes[0] == outcomes[1]
    failed = outcomes[0][0].startswith("subgradient oracle returned non-finite")
    assert failed == (fail_at is not None and fail_at < 2 * samples)


def test_a_wrong_shaped_oracle_output_is_checked_only_when_its_norm_is_nonzero():
    # as in the serial loop, a sample whose image has norm 0 adds no Jacobian and so
    # never meets the shape check
    prob = problems.make_l1_pca(problems.gaussian_matrix(20, 6, seed=5), 2)
    zero = replace(prob, phi_subgrad=lambda x, rng: np.zeros(x.shape[0]))
    assert problems.estimate_constants(zero, samples=30, seed=1) == (0.0, 0.0, 0.0)
    assert frozen_sampled_estimate(zero, samples=30, seed=1) == (0.0, 0.0, 0.0)
    flat = replace(prob, phi_subgrad=lambda x, rng: np.ones(x.shape[0]))
    raised = []
    for estimate in (problems.estimate_constants, frozen_sampled_estimate):
        with pytest.raises(DimensionError) as err:
            estimate(flat, samples=30, seed=1)
        raised.append(str(err.value))
    assert raised[0] == raised[1] == "oracle output shape (6,) != expected shape (6, 2)"


def test_estimate_constants_validates_samples():
    prob = problems.make_quadratic_trace(np.eye(2), p=1)
    with pytest.raises(ValueError):
        problems.estimate_constants(prob, samples=0)


# ---------------------------------------------------------------------------
# data helpers
# ---------------------------------------------------------------------------

def test_spiked_covariance_spectrum():
    top = [50.0, 40.0, 30.0]
    s = problems.spiked_covariance(20, top, seed=4)
    w = np.linalg.eigvalsh(s)
    assert np.allclose(sorted(w)[-3:], sorted(top), rtol=1e-10)
    assert w[0] >= 0.0 or abs(w[0]) < 1e-12


def test_gaussian_matrix_seeded():
    a = problems.gaussian_matrix(3, 4, seed=8)
    b = problems.gaussian_matrix(3, 4, seed=8)
    assert np.array_equal(a, b)
    assert a.shape == (3, 4)


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    mat = rng.standard_normal((4, 3))
    path = tmp_path / "mat.csv"
    with open(path, "w") as fh:
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    loaded = problems.load_matrix_csv(path)
    assert np.array_equal(loaded, mat)


def test_synthetic_mlp_dataset_shapes():
    data = problems.synthetic_mlp_dataset(6, (5, 2, 3), seed=2)
    assert len(data) == 6
    assert data[0][0].shape == (5,)
    assert data[0][1].shape == (3,)
    prob = problems.make_orthogonal_mlp(data, widths=(5, 2, 3), seed=2)
    q = random_stiefel(np.random.default_rng(1), 5, 2)
    assert np.isfinite(prob.f_value(q))


def marked(fn):
    return getattr(fn, "_stacks", False)


def test_stack_mark_follows_the_callable():
    import functools
    from dataclasses import replace

    data = problems.gaussian_matrix(20, 6, seed=5)
    model = problems.NoiseModel(sigma=0.05, bound=0.1)
    l1 = problems.make_l1_pca(data, 2)
    spca = problems.make_sparse_pca(data.T @ data / 20.0, 2, 0.1)
    for fn in (l1.phi_subgrad, spca.phi_subgrad, spca.reg.subgrad):
        assert marked(fn)
    noisy = problems.attach_noise(l1, model)
    assert marked(noisy.phi_subgrad)
    assert marked(problems.attach_noise(noisy, model).phi_subgrad)
    # functools.wraps copies the mark, so a wrapping tracer keeps the stacked path
    assert marked(functools.wraps(noisy.phi_subgrad)(lambda x, rng: None))
    # a replaced callable is wrapped in the per-slice adapter, which is marked;
    # the user's function itself only ever sees 2-d input, noise over it too
    seen = []

    def user_oracle(x, rng):
        seen.append(np.ndim(x))
        return l1.phi_subgrad(x, rng)

    def user_value(x):
        seen.append(np.ndim(x))
        return l1.phi_value(x)

    plain = replace(l1, phi_subgrad=user_oracle, phi_value=user_value)
    noisy_plain = problems.attach_noise(plain, model)
    for fn in (plain.phi_subgrad, plain.phi_value, noisy_plain.phi_subgrad):
        assert marked(fn)
    x = np.random.default_rng(0).standard_normal((3, 6, 2))
    rngs = [np.random.default_rng(s) for s in range(3)]
    assert np.array_equal(plain.phi_subgrad(x, None), l1.phi_subgrad(x, None))
    assert np.array_equal(plain.phi_value(x), l1.phi_value(x))
    assert noisy_plain.phi_subgrad(x, iter(rngs)).shape == x.shape
    assert plain.phi_subgrad(x[0], None).shape == (6, 2)
    assert seen == [2] * 10
    # the MLP's callables map a stack themselves
    mlp = problems.make_orthogonal_mlp(problems.synthetic_mlp_dataset(5, (4, 2, 1), 0), (4, 2, 1))
    assert marked(mlp.phi_subgrad) and marked(mlp.phi_value)


def test_per_slice_adapter_propagates_the_first_slice_error_and_checks_shapes():
    from stiefelcd.errors import ConfigurationError, DimensionError, DivergenceError

    calls = []

    def oracle(x, rng):
        calls.append(float(x[0, 0]))
        if x[0, 0] < 0:
            raise DivergenceError(f"refused {x[0, 0]:g}")
        return 2.0 * x

    problem = problems.ProblemDefinition(3, 1, lambda x: float(np.sum(x)), oracle)
    x = np.zeros((4, 3, 1))
    x[:, 0, 0] = [1.0, -1.0, 2.0, -3.0]
    with pytest.raises(DivergenceError, match="^refused -1$") as excinfo:
        problem.phi_subgrad(x, None)
    # the first raising slice's own error propagates, and the later slices are not called
    assert type(excinfo.value) is DivergenceError
    assert calls == [1.0, -1.0]
    assert np.array_equal(problem.phi_subgrad(x[[0, 2]], None), 2.0 * x[[0, 2]])
    assert np.array_equal(problem.f_values(x), [1.0, -1.0, 2.0, -3.0])
    # a wrong output shape is a DimensionError, not numpy's broadcasting or stacking error
    for out in (np.ones((3, 2)), np.ones((1, 1))):
        wide = problems.ProblemDefinition(3, 1, lambda x: 0.0, lambda x, rng, out=out: out)
        with pytest.raises(DimensionError, match=r"shape \(\d, \d\) != expected shape \(3, 1\)"):
            wide.phi_subgrad(x, None)
