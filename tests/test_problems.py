import numpy as np
import pytest

from stiefelcd import problems
from stiefelcd.core import random_stiefel


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
    # power-iteration estimate should agree with the eigenvalue oracle
    top = max(abs(np.linalg.eigvalsh(a)))
    assert prob.lipschitz_est == pytest.approx(2.0 * top * np.sqrt(2.0), rel=1e-10)
    # and really bound the gradient on the unit shell
    rng = np.random.default_rng(3)
    for _ in range(100):
        from stiefelcd.core import random_shell_point

        x = random_shell_point(rng, 2, 1, 1.0 - rng.random())
        assert np.linalg.norm(prob.phi_subgrad(x, None)) <= prob.lipschitz_est + 1e-12


def test_quadratic_trace_rejects_asymmetric():
    with pytest.raises(ValueError):
        problems.make_quadratic_trace(np.array([[1.0, 2.0], [0.0, 1.0]]), p=1)


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


# ---------------------------------------------------------------------------
# l1 PCA
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# constants estimation
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_constants_rejects_non_finite_oracle(bad):
    # max() drops nan, so an all-nan oracle used to give zero bounds
    prob = problems.ProblemDefinition(
        n=4, p=2, phi_value=lambda x: 0.0, phi_subgrad=lambda x, rng: np.full((4, 2), bad)
    )
    with pytest.raises(ValueError, match="non-finite"):
        problems.estimate_constants(prob, samples=20, seed=0)


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
