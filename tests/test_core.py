import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelcd import core
from stiefelcd.errors import ConfigurationError, DimensionError, NumericalError


# ---------------------------------------------------------------------------
# independent scalar oracles used to freeze expected values
# ---------------------------------------------------------------------------

def poly_oracle(t):
    # direct evaluation of t*(15 - 10 t^2 + 3 t^4)/8, written out so a
    # coefficient typo in the library cannot leak into the expectation
    return (15.0 * t - 10.0 * t**3 + 3.0 * t**5) / 8.0


def poly_deriv_oracle(t):
    # d/dt of the oracle above, expanded term by term
    return (15.0 - 30.0 * t**2 + 15.0 * t**4) / 8.0


def exact_inverse_oracle(target, iters=80):
    # bisection for poly_oracle(t) = target in exact rationals on [0, 4]
    # (the root for target <= 30 is below 2.7); the polynomial is written
    # with integer coefficients so nothing rounds, and the only error left
    # is the final bracket width 4 / 2^iters
    target = Fraction(target)
    lo, hi = Fraction(0), Fraction(4)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mid * (15 - 10 * mid**2 + 3 * mid**4) / 8 <= target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def bisect_oracle(target, lo=-10.0, hi=10.0, iters=200):
    # monotone bisection for poly_oracle(t) = target
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if poly_oracle(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fd_jacobian_oracle(x, d, t=1e-5):
    return (core.apply_A(x + t * d) - core.apply_A(x - t * d)) / (2.0 * t)


def random_orthonormal(rng, n, p):
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q


# ---------------------------------------------------------------------------
# sym and validation
# ---------------------------------------------------------------------------

def test_sym_averages_off_diagonal():
    out = core.sym([[1.0, 2.0], [4.0, 3.0]])
    assert np.array_equal(out, np.array([[1.0, 3.0], [3.0, 3.0]]))


def test_sym_fixes_symmetric_input():
    m = np.array([[2.0, -1.0], [-1.0, 5.0]])
    assert np.array_equal(core.sym(m), m)


def test_sym_rejects_nonsquare():
    with pytest.raises(DimensionError):
        core.sym(np.ones((3, 2)))


def test_validate_matrix_rejects_wide_and_nonfinite():
    with pytest.raises(DimensionError):
        core.validate_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        core.validate_matrix(np.array([[np.nan], [1.0]]))
    with pytest.raises(DimensionError):
        core.validate_matrix(np.ones(4))


# ---------------------------------------------------------------------------
# apply_A
# ---------------------------------------------------------------------------

def test_apply_A_scalar_matches_polynomial_oracle():
    expected = poly_oracle(2.0)
    assert expected == 5.75  # 2*(15 - 40 + 48)/8, frozen by hand
    out = core.apply_A([[2.0]])
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(expected, abs=1e-14)


def test_apply_A_fixes_orthonormal_columns():
    rng = np.random.default_rng(7)
    for n, p in [(2, 1), (5, 3), (20, 5)]:
        q = random_orthonormal(rng, n, p)
        assert np.linalg.norm(core.apply_A(q) - q) <= 1e-13 * np.sqrt(p)


def test_apply_A_matches_singular_value_action():
    # A acts on singular values only: A(U s V') = U poly(s) V'
    rng = np.random.default_rng(3)
    u = random_orthonormal(rng, 6, 3)
    v = random_orthonormal(rng, 3, 3)
    s = np.array([0.3, 1.0, 2.5])
    x = (u * s) @ v.T
    expected = (u * poly_oracle(s)) @ v.T
    assert np.linalg.norm(core.apply_A(x) - expected) <= 1e-12


def test_scalar_map_and_deriv_match_oracles():
    ts = np.linspace(-3, 3, 41)
    assert np.allclose(core.scalar_map(ts), poly_oracle(ts), atol=1e-13)
    assert np.allclose(core.scalar_map_deriv(ts), poly_deriv_oracle(ts), atol=1e-12)
    assert core.scalar_map_deriv(1.0) == 0.0
    assert core.scalar_map_deriv(2.0) == pytest.approx(16.875, abs=1e-14)


# ---------------------------------------------------------------------------
# feasibility and shells
# ---------------------------------------------------------------------------

def test_feasibility_violation_values():
    assert core.feasibility_violation([[2.0]]) == pytest.approx(3.0, abs=1e-15)
    rng = np.random.default_rng(0)
    q = random_orthonormal(rng, 8, 2)
    assert core.feasibility_violation(q) <= 1e-13


def test_random_shell_point_hits_requested_radius():
    rng = np.random.default_rng(5)
    for radius in [1e-6, 0.1, 0.5, 1.0]:
        for n, p in [(4, 1), (9, 4)]:
            x = core.random_shell_point(rng, n, p, radius)
            assert core.feasibility_violation(x) == pytest.approx(radius, rel=1e-10)


# ---------------------------------------------------------------------------
# Gram residual factorization
# ---------------------------------------------------------------------------

def test_ata_identity_scalar_value():
    # both sides at X = [[2]]: psi(2)^2 - 1 and 27*(9*16 - 33*4 + 64)/64
    lhs, rhs = core.ata_residual_identity([[2.0]])
    hand_lhs = poly_oracle(2.0) ** 2 - 1.0
    hand_rhs = (4.0 - 1.0) ** 3 * (9.0 * 16.0 - 33.0 * 4.0 + 64.0) / 64.0
    assert hand_lhs == hand_rhs == 32.0625
    assert float(lhs[0, 0]) == pytest.approx(32.0625, abs=1e-15)
    assert float(rhs[0, 0]) == pytest.approx(32.0625, abs=1e-15)


def test_ata_identity_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.choice([3, 10, 20]))
        p = min(n, int(rng.choice([1, 3, 5])))
        x = rng.uniform(-2.0, 2.0, (n, p))
        lhs, rhs = core.ata_residual_identity(x)
        resid = float(np.sqrt(np.sum((lhs - rhs) ** 2)))
        assert resid <= 1e-11 * max(1.0, np.linalg.norm(x) ** 2)


def test_cubic_feasibility_contraction():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, min(n, 5) + 1))
        radius = rng.uniform(0.0, 1.0) or 1e-3
        x = core.random_shell_point(rng, n, p, radius)
        v = core.feasibility_violation(x)
        assert core.feasibility_violation(core.apply_A(x)) <= v**3 + 1e-12


# ---------------------------------------------------------------------------
# Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_scalar_matches_derivative_oracle():
    out = core.jacobian_apply([[2.0]], [[1.0]])
    assert out[0, 0] == pytest.approx(poly_deriv_oracle(2.0), abs=1e-13)
    assert poly_deriv_oracle(2.0) == 16.875


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = rng.uniform(-2.0, 2.0, (n, p))
        d = rng.standard_normal((n, p))
        d /= np.linalg.norm(d)
        jd = core.jacobian_apply(x, d)
        fd = fd_jacobian_oracle(x, d)
        assert np.linalg.norm(jd - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


def test_jacobian_reduces_to_tangent_projection_on_manifold():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, min(n, 5) + 1))
        q = random_orthonormal(rng, n, p)
        d = rng.standard_normal((n, p))
        jd = core.jacobian_apply(q, d)
        closed = d - q @ core.sym(d.T @ q)
        assert np.linalg.norm(jd - closed) <= 1e-12 * max(1.0, np.linalg.norm(d))
        assert np.linalg.norm(jd - core.project_tangent(q, d)) <= 1e-12 * max(
            1.0, np.linalg.norm(d)
        )


def _jacobian_scale(x):
    # crude bound on the operator norm of the Jacobian, used to scale
    # roundoff tolerances for inner products against it
    gn = np.linalg.norm(x.T @ x)
    return (15.0 + 10.0 * gn + 3.0 * gn * gn) / 8.0 + 3.0 * gn


def test_jacobian_self_adjoint():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 20))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = rng.uniform(-2.0, 2.0, (n, p))
        d = rng.standard_normal((n, p))
        w = rng.standard_normal((n, p))
        lhs = np.sum(core.jacobian_apply(x, d) * w)
        rhs = np.sum(d * core.jacobian_apply(x, w))
        scale = np.linalg.norm(d) * np.linalg.norm(w) * max(1.0, _jacobian_scale(x))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_jacobian_normal_component_identity_scalar():
    # <J(x)[w], x(x^2-1)> = (15/8) <x w, (x^2-1)^3> at x = 2, w = 1:
    # 16.875 * 6 = 101.25 and (15/8) * 2 * 27 = 101.25
    x = np.array([[2.0]])
    w = np.array([[1.0]])
    lhs = np.sum(core.jacobian_apply(x, w) * (x * (4.0 - 1.0)))
    rhs = (15.0 / 8.0) * 2.0 * 27.0
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == 101.25


def test_jacobian_normal_component_identity_random():
    rng = np.random.default_rng(29)
    eyec = np.eye
    for _ in range(200):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, min(n, 5) + 1))
        x = rng.uniform(-2.0, 2.0, (n, p))
        w = rng.standard_normal((n, p))
        g = core.sym(x.T @ x)
        r = g - eyec(p)
        lhs = np.sum(core.jacobian_apply(x, w) * (x @ r))
        rhs = (15.0 / 8.0) * np.sum(core.sym(x.T @ w) * (r @ r @ r))
        scale = 1.0 + abs(lhs) + abs(rhs) + np.linalg.norm(w) * max(1.0, _jacobian_scale(x))
        assert abs(lhs - rhs) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_stiefel_rescales_scaled_orthonormal():
    rng = np.random.default_rng(31)
    q = random_orthonormal(rng, 7, 3)
    pt = core.project_stiefel(2.0 * q)
    assert np.linalg.norm(pt.matrix - q) <= 1e-12
    assert not pt.rank_deficient


def test_project_stiefel_flags_rank_deficiency():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    pt = core.project_stiefel(x)
    assert pt.rank_deficient
    assert core.feasibility_violation(pt.matrix) <= 1e-12


def test_projection_distance_bounds():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(2, 15))
        p = int(rng.integers(1, min(n, 5) + 1))
        radius = rng.uniform(0.0, 0.5) or 1e-3
        x = core.random_shell_point(rng, n, p, radius)
        v = core.feasibility_violation(x)
        pt = core.project_stiefel(x).matrix
        assert np.linalg.norm(x - pt) <= v
        assert np.linalg.norm(core.apply_A(x) - pt) <= 4.0 * v**3 + 1e-15


def test_stiefel_point_validates_feasibility():
    with pytest.raises(ValueError):
        core.StiefelPoint(matrix=np.array([[2.0]]))
    rng = np.random.default_rng(41)
    q = random_orthonormal(rng, 5, 2)
    pt = core.StiefelPoint(matrix=q)
    assert pt.shape == (5, 2)


@pytest.mark.parametrize("scale", [1.0 + 1e-12, 1.0 + 1e-9, 1.0 - 3e-12])
def test_stiefel_point_rejects_a_slightly_infeasible_matrix_with_its_norm(scale):
    q = random_orthonormal(np.random.default_rng(42), 6, 3)
    x = scale * q
    v = np.linalg.norm(x.T @ x - np.eye(3))
    assert v > 1e-12
    message = f"point is not feasible: ||X'X - I||_F = {v:.3e} > 1.000e-12"
    with pytest.raises(ValueError, match=re.escape(message)):
        core.StiefelPoint(matrix=x)


# ---------------------------------------------------------------------------
# inverse map
# ---------------------------------------------------------------------------

def test_inverse_scalar_matches_bisection_oracle():
    root = bisect_oracle(5.75)
    assert root == pytest.approx(2.0, abs=1e-12)
    out = core.inverse_A([[5.75]])
    assert out[0, 0] == pytest.approx(root, abs=1e-12)


def test_inverse_of_zero_is_zero():
    out = core.inverse_A(np.zeros((4, 2)))
    assert np.array_equal(out, np.zeros((4, 2)))


# the inverse has unbounded slope at s = 1, where A(t) - 1 ~ (5/2) (t - 1)^3
NEAR_ONE_SPECTRUM = (1.0, 1.0 + 2.0**-40, 1.0 - 2.0**-40, 1.0 + 1e-6, 1.0 - 1e-6, 0.5, 2.0, 30.0)


@pytest.mark.parametrize("s", NEAR_ONE_SPECTRUM)
def test_inverse_scalar_matches_exact_rational_root(s):
    out = core.inverse_A([[s]])
    assert abs(Fraction(float(out[0, 0])) - exact_inverse_oracle(s)) <= Fraction(1e-15)


@pytest.mark.parametrize("s", [1e-12, 3e-9, 1e-4])
def test_inverse_keeps_relative_accuracy_for_small_values(s):
    t = Fraction(float(core.inverse_A([[s]])[0, 0]))
    exact = exact_inverse_oracle(s, iters=160)
    assert abs(t - exact) <= Fraction(1e-15) * exact


def test_inverse_diagonal_matches_exact_rational_roots():
    # a diagonal matrix's singular values and vectors come out of the SVD exactly
    idx = np.arange(len(NEAR_ONE_SPECTRUM))
    y = np.zeros((idx.size + 2, idx.size))
    y[idx, idx] = NEAR_ONE_SPECTRUM
    out = core.inverse_A(y)
    diag = out[idx, idx].copy()
    out[idx, idx] = 0.0
    assert not out.any()
    for s, t in zip(NEAR_ONE_SPECTRUM, diag):
        assert abs(Fraction(float(t)) - exact_inverse_oracle(s)) <= Fraction(1e-15)


def test_inverse_returns_orthonormal_input():
    # a signed partial permutation has exactly orthonormal columns in floating
    # point, so its singular values are exactly 1.  (A Q from QR is off by
    # ~1e-16 there, and its exact preimage lies cbrt(1e-16 / 2.5) ~ 3e-6 away.)
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, n + 1))
        q = np.zeros((n, p))
        q[rng.choice(n, p, replace=False), np.arange(p)] = rng.choice([-1.0, 1.0], p)
        assert np.max(np.abs(core.inverse_A(q) - q)) <= 1e-15


def test_inverse_returns_orthonormal_hadamard_columns():
    # signed Hadamard columns over 4 are exactly orthonormal, but unlike a
    # permutation their SVD returns singular vectors that are unit only to
    # ~1e-16; the Rayleigh refinement must divide that out
    h = np.ones((1, 1))
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    signs = np.where(np.arange(16) % 3 == 0, -1.0, 1.0)
    for p, tol in ((1, 1e-15), (2, 1e-15), (3, 1e-15), (8, 5e-7)):
        q = h[:, :p] * signs[:p] / 4.0
        assert np.array_equal(q.T @ q, np.eye(p))
        assert np.max(np.abs(core.inverse_A(q) - q)) <= tol


def test_inverse_roundtrip_on_sampled_spectra():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(300):
        n, p = 12, 4
        u = random_orthonormal(rng, n, p)
        v = random_orthonormal(rng, p, p)
        s = rng.uniform(0.0, 3.0, p)
        x = (u * s) @ v.T
        back = core.inverse_A(core.apply_A(x))
        worst = max(worst, np.linalg.norm(back - x) / max(1.0, np.linalg.norm(x)))
    assert worst <= 1e-10


def test_inverse_respects_tolerance_argument():
    y = np.array([[3.0, 0.1], [0.0, 0.5], [0.2, 0.0]])
    x = core.inverse_A(y, tol=1e-14)
    assert np.linalg.norm(core.apply_A(x) - y) <= 1e-14 * max(1.0, np.linalg.norm(y)) * 10


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), -float("inf")])
def test_inverse_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    rule = "positive" if np.isfinite(tol) else "finite"
    with pytest.raises(ConfigurationError, match=f"^tol must be {rule}, got {tol}$"):
        core.inverse_A([[5.75]], tol=tol)


# ---------------------------------------------------------------------------
# dissolved objective
# ---------------------------------------------------------------------------

def test_ncdf_value_penalty_only():
    cfg = core.PenaltyConfig(beta=1.0)
    # f == 0, X = [[2]]: h = (1/4) * 3^2
    val = core.ncdf_value(lambda a: 0.0, [[2.0]], cfg)
    assert val == pytest.approx(2.25, abs=1e-14)


def test_ncdf_value_with_entry_sum():
    cfg = core.PenaltyConfig(beta=1.0)
    val = core.ncdf_value(lambda a: float(np.sum(a)), [[2.0]], cfg)
    assert val == pytest.approx(poly_oracle(2.0) + 2.25, abs=1e-14)
    assert poly_oracle(2.0) + 2.25 == 8.0


def test_ncdf_subgradient_linear_objective():
    cfg = core.PenaltyConfig(beta=1.0)
    out = core.ncdf_subgradient(lambda a: np.ones((1, 1)), [[2.0]], cfg)
    # derivative oracle 16.875 plus penalty 1 * 2 * 3
    assert out[0, 0] == pytest.approx(poly_deriv_oracle(2.0) + 6.0, abs=1e-13)
    assert poly_deriv_oracle(2.0) + 6.0 == 22.875


def test_ncdf_subgradient_zero_objective():
    cfg = core.PenaltyConfig(beta=2.0)
    out = core.ncdf_subgradient(lambda a: np.zeros((1, 1)), [[2.0]], cfg)
    assert out[0, 0] == pytest.approx(12.0, abs=1e-13)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1.5, 1e3])
def test_ncdf_value_and_subgradient_match_the_frozen_formulas_bitwise(scale):
    # h and its gradient written out term by term, in the order the public
    # kernels evaluated them before they shared the stacked helpers
    rng = np.random.default_rng(17)
    m = rng.standard_normal((9, 9))
    a = m + m.T
    beta = 0.7

    def f_value(y):
        return float(-np.sum(y * (a @ y)))

    def f_subgrad(y):
        return -2.0 * (a @ y)

    cfg = core.PenaltyConfig(beta=beta)
    for _ in range(5):
        x = scale * rng.standard_normal((9, 3))
        g = x.T @ x
        resid = g - np.eye(3)
        poly = 1.875 * np.eye(3) + -1.25 * g + 0.375 * (g @ g)
        y = x @ poly
        v = float(np.linalg.norm(resid))
        assert repr(core.ncdf_value(f_value, x, cfg)) == repr(f_value(y) + 0.25 * beta * v * v)
        w = f_subgrad(y)
        sym_xw = 0.5 * (x.T @ w + w.T @ x)
        mix = sym_xw @ resid
        jac = w @ poly - x @ sym_xw + 1.5 * (x @ (0.5 * (mix + mix.T)))
        want = jac + beta * (x @ resid)
        assert np.array_equal(core.ncdf_subgradient(f_subgrad, x, cfg), want)


def test_ncdf_matches_projected_subgradient_on_manifold():
    rng = np.random.default_rng(43)
    cfg = core.PenaltyConfig(beta=0.7)
    for _ in range(20):
        q = random_orthonormal(rng, 8, 3)
        w = rng.standard_normal((8, 3))
        out = core.ncdf_subgradient(lambda a: w, q, cfg)
        assert np.linalg.norm(out - core.project_tangent(q, w)) <= 1e-11


def test_penalty_config_requires_positive_beta():
    with pytest.raises(ValueError):
        core.PenaltyConfig(beta=0.0)




def test_scalar_root_solver_failure_is_detectable():
    with pytest.raises(NumericalError):
        core._scalar_map_inverse(np.array([2.0]), tol=1e-25)


def frozen_scalar_map_inverse(sigma, tol):
    # the root solve as it ran on a whole array of singular values at once, before
    # it solved them entry by entry
    ld = np.longdouble
    sigma = np.asarray(sigma, dtype=ld)
    one = ld(1)
    c = ld(8) * (sigma - one)
    lo = -(one + sigma)
    hi = one + np.maximum(sigma, one)
    t = one + np.minimum(np.cbrt(c / ld(20)), np.abs(c / ld(3)) ** ld(0.2))
    ulps = ld(4) * np.finfo(ld).eps
    for _ in range(32):
        q = (ld(3) * t + ld(9)) * t + ld(8)
        r = np.cbrt(c / q)
        step = ((t - one) - r) / (one + r * (ld(6) * t + ld(9)) / (ld(3) * q))
        t = np.clip(t - step, lo, hi)
        if np.all(np.abs(step) <= ulps * np.maximum(np.abs(t), one)):
            break
    small = sigma < ld(0.5)
    polish = (core.scalar_map(t) - sigma) / core.scalar_map_deriv(np.where(small, t, ld(0)))
    t = np.where(sigma == 0, ld(0), np.where(small, t - polish, t))
    resid = np.abs(core.scalar_map(t) - sigma)
    bound = ld(tol) * np.maximum(one, sigma)
    if not np.all(resid <= bound):
        worst = float(np.max(resid / np.maximum(bound, ld(1e-300))))
        raise NumericalError(
            f"scalar root solve missed its target by {worst:.2e}x the tolerance"
        )
    return t


def outcome(solve, sigma, tol):
    try:
        return solve(sigma, tol), None
    except NumericalError as err:
        return None, str(err)


# one singular value: uniform on the inverse_roundtrip check's range, within
# 1e-16..1e-1 of 1 on either side, log-uniform over 1e-12..1e8, exactly 0, 1/2 or
# 1, or nan; tol 1e-25 makes every solve miss its target
singular_values = st.one_of(
    st.floats(0.0, 3.0),
    st.builds(lambda sign, e: 1.0 + sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -1.0)),
    st.builds(lambda e: 10.0**e, st.floats(-12.0, 8.0)),
    st.sampled_from([0.0, 0.5, 1.0, float("nan")]),
)


@settings(max_examples=300, deadline=None, database=None)
@example(sigma=[1.0, 1.0 + 1e-16, 1.0 - 1e-16], tol=1e-14)
@example(sigma=[0.0, 0.5, 1e8, 1e-12], tol=1e-14)
@example(sigma=[2.0, float("nan")], tol=1e-14)
@example(sigma=[2.0], tol=1e-25)
@given(sigma=st.lists(singular_values, min_size=1, max_size=6), tol=st.sampled_from([1e-14, 1e-25]))
def test_scalar_root_solve_matches_the_array_solve_bitwise(sigma, tol):
    got, got_error = outcome(core._scalar_map_inverse, np.array(sigma), tol)
    want, want_error = outcome(frozen_scalar_map_inverse, np.array(sigma), tol)
    assert got_error == want_error
    if want is not None:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# private kernels on stacked iterates
# ---------------------------------------------------------------------------

# stacks of up to 4 rows, as the step-size grid makes, and of 64, as a block of trace rows;
# a stack of one, as a single run's block of one trace row, is always among the examples
@settings(max_examples=20, deadline=None, database=None)
@example(shape=(1, 2, 1), scale=1.0, seed=0)
@example(shape=(1, 9, 3), scale=1e3, seed=1)
@given(
    shape=st.tuples(
        st.one_of(st.integers(1, 4), st.just(64)), st.integers(1, 9), st.integers(1, 9)
    ).filter(lambda s: s[1] >= s[2]),
    scale=st.sampled_from([1e-3, 1.0, 1.5, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_private_kernels_on_a_stack_match_each_slice_bitwise(shape, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    resid, poly = core._state(x)
    q, smallest = core._polar(x)
    stacked = {
        "gram": core._gram(x),
        "resid": resid,
        "poly": poly,
        "map": core._map(x, poly),
        "jacobian": core._jacobian(x, w, resid, poly),
        "tangent": core._tangent(x, w),
        "polar": q,
        "smallest": smallest,
        "fro": core._fro(resid),
        "fro_tangent": core._fro(core._tangent(q, w)),
    }
    for b in range(shape[0]):
        xb, wb = x[b], w[b]
        resid_b, poly_b = core._state(xb)
        q_b, smallest_b = core._polar(xb)
        single = {
            "gram": core._gram(xb),
            "resid": resid_b,
            "poly": poly_b,
            "map": core._map(xb, poly_b),
            "jacobian": core._jacobian(xb, wb, resid_b, poly_b),
            "tangent": core._tangent(xb, wb),
            "polar": q_b,
            "smallest": smallest_b,
            "fro": np.linalg.norm(resid_b),
            "fro_tangent": np.linalg.norm(core._tangent(q_b, wb)),
        }
        for name, value in single.items():
            assert np.array_equal(stacked[name][b], value), name
        assert core._fro(resid_b) == single["fro"]


# _gram is used unsymmetrized: numpy's X'X of a C-contiguous operand is exactly symmetric
@pytest.mark.parametrize("batch", [1, 2, 10, 64])
@pytest.mark.parametrize("shape", [(2, 1), (12, 3), (100, 5), (1000, 10), (200, 100)])
def test_gram_of_a_c_contiguous_stack_is_exactly_symmetric(shape, batch):
    x = np.random.default_rng(batch).standard_normal((batch, *shape))
    g = core._gram(x)
    assert np.array_equal(g, g.swapaxes(-1, -2))
    assert np.array_equal(core._gram(x[0]), core._gram(x[0]).T)


def test_public_kernels_hand_gram_a_c_contiguous_operand(monkeypatch):
    # a column-strided view is not C-contiguous; validate_matrix copies it, so
    # the Gram matrices that apply_A and feasibility_violation form are symmetric
    view = np.random.default_rng(0).standard_normal((200, 200))[:, ::2]
    assert view.shape == (200, 100) and not view.flags.c_contiguous
    grams, gram = [], core._gram

    def recording(x):
        grams.append(gram(x))
        return grams[-1]

    monkeypatch.setattr(core, "_gram", recording)
    core.apply_A(view)
    core.feasibility_violation(view)
    assert len(grams) == 2
    for g in grams:
        assert np.array_equal(g, g.T)


# ---------------------------------------------------------------------------
# stacked LAPACK and stacked shell points
# ---------------------------------------------------------------------------

# the shapes of test_private_kernels_on_a_stack_match_each_slice_bitwise
@settings(max_examples=20, deadline=None, database=None)
@example(shape=(1, 2, 1), scale=1.0, seed=0)
@example(shape=(64, 9, 3), scale=1.0, seed=1)
@given(
    shape=st.tuples(
        st.one_of(st.integers(1, 4), st.just(64)), st.integers(1, 9), st.integers(1, 9)
    ).filter(lambda s: s[1] >= s[2]),
    scale=st.sampled_from([1e-3, 1.0, 1.5, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_svd_and_eigh_match_each_slice_bitwise(shape, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal(shape)
    s = scale * rng.standard_normal((shape[0], shape[2], shape[2]))
    s = s + s.swapaxes(-1, -2)
    stacked = (*np.linalg.svd(x, full_matrices=False), *np.linalg.eigh(s))
    for b in range(shape[0]):
        single = (*np.linalg.svd(x[b], full_matrices=False), *np.linalg.eigh(s[b]))
        for name, got, want in zip(("u", "s", "vt", "w", "v"), stacked, single, strict=True):
            assert np.array_equal(got[b], want), name


def frozen_shell_point(rng, n, p, radius):
    # the 2-d construction random_shell_point ran before it became a stack of one
    u, _, vt = np.linalg.svd(rng.standard_normal((n, p)), full_matrices=False)
    q = u @ vt
    if radius == 0:
        return q
    s = rng.standard_normal((p, p))
    s = 0.5 * (s + s.T)
    fro = np.linalg.norm(s)
    if fro == 0:
        s = np.eye(p)
        fro = np.sqrt(p)
    w, v = np.linalg.eigh(np.eye(p) + (radius / fro) * s)
    return q @ ((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


class ZeroDirections:
    """A generator whose square draws are all zero, so every direction takes the identity."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self):
        return self.rng.random()

    def standard_normal(self, size=None, out=None):
        draw = self.rng.standard_normal(size if out is None else out.shape)
        if draw.shape[0] == draw.shape[1]:
            draw[...] = 0.0
        if out is None:
            return draw
        out[...] = draw
        return out


# radius factors f: sample i has radius f * (1 - rng.random()), drawn first as in the diagnostics
@pytest.mark.parametrize(
    "factors",
    [[0.5], [0.0], [0.3, 0.0, 1.0, 1e-9, 0.0, 0.7, 0.2], [1.0] * 200],
    ids=["one", "zero", "mixed", "200"],
)
@pytest.mark.parametrize(
    "generator, n, p",
    [
        (np.random.default_rng, 2, 1),
        (np.random.default_rng, 10, 3),
        (np.random.default_rng, 7, 7),
        (ZeroDirections, 2, 1),  # tall shapes only: a square (n, p) draw would be zeroed too
        (ZeroDirections, 10, 3),
    ],
    ids=["2x1", "10x3", "7x7", "2x1-zero-directions", "10x3-zero-directions"],
)
def test_shell_points_match_serial_random_shell_point_calls_bitwise(generator, n, p, factors):
    stacked, serial, frozen = (generator(11) for _ in range(3))
    draws = iter(factors)
    x = core._shell_points(stacked, n, p, lambda g: next(draws) * (1.0 - g.random()), len(factors))
    assert x.shape == (len(factors), n, p)
    for b, factor in enumerate(factors):
        one = core.random_shell_point(serial, n, p, factor * (1.0 - serial.random()))
        assert np.array_equal(x[b], one)
        assert np.array_equal(x[b], frozen_shell_point(frozen, n, p, factor * (1.0 - frozen.random())))
    assert stacked.random() == serial.random() == frozen.random()


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), -float("inf")])
def test_shell_points_reject_a_radius_that_is_not_finite(radius):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"radius must be .*, got {radius}"):
        core.random_shell_point(rng, 5, 2, radius)
    assert rng.bit_generator.state == before  # rejected before any draw
    radii = iter([0.5, radius])
    with pytest.raises(ValueError, match=f"radius must be .*, got {radius}"):
        core._shell_points(rng, 5, 2, lambda g: next(radii), 2)


def test_shell_points_reject_a_negative_radius_and_a_wide_shape():
    rng = np.random.default_rng(0)
    radii = iter([0.5, -0.25])
    with pytest.raises(ValueError, match="radius must be nonnegative, got -0.25"):
        core._shell_points(rng, 5, 2, lambda g: next(radii), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        core.random_shell_point(rng, 5, 2, -1.0)
    with pytest.raises(DimensionError):
        core.random_shell_point(rng, 2, 5, 0.5)
