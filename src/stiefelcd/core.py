"""Numerical kernels for dissolving orthogonality constraints.

The central object is the polynomial map

    A(X) = (1/8) * X * (15*I - 10*(X'X) + 3*(X'X)^2),

which fixes every matrix with orthonormal columns and pulls a neighborhood
of the Stiefel manifold onto it at a cubic rate: the Gram residual of A(X)
is bounded by the cube of the Gram residual of X.  Composing an objective
f with A and adding the quartic penalty (beta/4)*||X'X - I||_F^2 yields an
unconstrained surrogate whose values and (generalized) gradients agree
with the constrained problem on the manifold.  Safeguarded runs keep
their iterates inside the shell ||X'X - I||_F <= SHELL_RADIUS = 1/6.

All matrices are dense float64 arrays with at least as many rows as
columns.  validate_matrix returns them C-contiguous, and numpy's X'X of a
C-contiguous X is exactly symmetric, so no Gram matrix needs symmetrizing.

The public kernels validate each input once, at the boundary, and then
call only private, unchecked helpers (_gram, _terms, _state, _poly, _fro,
_violation, _map, _jacobian, _tangent, _polar, _certified,
_scalar_map_inverse, _h, _h_grad, _shell_points), never another public
kernel that would validate it again: StiefelPoint certifies the matrix it
has just validated through _violation, not feasibility_violation.  The
solver loop calls the same helpers directly on one per-iterate state: the
Gram residual G - I for the guard and the penalty gradient X (G - I), and,
where read, M / 8 = 1.875 I - 1.25 G + 0.375 G^2 (the map polynomial
divided by 8, exact away from overflow and subnormals) for A(X) = X (M / 8)
and the Jacobian.
The private helpers transpose only the last two axes, so they also accept
a stack of iterates of shape (B, n, p) and act on each slice exactly as
on the 2-d matrix alone; the solver driver advances every run that way, a
single run as a stack of one, and the diagnostics evaluate their
fixed-shape samples that way.

Every module checks its scalar arguments with the helpers here, _number,
_integer, _finite, _nonnegative and _positive: each raises
ConfigurationError with a message "<name> must be ..., got <value>".
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError

# Coefficients of the degree-five map, lowest Gram power first.  This is
# the unique choice that both fixes the manifold to second order and keeps
# the map's Jacobian self-adjoint; flipping any sign breaks every identity
# checked by the diagnostics suite.
_A_COEFFS = (15.0, -10.0, 3.0)

# Factor polynomial of the Gram residual identity, see ata_residual_identity.
_RESIDUAL_COEFFS = (9.0, -33.0, 64.0)

# Gram residual radius of the feasibility shell that safeguarded runs
# (feas_shell_check) must stay inside.
SHELL_RADIUS = 1.0 / 6.0


def _number(name: str, value) -> float:
    """value as a float, ±inf past float range; raise ConfigurationError unless a non-bool real."""
    if isinstance(value, float):  # the common case, spared the slower abstract-class check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer (or fraction) too large for a float
        return math.inf if value > 0 else -math.inf


def _integer(name: str, value, least=None) -> int:
    """value as an int; raise ConfigurationError unless a non-bool integer >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _finite(name: str, value) -> float:
    """value as a float; raise ConfigurationError unless a finite number."""
    if not math.isfinite(number := _number(name, value)):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return number


def _nonnegative(name: str, value) -> float:
    """value as a float; raise ConfigurationError unless a finite nonnegative number."""
    if (number := _number(name, value)) < 0:
        raise ConfigurationError(f"{name} must be nonnegative, got {value}")
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return number


def _positive(name: str, value) -> float:
    """value as a float; raise ConfigurationError unless a finite number > 0."""
    if not (number := _finite(name, value)) > 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return number


def validate_matrix(x, name: str = "matrix") -> np.ndarray:
    """Return x as a C-contiguous float64 array after checking shape and finiteness.

    Accepts tall or square 2-d input (rows >= columns >= 1).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-d, got ndim={arr.ndim}")
    n, p = arr.shape
    if p < 1 or n < p:
        raise DimensionError(f"{name} must be tall or square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def sym(m) -> np.ndarray:
    """Symmetric part (M + M') / 2 of a square matrix."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"sym expects a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("sym input contains non-finite entries")
    return 0.5 * (arr + arr.T)


def _gram(x: np.ndarray) -> np.ndarray:
    # X'X of a C-contiguous x (a stack too) is exactly symmetric as numpy computes it
    return x.swapaxes(-1, -2) @ x


@lru_cache(maxsize=16)
def _eye(p: int, ndim: int, scale: float = 1.0) -> np.ndarray:
    """Read-only scale * I with ndim axes, built once; matching axes spare a broadcast set-up."""
    eye = scale * np.eye(p).reshape((1,) * (ndim - 2) + (p, p))
    eye.flags.writeable = False
    return eye


def _terms(p: int, ndim: int):
    """(I, c0 I, c1, c2) with ndim axes: the identity and M / 8 = c0 I + c1 G + c2 G^2."""
    c0, c1, c2 = _A_COEFFS
    return _eye(p, ndim), _eye(p, ndim, c0 / 8.0), c1 / 8.0, c2 / 8.0


def _state(x: np.ndarray):
    """(G - I, M / 8) of an unchecked C-contiguous x."""
    g, terms = _gram(x), _terms(x.shape[-1], x.ndim)
    return g - terms[0], _poly(g, terms)


def _poly(g: np.ndarray, terms) -> np.ndarray:
    """M / 8 = c0 I + c1 G + c2 G^2 from the Gram matrix g; terms is _terms(p, g.ndim)."""
    _, eye0, c1, c2 = terms
    return eye0 + c1 * g + c2 * (g @ g)


def _fro(m: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, bitwise np.linalg.norm of each slice.

    Both take the square root of the same dot product of the flattened
    slice; the batched matmul of a row by a column runs that dot product.
    """
    flat = m.reshape(*m.shape[:-2], 1, -1)
    return np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]


def _norm(m) -> float:
    """np.linalg.norm(m) of a float64 array without its wrapper: the root of the same dot."""
    r = m.ravel(order="K")
    return math.sqrt(r.dot(r))


def _violation(x) -> float:
    """feasibility_violation of an unchecked 2-d C-contiguous x."""
    r = (_gram(x) - _eye(x.shape[1], 2)).ravel()
    return math.sqrt(r.dot(r))  # bitwise np.linalg.norm(r), without its wrapper


def _map(x: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """A(X) = X (M / 8) for the map polynomial M of x, given divided by 8."""
    return x @ poly


def _jacobian(x, d, resid, poly) -> np.ndarray:
    """J(X)[D] from x's Gram residual G - I and map polynomial M / 8; see jacobian_apply."""
    s = 0.5 * (x.swapaxes(-1, -2) @ d + d.swapaxes(-1, -2) @ x)
    mix = s @ resid
    return d @ poly - x @ s + 1.5 * (x @ (0.5 * (mix + mix.swapaxes(-1, -2))))


def _tangent(x, w) -> np.ndarray:
    """W - X sym(X'W), unchecked; see project_tangent."""
    return w - x @ (0.5 * (x.swapaxes(-1, -2) @ w + w.swapaxes(-1, -2) @ x))


def _polar(x):
    """Polar factor U V' of an unchecked x and its smallest singular value."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return u @ vt, s[..., -1]


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A matrix certified to have orthonormal columns: ||X'X - I||_F <= 1e-12.

    rank_deficient flags projections of inputs whose smallest singular
    value was below 1e-12; the projected matrix is still orthonormal but
    no longer unique.
    """

    matrix: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        m = validate_matrix(self.matrix, "stiefel point")
        object.__setattr__(self, "matrix", m.copy())
        v = _violation(m)
        if v > 1e-12:
            raise ValueError(f"point is not feasible: ||X'X - I||_F = {v:.3e} > 1.000e-12")

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class PenaltyConfig:
    """Weight of the quartic Gram penalty (beta/4)*||X'X - I||_F^2."""

    beta: float = 0.1

    def __post_init__(self):
        _positive("beta", self.beta)


def apply_A(x) -> np.ndarray:
    """Evaluate the constraint-dissolving map X (15 I - 10 G + 3 G^2) / 8."""
    x = validate_matrix(x)
    return _map(x, _state(x)[1])


def feasibility_violation(x) -> float:
    """Gram residual ||X'X - I_p||_F; zero exactly on the manifold."""
    return _violation(validate_matrix(x))


def ata_residual_identity(x):
    """Both sides of the exact factorization of the mapped Gram residual.

    Returns the pair (lhs, rhs) with

        lhs = A(X)'A(X) - I
        rhs = (1/64) (X'X - I)^3 (9 (X'X)^2 - 33 X'X + 64 I),

    which agree identically.  Both sides are evaluated and returned in
    extended precision: at the largest admissible inputs their common
    magnitude reaches ~1e8, where float64 rounding alone (~1e-8) would
    swamp the identity, so the comparison is meaningful only above
    double's representation floor.
    """
    x = validate_matrix(x)
    ld = np.longdouble
    xl = x.astype(ld)
    eye = np.eye(x.shape[1], dtype=ld)
    g = xl.T @ xl  # numpy has no BLAS for longdouble, so symmetrize it here
    g = 0.5 * (g + g.T)
    a = _map(xl, _poly(g, _terms(x.shape[1], 2)))
    lhs = a.T @ a - eye
    r = g - eye
    d0, d1, d2 = (ld(c) for c in _RESIDUAL_COEFFS)
    rhs = (r @ r @ r) @ (d0 * (g @ g) + d1 * g + d2 * eye) / ld(64)
    return lhs, rhs


def jacobian_apply(x, d) -> np.ndarray:
    """Directional derivative of apply_A at x along d.

    J(X)[D] = (1/8) D (15 I - 10 G + 3 G^2) - X S + (3/2) X sym(S (G - I))
    with G = X'X and S = sym(X'D).  The operator is self-adjoint, and on
    the manifold it reduces to the tangent projection D - X sym(X'D).
    """
    x = validate_matrix(x, "x")
    d = validate_matrix(d, "d")
    if d.shape != x.shape:
        raise DimensionError(f"direction shape {d.shape} != base shape {x.shape}")
    return _jacobian(x, d, *_state(x))


def project_tangent(x, w) -> np.ndarray:
    """Tangent-space component W - X sym(X'W) at a feasible point x."""
    x = validate_matrix(x, "x")
    w = validate_matrix(w, "w")
    if w.shape != x.shape:
        raise DimensionError(f"shape {w.shape} != base shape {x.shape}")
    return _tangent(x, w)


def _certified(q, smallest) -> StiefelPoint:
    """project_stiefel's point from _polar's polar factor q and smallest singular value."""
    return StiefelPoint(q, bool(smallest < 1e-12))


def project_stiefel(x) -> StiefelPoint:
    """Closest matrix with orthonormal columns, via the economical SVD.

    For X = U diag(s) V' the projection is U V'.  When the smallest
    singular value is below 1e-12 the projection is not unique; the
    returned point carries rank_deficient=True in that case.
    """
    return _certified(*_polar(validate_matrix(x)))


def scalar_map(t):
    """Polynomial t (15 - 10 t^2 + 3 t^4) / 8 applied to each singular value."""
    return _scalar_map(np.asarray(t))


def scalar_map_deriv(t):
    """Derivative (15/8) (t^2 - 1)^2 of scalar_map; vanishes only at |t| = 1."""
    return _scalar_map_deriv(np.asarray(t))


# scalar_map and scalar_map_deriv of an array, or of a numpy scalar, which they
# take as it is: the root solve spares a 0-d array per operation that way
def _scalar_map(t):
    c0, c1, c2 = _A_COEFFS
    t2 = t * t
    return t * (c0 + c1 * t2 + c2 * t2 * t2) / 8.0


def _scalar_map_deriv(t):
    q = t * t - 1.0
    return 1.875 * q * q


def _scalar_map_inverse(sigma, tol):
    """Solve scalar_map(t) = sigma per entry, sigma >= 0, in extended precision.

    The map factors exactly as

        scalar_map(t) - 1 = (t - 1)^3 (3 t^2 + 9 t + 8) / 8,

    and the quadratic factor has no real root (discriminant 81 - 96 < 0),
    so the root is the zero of g(t) = (t - 1) - cbrt(8 (sigma - 1) / q(t))
    with q(t) = 3 t^2 + 9 t + 8.  Unlike scalar_map(t) - sigma, whose
    triple root at t = 1 makes plain Newton converge only linearly and
    leaves t resolved to the cube root of the rounding error, g has slope
    near 1 there: an error in t is an error of the same size in g.  Newton
    steps on g start from the smaller of two upper bounds on the root,
    1 + cbrt((sigma - 1) / 2.5) (q >= 20 for t >= 1) and
    1 + (8 (sigma - 1) / 3)^(1/5) (q >= 3 (t - 1)^2), stay clipped to the
    bracket [-(1 + sigma), 1 + max(sigma, 1)] and stop once a step is below
    a few ulps of t.  Since t - 1 cancels for small t, g resolves t only
    to within a few ulps of 1; below sigma = 1/2 (t < 0.29, where the map's
    slope is at least 1.6) one Newton step on the map itself cuts that
    error to about 1e-38.  sigma = 0 maps to t = 0 exactly.

    The entries are solved one by one as np.longdouble scalars, which costs
    a fraction of a numpy call per operation where an array of a few
    singular values costs a whole one.  They share one stop rule: every
    entry takes the same number of Newton steps, until the step of each
    entry is within the few ulps, so every root is the one a single array
    of all the entries would give.
    """
    ld = np.longdouble
    sigma = np.asarray(sigma, dtype=ld)
    one, three, six, eight, nine = ld(1), ld(3), ld(6), ld(8), ld(9)
    entries = sigma.ravel().tolist()  # np.longdouble scalars
    c = [eight * (s - one) for s in entries]
    bracket = [(-(one + s), one + (s if s > one else one)) for s in entries]
    t = [one + min(np.cbrt(ci / ld(20)), abs(ci / three) ** ld(0.2)) for ci in c]
    ulps = ld(4) * np.finfo(ld).eps
    for _ in range(32):
        done = True
        for i, (ti, ci, (lo, hi)) in enumerate(zip(t, c, bracket)):
            q = (three * ti + nine) * ti + eight
            r = np.cbrt(ci / q)
            step = ((ti - one) - r) / (one + r * (six * ti + nine) / (three * q))
            ti = ti - step
            ti = lo if ti < lo else hi if ti > hi else ti  # a nan stays nan, as in np.clip
            t[i] = ti
            done = done and abs(step) <= ulps * max(abs(ti), one)
        if done:
            break
    for i, (ti, s) in enumerate(zip(t, entries)):
        if s == 0:
            t[i] = ld(0)
        elif s < ld(0.5):
            t[i] = ti - (_scalar_map(ti) - s) / _scalar_map_deriv(ti)
    rel = ld(tol)
    t_all = np.array(t, dtype=ld).reshape(sigma.shape)
    if not all(abs(_scalar_map(ti) - s) <= rel * max(s, one) for ti, s in zip(t, entries)):
        resid = np.abs(scalar_map(t_all) - sigma)
        worst = float(np.max(resid / np.maximum(rel * np.maximum(one, sigma), ld(1e-300))))
        raise NumericalError(
            f"scalar root solve missed its target by {worst:.2e}x the tolerance"
        )
    return t_all


def inverse_A(y, tol: float = 1e-14) -> np.ndarray:
    """Invert apply_A: the unique X with A(X) = Y.

    Works on the singular values: for Y = U diag(s) V' the preimage is
    U diag(t) V' with scalar_map(t) = s.  Singular values are refined by
    one extended-precision Rayleigh step before the root solve, because
    near s = 1 the inverse map has unbounded slope and plain double SVD
    accuracy would be amplified there.  The root solve itself runs on the
    exact factorization scalar_map(t) - 1 = (t - 1)^3 (3 t^2 + 9 t + 8) / 8,
    taking the cube root of s - 1 explicitly, so it adds no error of its
    own at s = 1 (see _scalar_map_inverse).  tol, the residual allowed per
    singular value relative to max(1, s), must be finite and positive.
    """
    _positive("tol", tol)
    y = validate_matrix(y)
    u, _, vt = np.linalg.svd(y, full_matrices=False)
    ld = np.longdouble
    ul = u.astype(ld)
    vl = vt.astype(ld)
    # u_i' Y v_i / (|u_i| |v_i|): the float64 vectors are unit only to about
    # 1e-16, and an unnormalised quotient would carry that error to first order
    norms = np.sqrt(np.einsum("ji,ji->i", ul, ul) * np.einsum("ik,ik->i", vl, vl))
    refined = np.maximum(np.einsum("ji,jk,ik->i", ul, y.astype(ld), vl) / norms, ld(0))
    t = _scalar_map_inverse(refined, tol)
    return np.asarray((ul * t) @ vl, dtype=float)


def _h(f_values, x, beta):
    """h of an unchecked x, or of each slice of a stack x; f_values(A(x)) gives f at the map."""
    resid, poly = _state(x)
    v = _fro(resid)
    return np.asarray(f_values(_map(x, poly)), dtype=float) + 0.25 * beta * v * v


def _h_grad(f_subgrad, x, beta):
    """J(X)[W] + beta X (X'X - I) of an unchecked x, or of each slice of a stack x.

    W = f_subgrad(A(X)) must have x's shape and finite entries.
    """
    resid, poly = _state(x)
    w = np.asarray(f_subgrad(_map(x, poly)), dtype=float)
    if w.shape != x.shape:
        raise DimensionError(f"subgradient shape {w.shape} != point shape {x.shape}")
    if not np.isfinite(w).all():
        raise ValueError("subgradient contains non-finite entries")
    return _jacobian(x, np.ascontiguousarray(w), resid, poly) + beta * (x @ resid)


def ncdf_value(f_value, x, penalty: PenaltyConfig) -> float:
    """Dissolved objective h(X) = f(A(X)) + (beta/4) ||X'X - I||_F^2."""
    return float(_h(f_value, validate_matrix(x), penalty.beta))


def ncdf_subgradient(f_subgrad, x, penalty: PenaltyConfig) -> np.ndarray:
    """One element of the dissolved subdifferential at x.

    Chain rule through the map plus the penalty gradient:
    J(X)[W] + beta X (X'X - I) with W drawn from the subdifferential of f
    at A(X).  On the manifold this equals the projected subgradient of f.
    """
    return _h_grad(f_subgrad, validate_matrix(x), penalty.beta)


def random_stiefel(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Haar-ish random feasible point: polar factor of a Gaussian matrix."""
    if _integer("n", n) < _integer("p", p) or p < 1:
        raise DimensionError(f"need n >= p >= 1, got ({n}, {p})")
    return _polar(rng.standard_normal((n, p)))[0]


def _shell_points(rng, n: int, p: int, radius_of, samples: int) -> np.ndarray:
    """(samples, n, p) stack of random points, slice i with Gram residual radius_of(rng).

    Each sample draws, in this order, its radius, the (n, p) Gaussian of
    its feasible factor and, unless the radius is 0, the (p, p) Gaussian
    of its symmetric direction; so the draws, and every slice bitwise,
    are those of samples successive random_shell_point calls.  The SVD,
    eigh, root and products then run once on the whole stack.
    """
    if n < p or p < 1:
        raise DimensionError(f"need n >= p >= 1, got ({n}, {p})")
    radii, zero = [], []
    g, s = np.empty((samples, n, p)), np.zeros((samples, p, p))
    for i in range(samples):
        radius = radius_of(rng)
        _nonnegative("radius", radius)
        radii.append(radius)
        rng.standard_normal(out=g[i])
        if radius == 0:
            zero.append(i)
        else:
            rng.standard_normal(out=s[i])
    q = _polar(g)[0]
    s = 0.5 * (s + s.swapaxes(-1, -2))
    fro = _fro(s)[:, None, None]
    if not fro.all():  # a zero direction, as for radius 0, is replaced by the identity
        flat = fro == 0
        s = np.where(flat, _eye(p, 3), s)
        fro = np.where(flat, np.sqrt(p), fro)
    w, v = np.linalg.eigh(_eye(p, 3) + (np.array(radii, dtype=float)[:, None, None] / fro) * s)
    x = q @ ((v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.swapaxes(-1, -2))
    if zero:
        x[zero] = q[zero]
    return x


def random_shell_point(rng: np.random.Generator, n: int, p: int, radius: float) -> np.ndarray:
    """Random point whose Gram residual equals radius (up to roundoff).

    Construction: X = Q (I + Delta)^{1/2} for a feasible Q and a random
    symmetric Delta scaled to Frobenius norm radius, so that
    X'X - I = Delta exactly.  Requires radius < 1 in spectral norm for the
    square root to exist; radius <= 1 in Frobenius norm suffices.  Its
    draws and result are bitwise those of _shell_points, which builds many
    at once.
    """
    _nonnegative("radius", radius)
    q = random_stiefel(rng, n, p)
    if radius == 0:
        return q
    s = rng.standard_normal((p, p))
    s = 0.5 * (s + s.T)
    fro = _norm(s)
    if fro == 0:
        s, fro = _eye(p, 2), math.sqrt(p)
    w, v = np.linalg.eigh(_eye(p, 2) + (radius / fro) * s)
    return q @ ((v * np.sqrt(np.maximum(w, 0.0))) @ v.T)
