"""Benchmark objectives over matrices with orthonormal columns.

Each factory returns a ProblemDefinition bundling value and subgradient
oracles for an objective f = phi + (optional) separable regularizer.
Oracles are stateless: stochastic ones draw from the generator handed in
by the caller, so a run's randomness is owned entirely by the solver;
called with None instead, they draw nothing and return an exact element.

Every value and subgradient callable of a problem also maps a (B, n, p)
stack slice by slice, each slice bitwise as the 2-d call alone: an oracle
returns the (B, n, p) stack of its subgradients, a value callable the B
values.  The built-in ones are marked _stacks; any other callable is taken
as a 2-d function, called once per slice, and an error it raises for a
slice propagates as it is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import _fro, _jacobian, _map, _norm, _shell_points, _state, random_shell_point
from .core import _integer, _nonnegative, _number
from .errors import ConfigurationError, DimensionError

SubgradOracle = Callable[[np.ndarray, np.random.Generator], np.ndarray]

# entries per (B, n, p) array of a stacked sample: a whole sample of small
# points in one stack, and a few MiB at a time for large ones
STACK_ENTRIES = 1 << 19


def _stacks(fn):
    """Mark fn as mapping a (B, n, p) stack slice by slice, bitwise as each slice alone."""
    fn._stacks = True
    return fn


def _shaped(w, shape) -> np.ndarray:
    """w as a float array, which must have the given shape."""
    w = np.asarray(w, dtype=float)
    if w.shape != shape:
        raise DimensionError(f"oracle output shape {w.shape} != expected shape {shape}")
    return w


def _per_slice(fn, values: bool):
    """fn if it is marked _stacks, else fn extended to call it once per slice of a stack.

    A 2-d call passes straight through.  On a stack, an oracle's slice i gets
    the i-th row generator (or None), and a value callable (values true) gives
    one number per slice.  A slice's error propagates as it is raised, and the
    later slices are not called.
    """
    if getattr(fn, "_stacks", False):
        return fn

    @_stacks
    def per_slice(x, *rng):
        if np.ndim(x) != 3:
            return fn(x, *rng)
        shape = () if values else x.shape[1:]
        out = np.empty((len(x), *shape))
        for i, args in enumerate(zip(x, *([None] * len(x) if g is None else g for g in rng))):
            out[i] = _shaped(fn(*args), shape)
        return out

    return per_slice


@dataclass(frozen=True)
class Regularizer:
    """Convex regularization term r(X), any weight built into its callables.

    value returns r(X), prox(X, tau) is the proximal map of tau * r,
    subgrad returns the minimum-norm element of the subdifferential, and
    lipschitz bounds r's Frobenius Lipschitz constant.

    value and subgrad map stacks as the module says.  The solvers call prox
    once per iteration on their whole (B, n, p) stack of iterates, with tau
    a float for a stack of one and a (B, 1, 1) array of per-run steps
    otherwise; prox must map each n x p slice with its own tau, as
    elementwise numpy code that broadcasts tau does.
    """

    value: Callable[[np.ndarray], float]
    prox: Optional[Callable[[np.ndarray, float], np.ndarray]]
    subgrad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float

    def __post_init__(self):
        # nan fails >= 0; +inf stays, and caps the proximal step at 0
        if not _number("lipschitz", self.lipschitz) >= 0:
            raise ConfigurationError(f"lipschitz must be nonnegative, got {self.lipschitz}")
        object.__setattr__(self, "value", _per_slice(self.value, values=True))
        object.__setattr__(self, "subgrad", _per_slice(self.subgrad, values=False))


@dataclass(frozen=True)
class ProblemDefinition:
    """Objective f(X) = phi(X) + reg.value(X) on n x p matrices.

    phi_subgrad(x, rng) draws any noise from rng; with rng None it is exact.
    On a (B, n, p) stack it gets a one-pass iterable of row rngs, or None.
    A callable not marked _stacks is wrapped to be called once per slice.
    smooth promises a differentiable f whose oracle is exact: it draws
    nothing from rng, so its output does not depend on the generator.
    """

    n: int
    p: int
    phi_value: Callable[[np.ndarray], float]
    phi_subgrad: SubgradOracle
    reg: Optional[Regularizer] = None
    lipschitz_est: float = 0.0
    smooth: bool = False

    def __post_init__(self):
        _integer("n", self.n)
        _integer("p", self.p)
        if self.p < 1 or self.n < self.p:
            raise ValueError(f"need n >= p >= 1, got ({self.n}, {self.p})")
        # nan fails >= 0; +inf stays: a spectral norm of huge data overflows to it
        if not _number("lipschitz_est", self.lipschitz_est) >= 0:
            raise ConfigurationError(f"lipschitz_est must be nonnegative, got {self.lipschitz_est}")
        object.__setattr__(self, "phi_value", _per_slice(self.phi_value, values=True))
        object.__setattr__(self, "phi_subgrad", _per_slice(self.phi_subgrad, values=False))

    def f_value(self, x) -> float:
        return float(self.f_values(x))

    def f_values(self, x) -> np.ndarray:
        """f of x, or of each slice of a (B, n, p) stack x, each bitwise as the slice alone."""
        val = np.asarray(self.phi_value(x), dtype=float)
        if self.reg is not None:
            val = val + np.asarray(self.reg.value(x), dtype=float)
        return val

    def f_subgrad(self, x, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        w = np.asarray(self.phi_subgrad(x, rng), dtype=float)
        if self.reg is not None:
            w = w + self.reg.subgrad(x)
        return w


def l1_regularizer(gamma: float, n_entries: int) -> Regularizer:
    """Entrywise term gamma * sum |X_ij| with soft-threshold prox."""
    _nonnegative("gamma", gamma)
    _integer("n_entries", n_entries, 0)

    @_stacks
    def value(x):
        return gamma * np.sum(np.abs(x), axis=(-2, -1))

    def prox(x, tau):
        x = np.asarray(x, dtype=float)
        out = np.abs(x)  # sign(x) * max(|x| - tau * gamma, 0), ufunc by ufunc on one temporary
        np.maximum(np.subtract(out, tau * gamma, out=out), 0.0, out=out)
        return np.multiply(np.sign(x), out, out=out)

    @_stacks
    def subgrad(x):
        # minimum-norm selection: zero on exact zeros
        return gamma * np.sign(np.asarray(x, dtype=float))

    return Regularizer(
        value=value,
        prox=prox,
        subgrad=subgrad,
        lipschitz=gamma * float(np.sqrt(n_entries)),
    )


def spectral_norm(a) -> float:
    """Largest singular value; 0 for an empty matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _check_symmetric(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    scaled = a
    with np.errstate(over="ignore"):  # the norms overflow from entries near 1e154 on
        if np.linalg.norm(a) == np.inf:  # where they do, judge a rescaled by its largest entry
            scaled = a / np.max(np.abs(a))
        if np.linalg.norm(scaled - scaled.T) > 1e-12 * max(1.0, np.linalg.norm(scaled)):
            raise ValueError(f"{name} must be symmetric")
    return 0.5 * (a + a.T)


def make_quadratic_trace(a_mat, p: int) -> ProblemDefinition:
    """Smooth benchmark phi(X) = -trace(X' A X) with gradient -2 A X.

    The Lipschitz estimate 2 ||A||_2 sqrt(2p) bounds the gradient norm on
    the unit feasibility shell, where ||X||_F <= sqrt(2p).  The callables hold
    -2A only; scaling by -2 and 1/2 is exact away from overflow and subnormals.
    """
    _integer("p", p, 1)
    a = _check_symmetric(a_mat, "A")
    n = a.shape[0]
    neg2a = -2.0 * a

    @_stacks
    def phi_value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * (neg2a @ x), axis=(-2, -1))

    @_stacks
    def phi_subgrad(x, rng):
        return neg2a @ np.asarray(x, dtype=float)

    return ProblemDefinition(
        n=n,
        p=p,
        phi_value=phi_value,
        phi_subgrad=phi_subgrad,
        lipschitz_est=2.0 * spectral_norm(a) * float(np.sqrt(2 * p)),
        smooth=True,
    )


def make_sparse_pca(cov, p: int, gamma: float) -> ProblemDefinition:
    """Sparse PCA surrogate: -trace(X' S X) + gamma * sum |X_ij|, S PSD."""
    s = _check_symmetric(cov, "covariance")
    _nonnegative("gamma", gamma)
    w = np.linalg.eigvalsh(s)
    if w[0] < -1e-8 * max(1.0, float(w[-1])):
        raise ValueError(f"covariance is not positive semidefinite (min eig {w[0]:.3e})")
    base = make_quadratic_trace(s, p)
    if gamma == 0.0:
        return base
    return replace(
        base,
        reg=l1_regularizer(gamma, base.n * p),
        smooth=False,
    )


def make_l1_pca(data, p: int) -> ProblemDefinition:
    """Robust PCA-style objective phi(X) = -sum_ij |(D X)_ij|.

    A subgradient is -D' sign(D X), with the zero selection at exact
    zeros of D X.  phi is positively homogeneous of degree one.
    """
    d = np.asarray(data, dtype=float)
    if d.ndim != 2:
        raise ValueError(f"data must be 2-d, got ndim={d.ndim}")
    if not np.all(np.isfinite(d)):
        raise ValueError("data contains non-finite entries")
    m, n = d.shape
    _integer("p", p)
    if p < 1 or p > n:
        raise ValueError(f"need 1 <= p <= {n}, got {p}")

    @_stacks
    def phi_value(x):
        return -np.sum(np.abs(d @ np.asarray(x, dtype=float)), axis=(-2, -1))

    neg_dt = -d.T  # as the oracle's -d.T was: the same values in the same (F) layout

    @_stacks
    def phi_subgrad(x, rng):
        return neg_dt @ np.sign(d @ np.asarray(x, dtype=float))

    return ProblemDefinition(
        n=n,
        p=p,
        phi_value=phi_value,
        phi_subgrad=phi_subgrad,
        lipschitz_est=spectral_norm(d) * float(np.sqrt(m * p)),
        smooth=False,
    )


def _mlp_widths(widths):
    """(d_in, hidden, d_out) of a two-layer network whose first layer fits the manifold."""
    d_in, hidden, d_out = (_integer("widths", w) for w in widths)
    if d_in < hidden or hidden < 1:
        raise ValueError(f"first layer must be tall: need d_in >= hidden >= 1, got {widths}")
    if d_out < 1:
        raise ValueError(f"output width must be positive, got {d_out}")
    return d_in, hidden, d_out


def make_orthogonal_mlp(
    dataset,
    widths,
    second_layer=None,
    hidden_bias=None,
    seed: int = 0,
) -> ProblemDefinition:
    """Two-layer ReLU regression with the first layer on the Stiefel manifold.

    The optimization variable is the tall matrix X of shape (d_in, hidden)
    holding the transposed first-layer weight; the network computes
    W2 relu(X' x + b1) per sample and the objective is the mean squared
    error.  The second layer defaults to a seeded Gaussian and the hidden
    bias b1 to zero.  The ReLU derivative uses the zero branch at the
    kink, so the subgradient at zero preactivations is zero.
    """
    d_in, hidden, d_out = _mlp_widths(widths)
    _integer("seed", seed, 0)
    pairs = list(dataset)
    if not pairs:
        raise ValueError("dataset is empty")
    xs = np.atleast_2d(np.asarray([np.ravel(x) for x, _ in pairs], dtype=float))
    ys = np.atleast_2d(np.asarray([np.ravel(y) for _, y in pairs], dtype=float))
    if xs.shape[1] != d_in:
        raise ValueError(f"inputs have dimension {xs.shape[1]}, expected {d_in}")
    if ys.shape[1] != d_out:
        raise ValueError(f"targets have dimension {ys.shape[1]}, expected {d_out}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("dataset contains non-finite entries")

    init_rng = np.random.default_rng(seed)
    if second_layer is None:
        second_layer = init_rng.standard_normal((d_out, hidden)) / np.sqrt(hidden)
    w2 = np.asarray(second_layer, dtype=float)
    if w2.shape != (d_out, hidden):
        raise ValueError(f"second layer must be {(d_out, hidden)}, got {w2.shape}")
    b1 = np.zeros(hidden) if hidden_bias is None else np.asarray(hidden_bias, dtype=float)
    if b1.shape != (hidden,):
        raise ValueError(f"hidden bias must be {(hidden,)}, got {b1.shape}")
    n_samples = xs.shape[0]

    def forward(x):
        z = np.asarray(x, dtype=float).swapaxes(-1, -2) @ xs.T + b1[:, None]  # (..., hidden, N)
        act = np.maximum(z, 0.0)
        resid = w2 @ act - ys.T  # (..., d_out, N)
        return z, act, resid

    @_stacks
    def phi_value(x):
        _, _, resid = forward(x)
        return np.sum(resid * resid, axis=(-2, -1)) / n_samples

    @_stacks
    def phi_subgrad(x, rng):
        z, _, resid = forward(x)
        dz = (w2.T @ (2.0 * resid / n_samples)) * (z > 0.0)
        return xs.T @ dz.swapaxes(-1, -2)

    return ProblemDefinition(
        n=d_in,
        p=hidden,
        phi_value=phi_value,
        phi_subgrad=phi_subgrad,
        smooth=False,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Truncated Gaussian oracle noise: iid N(0, sigma^2) entries with the
    whole draw rescaled onto the Frobenius ball of the given bound."""

    sigma: float
    bound: Optional[float] = None

    def __post_init__(self):
        _nonnegative("sigma", self.sigma)
        bound = 10.0 * self.sigma if self.bound is None else _number("bound", self.bound)
        if self.sigma > 0 and not bound > 0:
            raise ConfigurationError(f"bound must be positive, got {self.bound}")
        object.__setattr__(self, "bound", bound)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        g = rng.normal(0.0, self.sigma, shape)
        flat = g.ravel()
        nrm = math.sqrt(flat.dot(flat))  # bitwise np.linalg.norm(g), without its wrapper
        if nrm > self.bound:
            g *= self.bound / nrm
        return g


def attach_noise(problem: ProblemDefinition, model: NoiseModel) -> ProblemDefinition:
    """Wrap the smooth-part oracle with additive truncated Gaussian noise.

    sigma = 0 returns the problem unchanged.  The wrapped problem is no
    longer marked smooth because its oracle is stochastic; called with
    rng None, it returns the base oracle's output without noise.  On a
    stack, row i draws from the i-th generator as it would alone.
    """
    if model.sigma == 0.0:
        return problem
    base = problem.phi_subgrad

    @_stacks
    def noisy(x, rng):
        if rng is None or np.ndim(x) != 3:  # exact, or one 2-d point with its generator
            w = np.asarray(base(x, rng), dtype=float)
            return w if rng is None else w + model.draw(rng, w.shape)
        rngs = list(rng)  # the base may read each row's generator too
        w = np.asarray(base(x, rngs), dtype=float)
        out = np.empty(w.shape)
        for i, g in enumerate(rngs):
            np.add(w[i], model.draw(g, w.shape[1:]), out=out[i])
        return out

    return replace(problem, phi_subgrad=noisy, smooth=False)


def _max_transported(mt: float, x, w, resid, poly) -> float:
    """max(mt, ||J(X_i)[W_i]||_F over a stack), bitwise the serial loop's running maximum."""
    return max([mt, *_fro(_jacobian(x, w, resid, poly)).tolist()]) if len(x) else mt


def estimate_constants(problem: ProblemDefinition, samples: int = 200, seed: int = 0):
    """Sampled bounds (M1, Mt, Mh) for safeguard configuration.

    Over random points X of the unit feasibility shell: M1 bounds
    subgradient norms at the mapped points A(X), Mt bounds the norms of
    directions transported through the map's Jacobian, and Mh bounds raw
    subgradient norms at X itself.  Sampled maxima are lower bounds of
    the true suprema and are inflated by 1.5 before being returned.
    A smooth problem's points are drawn and evaluated in stacks of at most
    STACK_ENTRIES entries.  Any other one is drawn, mapped and called one
    point at a time, a noisy oracle with its noise drawn between the points,
    and takes Mt from stacks of its points with a nonzero image; each
    maximum is bitwise that of the one-at-a-time loop.
    """
    _integer("samples", samples, 1)
    _integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    chunk = min(samples, max(1, STACK_ENTRIES // (problem.n * problem.p)))
    m1 = mt = mh = 0.0
    if problem.smooth:
        for lo in range(0, samples, chunk):
            size = min(chunk, samples - lo)
            x = _shell_points(rng, problem.n, problem.p, lambda g: 1.0 - g.random(), size)
            resid, poly = _state(x)
            w_img = _shaped(problem.f_subgrad(_map(x, poly)), x.shape)
            img, raw = _fro(w_img), _fro(_shaped(problem.f_subgrad(x), x.shape))
            if not np.isfinite(img + raw).all():
                raise ValueError(
                    "subgradient oracle returned non-finite entries at a sampled point"
                )
            mt = _max_transported(mt, *(a[img > 0] for a in (x, w_img, resid, poly)))
            m1, mh = max(m1, *img.tolist()), max(mh, *raw.tolist())
        return 1.5 * m1, 1.5 * mt, 1.5 * mh
    xs, ws = np.empty((2, chunk, problem.n, problem.p))
    resids, polys = np.empty((2, chunk, problem.p, problem.p))
    k = 0  # points with a nonzero image held in the stacks
    for _ in range(samples):
        x = random_shell_point(rng, problem.n, problem.p, 1.0 - rng.random())  # radius in (0, 1]
        resid, poly = _state(x)
        w_img = problem.f_subgrad(_map(x, poly), rng)
        img, raw = _norm(w_img), _norm(problem.f_subgrad(x, rng))
        if not math.isfinite(img + raw):  # max() would drop a nan and leave a zero bound
            raise ValueError("subgradient oracle returned non-finite entries at a sampled point")
        m1, mh = max(m1, img), max(mh, raw)
        if img > 0:
            xs[k], ws[k], resids[k], polys[k] = x, _shaped(w_img, x.shape), resid, poly
            k += 1
            if k == chunk:
                mt, k = _max_transported(mt, xs, ws, resids, polys), 0
    mt = _max_transported(mt, xs[:k], ws[:k], resids[:k], polys[:k])
    return 1.5 * m1, 1.5 * mt, 1.5 * mh


# ---------------------------------------------------------------------------
# data helpers
# ---------------------------------------------------------------------------

def gaussian_matrix(rows: int, cols: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded iid Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((rows, cols))


def spiked_covariance(n: int, top_eigenvalues, seed: int) -> np.ndarray:
    """Seeded PSD matrix with prescribed leading eigenvalues.

    The remaining spectrum is uniform on [0, 1); eigenvectors
    come from the QR factor of a seeded Gaussian matrix.
    """
    top = np.asarray(top_eigenvalues, dtype=float)
    if top.ndim != 1 or top.size > n:
        raise ValueError("need at most n leading eigenvalues")
    if np.any(top < 0):
        raise ValueError("eigenvalues must be nonnegative")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    evals = np.concatenate([top, rng.random(n - top.size)])
    s = (q * evals) @ q.T
    return 0.5 * (s + s.T)


def synthetic_mlp_dataset(n_samples: int, widths, seed: int):
    """Regression pairs from a planted two-layer ReLU network."""
    _integer("n_samples", n_samples, 0)
    d_in, hidden, d_out = _mlp_widths(widths)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d_in, hidden)))
    w2 = rng.standard_normal((d_out, hidden)) / np.sqrt(hidden)
    xs = rng.standard_normal((n_samples, d_in))
    ys = (w2 @ np.maximum(q.T @ xs.T, 0.0)).T
    return [(xs[i], ys[i]) for i in range(n_samples)]


def load_matrix_csv(path) -> np.ndarray:
    """Dense matrix from a header-free comma-separated file."""
    arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path} contains non-finite entries")
    return arr
