"""Capacity computation: Cap(p) = inf { p(x) : x > 0, prod x_i = 1 }.

In log coordinates x = e^y the problem is minimizing f(y) = log p(e^y) over
the hyperplane sum(y) = 0; f is convex for any polynomial with nonnegative
coefficients (a log-sum-exp of linear forms). The optimizer is a projected
Newton method with backtracking line search and a projected-gradient fallback,
with analytic gradients/Hessians for the three structured representations and
finite differences for generic oracles.

Also here: Sinkhorn matrix scaling (matrix capacity as the product of the
scalers) and a sampled upper estimate of the complex capacity
inf |p(z)| over Re(z) > 0 with prod Re(z_i) = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .polynomials import (
    DeterminantalPolynomial,
    EvaluationOracle,
    ProductFormPolynomial,
    SparsePolynomial,
)

# f must drop this far below its start, while the gradient stays large,
# before the run is declared a divergence toward capacity zero.
_DEGENERATE_DROP = 50.0
# A Newton step whose predicted drop in f, half its squared decrement, is at
# most this fraction of max(1, |f|) ends the run: f cannot resolve a smaller
# drop, so further line searches only halve their way to null steps.
_DECREMENT_TOL = 1e-13

# The status each stop reason reports.
_STATUS = {
    "gradient": "converged",
    "decrement": "converged",
    "line-search": "iteration-cap",
    "iteration-budget": "iteration-cap",
    "degenerate": "degenerate-zero",
}


@dataclass
class CapacityResult:
    value: float
    minimizer: tuple
    iterations: int
    gradient_norm: float
    stop_reason: str  # a key of _STATUS
    log_value: float | None  # f = log p at the minimizer; None if degenerate
    status: str = field(init=False)  # "converged" | "iteration-cap" | "degenerate-zero"

    def __post_init__(self):
        self.status = _STATUS[self.stop_reason]


@dataclass
class ScalingResult:
    row_scalers: tuple
    col_scalers: tuple
    scaled_matrix: tuple
    capacity: float  # inf (null in a report) once the product overflows
    log_capacity: float  # sum log d1 + sum log d2, finite where capacity is not
    iterations: int
    max_deviation: float
    status: str  # "converged" | "iteration-cap"


class _SparseObjective:
    """f(y) = log sum_r c_r exp(<r, y>), gradients via softmax weights."""

    def __init__(self, poly: SparsePolynomial):
        if (poly.coefficients < 0).any():
            raise InputError("capacity needs nonnegative coefficients")
        self.R = poly.exponents.astype(float)
        self.logc = np.log(np.asarray(poly.coefficients, dtype=float))

    def _weights(self, y):
        v = self.logc + self.R @ y
        m = v.max()
        w = np.exp(v - m)
        z = w.sum()
        return v, m, w / z, m + np.log(z)

    def value(self, y):
        return self._weights(y)[3]

    def gradient(self, y):
        w = self._weights(y)[2]
        return self.R.T @ w

    def hessian(self, y):
        w = self._weights(y)[2]
        g = self.R.T @ w
        return (self.R * w[:, None]).T @ self.R - np.outer(g, g)


class _ProductObjective:
    """f(y) = sum_i log (A e^y)_i; each row contributes a softmax distribution."""

    def __init__(self, poly: ProductFormPolynomial):
        self.A = np.asarray(poly.matrix, dtype=float)

    def value(self, y):
        u = self.A @ np.exp(y)
        if np.any(u <= 0) or not np.all(np.isfinite(u)):
            return np.inf
        return float(np.log(u).sum())

    def _row_weights(self, y):
        x = np.exp(y)
        un = self.A * x[None, :]
        u = un.sum(axis=1)
        return un / u[:, None]

    def gradient(self, y):
        return self._row_weights(y).sum(axis=0)

    def hessian(self, y):
        W = self._row_weights(y)
        h = np.diag(W.sum(axis=0))
        return h - W.T @ W


class _DeterminantalObjective:
    """f(y) = log det(sum_i e^{y_i} A_i) via Cholesky; trace-form derivatives."""

    def __init__(self, poly: DeterminantalPolynomial):
        self.mats = np.asarray(poly.matrices, dtype=float)

    def _chol(self, y):
        m = np.tensordot(np.exp(y), self.mats, axes=([0], [0]))
        return np.linalg.cholesky(m)

    def value(self, y):
        try:
            ell = self._chol(y)
        except np.linalg.LinAlgError:
            return np.inf
        return float(2.0 * np.log(np.diag(ell)).sum())

    def _whitened(self, y):
        ell = self._chol(y)
        # B_i = L^-1 A_i L^-T, so grad_i = e^{y_i} tr(B_i)
        half = np.linalg.solve(ell, self.mats.transpose(1, 0, 2).reshape(len(ell), -1))
        half = half.reshape(len(ell), -1, len(ell)).transpose(1, 0, 2)
        B = np.linalg.solve(ell, half.transpose(0, 2, 1)).transpose(0, 2, 1)
        return B

    def gradient(self, y):
        B = self._whitened(y)
        return np.exp(y) * np.trace(B, axis1=1, axis2=2)

    def hessian(self, y):
        B = self._whitened(y)
        g = np.exp(y) * np.trace(B, axis1=1, axis2=2)
        cross = np.einsum("iab,jba->ij", B, B)
        e = np.exp(y)
        return np.diag(g) - cross * np.outer(e, e)


class _OracleObjective:
    """Finite-difference objective for generic evaluation oracles."""

    _H_GRAD = 1e-5
    _H_HESS = 3e-4

    def __init__(self, poly: EvaluationOracle):
        self.poly = poly

    def _values(self, Y):
        """f at each row of Y: log p(e^y), or inf where p(e^y) is not positive."""
        v = np.asarray(self.poly.evaluate_batch(np.exp(Y)), dtype=float)
        out = np.full(len(v), np.inf)
        ok = np.isfinite(v) & (v > 0)
        out[ok] = np.log(v[ok])
        return out

    def value(self, y):
        return float(self._values(y[None, :])[0])

    def gradient(self, y):
        h = self._H_GRAD
        E = h * np.eye(len(y))
        f = self._values(np.concatenate([y + E, y - E]))
        return (f[:len(y)] - f[len(y):]) / (2 * h)

    def hessian(self, y):
        n = len(y)
        h = self._H_HESS
        E = h * np.eye(n)
        i, j = np.triu_indices(n)
        f = self._values(np.concatenate([
            y + E[i] + E[j], y + E[i] - E[j], y - E[i] + E[j], y - E[i] - E[j]]))
        f = f.reshape(4, -1)
        H = np.empty((n, n))
        H[i, j] = H[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        return H


def log_objective(poly: EvaluationOracle):
    """The convex objective f(y) = log p(e^y) with gradient/hessian methods."""
    if isinstance(poly, SparsePolynomial):
        return _SparseObjective(poly)
    if isinstance(poly, ProductFormPolynomial):
        return _ProductObjective(poly)
    if isinstance(poly, DeterminantalPolynomial):
        return _DeterminantalObjective(poly)
    return _OracleObjective(poly)


def _hyperplane_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of {y : sum(y) = 0}, shape (n, n-1)."""
    if n == 1:
        return np.zeros((1, 0))
    m = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(m)
    return u[:, : n - 1]


def capacity_minimize(poly: EvaluationOracle, tol: float = 1e-10,
                      max_iter: int = 200, x0=None) -> CapacityResult:
    """Minimize p over the positive slice prod(x) = 1.

    Returns an upper estimate of Cap(p) and f = log p at the minimizer. The
    stop reason says why the run ended, and the status follows from it:

    - "gradient": the projected gradient norm is <= tol ("converged").
    - "decrement": a Newton step predicted a drop in f of at most
      1e-13 max(1, |f|), below what f resolves ("converged").
    - "line-search": no step passed the Armijo test ("iteration-cap").
    - "iteration-budget": max_iter steps were taken ("iteration-cap").
    - "degenerate": f decreased without bound; the infimum is 0
      ("degenerate-zero").
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    n = poly.n_vars
    # p itself may overflow where f = log p does not; only its sign matters here.
    with np.errstate(over="ignore"):
        ones_value = float(poly.evaluate((1,) * n))
    if not ones_value > 0:
        raise InputError(f"p(1,...,1) = {ones_value}; capacity needs a positive value")

    obj = log_objective(poly)
    if x0 is None:
        y = np.zeros(n)
    else:
        x0 = np.array([float(v) for v in x0])
        if len(x0) != n or np.any(x0 <= 0):
            raise InputError("x0 must be a positive vector of length n_vars")
        y = np.log(x0)
        y -= y.mean()

    U = _hyperplane_basis(n)
    f = obj.value(y)
    if not np.isfinite(f):
        # p vanishes on the whole positive orthant slice (e.g. a PSD pencil
        # with a common kernel): the infimum is 0.
        return CapacityResult(0.0, tuple(np.exp(y)), 0, float("nan"),
                              "degenerate", None)
    f_init = f
    g = obj.gradient(y)
    gr = U.T @ g
    gnorm = float(np.linalg.norm(gr))
    g0 = gnorm
    iterations = 0
    reason = "iteration-budget"

    while iterations < max_iter:
        if gnorm <= tol:
            reason = "gradient"
            break
        if f < f_init - _DEGENERATE_DROP and gnorm >= max(0.01 * g0, tol):
            return CapacityResult(0.0, tuple(np.exp(y - y.mean())), iterations,
                                  gnorm, "degenerate", None)
        H = obj.hessian(y)
        Hr = U.T @ H @ U
        try:
            np.linalg.cholesky(Hr)
            step = -np.linalg.solve(Hr, gr)
            newton = True
        except np.linalg.LinAlgError:
            step = -gr
            newton = False
        slope = float(gr @ step)
        if slope >= 0:
            step = -gr
            slope = -gnorm * gnorm
        elif newton and -slope / 2 <= _DECREMENT_TOL * max(1.0, abs(f)):
            # slope = -lambda^2, the squared Newton decrement.
            reason = "decrement"
            break
        t = 1.0
        accepted = False
        for _ in range(60):
            y_try = y + t * (U @ step)
            y_try -= y_try.mean()
            f_try = obj.value(y_try)
            if np.isfinite(f_try) and f_try <= f + 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            reason = "line-search"
            break
        y = y_try
        f = f_try
        g = obj.gradient(y)
        gr = U.T @ g
        gnorm = float(np.linalg.norm(gr))
        iterations += 1

    if gnorm <= tol:
        reason = "gradient"
    minimizer = np.exp(y - y.mean())
    with np.errstate(over="ignore"):
        value = float(poly.evaluate(tuple(minimizer)))
    return CapacityResult(value, tuple(minimizer), iterations, gnorm, reason,
                          float(f))


def sinkhorn_scale(matrix, tol: float = 1e-10, max_iter: int = 10000) -> ScalingResult:
    """Alternating row/column normalization: A = D1 B D2 with B doubly
    stochastic to tolerance; the matrix capacity is prod(D1) * prod(D2),
    and its log sum(log D1) + sum(log D2).
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    B = np.asarray(matrix, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1] or B.shape[0] < 1:
        raise InputError("sinkhorn_scale needs a nonempty square matrix")
    if np.any(B < 0):
        raise InputError("matrix entries must be nonnegative")
    n = B.shape[0]
    if np.any(B.sum(axis=1) == 0) or np.any(B.sum(axis=0) == 0):
        raise InputError("matrix has a zero row or column; capacity degenerates to 0")

    d1 = np.ones(n)
    d2 = np.ones(n)
    status = "iteration-cap"
    iterations = max_iter
    dev = np.inf
    for it in range(1, max_iter + 1):
        r = B.sum(axis=1)
        B = B / r[:, None]
        d1 *= r
        c = B.sum(axis=0)
        B = B / c[None, :]
        d2 *= c
        dev = max(float(np.abs(B.sum(axis=1) - 1).max()),
                  float(np.abs(B.sum(axis=0) - 1).max()))
        if dev <= tol:
            status = "converged"
            iterations = it
            break

    with np.errstate(over="ignore"):
        capacity = float(np.prod(d1) * np.prod(d2))
    log_capacity = float(np.log(d1).sum() + np.log(d2).sum())
    return ScalingResult(tuple(d1), tuple(d2), tuple(map(tuple, B)), capacity,
                         log_capacity, iterations, dev, status)


def complex_capacity_sample(poly: EvaluationOracle, samples: int = 2000,
                            seed: int = 0) -> float:
    """Sampled upper estimate of inf |p(z)| over Re(z) > 0, prod Re(z_i) = 1.

    A diagnostic, not a certified value: it reports the smallest normalized
    |p(z)| found over random half-plane points. For polynomials with the
    half-plane property the true infimum equals Cap(p); for others it can be
    far below (down to 0).
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = poly.n_vars
    Z = np.empty((samples, n), dtype=complex)
    for z in Z:
        rho = np.exp(rng.normal(0.0, 0.5, n))
        theta = rng.uniform(-np.pi / 2 * 0.98, np.pi / 2 * 0.98, n)
        re = rho * np.cos(theta)
        # normalize so prod Re(z_i) = 1; |p| is then directly comparable
        scale = np.exp(np.log(re).mean())
        z[:] = (rho / scale) * np.exp(1j * theta)
    # fmin skips NaN values, as the per-sample minimum did.
    return float(np.fmin.reduce(np.abs(poly.evaluate_batch(Z)), initial=np.inf))
