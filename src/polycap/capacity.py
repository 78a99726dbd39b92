"""Capacity computation: Cap(p) = inf { p(x) : x > 0, prod x_i = 1 }.

In log coordinates x = e^y the problem is minimizing f(y) = log p(e^y) over
the hyperplane sum(y) = 0; f is convex for any polynomial with nonnegative
coefficients (a log-sum-exp of linear forms). The optimizer is a projected
Newton method with backtracking line search and a projected-gradient fallback.
Each representation supplies f with its gradient and Hessian
(``EvaluationOracle.log_objective`` in ``polynomials``): in closed form for
the three structured representations, by finite differences for generic
oracles.

Also here: Sinkhorn matrix scaling (matrix capacity as the product of the
scalers).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .polynomials import EvaluationOracle

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


def log_objective(poly: EvaluationOracle):
    """The convex objective f(y) = log p(e^y) with gradient/hessian methods,
    as the representation gives it (``EvaluationOracle.log_objective``)."""
    return poly.log_objective()


def _hyperplane_basis(n: int) -> np.ndarray:
    """Deterministic orthonormal basis of {y : sum(y) = 0}, shape (n, n-1)."""
    if n == 1:
        return np.zeros((1, 0))
    m = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(m)
    return u[:, : n - 1]


def capacity_minimize(poly: EvaluationOracle, tol: float = 1e-10,
                      max_iter: int = 200) -> CapacityResult:
    """Minimize p over the positive slice prod(x) = 1, from y = 0.

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
    y = np.zeros(n)
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

