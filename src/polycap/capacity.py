"""Capacity computation: Cap(p) = inf { p(x) : x > 0, prod x_i = 1 }.

In log coordinates x = e^y the problem is minimizing f(y) = log p(e^y) over
the hyperplane sum(y) = 0; f is convex for any polynomial with nonnegative
coefficients (a log-sum-exp of linear forms). p is homogeneous of degree d,
so f(y + c1) = f(y) + d c (Euler) and H 1 = 0: Newton removes the gradient's
mean and solves with H + 11^T/n, which is H on the hyperplane with a unit
pivot along 1; a backtracking line search and a gradient fallback guard it.
Each representation supplies f with its gradient and Hessian
(``EvaluationOracle.log_objective`` in ``polynomials``): in closed form for
the three structured representations and for derivative slices of product
forms and pencils, by finite differences for other oracles. A closed-form
objective keeps what it computed at its last y, so the accepted line-search
value, the gradient and the Hessian at one y share one factorization.

Also here: Sinkhorn matrix scaling (matrix capacity as the product of the
scalers). A sweep's column sums are 1 to rounding, so each sweep measures
its row deviation, and the column deviation only once the rows are within
tolerance, or after the last sweep.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .polynomials import EvaluationOracle, _scalar_array

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
    if not tol > 0:
        raise InputError("tol must be positive")
    n = poly.n_vars
    # p itself may overflow where f = log p does not; only its sign matters
    # here, so an exact value stays exact.
    with np.errstate(over="ignore"):
        ones_value = poly.evaluate((1,) * n)
    if not ones_value > 0:
        raise InputError(f"p(1,...,1) = {ones_value}; capacity needs a positive value")

    obj = log_objective(poly)
    y = np.zeros(n)
    f = obj.value(y)
    if not np.isfinite(f):
        # p vanishes on the whole positive orthant slice (e.g. a PSD pencil
        # with a common kernel): the infimum is 0.
        return CapacityResult(0.0, tuple(np.exp(y)), 0, float("nan"),
                              "degenerate", None)
    f_init = f
    g = obj.gradient(y)
    gr = g - g.mean()
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
        Hr = obj.hessian(y) + 1.0 / n  # H + 11^T/n
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
            y_try = y + t * step
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
        gr = g - g.mean()
        gnorm = float(np.linalg.norm(gr))
        iterations += 1

    if gnorm <= tol:
        reason = "gradient"
    minimizer = np.exp(y - y.mean())
    with np.errstate(over="ignore"):
        value = float(poly.evaluate(tuple(minimizer)))
    return CapacityResult(value, tuple(minimizer), iterations, gnorm, reason,
                          float(f))


def _stochastic_deviation(B) -> float:
    """The largest distance of a row or column sum of B from 1."""
    return max(float(np.abs(B.sum(axis=1) - 1).max()),
               float(np.abs(B.sum(axis=0) - 1).max()))


def sinkhorn_scale(matrix, tol: float = 1e-10, max_iter: int = 10000) -> ScalingResult:
    """Alternating row/column normalization: A = D1 B D2 with B doubly
    stochastic to tolerance; the matrix capacity is prod(D1) * prod(D2),
    and its log sum(log D1) + sum(log D2).
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    _, B = _scalar_array(matrix, "float", 2)  # a private copy, scaled in place
    if np.any(B < 0):
        raise InputError("matrix entries must be nonnegative")
    n = B.shape[0]
    r = B.sum(axis=1)
    if np.any(r == 0) or np.any(B.sum(axis=0) == 0):
        raise InputError("matrix has a zero row or column; capacity degenerates to 0")

    d1 = np.ones(n)
    d2 = np.ones(n)
    status = "iteration-cap"
    iterations = max_iter
    dev = np.inf
    for it in range(1, max_iter + 1):
        B /= r[:, None]
        d1 *= r
        c = B.sum(axis=0)
        B /= c
        d2 *= c
        # The row sums measure this sweep's deviation and divide the next. The
        # column sums, 1 to rounding after the column step, are measured only
        # once the rows are within tol, and after the last sweep.
        r = B.sum(axis=1)
        dev = float(np.abs(r - 1).max())
        if dev <= tol or it == max_iter:
            dev = max(dev, float(np.abs(B.sum(axis=0) - 1).max()))
            if dev <= tol:
                status = "converged"
                iterations = it
                break

    with np.errstate(over="ignore"):
        capacity = float(np.prod(d1) * np.prod(d2))
    log_capacity = float(np.log(d1).sum() + np.log(d2).sum())
    return ScalingResult(tuple(d1.tolist()), tuple(d2.tolist()),
                         tuple(map(tuple, B.tolist())), capacity, log_capacity,
                         iterations, dev, status)

