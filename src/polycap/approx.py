"""Deterministic approximation of the full mixed partial derivative.

Pipeline: fix the first k variables, build an evaluation oracle for

    p_k(x_{k+1..n}) = d^k p / dx_1..dx_k  evaluated at (0, ..., 0, x_{k+1..n})

out of plain evaluations of p (signed averages at scaled sign patterns,
extrapolated to scale 0), then minimize that oracle over the positive slice
prod(x) = 1. The resulting capacity C_k sandwiches the true mixed partial:

    C_k * (n-k)! / (n-k)^(n-k)  <=  d^n p / dx_1..dx_n  <=  C_k

so the multiplicative guarantee (n-k)^(n-k) / (n-k)! tightens as k grows,
reaching exactness at k = n-1, at the price of 2^k * m oracle calls per
evaluation, m = ceil((n-k)/2) + 1. Oracle-call counts are tracked exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity import CapacityResult, capacity_minimize
from .errors import InputError
from .oracles import signed_sums
from .polynomials import EvaluationOracle

_TINY = 1e-300


def guarantee_factor(n: int, k: int = 0) -> float:
    """Worst-case ratio (upper estimate / true value) after fixing k
    variables: (n-k)^(n-k) / (n-k)!. Decreases strictly in k; equals 1 at
    k = n-1 (and n = 1)."""
    if n < 1:
        raise InputError("n must be >= 1")
    if not 0 <= k <= n - 1:
        raise InputError("need 0 <= k <= n-1")
    m = n - k
    return float(Fraction(m ** m, math.factorial(m)))


class DerivativeSliceOracle(EvaluationOracle):
    """Evaluation oracle for p_k(tail) = (d^k p / dx_1..dx_k)(0, tail).

    Each evaluation takes the signed average
        g(eps) = 2^-k sum_{b in {-1,1}^k} p(eps * b, tail) * prod(b)
    which equals eps^k * h(eps^2) with h(0) = p_k(tail) (only even powers of
    eps survive the sign symmetry), and extrapolates h to 0 by Lagrange
    interpolation over the nodes t_j = eps_j^2, eps_j = 2^-j. Exact inputs
    make this algebraically exact; float inputs report a condition number
    for the last row of the most recent batch in `last_condition`.
    """

    def __init__(self, base: EvaluationOracle, k: int):
        if not 1 <= k < base.n_vars:
            raise InputError("need 1 <= k < n_vars")
        if base.degree != base.n_vars:
            raise InputError("slice oracle needs degree == n_vars")
        super().__init__()
        self.n_vars = base.n_vars - k
        self.degree = base.degree - k
        self.mode = base.mode
        self.base = base
        self.k = k
        self.m = (self.n_vars + 1) // 2 + 1  # ceil((n-k)/2) + 1 nodes
        # Nodes and weights are exact; each batch takes them in its dtype.
        self.eps = [Fraction(1, 2 ** (j + 1)) for j in range(self.m)]
        ts = [e * e for e in self.eps]
        self.weights = [math.prod(ts[l] / (ts[l] - ts[j])
                                  for l in range(self.m) if l != j)
                        for j in range(self.m)]
        self.calls_per_eval = (2 ** self.k) * self.m
        self.last_condition = None

    def _evaluate_batch(self, X):
        # One offset (0, tail) per tail and node; the kernel sums the head's
        # sign patterns at scale eps_j. That sum is 2^k eps_j^k h(eps_j^2).
        dtype = X.dtype
        eps = np.array(self.eps, dtype=dtype)
        offsets = np.zeros((len(X), self.m, self.base.n_vars), dtype=dtype)
        offsets[:, :, self.k:] = X[:, None, :]
        sums = signed_sums(self.base, np.eye(self.k, self.base.n_vars, dtype=int),
                           offsets.reshape(-1, self.base.n_vars), np.tile(eps, len(X)))
        h = sums.reshape(len(X), self.m) / (2 ** self.k * eps ** self.k)
        terms = h * np.array(self.weights, dtype=dtype)
        values = terms.sum(axis=1)
        if self.mode == "float" and len(X):
            mag = np.abs(terms[-1]).sum()
            self.last_condition = float(mag / max(abs(values[-1]), _TINY))
        return values


@dataclass
class ApproxResult:
    estimate: float
    guarantee_factor: float
    oracle_calls: int
    k_used: int
    capacity_result: CapacityResult
    extrapolation_condition: float | None

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "guarantee_factor": self.guarantee_factor,
            "oracle_calls": self.oracle_calls,
            "k_used": self.k_used,
            "capacity_result": self.capacity_result.to_dict(),
            "extrapolation_condition": self.extrapolation_condition,
        }


def estimate_mixed_partial(poly: EvaluationOracle, k: int = 0,
                           tol: float = 1e-8, max_iter: int = 300) -> ApproxResult:
    """Upper estimate of the full mixed partial with a multiplicative
    guarantee: true value <= estimate <= guarantee_factor * true value.

    k controls the accuracy/cost trade-off: the first k variables are
    differentiated out through the slice oracle (2^k * m base calls per
    evaluation) before the capacity minimization runs on the remaining n-k
    variables. oracle_calls counts evaluations of the *base* polynomial.
    """
    n = poly.n_vars
    if poly.degree != n:
        raise InputError(
            f"estimate needs degree == n_vars, got degree {poly.degree} with "
            f"{n} variables")
    if not 0 <= k <= n - 1:
        raise InputError("need 0 <= k <= n-1")

    calls_before = poly.calls
    target = DerivativeSliceOracle(poly, k) if k > 0 else poly
    tail = n - k
    ones_value = target.evaluate((1,) * tail)
    unreliable = (
        k > 0
        and target.mode == "float"
        and target.last_condition is not None
        and target.last_condition >= 1e13  # no significant digits survive
    )
    if not float(ones_value) > 0.0 or unreliable:
        # The derivative slice vanishes at the all-ones point (or its value
        # sits below the extrapolation noise floor). Nonnegative coefficients
        # force p_k to vanish identically, so capacity and estimate are 0,
        # which keeps the lower-bound guarantee valid.
        cap = CapacityResult(0.0, (1.0,) * tail, 0, 0.0, "degenerate-zero")
    elif k == n - 1:
        # One variable left: p_k is linear, so its capacity is its value at 1.
        cap = CapacityResult(float(ones_value), (1.0,), 0, 0.0, "converged")
    else:
        cap = capacity_minimize(target, tol=tol, max_iter=max_iter)
    oracle_calls = poly.calls - calls_before

    condition = target.last_condition if k > 0 else None
    estimate = 0.0 if cap.status == "degenerate-zero" else cap.value
    return ApproxResult(
        estimate=float(estimate),
        guarantee_factor=guarantee_factor(n, k),
        oracle_calls=oracle_calls,
        k_used=k,
        capacity_result=cap,
        extrapolation_condition=condition,
    )
