"""Deterministic approximation of the full mixed partial derivative.

Pipeline: fix the first k variables, build an evaluation oracle for

    p_k(x_{k+1..n}) = d^k p / dx_1..dx_k  evaluated at (0, ..., 0, x_{k+1..n})

out of plain evaluations of p (signed averages at sign patterns scaled to the
size of the point, extrapolated to scale 0), then minimize that oracle over
the positive slice prod(x) = 1. The resulting capacity C_k sandwiches the
true mixed partial:

    C_k * (n-k)! / (n-k)^(n-k)  <=  d^n p / dx_1..dx_n  <=  C_k

so the multiplicative guarantee (n-k)^(n-k) / (n-k)! tightens as k grows,
reaching exactness at k = n-1, at the price of 2^k * m oracle calls per
evaluation, m = floor((n-k)/2) + 1. Oracle-call counts are tracked exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import vdw_factor
from .capacity import CapacityResult, capacity_minimize
from .errors import InputError
from .oracles import signed_sums
from .polynomials import EvaluationOracle, _in_chunks, square_shape

_TINY = 1e-300


def guarantee_factor(n: int, k: int = 0) -> float:
    """Worst-case ratio (upper estimate / true value) after fixing k
    variables: 1/vdw_factor(n-k) = (n-k)^(n-k) / (n-k)!. Decreases strictly
    in k; equals 1 at k = n-1 (and n = 1)."""
    if not 0 <= k <= n - 1:
        raise InputError("need 0 <= k <= n-1")
    return float(1 / vdw_factor(n - k))


class DerivativeSliceOracle(EvaluationOracle):
    """Evaluation oracle for p_k(tail) = (d^k p / dx_1..dx_k)(0, tail).

    Each evaluation takes the signed average
        g(eps) = 2^-k sum_{b in {-1,1}^k} p(eps * b, tail) * prod(b)
    which equals eps^k * h(eps^2) with h(0) = p_k(tail): only head exponents
    with the parity of k survive the sign symmetry, so h has degree
    floor((n-k)/2). It extrapolates h to 0 by Lagrange interpolation over the
    m = floor((n-k)/2) + 1 nodes t_j = eps_j^2, eps_j = (j/m) max_i |tail_i|,
    j = 1..m (scale 1 for a zero tail). Head and tail are then of one size,
    so the signed sum cancels no more at small or large tails than at tails
    of size 1, and the weights at t = 0 do not depend on the scale. The
    sums are ``oracles.signed_sums`` at offsets (0, tail), scales eps_j, over
    all 2^k patterns: b and -b do not pair, as the tail keeps its sign. Exact
    inputs make this algebraically exact; float inputs report a condition
    number for the last row of the most recent batch in `last_condition`.
    """

    def __init__(self, base: EvaluationOracle, k: int):
        if not 1 <= k < base.n_vars:
            raise InputError("need 1 <= k < n_vars")
        square_shape(base, "slice oracle")
        super().__init__()
        self.n_vars = base.n_vars - k
        self.degree = base.degree - k
        self.mode = base.mode
        self.base = base
        self.k = k
        self.m = self.n_vars // 2 + 1
        # Nodes and weights are exact; each batch takes them in its dtype and
        # scales the nodes by its rows' sizes, which leaves the weights as
        # they are.
        self.eps = [Fraction(j, self.m) for j in range(1, self.m + 1)]
        ts = [e * e for e in self.eps]
        self.weights = [math.prod(ts[l] / (ts[l] - ts[j])
                                  for l in range(self.m) if l != j)
                        for j in range(self.m)]
        self.calls_per_eval = (2 ** self.k) * self.m
        self.last_condition = None

    def _row_entries(self):
        # Each row evaluates the base at calls_per_eval points.
        return self.calls_per_eval * self.base.n_vars

    def _evaluate_batch(self, X):
        # One row (eps_j, 0, tail) per tail and node; the kernel sums the
        # head's sign patterns at offset (0, tail) and scale eps_j. That sum
        # is 2^k eps_j^k h(eps_j^2).
        dtype = X.dtype
        scale = np.abs(X).max(axis=1)
        scale[scale == 0] = 1
        eps = scale[:, None] * np.array(self.eps, dtype=dtype)
        n = self.base.n_vars
        rows = np.zeros((len(X), self.m, 1 + n), dtype=dtype)
        rows[:, :, 0] = eps
        rows[:, :, 1 + self.k:] = X[:, None, :]
        vectors = np.eye(self.k, n, dtype=int)
        # A row past one chunk still builds about _BATCH_ENTRIES points at a
        # time (one offset's 2^k at least): its offsets go in groups.
        sums = _in_chunks(
            lambda group: signed_sums(self.base.evaluate_batch, vectors,
                                      group[:, 1:], group[:, 0]),
            rows.reshape(-1, 1 + n), 2 ** self.k * n)
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


def estimate_mixed_partial(poly: EvaluationOracle, k: int = 0,
                           tol: float = 1e-10, max_iter: int = 200) -> ApproxResult:
    """Upper estimate of the full mixed partial with a multiplicative
    guarantee: true value <= estimate <= guarantee_factor * true value.

    k controls the accuracy/cost trade-off: the first k variables are
    differentiated out through the slice oracle (2^k * m base calls per
    evaluation) before the capacity minimization runs on the remaining n-k
    variables. oracle_calls counts evaluations of the *base* polynomial.
    """
    n = square_shape(poly, "estimate")
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
        cap = CapacityResult(0.0, (1.0,) * tail, 0, 0.0, "degenerate", None)
    elif k == n - 1:
        # One variable left: p_k is linear, so its capacity is its value at 1.
        cap = CapacityResult(float(ones_value), (1.0,), 0, 0.0, "gradient",
                             math.log(ones_value))
    else:
        cap = capacity_minimize(target, tol=tol, max_iter=max_iter)
    oracle_calls = poly.calls - calls_before

    condition = target.last_condition if k > 0 else None
    return ApproxResult(
        estimate=float(cap.value),
        guarantee_factor=guarantee_factor(n, k),
        oracle_calls=oracle_calls,
        k_used=k,
        capacity_result=cap,
        extrapolation_condition=condition,
    )
