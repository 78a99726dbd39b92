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

Newton on the slice needs its gradient and Hessian too. On product forms and
pencils the same 2^k * m points give them in closed form (``jet_sum``), and
``EvaluationOracle.log_objective`` picks the jet objective for such a slice,
so each Newton step costs one batch of base calls; on other bases (sparse
polynomials, plain oracles) it takes finite differences of slice
evaluations.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import vdw_factor
from .capacity import CapacityResult, capacity_minimize
from .errors import InputError
from .oracles import _TABLE_BITS, _sign_table
from .polynomials import (EvaluationOracle, _is_int, _summed, _to_float,
                          square_shape)

_TINY = 1e-300


def guarantee_factor(n: int, k: int = 0) -> float:
    """Worst-case ratio (upper estimate / true value) after fixing k
    variables: 1/vdw_factor(n-k) = (n-k)^(n-k) / (n-k)!. Decreases strictly
    in k; equals 1 at k = n-1 (and n = 1)."""
    if not (_is_int(n) and _is_int(k) and 0 <= k <= n - 1):
        raise InputError(f"need integers 0 <= k <= n-1, got n={n!r} and k={k!r}")
    return float(1 / vdw_factor(n - k))


@functools.cache
def _nodes(m: int):
    """(eps, weights), exact: the nodes eps_j = j/m, j = 1..m, and the Lagrange
    weights at t = 0 over t_j = eps_j^2."""
    eps = tuple(Fraction(j, m) for j in range(1, m + 1))
    ts = [e * e for e in eps]
    return eps, tuple(math.prod(ts[l] / (ts[l] - ts[j]) for l in range(m) if l != j)
                      for j in range(m))


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
    sums run over all 2^k patterns: b and -b do not pair, as the tail keeps
    its sign. Exact inputs make this algebraically exact; float inputs report
    a condition number for the last row of the most recent batch in
    `last_condition`.

    The slice is linear in p, so with the nodes held fixed its gradient and
    Hessian are the same signed, weighted sums of the base's. A base with
    ``jet_sum`` (a product form, a pencil, or a slice of either) gives all
    three from one batch of points, and the base class's ``log_objective``
    then takes the jet objective; any other base keeps finite differences.
    Values and jets read one set of points, ``_signed_points``.
    """

    def __init__(self, base: EvaluationOracle, k: int):
        if not (_is_int(k) and 1 <= k < base.n_vars):
            raise InputError(f"need an integer 1 <= k < n_vars, got {k!r}")
        square_shape(base, "slice oracle")
        super().__init__()
        self.k = k = int(k)
        self.n_vars = base.n_vars - k
        self.degree = base.degree - k
        self.mode = base.mode
        self.base = base
        self.m = self.n_vars // 2 + 1
        # Nodes and weights are exact; each batch takes them in its dtype and
        # scales the nodes by its rows' sizes, which leaves the weights as
        # they are. Their exact and float arrays are made once.
        self.eps, self.weights = _nodes(self.m)
        self._exact_nodes, self._float_nodes = (
            (np.array(self.eps, dtype=dtype), np.array(self.weights, dtype=dtype))
            for dtype in (object, float))
        self.calls_per_eval = (2 ** self.k) * self.m
        self.last_condition = None
        # The head's sign patterns, with the product of each one's signs: the
        # first _TABLE_BITS head variables tabulated once, and each pattern of
        # the rest a shift of the table, so a base call gets at most
        # 2^_TABLE_BITS points per node.
        head = np.eye(k, dtype=int)
        self._table, signs = _sign_table(head[:_TABLE_BITS])
        self._shifts = [(shift, sign * signs)
                        for shift, sign in zip(*_sign_table(head[_TABLE_BITS:]))]

    def _row_entries(self):
        # Each row evaluates the base at calls_per_eval points.
        return self.calls_per_eval * self.base.n_vars

    def _scaled_nodes(self, X):
        """(eps, weights) in X's dtype: the nodes scaled by each row's size
        (1 for a zero row), (len(X), m), and the weights, (m,)."""
        if X.dtype == object:
            nodes, weights = self._exact_nodes
        else:
            nodes, weights = (a.astype(X.dtype, copy=False) for a in self._float_nodes)
        scale = np.abs(X).max(axis=1)
        scale[scale == 0] = 1
        return scale[:, None] * nodes, weights

    def _signed_points(self, eps, X):
        """For each shift of the sign table: the base points (eps_j b, x) for
        every row x of X, its nodes eps_j (a row of ``eps``) and the patterns
        b of the shifted table, as rows in (row, node, pattern) order, with
        each pattern's sign prod(b). One buffer, refilled per shift: its rows
        are valid until the next one."""
        points = np.empty((len(X), self.m, len(self._table), self.base.n_vars),
                          dtype=X.dtype)
        points[..., self.k:] = X[:, None, None, :]
        for shift, signs in self._shifts:
            points[..., :self.k] = eps[:, :, None, None] * (self._table + shift)
            yield points.reshape(-1, self.base.n_vars), signs

    def has_jets(self):
        return self.base.has_jets()

    def _evaluate_batch(self, X):
        # The signed sum of each row and node over the head's patterns is
        # 2^k eps_j^k h(eps_j^2).
        eps, weights = self._scaled_nodes(X)
        sums = 0
        for points, signs in self._signed_points(eps, X):
            values = self.base.evaluate_batch(points)
            sums = sums + values.reshape(eps.size, -1) @ signs
        h = sums.reshape(eps.shape) / (2 ** self.k * eps ** self.k)
        terms = h * weights
        values = terms.sum(axis=1)
        if self.mode == "float" and len(X):
            mag = np.abs(terms[-1]).sum()
            self.last_condition = float(mag / max(abs(values[-1]), _TINY))
        return values

    def _jet_entries(self, first):
        return self._row_entries()

    def _jet(self, X, c, first):
        # With its nodes held fixed the slice is linear in p: its jet is the
        # base's over the points of each row's evaluation, weighted
        # c_t w_j prod(b) / (2^k eps_j^k), in the base's variables k + first..
        eps, weights = self._scaled_nodes(X)
        w = (c[:, None] * weights / (2 ** self.k * eps ** self.k))[:, :, None]
        return _summed([self.base.jet_sum(points, (w * signs).ravel(), self.k + first)
                        for points, signs in self._signed_points(eps, X)])


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
    variables. oracle_calls counts evaluations of the *base* polynomial; on
    a product form or a pencil each also yields the point's gradient and
    Hessian, so one Newton step costs one slice evaluation.
    """
    n = square_shape(poly, "estimate")
    if not (_is_int(k) and 0 <= k <= n - 1):
        raise InputError(f"need an integer 0 <= k <= n-1, got {k!r}")
    k = int(k)

    calls_before = poly.calls
    target = DerivativeSliceOracle(poly, k) if k > 0 else poly
    ones_value = target.evaluate((1,) * (n - k))
    unreliable = (
        k > 0
        and target.mode == "float"
        and target.last_condition is not None
        and target.last_condition >= 1e13  # no significant digits survive
    )
    if not ones_value > 0 or unreliable:
        # The derivative slice vanishes at the all-ones point (or its value
        # sits below the extrapolation noise floor). Nonnegative coefficients
        # force p_k to vanish identically, so capacity and estimate are 0,
        # which keeps the lower-bound guarantee valid.
        cap = CapacityResult(0.0, None, 0, 0.0, "degenerate", None)
    elif k == n - 1:
        # One variable left: p_k is linear, so its capacity is its value at 1.
        # An exact value below the float range has a log all the same.
        value = _to_float(ones_value)
        log_value = (math.log(value) if value else math.log(ones_value.numerator)
                     - math.log(ones_value.denominator))
        cap = CapacityResult(value, (1.0,), 0, 0.0, "gradient", log_value)
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
