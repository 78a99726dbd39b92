"""Certified lower bounds on the mixed partial derivative via capacity.

The headline chain, for a degree-n polynomial in n variables with nonnegative
coefficients:

    (n!/n^n) * Cap(p)  <=  d^n p / dx_1..dx_n  <=  Cap(p)

The left factor improves when variables have small "rank", which each
representation gives exactly as ``variable_degree`` (the largest exponent, the
column support, or the matrix rank of the pencil slot): peeling variables one
at a time, in ascending rank, multiplies factors ((m-1)/m)^(m-1) where m is
the effective rank at each step, and the product of those factors over
m = 1..k telescopes to k!/k^k. One ladder, ``_ladder``, serves both bounds:
``rank_ladder_bound`` multiplies it by Cap(p), and ``sparse_permanent_bound``
takes it for a doubly stochastic matrix, whose product form has Cap = 1.

Also here: the entropic inequality behind the peeling step, the contraction
check behind the ladder, and the paper's two lemmas: the repeated-column
permanent closed form and the single-variable reduction bound. Checks raise
AssertionError when a certified inequality fails past a fixed tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .capacity import _stochastic_deviation, capacity_minimize
from .errors import InputError, ResourceLimitError
from .oracles import exact_mixed_partial, permanent_ryser
from .polynomials import (
    EvaluationOracle,
    _is_int,
    _scalar_array,
    _to_float,
    derivative_reduce,
    square_shape,
)


def vdw_factor(n: int) -> Fraction:
    """n!/n^n, the sharp constant relating Cap(p) to the mixed partial."""
    if not _is_int(n) or n < 1:
        raise InputError(f"n must be an integer >= 1, got {n!r}")
    n = int(n)
    return Fraction(math.factorial(n), n ** n)


def _phi(m: int) -> Fraction:
    """Single peeling factor ((m-1)/m)^(m-1); phi(1) = 1."""
    if m < 1:
        raise InputError("rank values must be >= 1")
    if m == 1:
        return Fraction(1)
    return Fraction(m - 1, m) ** (m - 1)


def _uniform_factor(n: int, k: int) -> Fraction:
    """Ladder factor when every step has rank at most k:
    ((k-1)/k)^((k-1)(n-k)) * k!/k^k, for 1 <= k <= n; n!/n^n at k = n."""
    return _phi(k) ** (n - k) * Fraction(math.factorial(k), k ** k)


def _ladder(ranks) -> tuple:
    """Peel the variables in ascending rank, ties by index: returns
    (ordering, G, factor). Step i (0-based) has rank G_i = min(rank, n - i),
    as i variables are gone, and contributes phi(G_i) to the factor.

    No order does better: for ranks a <= b at caps c_i > c_j the pair
    {min(a, c_i), min(b, c_j)} is pointwise no larger than the swapped pair,
    and phi(m) = ((m-1)/m)^(m-1) decreases.
    """
    n = len(ranks)
    ordering = tuple(sorted(range(n), key=lambda i: (ranks[i], i)))
    G = tuple(min(ranks[v], n - i) for i, v in enumerate(ordering))
    return ordering, G, math.prod(map(_phi, G), start=Fraction(1))


def _elementary_symmetric(values) -> list:
    """All elementary symmetric polynomials e_0..e_n of the given values."""
    e = [1.0]
    for v in values:
        e.append(0.0)
        for j in range(len(e) - 1, 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e


def entropic_inequality_check(c) -> tuple:
    """For c in [0,1]^n with sum(c) = n-1, the elementary symmetric functions
    satisfy e_{n-1}(c) - n * e_n(c) >= exp(sum_i c_i log c_i) (0 log 0 := 0).

    Returns (lhs, rhs) after asserting lhs >= rhs - 1e-12.
    """
    c = _scalar_array(c, "float", 1)[1].tolist()
    n = len(c)
    for i, v in enumerate(c):
        if not -1e-10 <= v <= 1 + 1e-10:
            raise InputError(f"c[{i}] = {v} is outside [0, 1]")
    total = sum(c)
    if abs(total - (n - 1)) > 1e-10:
        raise InputError(f"sum(c) = {total}, expected n - 1 = {n - 1}")
    c = [min(max(v, 0.0), 1.0) for v in c]

    e = _elementary_symmetric(c)
    lhs = e[n - 1] - n * e[n]
    rhs = math.exp(sum(v * math.log(v) for v in c if v > 0))
    if lhs < rhs - 1e-12:
        raise AssertionError(
            f"entropic inequality violated: lhs {lhs} < rhs {rhs}")
    return lhs, rhs


def repeated_column_permanent(a) -> Fraction:
    """Exact permanent of the n x n matrix whose first column is a and whose
    remaining n-1 columns are all b with b_i = (1 - a_i)/(n - 1); requires
    a_i >= 0 and sum(a) = 1. Asserts it is >= n!/n^n (0^0 := 1 at n = 1).
    """
    a = list(map(Fraction, _scalar_array(a, None, 1)[1].tolist()))
    n = len(a)
    if any(v < 0 for v in a):
        raise InputError("entries of a must be nonnegative")
    if sum(a) != 1:
        raise InputError(f"sum(a) = {sum(a)}, expected exactly 1")
    if n == 1:
        value = Fraction(1)
    else:
        head = Fraction(math.factorial(n - 1), (n - 1) ** (n - 1))
        acc = Fraction(0)
        for i in range(n):
            prod = Fraction(1)
            for j in range(n):
                if j != i:
                    prod *= 1 - a[j]
            acc += a[i] * prod
        value = head * acc
    if value < vdw_factor(n):
        raise AssertionError(
            f"repeated-column permanent {value} below the n!/n^n floor")
    return value


def univariate_linear_bound_check(a, b) -> tuple:
    """For R(t) = prod_i (a_i t + b_i) with a_i, b_i >= 0, the linear
    coefficient d1 = R'(0) satisfies

        d1 >= ((n-1)/n)^(n-1) * C,   C = inf_{t>0} R(t)/t.

    Returns (d1, C, bound) after asserting the inequality to 1e-10 relative.
    """
    a, b = (list(map(Fraction, _scalar_array(v, None, 1)[1].tolist()))
            for v in (a, b))
    if len(a) != len(b):
        raise InputError("a and b must be of equal length")
    if any(v < 0 for v in a) or any(v < 0 for v in b):
        raise InputError("coefficients must be nonnegative")
    n = len(a)

    d1 = Fraction(0)
    for i in range(n):
        prod = a[i]
        for j in range(n):
            if j != i:
                prod *= b[j]
        d1 += prod

    af = np.array([float(v) for v in a])
    bf = np.array([float(v) for v in b])
    if np.all(af == 0):
        C = 0.0
    else:
        def ratio(logt):
            t = math.exp(logt)
            with np.errstate(divide="ignore"):
                return float(np.log(af * t + bf).sum()) - logt

        lo, hi = -60.0, 60.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if ratio(m1) <= ratio(m2):
                hi = m2
            else:
                lo = m1
        val = ratio((lo + hi) / 2)
        C = math.exp(val) if val > -700 else 0.0

    bound = float(_phi(n)) * C
    if float(d1) < bound - 1e-10 * max(1.0, bound):
        raise AssertionError(
            f"single-variable bound violated: d1 {float(d1)} < bound {bound}")
    return float(d1), C, bound


@dataclass
class BoundReport:
    n: int
    capacity: float
    lower_bound_vdw: float
    lower_bound_rank: float
    lower_bound_uniform_rank: float | None
    exact_value: float | None
    ranks: tuple
    G: tuple
    ordering_used: tuple
    capacity_status: str
    provenance: dict = field(default_factory=dict)


def rank_ladder_bound(poly: EvaluationOracle, tol: float = 1e-10,
                      max_iter: int = 200) -> BoundReport:
    """Compute Cap(p) and the certified lower bounds on the full mixed partial.

    Each bound is a factor times Cap(p): the rank ladder (``_ladder``), the
    classical n!/n^n and, when max rank k < n, the uniform-rank factor, which
    the ladder never falls below. The brute-force exact mixed partial is
    attached for comparison where the representation has an exact route
    within its caps, and is None elsewhere.
    """
    n = square_shape(poly, "bound")

    ranks = tuple(poly.variable_degree(i) for i in range(n))
    if 0 in ranks:
        raise InputError(
            f"variable {ranks.index(0)} does not occur in p (rank 0)")
    ordering, G, ladder = _ladder(ranks)

    cap = capacity_minimize(poly, tol=tol, max_iter=max_iter)
    if not math.isfinite(cap.value):
        raise ResourceLimitError(
            f"capacity {cap.value} is not finite in float arithmetic; "
            "the bounds cannot be formed")
    kmax = max(ranks)
    uniform = _uniform_factor(n, kmax) if kmax < n else None
    lower_vdw, lower_rank, lower_uniform = (
        None if factor is None else float(factor * Fraction(cap.value))
        for factor in (vdw_factor(n), ladder, uniform))

    try:
        exact_value = _to_float(exact_mixed_partial(poly))
    except (ResourceLimitError, InputError):
        exact_value = None

    provenance = {
        "capacity": "interior-point minimum of p over the slice prod(x)=1",
        "lower_bound_vdw": "van der Waerden-type factor n!/n^n",
        "lower_bound_rank": "rank-ladder product of ((m-1)/m)^(m-1) factors",
        "lower_bound_uniform_rank": "uniform low-rank factor, sharpest when "
                                    "all variables have rank <= k < n",
        "exact_value": "brute-force mixed partial (polarization / row "
                       "expansion), available at small sizes only",
    }
    return BoundReport(
        n=n,
        capacity=cap.value,
        lower_bound_vdw=lower_vdw,
        lower_bound_rank=lower_rank,
        lower_bound_uniform_rank=lower_uniform,
        exact_value=exact_value,
        ranks=ranks,
        G=G,
        ordering_used=ordering,
        capacity_status=cap.status,
        provenance=provenance,
    )


@dataclass
class SparseBoundReport:
    bound: float
    ranks: tuple
    G: tuple
    transpose: bool
    permanent: float | None


def sparse_permanent_bound(matrix) -> SparseBoundReport:
    """Lower bound for the permanent of a doubly stochastic matrix A: the rank
    ladder with Cap = 1. By weighted AM-GM, p_A(x) = prod_i sum_j a_ij x_j
    >= prod_j x_j^(sum_i a_ij) = prod_j x_j, equal at x = 1, so Cap(p_A) = 1
    and per(A) >= ``_ladder``'s factor on the ranks of p_A, the nonzero
    counts of A's columns. The rows give a second ladder (per(A) = per(A^T));
    the report keeps the larger, with the ``ranks`` and ``G`` of its side
    and ``transpose`` True when that is the rows.

    Corollary: if some n-k columns have at most k nonzeros each, then
    per(A) >= ((k-1)/k)^((k-1)(n-k)) * k!/k^k, since those come first with
    G <= k and the last k steps have G <= k, ..., 1; a dense A gets n!/n^n.

    A matrix within 1e-4 of doubly stochastic is renormalized first. Where
    the float permanent is within its cap (n <= 20), the bound is verified
    against it and the report carries it; past the cap ``permanent`` is None.
    """
    _, A = _scalar_array(matrix, "float", 2)
    if np.any(A < 0):
        raise InputError("matrix entries must be nonnegative")
    dev = _stochastic_deviation(A)
    if dev > 1e-4:
        raise InputError(
            f"matrix is not doubly stochastic (deviation {dev:.3g})")
    if dev > 1e-8:
        A = A / A.sum(axis=1)[:, None]
        A = A / A.sum(axis=0)[None, :]

    columns, rows = (tuple(np.count_nonzero(A, axis=axis).tolist())
                     for axis in (0, 1))
    _, G, factor = _ladder(columns)
    transpose = False
    if sorted(rows) != sorted(columns):
        _, G_rows, factor_rows = _ladder(rows)
        if factor_rows > factor:
            G, factor, transpose = G_rows, factor_rows, True
    bound = float(factor)
    try:
        per = permanent_ryser(A)
    except ResourceLimitError:
        per = None
    if per is not None and per < bound - 1e-9:
        raise AssertionError(
            f"permanent {per} fell below the certified bound {bound}")
    return SparseBoundReport(bound, rows if transpose else columns, G,
                             transpose, per)


def contraction_capacity_check(q: EvaluationOracle) -> tuple:
    """Peel the first variable: with r = d/dx_0 q(0, x_1, ..), capacity obeys
    Cap(r) >= ((m-1)/m)^(m-1) * Cap(q), m the rank of variable 0. As m <= n
    and the factor falls as m grows, this implies the generic m = n bound.

    Returns (cap_q, cap_r, ratio) after asserting the inequality to 1e-7
    relative; a degenerate-zero q returns (0.0, None, None) since the
    inequality is vacuous at Cap(q) = 0.
    """
    square_shape(q, "contraction check", 2)
    cap_q = capacity_minimize(q)
    if cap_q.status == "degenerate-zero" or cap_q.value == 0:
        return 0.0, None, None
    r = derivative_reduce(q.expand())
    cap_r = capacity_minimize(r)
    m = q.variable_degree(0)
    factor = float(_phi(max(m, 1)))
    if cap_r.value < factor * cap_q.value - 1e-7 * max(1.0, cap_q.value):
        raise AssertionError(
            f"contraction bound violated: Cap(r) {cap_r.value} < "
            f"{factor} * Cap(q) {factor * cap_q.value}")
    ratio = cap_r.value / cap_q.value
    return cap_q.value, cap_r.value, ratio

