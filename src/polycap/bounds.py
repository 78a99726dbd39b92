"""Certified lower bounds on the mixed partial derivative via capacity.

The headline chain, for a degree-n polynomial in n variables with nonnegative
coefficients:

    (n!/n^n) * Cap(p)  <=  d^n p / dx_1..dx_n  <=  Cap(p)

The left factor improves when variables have small "rank", which each
representation gives exactly as ``variable_degree`` (the largest exponent, the
column support, or the matrix rank of the pencil slot): peeling variables one
at a time multiplies factors ((m-1)/m)^(m-1) where m is the effective rank at
each step, and the product of those factors over m = 1..k telescopes to k!/k^k.

This module exposes: the classical factor and its rank-refined ladder, the
sparse doubly-stochastic permanent bound, the entropic inequality behind the
peeling step, the contraction check behind the ladder, and the paper's two
lemmas as library reproductions: the repeated-column permanent closed form
and the single-variable reduction bound. Checks raise AssertionError when a
certified inequality fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .capacity import capacity_minimize
from .errors import InputError, ResourceLimitError
from .oracles import exact_mixed_partial, permanent_ryser
from .polynomials import EvaluationOracle, derivative_reduce


def vdw_factor(n: int) -> Fraction:
    """n!/n^n, the sharp constant relating Cap(p) to the mixed partial."""
    if n < 1:
        raise InputError("n must be >= 1")
    return Fraction(math.factorial(n), n ** n)


def vdw_lower_bound(capacity: float, n: int) -> float:
    """Certified lower bound (n!/n^n) * capacity on the mixed partial."""
    return float(vdw_factor(n) * Fraction(capacity))


def _phi(m: int) -> Fraction:
    """Single peeling factor ((m-1)/m)^(m-1); phi(1) = 1."""
    if m < 1:
        raise InputError("rank values must be >= 1")
    if m == 1:
        return Fraction(1)
    return Fraction(m - 1, m) ** (m - 1)


def _uniform_factor(n: int, k: int) -> Fraction:
    """Ladder factor when every step has rank at most k:
    ((k-1)/k)^((k-1)(n-k)) * k!/k^k. Equals the generic n!/n^n at k = n."""
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    return _phi(k) ** (n - k) * Fraction(math.factorial(k), k ** k)


def uniform_rank_bound(capacity: float, n: int, k: int) -> float:
    """Lower bound on the mixed partial when each peeled variable has rank
    at most k at its turn: _uniform_factor(n, k) * capacity."""
    return float(_uniform_factor(n, k) * Fraction(capacity))


def _elementary_symmetric(values) -> list:
    """All elementary symmetric polynomials e_0..e_n of the given values."""
    e = [1.0]
    for v in values:
        e.append(0.0)
        for j in range(len(e) - 1, 0, -1):
            e[j] = e[j] + e[j - 1] * v
    return e


def entropic_inequality_check(c, tol: float = 1e-12) -> tuple:
    """For c in [0,1]^n with sum(c) = n-1, the elementary symmetric functions
    satisfy e_{n-1}(c) - n * e_n(c) >= exp(sum_i c_i log c_i) (0 log 0 := 0).

    Returns (lhs, rhs) after asserting lhs >= rhs - tol.
    """
    c = [float(v) for v in c]
    n = len(c)
    if n < 1:
        raise InputError("c must be nonempty")
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
    if lhs < rhs - tol:
        raise AssertionError(
            f"entropic inequality violated: lhs {lhs} < rhs {rhs}")
    return lhs, rhs


def repeated_column_permanent(a) -> Fraction:
    """Exact permanent of the n x n matrix whose first column is a and whose
    remaining n-1 columns are all b with b_i = (1 - a_i)/(n - 1); requires
    a_i >= 0 and sum(a) = 1. Asserts it is >= n!/n^n (0^0 := 1 at n = 1).
    """
    a = [Fraction(v) if not isinstance(v, Fraction) else v for v in a]
    n = len(a)
    if n < 1:
        raise InputError("a must be nonempty")
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


def univariate_linear_bound_check(a, b, tol: float = 1e-10) -> tuple:
    """For R(t) = prod_i (a_i t + b_i) with a_i, b_i >= 0, the linear
    coefficient d1 = R'(0) satisfies

        d1 >= ((n-1)/n)^(n-1) * C,   C = inf_{t>0} R(t)/t.

    Returns (d1, C, bound) after asserting the inequality.
    """
    a = [Fraction(v) if not isinstance(v, Fraction) else v for v in a]
    b = [Fraction(v) if not isinstance(v, Fraction) else v for v in b]
    if len(a) != len(b) or not a:
        raise InputError("a and b must be equal-length nonempty sequences")
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
    if float(d1) < bound - tol * max(1.0, bound):
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


def rank_ladder_bound(poly: EvaluationOracle, ordering="as-given",
                      tol: float = 1e-10, max_iter: int = 200) -> BoundReport:
    """Compute Cap(p) and the certified lower bounds on the full mixed partial.

    The ladder peels variables in `ordering` ("as-given", "greedy" =
    ascending rank, or an explicit permutation of 0..n-1); step i (0-based)
    contributes factor phi(G_i) with G_i = min(rank(var), n - i). The report
    also carries the classical n!/n^n bound and, when max rank k < n, the
    uniform-rank factor. The brute-force exact mixed partial is attached for
    comparison where the representation has an exact route within its caps,
    and is None elsewhere.
    """
    n = poly.n_vars
    if poly.degree != n:
        raise InputError(
            f"bound needs degree == n_vars, got degree {poly.degree} with {n} variables")

    ranks = tuple(poly.variable_degree(i) for i in range(n))
    if 0 in ranks:
        raise InputError(
            f"variable {ranks.index(0)} does not occur in p (rank 0)")
    if ordering == "as-given":
        perm = tuple(range(n))
    elif ordering == "greedy":
        perm = tuple(sorted(range(n), key=lambda i: (ranks[i], i)))
    else:
        perm = tuple(int(i) for i in ordering)
        if sorted(perm) != list(range(n)):
            raise InputError("ordering must be a permutation of 0..n-1")

    G = tuple(min(ranks[perm[i]], n - i) for i in range(n))
    ladder = Fraction(1)
    for g in G:
        ladder *= _phi(g)

    cap = capacity_minimize(poly, tol=tol, max_iter=max_iter)
    if not math.isfinite(cap.value):
        raise ResourceLimitError(
            f"capacity {cap.value} is not finite in float arithmetic; "
            "the bounds cannot be formed")
    lower_vdw = vdw_lower_bound(cap.value, n)
    lower_rank = float(ladder * Fraction(cap.value))
    kmax = max(ranks)
    lower_uniform = uniform_rank_bound(cap.value, n, kmax) if kmax < n else None

    try:
        exact_value = float(exact_mixed_partial(poly))
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
        ordering_used=perm,
        capacity_status=cap.status,
        provenance=provenance,
    )


def sparse_permanent_bound(matrix, k: int, transpose: bool = False) -> float:
    """Lower bound for the permanent of a doubly stochastic matrix whose
    first n-k columns each have at most k nonzero entries:

        per(A) >= ((k-1)/k)^((k-1)(n-k)) * k!/k^k.

    Set transpose=True to apply the row-wise variant. At n <= 14 the bound is
    verified against the exact permanent before being returned.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("matrix must be square")
    n = A.shape[0]
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if np.any(A < 0):
        raise InputError("matrix entries must be nonnegative")
    dev = max(float(np.abs(A.sum(axis=1) - 1).max()),
              float(np.abs(A.sum(axis=0) - 1).max()))
    if dev > 1e-4:
        raise InputError(
            f"matrix is not doubly stochastic (deviation {dev:.3g})")
    if dev > 1e-8:
        A = A / A.sum(axis=1)[:, None]
        A = A / A.sum(axis=0)[None, :]

    B = A.T if transpose else A
    for j in range(n - k):
        support = int(np.count_nonzero(B[:, j]))
        if support > k:
            axis = "row" if transpose else "column"
            raise InputError(
                f"{axis} {j} has {support} nonzero entries, more than k = {k}")

    bound = float(_uniform_factor(n, k))
    if n <= 14:
        per = float(permanent_ryser(A))
        if per < bound - 1e-9:
            raise AssertionError(
                f"permanent {per} fell below the certified bound {bound}")
    return bound


def contraction_capacity_check(q: EvaluationOracle,
                               use_first_variable_rank: bool = False,
                               tol: float = 1e-7) -> tuple:
    """Peel the first variable: with r = d/dx_0 q(0, x_1, ..), capacity obeys
    Cap(r) >= ((m-1)/m)^(m-1) * Cap(q), m = n (generic) or the rank of
    variable 0 (use_first_variable_rank=True).

    Returns (cap_q, cap_r, ratio); a degenerate-zero q returns
    (0.0, None, None) since the inequality is vacuous at Cap(q) = 0.
    """
    n = q.n_vars
    if q.degree != n or n < 2:
        raise InputError("contraction check needs degree == n_vars >= 2")
    cap_q = capacity_minimize(q)
    if cap_q.status == "degenerate-zero" or cap_q.value == 0:
        return 0.0, None, None
    r = derivative_reduce(q.expand())
    cap_r = capacity_minimize(r)
    m = q.variable_degree(0) if use_first_variable_rank else n
    factor = float(_phi(max(m, 1)))
    if cap_r.value < factor * cap_q.value - tol * max(1.0, cap_q.value):
        raise AssertionError(
            f"contraction bound violated: Cap(r) {cap_r.value} < "
            f"{factor} * Cap(q) {factor * cap_q.value}")
    ratio = cap_r.value / cap_q.value
    return cap_q.value, cap_r.value, ratio

