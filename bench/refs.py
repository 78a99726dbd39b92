"""Reference values for the benchmark's checks.

Everything here is computed from the generated inputs with Python integers,
Fractions and numpy. Nothing imports polycap, so a fault in the program
cannot hide in its own reference.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, log, prod

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    rounded binary64 operations."""
    ku = k * UNIT_ROUNDOFF
    return ku / (1.0 - ku)


def ryser(matrix):
    """Permanent of an integer (or Fraction) matrix by Ryser's formula with
    Gray-code subset updates.

    Returns (per, abs_sum), where abs_sum is the sum of |prod_i s_i(S)| over
    the 2^n - 1 subsets S: the scale of the rounding error of a float Ryser
    sum.
    """
    n = len(matrix)
    cols = list(zip(*matrix))
    sums = [0] * n
    total = 0
    abs_sum = 0
    prev = 0
    size = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev
        prev = gray
        col = cols[bit.bit_length() - 1]
        if gray & bit:
            size += 1
            sums = [s + c for s, c in zip(sums, col)]
        else:
            size -= 1
            sums = [s - c for s, c in zip(sums, col)]
        term = prod(sums)
        abs_sum += abs(term)
        total += term if (n - size) % 2 == 0 else -term
    return total, abs_sum


def det_int(matrix):
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mixed_disc_by_columns(mats):
    """Mixed partial d^n/dx_1..dx_n of det(sum_i x_i A_i) for integer
    matrices, by multilinearity in the columns: the sum over bijections pi
    of det([A_pi(1)[:, 1], ..., A_pi(n)[:, n]]). Costs n! determinants."""
    n = len(mats)
    total = 0
    for pi in permutations(range(n)):
        cols = [[mats[pi[j]][i][j] for j in range(n)] for i in range(n)]
        total += det_int(cols)
    return total


def diagonal_polarization_scale(diag_rows, denom: int):
    """For the diagonal tuple A_i = diag(m_1i, ..., m_ni) / denom with
    integer m, return (sum_b |p(b)|, max_b sum_j |ln|d_j(b)||) over the 2^n
    sign vectors b, where d_j(b) = sum_i b_i m_ji / denom and
    p(b) = prod_j d_j(b). The sum is exact, in units of denom^-n.

    The first is the scale of the rounding error of a polarization sum; the
    second bounds the error of a determinant taken through its logarithm.
    """
    n = len(diag_rows)
    abs_sum = 0
    log_spread = 0.0
    for mask in range(1 << n):
        b = [-1 if mask >> i & 1 else 1 for i in range(n)]
        d = [sum(bi * mji for bi, mji in zip(b, row)) for row in diag_rows]
        abs_sum += abs(prod(d))
        log_spread = max(log_spread, sum(abs(log(abs(v)) - log(denom))
                                         for v in d if v != 0))
    return abs_sum, log_spread


def sinkhorn_capacity(matrix, tol: float = 1e-13, max_iter: int = 100000):
    """Capacity of the product form prod_i (A x)_i by Sinkhorn scaling:
    A = D1 B D2 with B doubly stochastic gives Cap = prod(D1) prod(D2).
    Returned as a natural logarithm, so large n cannot overflow."""
    B = np.array(matrix, dtype=float)
    log_cap = 0.0
    for _ in range(max_iter):
        r = B.sum(axis=1)
        B /= r[:, None]
        c = B.sum(axis=0)
        B /= c[None, :]
        log_cap += np.log(r).sum() + np.log(c).sum()
        if np.abs(B.sum(axis=1) - 1.0).max() <= tol:
            return float(log_cap)
    raise RuntimeError("reference Sinkhorn did not converge")


def vdw_factor(n: int) -> Fraction:
    """n!/n^n."""
    return Fraction(factorial(n), n ** n)


def uniform_rank_factor(n: int, k: int) -> Fraction:
    """((k-1)/k)^((k-1)(n-k)) * k!/k^k: the ladder factor when every column
    of an n x n matrix has at most k nonzeros."""
    phi = Fraction(k - 1, k) ** (k - 1)
    return phi ** (n - k) * vdw_factor(k)


def approx_guarantee(n: int, k: int) -> Fraction:
    """(n-k)^(n-k)/(n-k)!: the factor by which the evaluation-access
    estimate may exceed the true mixed partial."""
    m = n - k
    return Fraction(m ** m, factorial(m))
