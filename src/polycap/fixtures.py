"""Deterministic generators for matrices, polynomials, and PSD tuples used by
the built-in check suite (and by the tests).

Every random generator takes an explicit ``numpy.random.Generator``; nothing
here touches global RNG state.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .capacity import sinkhorn_scale
from .errors import InputError
from .polynomials import ProductFormPolynomial, SparsePolynomial, _scalar_array


def uniform_matrix(n: int):
    """The n x n doubly stochastic matrix with all entries 1/n, exactly."""
    if n < 1:
        raise InputError("n must be >= 1")
    row = tuple(Fraction(1, n) for _ in range(n))
    return tuple(row for _ in range(n))


def uniform_product_polynomial(n: int, mode: str = "exact") -> ProductFormPolynomial:
    """p(x) = ((x_1 + ... + x_n)/n)^n, the capacity-1 equality case."""
    return ProductFormPolynomial(uniform_matrix(n), mode=mode)


def two_per_row_circulant(mode: str = "exact") -> tuple:
    """3x3 doubly stochastic circulant with two nonzeros per row/column;
    its permanent 1/4 meets the sparse-support bound with equality."""
    h = Fraction(1, 2) if mode == "exact" else 0.5
    z = Fraction(0) if mode == "exact" else 0.0
    return ((h, h, z), (z, h, h), (h, z, h))


def power_sum(n: int, mode: str = "exact") -> SparsePolynomial:
    """p(x) = (x_1^n + ... + x_n^n)/n: capacity 1 but mixed partial 0, the
    standard example failing the half-plane property for n >= 3."""
    c = Fraction(1, n) if mode == "exact" else 1.0 / n
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = n
        terms[tuple(e)] = c
    return SparsePolynomial(n, terms, mode=mode)


def random_positive_matrix(n: int, rng: np.random.Generator):
    """Square float matrix with entries uniform in [0.1, 1]."""
    return tuple(map(tuple, rng.uniform(0.1, 1.0, (n, n))))


def random_product_polynomial(n: int, rng: np.random.Generator) -> ProductFormPolynomial:
    """Product-form polynomial over a random strictly positive matrix."""
    return ProductFormPolynomial(random_positive_matrix(n, rng), mode="float")


def random_doubly_stochastic(n: int, rng: np.random.Generator):
    """Random doubly stochastic matrix: positive start, Sinkhorn to 1e-12."""
    result = sinkhorn_scale(random_positive_matrix(n, rng), tol=1e-12,
                            max_iter=20000)
    return result.scaled_matrix


def random_rational_matrix(n: int, rng: np.random.Generator,
                           denominator: int = 97):
    """Square matrix of strictly positive Fractions with a fixed denominator."""
    ints = rng.integers(1, denominator + 1, (n, n))
    return tuple(tuple(Fraction(int(v), denominator) for v in row)
                 for row in ints)


def random_permutation_matrix(n: int, rng: np.random.Generator):
    """0/1 permutation matrix (as Fractions) plus the permutation itself."""
    perm = tuple(int(v) for v in rng.permutation(n))
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[perm[i]] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows), perm


def random_k_regular_doubly_stochastic(n: int, k: int, rng: np.random.Generator):
    """Average of k random permutation matrices: doubly stochastic with at
    most k nonzeros in every row and column. Returns (matrix, permutations)."""
    if not 1 <= k:
        raise InputError("k must be >= 1")
    mats = []
    perms = []
    for _ in range(k):
        m, p = random_permutation_matrix(n, rng)
        mats.append(m)
        perms.append(p)
    rows = []
    for i in range(n):
        rows.append(tuple(
            sum(m[i][j] for m in mats) / k for j in range(n)))
    return tuple(rows), tuple(perms)


def diagonal_psd_tuple(matrix):
    """PSD tuple (diag of row 1, ..., diag of row n), as an (n, n, n) array:
    its mixed "determinant" polynomial det(sum x_i diag(row_i)) is the product
    form of matrix^T, so the full mixed partial equals per(matrix)."""
    _, A = _scalar_array(matrix, None, 2)
    if (A < 0).any():
        raise InputError("matrix entries must be nonnegative")
    n = len(A)
    mats = np.zeros((n, n, n), dtype=A.dtype)
    mats[:, range(n), range(n)] = A
    return mats


def doubly_stochastic_psd_tuple(n: int, rng: np.random.Generator):
    """PSD tuple with sum_i A_i = I and tr(A_i) = 1: A_i = sum_j W_ij q_j q_j^T
    with W doubly stochastic and Q orthogonal."""
    W = np.array(random_doubly_stochastic(n, rng))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    outer = np.einsum("aj,bj->jab", q, q)  # q_j q_j^T stacked over j
    mats = np.tensordot(W, outer, axes=([1], [0]))
    mats = 0.5 * (mats + mats.transpose(0, 2, 1))
    return tuple(tuple(map(tuple, m)) for m in mats)


def multilinear_head_sparse(n: int, k: int, n_terms: int,
                            rng: np.random.Generator,
                            mode: str = "exact") -> SparsePolynomial:
    """Sparse degree-n polynomial in n variables guaranteed to survive k
    head derivatives: includes the all-ones monomial and extra terms whose
    first k exponents are exactly 1."""
    if not 0 <= k < n:
        raise InputError("need 0 <= k < n")
    terms = {tuple([1] * n): Fraction(1) if mode == "exact" else 1.0}
    guard = 0
    while len(terms) < n_terms and guard < 100 * n_terms:
        guard += 1
        head = (1,) * k
        tail = tuple(int(v) for v in
                     rng.multinomial(n - k, [1.0 / (n - k)] * (n - k)))
        e = head + tail
        if e in terms:
            # also mix in generic terms so the head derivative kills some
            e = tuple(int(v) for v in rng.multinomial(n, [1.0 / n] * n))
            if e in terms:
                continue
        if mode == "exact":
            terms[e] = Fraction(int(rng.integers(1, 100)), 100)
        else:
            terms[e] = float(rng.uniform(0.1, 1.0))
    return SparsePolynomial(n, terms, mode=mode)


def feasible_entropy_vector(n: int, rng: np.random.Generator):
    """Random c in [0,1]^n with sum(c) = n-1: c = 1 - Dirichlet(1,...,1)."""
    if n < 2:
        raise InputError("n must be >= 2")
    d = rng.dirichlet([1.0] * n)
    return tuple(1.0 - v for v in d)
