"""Exact brute-force oracles: permanents, polarized mixed forms, mixed
discriminants, and Taylor-coefficient extraction.

Every bound in the package is validated against these. Permanents (Glynn's
formula) and mixed forms are signed sums over {-1,1}^k, both built on one
table, ``_sign_table``. Exact mode stays in ints and Fractions; in float mode
the order of every sum is fixed, so results are bit-stable.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

import numpy as np

from .errors import InputError, ResourceLimitError
from .polynomials import (
    _BATCH_ENTRIES,
    _EXACT_TYPES,
    DeterminantalPolynomial,
    EvaluationOracle,
    ProductFormPolynomial,
    SparsePolynomial,
)

RYSER_FLOAT_CAP = 20
RYSER_EXACT_CAP = 14
POLARIZATION_FLOAT_CAP = 22
POLARIZATION_EXACT_CAP = 14
MIXED_DISC_CAP = 12
TAYLOR_CAP = 10
# signed_sums and _glynn tabulate this many vectors at once: 2^10 rows.
_TABLE_BITS = 10


def permanent_ryser(matrix, mode: str | None = None):
    """Permanent by Glynn's formula: 2^-(n-1) times the sum over d in {-1,1}^n
    with d_1 = 1 of prod(d) prod_i sum_j d_j a_ij, half of Ryser's 2^n terms
    (the name predates the switch). Exact (Fraction) when all entries are
    rational and mode is not forced to float, summing integer numerators over
    their common denominator; caps: n <= 14 exact, n <= 20 float.

    Float error <= gamma_k prod_i sum_j |a_ij| (Higham) with k = 2^(n-1)+n^2,
    or 2^(n-1)+n if every +-1 sum is exact (small dyadic entries). For A >= 0
    that is at most Ryser's bound gamma_(2^n+n) sum_S |prod_i r_i(S)|, whose
    S = all columns term is prod_i sum_j a_ij."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        raise InputError("permanent needs a nonempty square matrix")
    flat = [v for r in rows for v in r]
    if mode is None:
        mode = "exact" if all(isinstance(v, _EXACT_TYPES) for v in flat) else "float"
    if mode == "exact":
        if n > RYSER_EXACT_CAP:
            raise ResourceLimitError(
                f"exact permanent refused: n={n} exceeds the cap of {RYSER_EXACT_CAP}"
            )
        rows = [[Fraction(v) for v in r] for r in rows]
        den = lcm(*(v.denominator for r in rows for v in r))
        nums = [[v.numerator * (den // v.denominator) for v in r] for r in rows]
        return Fraction(_glynn(np.array(nums, dtype=object).T),
                        den ** n << (n - 1))
    if n > RYSER_FLOAT_CAP:
        raise ResourceLimitError(
            f"float permanent refused: n={n} exceeds the cap of {RYSER_FLOAT_CAP}"
        )
    return float(_glynn(np.array(rows, dtype=float).T)) / 2.0 ** (n - 1)


def _glynn(cols):
    """2^(n-1) per(A) from the columns of A, the rows of ``cols``: columns
    2 to 1 + ``_TABLE_BITS`` are tabulated once, and each sign pattern of the
    rest, shifted by column 1, shifts the table. Object arrays stay exact."""
    table, signs = _sign_table(cols[1:1 + _TABLE_BITS])
    shifts, shift_signs = _sign_table(cols[1 + _TABLE_BITS:])
    total = 0
    # Python int signs: an np.int64 times an int past 2^63 overflows.
    for shift, sign in zip(shifts + cols[0], shift_signs.tolist()):
        total += sign * (np.prod(table + shift, axis=1) @ signs)
    return total


def _sign_table(vectors):
    """All 2^k sums of +-v_i over the rows v_i of ``vectors``, by doubling,
    with the product of the signs of each sum."""
    table = np.zeros((1, vectors.shape[1]), dtype=vectors.dtype)
    signs = np.ones(1, dtype=int)
    for v in vectors:
        table = np.concatenate([table + v, table - v])
        signs = np.concatenate([signs, -signs])
    return table, signs


def signed_sums(poly: EvaluationOracle, vectors, offsets=None, scales=None):
    """sum over b in {-1,1}^k of prod(b) * p(offset_t + scale_t * sum_i b_i v_i)
    for each row t of ``offsets``, as an array.

    ``vectors`` is a (k, n_vars) array. Without ``offsets`` there is one sum,
    at offset 0 and scale 1. The first ``_TABLE_BITS`` vectors are tabulated
    once and each sign pattern of the rest shifts the table, so every point is
    a fresh sum: float sums do not drift. Object (Fraction) arrays stay exact.
    """
    vectors = np.asarray(vectors)
    table, signs = _sign_table(vectors[:_TABLE_BITS])
    shifts, shift_signs = _sign_table(vectors[_TABLE_BITS:])
    per_call = max(1, _BATCH_ENTRIES // table.size)
    out = []
    for i in range(0, 1 if offsets is None else len(offsets), per_call):
        sums = 0
        for shift, sign in zip(shifts, shift_signs):
            points = table + shift
            if offsets is not None:
                points = (offsets[i:i + per_call, None, :]
                          + scales[i:i + per_call, None, None] * points)
            values = poly.evaluate_batch(points.reshape(-1, poly.n_vars))
            sums = sums + sign * (values.reshape(-1, len(table)) @ signs)
        out.append(sums)
    return np.concatenate(out)


def mixed_form(poly: EvaluationOracle, vectors=None):
    """Polarized mixed form: 2^-n sum over sign patterns b of p(sum b_i v_i) prod(b_i).

    ``vectors`` defaults to the canonical basis, in which case this equals the
    coefficient of x_1...x_n (for degree-n polynomials in n variables, the
    only surviving exponent pattern is all-ones). Deterministic: the points
    and the order of the sum depend only on the inputs.
    """
    n = poly.degree
    if vectors is None:
        if poly.n_vars != n:
            raise InputError(
                "canonical mixed form needs degree == n_vars "
                f"(got degree {n}, {poly.n_vars} variables)"
            )
        vectors = np.eye(n, dtype=int)
        exact = poly.mode == "exact"
    else:
        vectors = np.array([tuple(v) for v in vectors], dtype=object)
        if vectors.shape != (n, poly.n_vars):
            raise InputError(
                f"mixed form needs one vector of length {poly.n_vars} per "
                f"degree ({n}); got an array of shape {vectors.shape}")
        exact = poly.mode == "exact" and all(
            isinstance(c, _EXACT_TYPES) for c in vectors.flat)
        if not exact:
            vectors = np.array(vectors.tolist())

    cap = POLARIZATION_EXACT_CAP if exact else POLARIZATION_FLOAT_CAP
    if n > cap:
        raise ResourceLimitError(
            f"polarization refused: degree {n} exceeds the cap of {cap} "
            f"({'exact' if exact else 'float'} mode)"
        )

    s = signed_sums(poly, vectors).tolist()[0]
    if exact:
        return s * Fraction(1, 1 << n)
    return s / float(1 << n)


def mixed_discriminant(matrices, mode: str | None = None):
    """Mixed discriminant of n symmetric PSD n x n matrices.

    Computed as the polarized mixed partial of the determinantal polynomial:
    2^n determinant evaluations. Cap n <= 12.
    """
    return exact_mixed_partial(DeterminantalPolynomial(matrices, mode=mode))


def taylor_mixed_form_coefficient(q: SparsePolynomial, r):
    """Coefficient of prod x_i^{r_i} recovered as M_q(X_r) / prod(r_i!).

    X_r replicates basis vector e_i with multiplicity r_i. Asserts agreement
    with the stored coefficient (exactly in exact mode, 1e-9 relative in
    float), then returns the polarization-derived value.
    """
    if not isinstance(q, SparsePolynomial):
        raise InputError("taylor_mixed_form_coefficient takes a SparsePolynomial")
    r = tuple(r)
    if len(r) != q.n_vars or any((not isinstance(k, int)) or k < 0 for k in r):
        raise InputError(f"multiplicity vector {r} must be {q.n_vars} nonnegative integers")
    if sum(r) != q.degree:
        raise InputError(f"multiplicities sum to {sum(r)}, degree is {q.degree}")
    if q.degree > TAYLOR_CAP:
        raise ResourceLimitError(
            f"taylor coefficient refused: degree {q.degree} exceeds the cap of {TAYLOR_CAP}"
        )
    vectors = []
    for i, mult in enumerate(r):
        vectors.extend([tuple(int(j == i) for j in range(q.n_vars))] * mult)
    denom = 1
    for k in r:
        denom *= factorial(k)
    value = mixed_form(q, vectors)
    value = value * Fraction(1, denom) if q.mode == "exact" else value / denom
    stored = q.coefficient(r)
    if q.mode == "exact":
        if value != stored:
            raise AssertionError(
                f"polarization coefficient {value} != stored coefficient {stored} for {r}"
            )
    else:
        scale = max(abs(float(stored)), abs(float(value)), 1e-300)
        if abs(float(value) - float(stored)) > 1e-9 * scale:
            raise AssertionError(
                f"polarization coefficient {value} differs from stored {stored} for {r}"
            )
    return value


def exact_mixed_partial(poly):
    """Structural exact route to d^n p / dx_1..dx_n, one per representation.

    Sparse: direct coefficient lookup. Product form: Glynn permanent.
    Determinantal: mixed discriminant. These are the cross-checks for the
    capacity-based bounds.
    """
    if poly.degree != poly.n_vars:
        raise InputError(
            "mixed partial over all variables needs degree == n_vars "
            f"(got degree {poly.degree}, {poly.n_vars} variables)"
        )
    if isinstance(poly, SparsePolynomial):
        return poly.coefficient((1,) * poly.n_vars)
    if isinstance(poly, ProductFormPolynomial):
        return permanent_ryser(poly.matrix, mode=poly.mode)
    if isinstance(poly, DeterminantalPolynomial):
        if poly.n_vars > MIXED_DISC_CAP:
            raise ResourceLimitError(
                f"mixed discriminant refused: n={poly.n_vars} exceeds the cap of "
                f"{MIXED_DISC_CAP}"
            )
        return mixed_form(poly)
    raise InputError(f"no exact mixed-partial route for {type(poly).__name__}")
