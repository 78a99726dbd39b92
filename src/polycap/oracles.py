"""Exact brute-force oracles: permanents, polarized mixed forms, mixed
discriminants, and Taylor-coefficient extraction.

Every bound in the package is validated against these. Exact mode runs in big
rationals; float mode uses a fixed pairwise-tree reduction so results are
bit-stable.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InputError, ResourceLimitError
from .polynomials import (
    _EXACT_TYPES,
    DeterminantalPolynomial,
    EvaluationOracle,
    ProductFormPolynomial,
    SparsePolynomial,
    pairwise_sum,
)

RYSER_FLOAT_CAP = 20
RYSER_EXACT_CAP = 14
POLARIZATION_FLOAT_CAP = 22
POLARIZATION_EXACT_CAP = 14
MIXED_DISC_CAP = 12
TAYLOR_CAP = 10


def permanent_ryser(matrix, mode: str | None = None):
    """Permanent by Ryser inclusion-exclusion with Gray-code subset updates.

    Exact (Fraction) when all entries are rational and mode is not forced to
    float; caps: n <= 14 exact, n <= 20 float.
    """
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
        zero = Fraction(0)
    else:
        if n > RYSER_FLOAT_CAP:
            raise ResourceLimitError(
                f"float permanent refused: n={n} exceeds the cap of {RYSER_FLOAT_CAP}"
            )
        rows = [[float(v) for v in r] for r in rows]
        zero = 0.0

    sums = [zero] * n
    total = zero
    prev_gray = 0
    size = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        bit = gray ^ prev_gray
        j = bit.bit_length() - 1
        if gray & bit:
            size += 1
            for i in range(n):
                sums[i] = sums[i] + rows[i][j]
        else:
            size -= 1
            for i in range(n):
                sums[i] = sums[i] - rows[i][j]
        prod = sums[0]
        for i in range(1, n):
            prod = prod * sums[i]
        total = total + prod if size % 2 == 0 else total - prod
        prev_gray = gray
    # total accumulated (-1)^|S| prod; fold in the global (-1)^n
    return total if n % 2 == 0 else -total


def _signed_points(n, vectors):
    """Yield (sign, point) for all 2^n Gray-code-ordered sign patterns.

    Step i visits the sign pattern gray(i): set bits are -1. The point is
    sum_j b_j vectors[j], maintained incrementally and refreshed periodically
    to keep float drift bounded.
    """
    dim = len(vectors[0])
    exact = all(isinstance(c, _EXACT_TYPES) for v in vectors for c in v)

    def fresh(gray):
        pt = [Fraction(0) if exact else 0.0] * dim
        for j in range(n):
            sgn = -1 if gray & (1 << j) else 1
            for d in range(dim):
                pt[d] = pt[d] + sgn * vectors[j][d]
        return pt

    gray = 0
    point = fresh(gray)
    size = 0
    for i in range(1 << n):
        g = i ^ (i >> 1)
        if i > 0:
            bit = g ^ gray
            j = bit.bit_length() - 1
            if g & bit:
                size += 1
                for d in range(dim):
                    point[d] = point[d] - 2 * vectors[j][d]
            else:
                size -= 1
                for d in range(dim):
                    point[d] = point[d] + 2 * vectors[j][d]
            gray = g
            if not exact and i % 4096 == 0:
                point = fresh(gray)
        sign = 1 if size % 2 == 0 else -1
        yield sign, tuple(point)


def mixed_form(poly: EvaluationOracle, vectors=None):
    """Polarized mixed form: 2^-n sum over sign patterns b of p(sum b_i v_i) prod(b_i).

    ``vectors`` defaults to the canonical basis, in which case this equals the
    coefficient of x_1...x_n (for degree-n polynomials in n variables, the
    only surviving exponent pattern is all-ones). Deterministic: terms are
    combined by a fixed pairwise tree.
    """
    n = poly.degree
    if vectors is None:
        if poly.n_vars != n:
            raise InputError(
                "canonical mixed form needs degree == n_vars "
                f"(got degree {n}, {poly.n_vars} variables)"
            )
        one = Fraction(1) if poly.mode == "exact" else 1.0
        zero = Fraction(0) if poly.mode == "exact" else 0.0
        vectors = [
            tuple(one if j == i else zero for j in range(n)) for i in range(n)
        ]
    else:
        vectors = [tuple(v) for v in vectors]
        if len(vectors) != n:
            raise InputError(
                f"mixed form needs one vector per degree: got {len(vectors)}, "
                f"degree is {n}"
            )
        if any(len(v) != poly.n_vars for v in vectors):
            raise InputError(f"vectors must have length {poly.n_vars}")

    exact = poly.mode == "exact" and all(
        isinstance(c, _EXACT_TYPES) for v in vectors for c in v
    )
    cap = POLARIZATION_EXACT_CAP if exact else POLARIZATION_FLOAT_CAP
    if n > cap:
        raise ResourceLimitError(
            f"polarization refused: degree {n} exceeds the cap of {cap} "
            f"({'exact' if exact else 'float'} mode)"
        )

    total = 1 << n
    terms = []
    for sign, point in _signed_points(n, vectors):
        v = poly.evaluate(point)
        terms.append(v if sign == 1 else -v)

    s = pairwise_sum(terms)
    if exact:
        return s * Fraction(1, total)
    return s / float(total)


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
    one = Fraction(1) if q.mode == "exact" else 1.0
    zero = Fraction(0) if q.mode == "exact" else 0.0
    vectors = []
    for i, mult in enumerate(r):
        basis = tuple(one if j == i else zero for j in range(q.n_vars))
        vectors.extend([basis] * mult)
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

    Sparse: direct coefficient lookup. Product form: Ryser permanent.
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
        return permanent_ryser(poly.rows, mode=poly.mode)
    if isinstance(poly, DeterminantalPolynomial):
        if poly.n_vars > MIXED_DISC_CAP:
            raise ResourceLimitError(
                f"mixed discriminant refused: n={poly.n_vars} exceeds the cap of "
                f"{MIXED_DISC_CAP}"
            )
        return mixed_form(poly)
    raise InputError(f"no exact mixed-partial route for {type(poly).__name__}")
