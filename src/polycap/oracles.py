"""Exact brute-force oracles: permanents, polarized mixed forms and mixed
discriminants.

Every bound in the package is validated against these. All are one signed
sum, ``signed_sums``: a form of degree n polarized along n vectors with the
first sign fixed, 2^(n-1) terms, as homogeneity pairs each sign pattern with
its negation. Glynn's permanent polarizes x_1...x_n along the columns; a
mixed form polarizes the polynomial along the canonical basis (for a
determinantal polynomial, its mixed discriminant). The points come in
point-major blocks, one C-contiguous (n, 2^10) array per shift of the sign
table, so the permanent's row products run along whole rows of the block.
Exact mode evaluates over ints, reading the data as integer numerators over
one denominator (one per row for the permanent); the permanent takes its row
sums and partial products in int64 wherever their bounds allow. In float
mode the order of every sum is fixed, so results are bit-stable, and a sum
that leaves the float range is refused with ResourceLimitError, not inf or
nan. Each representation picks its exact mixed partial (``mixed_partial``);
``exact_mixed_partial`` checks the degree.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, nextafter, prod

import numpy as np

from .errors import ResourceLimitError
from .polynomials import (
    DeterminantalPolynomial,
    EvaluationOracle,
    _integer_rows,
    _scalar_array,
    square_shape,
)

RYSER_FLOAT_CAP = 20
RYSER_EXACT_CAP = 14
POLARIZATION_FLOAT_CAP = 22
POLARIZATION_EXACT_CAP = 14
MIXED_DISC_CAP = 12
# signed_sums tabulates this many vectors at once: 2^10 points. Another value
# changes the order of the float sums, and so the float results.
_TABLE_BITS = 10
# int64 holds every partial product whose bound stays below this.
_INT64_BOUND = 1 << 62


def permanent_ryser(matrix, mode: str | None = None):
    """Permanent by Glynn's formula: 2^-(n-1) times the sum over d in {-1,1}^n
    with d_1 = 1 of prod(d) prod_i sum_j d_j a_ij, half of Ryser's 2^n terms
    (the name predates the switch). The entries are read as the
    representations read them (``_scalar_array``): exact (Fraction) when all
    are ints or Fractions and mode is not float, summing integer numerators
    over each row's common denominator; exact mode refuses other entries with
    InputError. Caps: n <= 14 exact, n <= 20 float.

    Float error <= gamma_k prod_i sum_j |a_ij| (Higham) with k = 2^(n-1)+n^2,
    or 2^(n-1)+n if every +-1 sum is exact (small dyadic entries). For A >= 0
    that is at most Ryser's bound gamma_(2^n+n) sum_S |prod_i r_i(S)|, whose
    S = all columns term is prod_i sum_j a_ij."""
    mode, a = _scalar_array(matrix, mode, 2)
    n = len(a)
    if mode == "exact":
        if n > RYSER_EXACT_CAP:
            raise ResourceLimitError(
                f"exact permanent refused: n={n} exceeds the cap of {RYSER_EXACT_CAP}"
            )
        a, den = _integer_rows(a)
        a, groups = _int64_groups(a)
    elif n > RYSER_FLOAT_CAP:
        raise ResourceLimitError(
            f"float permanent refused: n={n} exceeds the cap of {RYSER_FLOAT_CAP}"
        )
    else:
        groups = [slice(None)]

    def row_products(P):
        # Each group's rows multiplied in order down the block, as one
        # np.prod per point would; exact groups are joined as Python ints.
        parts = [np.multiply.reduce(P[g], axis=0) for g in groups]
        if mode == "float":
            return parts[0]
        return prod(part.astype(object) for part in parts)

    # The polarization of x_1...x_n along the columns, with d_1 fixed to 1.
    with np.errstate(over="ignore", invalid="ignore"):
        total = signed_sums(row_products, a.T[1:], a.T[0])
    if mode == "exact":
        return Fraction(total, prod(den.tolist()) << (n - 1))
    return _finite_sum(total / 2.0 ** (n - 1), "permanent")


def _int64_groups(N):
    """(N, groups): the integer numerators N as int64, with the rows split in
    order into slices whose products of row bounds sum_j |N_ij| stay below
    2^62, so every +-1 row sum and each group's product of them is exact in
    int64. A row bound of 2^62 or more keeps N as Python ints, in one group."""
    bounds = [sum(map(abs, row)) for row in N.tolist()]
    if max(bounds) >= _INT64_BOUND:
        return N, [slice(None)]
    groups, start, product = [], 0, 1
    for i, bound in enumerate(bounds):
        if product * bound >= _INT64_BOUND:
            groups.append(slice(start, i))
            start, product = i, 1
        product *= bound
    groups.append(slice(start, len(bounds)))
    return N.astype(np.int64), groups


def _finite_sum(value: float, what: str) -> float:
    """value as a Python float, or ResourceLimitError if a float sum left
    the float range."""
    if not isfinite(value):
        raise ResourceLimitError(
            f"float {what} refused: the result overflows the float range; "
            "rescale the input or use exact mode")
    return float(value)


def permanent_error_bound(matrix) -> float:
    """Upper bound on the error of the float ``permanent_ryser(matrix)``, the
    a-priori bound of its docstring: gamma_k prod_i sum_j |a_ij| over the
    float entries, with k = 2^(n-1)+n^2, gamma_k = k u / (1 - k u) and
    u = 2^-53. It is formed exactly, each row sum as an integer over the
    row's largest power-of-two denominator, and rounded up, so it is itself
    an upper bound; inf past the float range."""
    nums, dens = [], []
    for r in matrix:
        ratios = [abs(float(v)).as_integer_ratio() for v in r]
        den = max((q for _, q in ratios), default=1)
        nums.append(sum(p * (den // q) for p, q in ratios))
        dens.append(den)
    n = len(nums)
    k = (1 << (n - 1)) + n * n
    bound = Fraction(k * prod(nums), ((1 << 53) - k) * prod(dens))
    try:
        value = float(bound)
    except OverflowError:
        return inf
    return value if value >= bound else nextafter(value, inf)


def _sign_table(vectors):
    """All 2^k sums of +-v_i over the rows v_i of ``vectors``, by doubling,
    with the product of the signs of each sum."""
    table = np.zeros((1, vectors.shape[1]), dtype=vectors.dtype)
    signs = np.ones(1, dtype=int)
    for v in vectors:
        table = np.concatenate([table + v, table - v])
        signs = np.concatenate([signs, -signs])
    return table, signs


def signed_sums(f, vectors, offset):
    """sum over b in {-1,1}^k of prod(b) * f(offset + sum_i b_i v_i).

    ``vectors`` is a (k, d) array and ``offset`` a length-d vector. The first
    ``_TABLE_BITS`` vectors are tabulated once and each sign pattern of the
    rest shifts the table, so every point is a fresh sum: float sums do not
    drift. Object (Fraction or Python int) arrays stay exact. ``f`` gets the
    points in point-major blocks: a C-contiguous (d, 2^min(k, _TABLE_BITS))
    array whose columns are the points, and returns their values.
    """
    table, signs = _sign_table(vectors[:_TABLE_BITS])
    shifts, shift_signs = _sign_table(vectors[_TABLE_BITS:])
    # Contiguous, so that every block built from it is C-ordered too.
    table = np.ascontiguousarray(table.T)
    total = 0
    # Python int signs: an np.int64 times an int past 2^63 overflows.
    for shift, sign in zip(shifts, shift_signs.tolist()):
        total = total + sign * (f(table + (shift + offset)[:, None]) @ signs)
    return total


def mixed_form(poly: EvaluationOracle):
    """The coefficient of x_1...x_n in a form p of degree n in n variables,
    by polarization along the canonical basis:
    2^-(n-1) sum over b in {-1,1}^n with b_1 = 1 of prod(b) p(sum_i b_i e_i).

    p must be homogeneous: p(-x) = (-1)^n p(x), so the patterns b and -b
    add the same term, and fixing b_1 = +1 halves the 2^n evaluations to
    2^(n-1). Deterministic: the points and the order of the sum depend only
    on the inputs.
    """
    n = square_shape(poly, "canonical mixed form")
    exact = poly.mode == "exact"
    cap = POLARIZATION_EXACT_CAP if exact else POLARIZATION_FLOAT_CAP
    if n > cap:
        raise ResourceLimitError(
            f"polarization refused: degree {n} exceeds the cap of {cap} "
            f"({'exact' if exact else 'float'} mode)"
        )
    basis = np.eye(n, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        s = signed_sums(lambda P: poly.evaluate_batch(np.ascontiguousarray(P.T)),
                        basis[1:], basis[0])
    if exact:
        return s * Fraction(1, 1 << (n - 1))
    return _finite_sum(s / float(1 << (n - 1)), "polarization")


def mixed_discriminant(matrices):
    """Mixed discriminant of n symmetric PSD n x n matrices.

    Computed as the polarized mixed partial of the determinantal polynomial:
    2^(n-1) determinant evaluations. Cap n <= 12. ``matrices`` may be that
    DeterminantalPolynomial itself; it is used as is, its mode decides exact
    or float and its evaluations are counted in its ``calls``. A list of
    matrices is read in the mode its entries imply.
    """
    if not isinstance(matrices, DeterminantalPolynomial):
        matrices = DeterminantalPolynomial(matrices)
    return exact_mixed_partial(matrices)


def exact_mixed_partial(poly):
    """d^n p / dx_1..dx_n by the representation's exact route
    (``poly.mixed_partial()``): sparse, the coefficient of x_1...x_n; product
    form, the Glynn permanent; determinantal, the mixed discriminant. These
    are the cross-checks for the capacity-based bounds; a plain oracle has
    none and raises InputError.
    """
    square_shape(poly, "mixed partial over all variables")
    return poly.mixed_partial()
