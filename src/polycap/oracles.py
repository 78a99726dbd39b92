"""Exact brute-force oracles: permanents, polarized mixed forms and mixed
discriminants.

Every bound in the package is validated against these. Permanents (Glynn's
formula) and mixed forms are signed sums over {-1,1}^k, both built on one
table, ``_sign_table``. Exact mode stays in ints and Fractions; in float mode
the order of every sum is fixed, so results are bit-stable, and a sum that
leaves the float range is refused with ResourceLimitError, not returned as
inf or nan. Each representation picks its exact mixed partial itself
(``mixed_partial`` in ``polynomials``); ``exact_mixed_partial`` checks the
degree and asks it.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, lcm, nextafter, prod

import numpy as np

from .errors import InputError, ResourceLimitError
from .polynomials import (
    _BATCH_ENTRIES,
    _EXACT_TYPES,
    DeterminantalPolynomial,
    EvaluationOracle,
    _scalar_array,
)

RYSER_FLOAT_CAP = 20
RYSER_EXACT_CAP = 14
POLARIZATION_FLOAT_CAP = 22
POLARIZATION_EXACT_CAP = 14
MIXED_DISC_CAP = 12
# signed_sums and _glynn tabulate this many vectors at once: 2^10 rows.
_TABLE_BITS = 10


def permanent_ryser(matrix, mode: str | None = None):
    """Permanent by Glynn's formula: 2^-(n-1) times the sum over d in {-1,1}^n
    with d_1 = 1 of prod(d) prod_i sum_j d_j a_ij, half of Ryser's 2^n terms
    (the name predates the switch). The entries are read as the
    representations read them (``_scalar_array``): exact (Fraction) when all
    are ints or Fractions and mode is not float, summing integer numerators
    over their common denominator; exact mode refuses other entries with
    InputError. Caps: n <= 14 exact, n <= 20 float.

    Float error <= gamma_k prod_i sum_j |a_ij| (Higham) with k = 2^(n-1)+n^2,
    or 2^(n-1)+n if every +-1 sum is exact (small dyadic entries). For A >= 0
    that is at most Ryser's bound gamma_(2^n+n) sum_S |prod_i r_i(S)|, whose
    S = all columns term is prod_i sum_j a_ij."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        raise InputError("permanent needs a nonempty square matrix")
    mode, a = _scalar_array(rows, mode)
    if mode == "exact":
        if n > RYSER_EXACT_CAP:
            raise ResourceLimitError(
                f"exact permanent refused: n={n} exceeds the cap of {RYSER_EXACT_CAP}"
            )
        den = lcm(*(v.denominator for v in a.flat))
        nums = [[v.numerator * (den // v.denominator) for v in r] for r in a]
        return Fraction(_glynn(np.array(nums, dtype=object).T),
                        den ** n << (n - 1))
    if n > RYSER_FLOAT_CAP:
        raise ResourceLimitError(
            f"float permanent refused: n={n} exceeds the cap of {RYSER_FLOAT_CAP}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(_glynn(a.T)) / 2.0 ** (n - 1)
    return _finite_sum(value, "permanent")


def _finite_sum(value: float, what: str) -> float:
    """value, or ResourceLimitError if a float sum left the float range."""
    if not isfinite(value):
        raise ResourceLimitError(
            f"float {what} refused: the result overflows the float range; "
            "rescale the input or use exact mode")
    return value


def permanent_error_bound(matrix) -> float:
    """Upper bound on the error of the float ``permanent_ryser(matrix)``, the
    a-priori bound of its docstring: gamma_k prod_i sum_j |a_ij| over the
    float entries, with k = 2^(n-1)+n^2, gamma_k = k u / (1 - k u) and
    u = 2^-53. It is formed in Fractions and rounded up, so it is itself an
    upper bound; inf past the float range."""
    rows = [[abs(Fraction(float(v))) for v in r] for r in matrix]
    n = len(rows)
    k = (1 << (n - 1)) + n * n
    bound = Fraction(k, (1 << 53) - k) * prod(sum(r) for r in rows)
    try:
        value = float(bound)
    except OverflowError:
        return inf
    return value if value >= bound else nextafter(value, inf)


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

    with np.errstate(over="ignore", invalid="ignore"):
        s = signed_sums(poly, vectors).tolist()[0]
    if exact:
        return s * Fraction(1, 1 << n)
    return _finite_sum(s / float(1 << n), "polarization")


def mixed_discriminant(matrices, mode: str | None = None):
    """Mixed discriminant of n symmetric PSD n x n matrices.

    Computed as the polarized mixed partial of the determinantal polynomial:
    2^n determinant evaluations. Cap n <= 12. ``matrices`` may be that
    DeterminantalPolynomial itself; it is used as is, its evaluations counted
    in its ``calls``, and a ``mode`` other than its own raises InputError.
    """
    if not isinstance(matrices, DeterminantalPolynomial):
        matrices = DeterminantalPolynomial(matrices, mode=mode)
    elif mode not in (None, matrices.mode):
        raise InputError(
            f"mode {mode!r} does not match the polynomial's mode "
            f"{matrices.mode!r}")
    return exact_mixed_partial(matrices)


def exact_mixed_partial(poly):
    """d^n p / dx_1..dx_n by the representation's exact route
    (``poly.mixed_partial()``): sparse, the coefficient of x_1...x_n; product
    form, the Glynn permanent; determinantal, the mixed discriminant. These
    are the cross-checks for the capacity-based bounds; a plain oracle has
    none and raises InputError.
    """
    if poly.degree != poly.n_vars:
        raise InputError(
            "mixed partial over all variables needs degree == n_vars "
            f"(got degree {poly.degree}, {poly.n_vars} variables)"
        )
    return poly.mixed_partial()
