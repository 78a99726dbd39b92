"""Homogeneous polynomials with nonnegative coefficients, in three representations.

* ``SparsePolynomial``: explicit map from exponent vectors to coefficients.
* ``ProductFormPolynomial``: p_A(x) = prod_i (Ax)_i for a square nonnegative
  matrix A.
* ``DeterminantalPolynomial``: p(x) = det(x_1 A_1 + ... + x_n A_n) for a tuple
  of symmetric PSD matrices.

Each polynomial carries an arithmetic ``mode``: ``"exact"`` keeps scalars as
``fractions.Fraction`` (evaluation at rational points is exact), ``"float"``
uses IEEE doubles. The mode is inferred from the coefficient types unless
passed explicitly. Each representation holds its data once, in one ndarray:
float64 in float mode, an object array of Fractions in exact mode.

All three implement the ``EvaluationOracle`` interface. ``evaluate_batch(X)``
takes an ``(m, n_vars)`` array of points and returns the ``m`` values, with
one numpy expression per representation for every dtype of X: float and
complex rows meet the float view of the data (in float mode the stored array
itself), object rows (Fractions) the stored scalars, which numpy combines
exactly. ``evaluate(point)`` is a batch of one row. The call counter counts
rows, so derived oracles can account for how many underlying evaluations they
spend.

Each representation also carries its own ``variable_degree(i)``, the rank
that the rank-ladder bound peels (the largest exponent of x_i for sparse
polynomials, the support of column i for product forms, the rank of A_i for
determinantal ones), and its own ``expand()`` into a ``SparsePolynomial``.
A plain oracle has neither and raises ``InputError``.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError

EXPAND_CAP = 10
# Batches go through numpy in chunks of about this many array entries, so a
# large batch takes no more memory than a small one. Chunks of 1 << 16
# entries raised the approx benchmark's peak RSS by 4% over one point at a
# time, chunks of 1 << 12 by under 3%.
_BATCH_ENTRIES = 1 << 12

_EXACT_TYPES = (int, Fraction)
_to_fractions = np.frompyfunc(Fraction, 1, 1)


def _is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_mode(mode):
    if mode not in ("exact", "float"):
        raise InputError(f"unknown mode {mode!r}; expected 'exact' or 'float'")
    return mode


def _scalar_array(values, mode):
    """(mode, array): the nested sequences ``values`` as one ndarray, float64
    in float mode or an object array of Fractions in exact mode. Without a
    mode, exact when every scalar is an int or a Fraction."""
    if mode is not None:
        _check_mode(mode)
    if mode != "float":
        a = np.array(values, dtype=object)
        for v in a.flat:
            if not isinstance(v, _EXACT_TYPES):
                if mode == "exact":
                    raise InputError(
                        "exact mode requires int or Fraction scalars; got "
                        f"{type(v).__name__} (pass rationals, or use float mode)"
                    )
                break
        else:
            return "exact", _to_fractions(a)
    return "float", np.array(values, dtype=float)


def _view(a, X):
    """The data ``a`` as the rows X meet it: the stored scalars for object
    rows, else the float view, which in float mode is ``a`` itself."""
    return a if X.dtype == object or a.dtype != object else a.astype(float)


class EvaluationOracle:
    """Base interface: n_vars, degree, mode, counted evaluation.

    Subclasses implement ``_evaluate_batch(X)`` for a chunk of rows of any
    dtype. Evaluation is pure and deterministic; the call counter is the only
    mutable state.
    """

    n_vars: int
    degree: int
    mode: str

    def __init__(self):
        self._calls = 0

    @property
    def calls(self) -> int:
        return self._calls

    def reset_calls(self):
        self._calls = 0

    def evaluate(self, point: Sequence):
        """p at one point: a batch of one row."""
        return self.evaluate_batch([tuple(point)]).tolist()[0]

    def evaluate_batch(self, X) -> np.ndarray:
        """p at each row of the ``(m, n_vars)`` array X, as an array of shape (m,).

        Integer rows count as exact for an exact polynomial and as floats
        otherwise. ``calls`` grows by m.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n_vars:
            raise InputError(
                f"points must have shape (m, {self.n_vars}), got {X.shape}")
        self._calls += len(X)
        if X.dtype.kind in "biu":
            X = X.astype(object if self.mode == "exact" else float)
        step = max(1, _BATCH_ENTRIES // self._row_entries())
        return np.concatenate([self._evaluate_batch(X[i:i + step])
                               for i in range(0, max(len(X), 1), step)])

    def _evaluate_batch(self, X):
        raise NotImplementedError

    def _row_entries(self):
        """Array entries one row costs in ``_evaluate_batch``."""
        return self.n_vars

    def variable_degree(self, i: int) -> int:
        """Rank of variable i (0-based), as the rank-ladder bound peels it."""
        if not isinstance(i, int) or not 0 <= i < self.n_vars:
            raise InputError(f"variable index {i!r} out of range [0, {self.n_vars})")
        return self._variable_degree(i)

    def _variable_degree(self, i):
        raise InputError(f"variable_degree is undefined for {type(self).__name__}")

    def expand(self) -> SparsePolynomial:
        """Expand into sparse terms.

        Refused above EXPAND_CAP variables: the term count grows like
        C(2n-1, n).
        """
        if self.n_vars > EXPAND_CAP:
            raise ResourceLimitError(
                f"expand refused: n={self.n_vars} exceeds the cap of {EXPAND_CAP}"
            )
        return self._expand()

    def _expand(self):
        raise InputError(f"expand is undefined for {type(self).__name__}")


class FunctionOracle(EvaluationOracle):
    """Wrap an arbitrary evaluation function as an oracle."""

    def __init__(self, n_vars: int, degree: int, fn: Callable, mode: str = "float"):
        super().__init__()
        if n_vars < 1 or degree < 0:
            raise InputError("FunctionOracle needs n_vars >= 1 and degree >= 0")
        self.n_vars = int(n_vars)
        self.degree = int(degree)
        self.mode = _check_mode(mode)
        self._fn = fn

    def _evaluate_batch(self, X):
        return np.array([self._fn(tuple(row)) for row in X.tolist()])


class SparsePolynomial(EvaluationOracle):
    """Explicit homogeneous polynomial: exponent vector -> coefficient.

    Coefficients are strictly positive by default; zero terms are dropped and
    the identically-zero polynomial is rejected. Hyperbolicity diagnostics
    need signed examples (e.g. Lorentz quadratics), so ``allow_signed=True``
    opts out of the positivity requirement.

    The terms, sorted by exponent vector, are held as the int array
    ``exponents`` (one row per term) and the array ``coefficients``; ``terms``
    maps each exponent tuple to its coefficient.
    """

    def __init__(self, n_vars: int, terms, mode: str | None = None,
                 allow_signed: bool = False):
        super().__init__()
        if not _is_int(n_vars) or n_vars < 1:
            raise InputError(f"n_vars must be a positive integer, got {n_vars!r}")
        self.n_vars = n_vars

        items = terms.items() if isinstance(terms, Mapping) else list(terms)
        cleaned = {}
        for exp, coef in items:
            e = tuple(exp)
            if len(e) != n_vars:
                raise InputError(f"exponent vector {e} has length {len(e)}, expected {n_vars}")
            if not all(_is_int(k) and k >= 0 for k in e):
                raise InputError(f"exponent vector {e} must contain nonnegative integers")
            if e in cleaned:
                raise InputError(f"duplicate exponent vector {e}")
            cleaned[e] = coef

        exps = sorted(cleaned)
        self.mode, coefs = _scalar_array([cleaned[e] for e in exps], mode)
        negative = np.flatnonzero(coefs < 0)
        if len(negative) and not allow_signed:
            raise InputError(
                f"coefficient of {exps[negative[0]]} is negative; coefficients "
                "must be positive (allow_signed=True opts out for diagnostics "
                "fixtures)"
            )
        kept = np.flatnonzero(coefs != 0)
        if not len(kept):
            raise InputError("polynomial is identically zero")
        try:
            self.exponents = np.array(exps, dtype=int).reshape(-1, n_vars)[kept]
        except OverflowError:
            raise InputError("exponents must be below 2^63") from None
        self.coefficients = coefs[kept]
        self.terms = dict(zip(map(tuple, self.exponents.tolist()),
                              self.coefficients.tolist()))

        degrees = np.unique(self.exponents.sum(axis=1)).tolist()
        if len(degrees) > 1:
            raise InputError(f"terms are not homogeneous: total degrees {degrees}")
        self.degree = degrees[0]

    def coefficient(self, exp):
        e = tuple(exp)
        if len(e) != self.n_vars:
            raise InputError(f"exponent vector {e} has length {len(e)}, expected {self.n_vars}")
        zero = Fraction(0) if self.mode == "exact" else 0.0
        return self.terms.get(e, zero)

    def _variable_degree(self, i):
        return int(self.exponents[:, i].max())

    def expand(self) -> SparsePolynomial:
        return self

    def _row_entries(self):
        return len(self.terms) * self.n_vars

    def _evaluate_batch(self, X):
        c = _view(self.coefficients, X)
        return np.power(X[:, None, :], self.exponents).prod(axis=2) @ c

    def __repr__(self):
        return (f"SparsePolynomial(n_vars={self.n_vars}, degree={self.degree}, "
                f"terms={len(self.terms)}, mode={self.mode!r})")


class ProductFormPolynomial(EvaluationOracle):
    """p_A(x) = prod_i (Ax)_i for a square nonnegative matrix A, held in
    ``matrix``."""

    def __init__(self, matrix, mode: str | None = None):
        super().__init__()
        rows = [tuple(row) for row in matrix]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise InputError("product-form matrix must be square and nonempty")
        self.mode, self.matrix = _scalar_array(rows, mode)
        for i, row in enumerate(self.matrix):
            if (row < 0).any():
                raise InputError(f"row {i} has a negative entry; entries must be >= 0")
            if (row == 0).all():
                raise InputError(f"row {i} is all zeros (polynomial would be identically 0)")
        self.n_vars = n
        self.degree = n

    def _evaluate_batch(self, X):
        return np.prod(X @ _view(self.matrix, X).T, axis=1)

    def _variable_degree(self, i):
        return int((self.matrix[:, i] > 0).sum())

    def _expand(self):
        one = Fraction(1) if self.mode == "exact" else 1.0
        n = self.n_vars
        cur = {(0,) * n: one}
        for row in self.matrix.tolist():
            nxt = {}
            for exp, c in cur.items():
                for j, a in enumerate(row):
                    if a == 0:
                        continue
                    e2 = exp[:j] + (exp[j] + 1,) + exp[j + 1:]
                    nxt[e2] = nxt.get(e2, 0) + c * a
            cur = nxt
        return SparsePolynomial(n, cur, mode=self.mode)

    def __repr__(self):
        return f"ProductFormPolynomial(n={self.n_vars}, mode={self.mode!r})"


def _bareiss_det(m):
    """Exact determinant by Bareiss elimination over integer numerators."""
    den = lcm(*(v.denominator for row in m for v in row))
    a = [[v.numerator * (den // v.denominator) for v in row] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], den ** n)


class DeterminantalPolynomial(EvaluationOracle):
    """p(x) = det(sum_i x_i A_i) for n symmetric PSD n x n matrices, held in
    ``matrices`` of shape (n, n, n).

    Symmetry is required to 1e-12 entrywise and PSD-ness to eigenvalue
    >= -1e-10 on the float view. Evaluation uses dense determinants, never a
    symbolic expansion, so moderately large n stays evaluable.
    """

    def __init__(self, matrices, mode: str | None = None):
        super().__init__()
        mats = [tuple(tuple(row) for row in m) for m in matrices]
        n = len(mats)
        if n < 1:
            raise InputError("determinantal polynomial needs at least one matrix")
        for idx, m in enumerate(mats):
            if len(m) != n or any(len(r) != n for r in m):
                raise InputError(
                    f"matrix {idx} is not {n}x{n}; need n matrices of size n x n"
                )
        self.mode, self.matrices = _scalar_array(mats, mode)
        for idx, m in enumerate(np.asarray(self.matrices, dtype=float)):
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise InputError(f"matrix {idx} is not symmetric (tolerance 1e-12)")
            if np.linalg.eigvalsh(m).min() < -1e-10:
                raise InputError(f"matrix {idx} is not PSD (min eigenvalue < -1e-10)")
        self.n_vars = n
        self.degree = n

    def _variable_degree(self, i):
        eig = np.linalg.eigvalsh(np.asarray(self.matrices[i], dtype=float))
        scale = max(1.0, float(eig.max(initial=0.0)))
        return int((eig > 1e-9 * scale).sum())

    def _row_entries(self):
        return self.n_vars ** 2

    def _evaluate_batch(self, X):
        M = np.tensordot(X, _view(self.matrices, X), axes=([1], [0]))
        if X.dtype == object:
            if self.mode == "exact":
                return np.array([_bareiss_det(m) for m in M.tolist()])
            M = M.astype(float)
        return np.linalg.det(M)

    def _expand(self):
        n = self.n_vars
        mats = self.matrices.tolist()  # Fractions or floats, as the mode says
        zero_exp = (0,) * n
        one = Fraction(1) if self.mode == "exact" else 1.0

        # Laplace expansion along rows with memoization over column subsets:
        # level[mask] = det of the submatrix on rows 0..popcount(mask)-1 and the
        # columns in mask, held as a term dict. Only two popcount levels are live.
        level = {0: {zero_exp: one}}
        for size in range(1, n + 1):
            nxt = {}
            masks = [m for m in range(1 << n) if bin(m).count("1") == size]
            r = size - 1
            for mask in masks:
                acc = {}
                pos = 0
                for j in range(n):
                    if not mask & (1 << j):
                        continue
                    sub = level[mask ^ (1 << j)]
                    sgn = 1 if (r + pos) % 2 == 0 else -1
                    for v in range(n):
                        a = mats[v][r][j]
                        if a == 0:
                            continue
                        coef = a if sgn == 1 else -a
                        for exp, c in sub.items():
                            e2 = exp[:v] + (exp[v] + 1,) + exp[v + 1:]
                            acc[e2] = acc.get(e2, 0) + coef * c
                    pos += 1
                nxt[mask] = acc
            level = nxt
        full = level[(1 << n) - 1]

        if self.mode == "float":
            scale = max((abs(c) for c in full.values()), default=0.0)
            full = {e: c for e, c in full.items() if abs(c) > 1e-12 * scale}
        else:
            full = {e: c for e, c in full.items() if c != 0}
        return SparsePolynomial(n, full, mode=self.mode, allow_signed=True)

    def __repr__(self):
        return f"DeterminantalPolynomial(n={self.n_vars}, mode={self.mode!r})"


def derivative_reduce(q: SparsePolynomial) -> SparsePolynomial:
    """d/dx_0 q evaluated at x_0 = 0: keep the x_0-linear terms, drop x_0.

    Requires the square shape (degree == n_vars >= 2) under which the
    capacity-contraction inequality is stated. The surviving coefficients are
    unchanged (the derivative of c*x_0*m is c*m).
    """
    if not isinstance(q, SparsePolynomial):
        raise InputError("derivative_reduce takes a SparsePolynomial; expand first")
    if q.n_vars < 2:
        raise InputError("derivative_reduce needs at least 2 variables")
    if q.degree != q.n_vars:
        raise InputError(
            f"derivative_reduce needs degree == n_vars, got degree {q.degree} "
            f"with {q.n_vars} variables"
        )
    kept = {e[1:]: c for e, c in q.terms.items() if e[0] == 1}
    if not kept:
        raise InputError(
            "derivative reduction yields the zero polynomial (no terms linear "
            "in the first variable)"
        )
    return SparsePolynomial(q.n_vars - 1, kept, mode=q.mode, allow_signed=True)
