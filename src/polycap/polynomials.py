"""Homogeneous polynomials with nonnegative coefficients, in three representations.

* ``SparsePolynomial``: explicit map from exponent vectors to coefficients.
* ``ProductFormPolynomial``: p_A(x) = prod_i (Ax)_i for a square nonnegative
  matrix A.
* ``DeterminantalPolynomial``: p(x) = det(x_1 A_1 + ... + x_n A_n) for a tuple
  of symmetric PSD matrices.

All three implement the ``EvaluationOracle`` interface: ``evaluate`` accepts a
real or complex point and every call bumps a call counter, so derived
oracles can account for how many underlying evaluations they spend.

Each representation also carries its own ``variable_degree(i)``, the rank
that the rank-ladder bound peels (the largest exponent of x_i for sparse
polynomials, the support of column i for product forms, the rank of A_i for
determinantal ones), and its own ``expand()`` into a ``SparsePolynomial``.
A plain oracle has neither and raises ``InputError``.

Each polynomial carries an arithmetic ``mode``: ``"exact"`` keeps scalars as
``fractions.Fraction`` (evaluation at rational points is exact), ``"float"``
uses IEEE doubles. The mode is inferred from the coefficient types unless
passed explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError

EXPAND_CAP = 10

_EXACT_TYPES = (int, Fraction)


def pairwise_sum(values):
    """Sum a list pairwise (fixed tree shape) so float results are bit-stable.

    Works for any scalar type supporting +; returns 0 for an empty list.
    """
    vals = list(values)
    if not vals:
        return 0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def _infer_mode(values, mode):
    if mode not in (None, "exact", "float"):
        raise InputError(f"unknown mode {mode!r}; expected 'exact' or 'float'")
    if mode is None:
        mode = "exact" if all(isinstance(v, _EXACT_TYPES) for v in values) else "float"
    if mode == "exact":
        for v in values:
            if not isinstance(v, _EXACT_TYPES):
                raise InputError(
                    "exact mode requires int or Fraction scalars; got "
                    f"{type(v).__name__} (pass rationals, or use float mode)"
                )
    return mode


def _coerce(value, mode):
    return Fraction(value) if mode == "exact" else float(value)


class EvaluationOracle:
    """Base interface: n_vars, degree, mode, counted evaluation.

    Subclasses implement ``_evaluate(point, is_complex)``. Evaluation is pure
    and deterministic; the call counter is the only mutable state.
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
        pt = tuple(point)
        if len(pt) != self.n_vars:
            raise InputError(
                f"point has {len(pt)} coordinates, polynomial has {self.n_vars} variables"
            )
        self._calls += 1
        is_complex = any(isinstance(v, complex) for v in pt)
        return self._evaluate(pt, is_complex)

    def _evaluate(self, point, is_complex):
        raise NotImplementedError

    def variable_degree(self, i: int) -> int:
        """Rank of variable i (0-based), as the rank-ladder bound peels it."""
        if not isinstance(i, int) or not 0 <= i < self.n_vars:
            raise InputError(f"variable index {i!r} out of range [0, {self.n_vars})")
        return self._variable_degree(i)

    def _variable_degree(self, i):
        raise InputError(f"variable_degree is undefined for {type(self).__name__}")

    def expand(self, cap: int = EXPAND_CAP) -> SparsePolynomial:
        """Expand into sparse terms.

        Refused above ``cap`` variables: the term count grows like C(2n-1, n).
        """
        if self.n_vars > cap:
            raise ResourceLimitError(
                f"expand refused: n={self.n_vars} exceeds the cap of {cap}"
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
        self.mode = mode
        self._fn = fn

    def _evaluate(self, point, is_complex):
        return self._fn(point)


class SparsePolynomial(EvaluationOracle):
    """Explicit homogeneous polynomial: exponent vector -> coefficient.

    Coefficients are strictly positive by default; zero terms are dropped and
    the identically-zero polynomial is rejected. Hyperbolicity diagnostics
    need signed examples (e.g. Lorentz quadratics), so ``allow_signed=True``
    opts out of the positivity requirement.
    """

    def __init__(self, n_vars: int, terms, mode: str | None = None,
                 allow_signed: bool = False):
        super().__init__()
        if not isinstance(n_vars, int) or n_vars < 1:
            raise InputError(f"n_vars must be a positive integer, got {n_vars!r}")
        self.n_vars = n_vars

        items = terms.items() if isinstance(terms, Mapping) else list(terms)
        cleaned = {}
        for exp, coef in items:
            e = tuple(exp)
            if len(e) != n_vars:
                raise InputError(f"exponent vector {e} has length {len(e)}, expected {n_vars}")
            if any((not isinstance(k, int)) or k < 0 for k in e):
                raise InputError(f"exponent vector {e} must contain nonnegative integers")
            if e in cleaned:
                raise InputError(f"duplicate exponent vector {e}")
            cleaned[e] = coef

        mode = _infer_mode(list(cleaned.values()), mode)
        final = {}
        for e in sorted(cleaned):
            c = _coerce(cleaned[e], mode)
            if c == 0:
                continue
            if c < 0 and not allow_signed:
                raise InputError(
                    f"coefficient of {e} is negative; coefficients must be positive "
                    "(allow_signed=True opts out for diagnostics fixtures)"
                )
            final[e] = c
        if not final:
            raise InputError("polynomial is identically zero")

        degrees = {sum(e) for e in final}
        if len(degrees) > 1:
            raise InputError(f"terms are not homogeneous: total degrees {sorted(degrees)}")
        self.degree = degrees.pop()
        self.mode = mode
        self.terms = final
        self._exp_matrix = None
        self._coef_vector = None

    def coefficient(self, exp):
        e = tuple(exp)
        if len(e) != self.n_vars:
            raise InputError(f"exponent vector {e} has length {len(e)}, expected {self.n_vars}")
        zero = Fraction(0) if self.mode == "exact" else 0.0
        return self.terms.get(e, zero)

    def _variable_degree(self, i):
        return max(e[i] for e in self.terms)

    def expand(self, cap: int = EXPAND_CAP) -> SparsePolynomial:
        return self

    def _float_arrays(self):
        if self._exp_matrix is None:
            exps = list(self.terms)
            self._exp_matrix = np.array(exps, dtype=float)
            self._coef_vector = np.array([float(self.terms[e]) for e in exps])
        return self._exp_matrix, self._coef_vector

    def _evaluate(self, point, is_complex):
        if self.mode == "float" and not is_complex:
            R, c = self._float_arrays()
            x = np.array([float(v) for v in point])
            return float(np.power(x[None, :], R).prod(axis=1) @ c)
        out = []
        for exp, coef in self.terms.items():
            v = coef
            for xi, e in zip(point, exp):
                if e:
                    v = v * xi ** e
            out.append(v)
        return pairwise_sum(out)

    def __repr__(self):
        return (f"SparsePolynomial(n_vars={self.n_vars}, degree={self.degree}, "
                f"terms={len(self.terms)}, mode={self.mode!r})")


class ProductFormPolynomial(EvaluationOracle):
    """p_A(x) = prod_i (Ax)_i for a square nonnegative matrix A."""

    def __init__(self, matrix, mode: str | None = None):
        super().__init__()
        rows = [tuple(row) for row in matrix]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise InputError("product-form matrix must be square and nonempty")
        flat = [v for r in rows for v in r]
        mode = _infer_mode(flat, mode)
        rows = tuple(tuple(_coerce(v, mode) for v in r) for r in rows)
        for i, r in enumerate(rows):
            if any(v < 0 for v in r):
                raise InputError(f"row {i} has a negative entry; entries must be >= 0")
            if all(v == 0 for v in r):
                raise InputError(f"row {i} is all zeros (polynomial would be identically 0)")
        self.rows = rows
        self.n_vars = n
        self.degree = n
        self.mode = mode
        self._float_matrix = None

    @property
    def float_matrix(self) -> np.ndarray:
        if self._float_matrix is None:
            self._float_matrix = np.array([[float(v) for v in r] for r in self.rows])
        return self._float_matrix

    def _evaluate(self, point, is_complex):
        if is_complex:
            x = np.array([complex(v) for v in point])
            return complex(np.prod(self.float_matrix @ x))
        if self.mode == "float":
            x = np.array([float(v) for v in point])
            return float(np.prod(self.float_matrix @ x))
        acc = 1
        for row in self.rows:
            acc = acc * pairwise_sum([a * xi for a, xi in zip(row, point)])
        return acc

    def _variable_degree(self, i):
        return sum(1 for row in self.rows if row[i] > 0)

    def _expand(self):
        one = Fraction(1) if self.mode == "exact" else 1.0
        n = self.n_vars
        cur = {(0,) * n: one}
        for row in self.rows:
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
    """Fraction-free Gaussian elimination determinant; exact for Fractions."""
    a = [list(row) for row in m]
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
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class DeterminantalPolynomial(EvaluationOracle):
    """p(x) = det(sum_i x_i A_i) for n symmetric PSD n x n matrices.

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
        flat = [v for m in mats for r in m for v in r]
        mode = _infer_mode(flat, mode)
        mats = tuple(tuple(tuple(_coerce(v, mode) for v in r) for r in m) for m in mats)

        stack = np.array([[[float(v) for v in r] for r in m] for m in mats])
        for idx in range(n):
            m = stack[idx]
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise InputError(f"matrix {idx} is not symmetric (tolerance 1e-12)")
            if np.linalg.eigvalsh(m).min() < -1e-10:
                raise InputError(f"matrix {idx} is not PSD (min eigenvalue < -1e-10)")

        self.matrices = mats
        self._stack = stack
        self.n_vars = n
        self.degree = n
        self.mode = mode

    def _variable_degree(self, i):
        eig = np.linalg.eigvalsh(self._stack[i])
        scale = max(1.0, float(eig.max(initial=0.0)))
        return int((eig > 1e-9 * scale).sum())

    def _evaluate(self, point, is_complex):
        if is_complex:
            x = np.array([complex(v) for v in point])
            m = np.tensordot(x, self._stack.astype(complex), axes=([0], [0]))
            return complex(np.linalg.det(m))
        if self.mode == "float":
            x = np.array([float(v) for v in point])
            return float(np.linalg.det(np.tensordot(x, self._stack, axes=([0], [0]))))
        n = self.n_vars
        m = [[pairwise_sum([point[v] * self.matrices[v][i][j] for v in range(n)])
              for j in range(n)] for i in range(n)]
        return _bareiss_det(m)

    def _expand(self):
        n = self.n_vars
        mats = self.matrices  # already Fractions or floats, as the mode says
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
