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
float64 in float mode, an object array of Fractions in exact mode. One
reader, ``_scalar_array``, builds that array for every matrix, pencil or
coefficient input in the package: input that is ragged, wrongly shaped,
non-numeric or non-finite ends in ``InputError``.

All three implement the ``EvaluationOracle`` interface. ``evaluate_batch(X)``
takes an ``(m, n_vars)`` array of points and returns the ``m`` values, with
one numpy expression per representation for every dtype of X: float and
complex rows meet the float view of the data (in float mode the stored array
itself, in exact mode a float copy made once), exact rows its integer view:
numerators over one denominator D, made once. Each exact row is cleared to
integers over its own least common denominator d_r, and a value v over ints
is Fraction(v, D^e d_r^degree), e = degree (1 for sparse coefficients).
``evaluate(point)`` is a batch of one row. The call counter counts rows, so
derived oracles can account for how many underlying evaluations they spend.

Each representation also carries the algorithms that depend on it, so no
other module asks which representation it holds:

* ``variable_degree(i)``, the rank that the rank-ladder bound peels: the
  largest exponent of x_i for sparse polynomials, the support of column i
  for product forms, the rank of A_i for determinantal ones;
* ``expand()`` into a ``SparsePolynomial``, for sparse polynomials and
  product forms (a pencil raises ``InputError``);
* ``log_objective()``, the convex capacity objective f(y) = log p(e^y) with
  its gradient and Hessian: sparse polynomials and product forms share one
  log-sum-exp of linear forms in y, taken in the log domain (one block of
  terms for a sparse polynomial, one per row of A for a product form); the
  base class picks the jet objective for pencils and any other oracle with
  ``jet_sum``, finite differences of evaluations for the rest;
* ``mixed_partial()``, the exact d^n p / dx_1..dx_n: the coefficient of
  x_1...x_n, the permanent of the matrix, the mixed discriminant of the
  pencil;
* ``line_roots(points, direction)``, the roots of the slices t -> p(x - t d)
  in closed form, with the backward error of the coefficients they came from;
* ``jet_sum(X, c, first)``, the c-weighted sums of p, its gradient and its
  Hessian at float rows over a scale e^s, with s, from leave-one-out and
  leave-two-out products: of the linear forms for product forms (s = 0),
  of the eigenvalues of A(x) over their geometric mean for pencils, so no
  determinant overflows (``has_jets()`` says whether an oracle gives it).

A plain oracle keeps the finite-difference objective and raises
``InputError`` for the rest. ``approx.DerivativeSliceOracle`` is one, but
where its base gives ``jet_sum`` so does the slice, and the base class then
gives it the jet objective.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError, ResourceLimitError

EXPAND_CAP = 10
# Batches go through numpy in chunks of about this many array entries, so a
# large batch takes no more memory than a small one. Chunks of 1 << 16
# entries raised the approx benchmark's peak RSS by 4% over one point at a
# time, chunks of 1 << 12 by under 3%.
_BATCH_ENTRIES = 1 << 12
# Sparse slices are refused past this degree. An m-fold root of float
# coefficients spreads into a cluster of radius about (backward error)^(1/m),
# and by degree 60 that cluster reads as complex: (x1+x2)^60/2^60 fails.
SLICE_DEGREE_CAP = 46
_SLICE_NOISE = 1e-14  # relative rounding of a sparse slice's coefficients

_EXACT_TYPES = (int, Fraction)
_to_fractions = np.frompyfunc(
    lambda v: v if type(v) is Fraction else Fraction(v), 1, 1)
_numerators = np.frompyfunc(lambda v: v.numerator, 1, 1)
_denominators = np.frompyfunc(lambda v: v.denominator, 1, 1)
_cleared = np.frompyfunc(lambda v, d: v.numerator * (d // v.denominator), 2, 1)


def _is_int(value) -> bool:
    """An int or a numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_mode(mode):
    if mode not in ("exact", "float"):
        raise InputError(f"unknown mode {mode!r}; expected 'exact' or 'float'")
    return mode


def square_shape(poly, what: str, min_vars: int = 1) -> int:
    """poly.n_vars, once poly has the square shape degree == n_vars >= min_vars
    that the full mixed partial and the capacity bounds are stated for;
    otherwise InputError, naming ``what`` needs it."""
    n = poly.n_vars
    if poly.degree != n or n < min_vars:
        raise InputError(f"{what} needs degree == n_vars >= {min_vars}, got "
                         f"degree {poly.degree} with {n} variables")
    return n


def _in_chunks(fn, X, row_entries):
    """fn on the rows of X in chunks of about _BATCH_ENTRIES array entries
    (``row_entries`` per row), joined."""
    step = max(1, _BATCH_ENTRIES // row_entries)
    return np.concatenate([fn(X[i:i + step])
                           for i in range(0, max(len(X), 1), step)])


def _leave_out(u):
    """(L1, L2) over the last axis of u: L1_i = prod_{r != i} u_r and, for
    i != l, L2_il = prod_{r != i, l} u_r (0 on the diagonal). Row i of W is u
    with u_i set to 1, and the prefix and suffix products of W's rows leave
    out one more entry each. No division, so a zero u_r is safe."""
    eye = np.eye(u.shape[-1], dtype=bool)
    W = np.where(eye, 1.0, u[..., None, :])
    L = np.ones(W.shape)
    L[..., 1:] = np.cumprod(W[..., :-1], axis=-1)
    L[..., :-1] *= np.cumprod(W[..., :0:-1], axis=-1)[..., ::-1]
    L1 = L[..., eye]
    L[..., eye] = 0
    return L1, L


def _summed(parts):
    """The (s, value, gradient, Hessian) jets ``parts`` as one: their sums
    over e^s, s the largest part's scale, added in order. A single part is
    returned as it is."""
    if len(parts) == 1:
        return parts[0]
    s = max(part[0] for part in parts)
    scaled = [[np.exp(part[0] - s) * v for v in part[1:]] for part in parts]
    return (s, *(sum(terms[1:], terms[0]) for terms in zip(*scaled)))


def _to_float(value):
    """value as a float, or an exact array as a float array; ResourceLimitError
    for an exact value past the float range."""
    try:
        return value.astype(float) if isinstance(value, np.ndarray) else float(value)
    except OverflowError:
        raise ResourceLimitError("float conversion refused: an exact value "
                                 "overflows the float range; rescale the input"
                                 ) from None


def _integer_rows(a):
    """(N, d): the rows (last axis) of the object array ``a`` of ints and
    Fractions as integer numerators N over each row's least common denominator d."""
    d = np.lcm.reduce(_denominators(a), axis=-1)
    return _cleared(a, d[..., None]), d


def _scalar_array(values, mode, ndim):
    """(mode, array): the nested sequences ``values`` as one ndarray with
    ``ndim`` axes, float64 in float mode or an object array of Fractions in
    exact mode. Without a mode, exact when every scalar is an int or a
    Fraction. The one reader of numeric input: ragged or wrongly shaped
    input, an empty array, one of two or more axes that is not n x ... x n,
    a complex array, scalars numpy cannot read as real numbers, NaN and
    +-inf are refused."""
    if mode is not None:
        _check_mode(mode)
    if isinstance(values, np.ndarray) and values.dtype.kind == "c":
        # numpy's float cast would drop the imaginary parts with a warning.
        raise InputError(f"expected real numbers; got a {values.dtype} array")
    shape = " x ".join("n" * ndim) + " array" if ndim > 1 else "list"
    want = f"expected a nonempty {shape} of real numbers"

    def read(source, dtype):
        try:
            return np.array(source, dtype=dtype)
        except (ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"{want}; {exc}") from None

    a = read(values, float if mode == "float" else object)
    # Ragged rows make an object array of lists: shape before types.
    if a.ndim != ndim or not a.size or len(set(a.shape)) > 1:
        raise InputError(f"{want}; got shape {a.shape}")
    if a.dtype == object:
        # Loaded documents hold Fractions only: one pass over the types, then
        # nothing to check or convert.
        if set(map(type, a.flat)) == {Fraction}:
            return "exact", a
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
        a = read(a, float)
    if not np.isfinite(a).all():
        raise InputError(f"scalars must be finite; got {a[~np.isfinite(a)][0]}")
    return "float", a


class EvaluationOracle:
    """Base interface: n_vars, degree, mode, counted evaluation.

    Subclasses implement ``_evaluate_batch(X)`` for a chunk of rows of any
    dtype. Evaluation is pure and deterministic; the call counter is the only
    mutable state.
    """

    n_vars: int
    degree: int
    mode: str

    # An exact representation's views of its data, built on first use.
    _floats = _integers = None

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

        Integer rows, and object rows of ints and Fractions, count as exact for
        an exact polynomial; other rows are read as floats. ``calls`` grows by m.
        """
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n_vars:
            raise InputError(
                f"points must have shape (m, {self.n_vars}), got {X.shape}")
        self._calls += len(X)
        if X.dtype.kind in "biuO":
            exact = self.mode == "exact" and (X.dtype != object or all(
                isinstance(v, _EXACT_TYPES) for v in X.flat))
            X = X.astype(object if exact else float, copy=False)
        return _in_chunks(self._evaluate_batch, X, self._row_entries())

    def _evaluate_batch(self, X):
        raise NotImplementedError

    def _operands(self, X, a, e):
        """(rows, data, finish): the values at the rows X of the data array
        ``a``, whose D enters a value as D^e, are finish(expression(rows, data))."""
        if X.dtype != object:
            return X, self._float_view(a), lambda v: v
        if self._integers is None:
            N, D = _integer_rows(a.reshape(1, -1))
            self._integers = N.reshape(a.shape), D[0] ** e
        (N, De), (X, d) = self._integers, _integer_rows(X)
        return X, N, lambda v: np.array([Fraction(x, De * r ** self.degree)
                                         for x, r in zip(v, d)], dtype=object)

    def _float_view(self, a):
        """The float view of the data array ``a``: in float mode ``a`` itself,
        in exact mode a float copy made once. Every float use of exact data
        goes through it."""
        if a.dtype != object:
            return a
        if self._floats is None:
            self._floats = _to_float(a)
        return self._floats

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

    def log_objective(self):
        """The convex objective f(y) = log p(e^y), with ``value``,
        ``gradient`` and ``hessian`` methods: from ``jet_sum`` where the
        oracle gives it, by finite differences otherwise."""
        return _JetObjective(self) if self.has_jets() else _OracleObjective(self)

    def jet_sum(self, X, c, first: int):
        """(s, v, g, H): sum_t c_t p(x_t), sum_t c_t grad p(x_t) and
        sum_t c_t Hess p(x_t) over the float rows x_t of X and the weights c
        are e^s v, e^s g and e^s H, with the derivatives taken in the
        variables first.. only: a log scale, a number, a vector and a matrix.
        ``calls`` grows by len(X); each row also yields its derivatives. The
        rows go through numpy in chunks of about _BATCH_ENTRIES entries."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_vars:
            raise InputError(
                f"points must have shape (m, {self.n_vars}), got {X.shape}")
        c = np.asarray(c, dtype=float)
        if c.shape != (len(X),):
            raise InputError(f"weights must have shape ({len(X)},), got {c.shape}")
        if not (_is_int(first) and 0 <= first <= self.n_vars):
            raise InputError(
                f"first must be an integer in 0..{self.n_vars}, got {first!r}")
        step = max(1, _BATCH_ENTRIES // self._jet_entries(first))
        jets = _summed([self._jet(X[i:i + step], c[i:i + step], first)
                        for i in range(0, max(len(X), 1), step)])
        self._calls += len(X)
        return jets

    def _jet(self, X, c, first):
        raise InputError(f"jet_sum is undefined for {type(self).__name__}")

    def _jet_entries(self, first):
        """Array entries one row costs in ``_jet``."""
        return self.n_vars ** 2

    def has_jets(self) -> bool:
        """Whether ``jet_sum`` is defined here."""
        return type(self)._jet is not EvaluationOracle._jet

    def mixed_partial(self):
        """d^n p / dx_1..dx_n, exactly, by the representation's own route
        (``oracles.exact_mixed_partial`` checks degree == n_vars first)."""
        raise InputError(f"no exact mixed-partial route for {type(self).__name__}")

    def line_roots(self, points, direction):
        """(roots, noise) for the slices t -> p(x - t d) through the float rows
        x of ``points``, valid where p(d) > 0: an (m, degree) array, and per slice
        its coefficients' backward error over the leading one (0 for none)."""
        raise InputError(f"line_roots is undefined for {type(self).__name__}")


def _last_point(method):
    """method(self, y), its result at the last y kept on the instance: Newton
    asks an objective for the accepted line-search value, then the gradient
    and Hessian, at one y. A call that raises keeps nothing."""
    key = "_last" + method.__name__

    @functools.wraps(method)
    def kept(self, y):
        last = self.__dict__.get(key)
        if last is None or not np.array_equal(y, last[0]):
            last = self.__dict__[key] = (y.copy(), method(self, y))
        return last[1]
    return kept


class _OracleObjective:
    """Finite-difference objective for generic evaluation oracles; the
    Hessian's diagonal comes from its row sums."""

    _H_GRAD = 1e-5
    _H_HESS = 3e-4

    def __init__(self, poly: EvaluationOracle):
        self.poly = poly

    def _values(self, Y):
        """f at each row of Y: log p(e^y), or inf where p(e^y) is not positive."""
        v = np.asarray(self.poly.evaluate_batch(np.exp(Y)), dtype=float)
        out = np.full(len(v), np.inf)
        ok = np.isfinite(v) & (v > 0)
        out[ok] = np.log(v[ok])
        return out

    def value(self, y):
        return float(self._values(y[None, :])[0])

    def gradient(self, y):
        h = self._H_GRAD
        E = h * np.eye(len(y))
        f = self._values(np.concatenate([y + E, y - E]))
        return (f[:len(y)] - f[len(y):]) / (2 * h)

    def hessian(self, y):
        n = len(y)
        h = self._H_HESS
        E = h * np.eye(n)
        i, j = np.triu_indices(n, 1)
        f = self._values(np.concatenate([
            y + E[i] + E[j], y + E[i] - E[j], y - E[i] + E[j], y - E[i] - E[j]]))
        f = f.reshape(4, -1)
        H = np.zeros((n, n))
        H[i, j] = H[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        # Every representation is homogeneous, and a plain oracle's ``degree``
        # promises it: f(y + c1) = f(y) + d c, so H 1 = 0 fixes the diagonal.
        np.fill_diagonal(H, -H.sum(axis=1))
        return H


class _JetObjective:
    """f(y) = log p(e^y) = s + log p from the oracle's ``jet_sum`` (p, grad p
    and Hess p over its scale e^s, which cancels below): with x = e^y,
    g = x o grad p / p and H = diag(g) + (x x^T) o Hess p / p - g g^T. f is
    inf where e^y overflows or the jet fails (``LinAlgError``). The jet at
    the last y is kept, so a line search's accepted value, then the gradient
    and Hessian there, cost one evaluation."""

    def __init__(self, poly: EvaluationOracle):
        self.poly = poly

    @_last_point
    def _at(self, y):
        with np.errstate(over="ignore"):
            x = np.exp(y)
        if not np.isfinite(x).all():
            return None
        try:
            return (x, *self.poly.jet_sum(x[None], [1.0], 0))
        except np.linalg.LinAlgError:
            return None

    def value(self, y):
        jet = self._at(y)
        if jet is None or not jet[2] > 0:
            return np.inf
        return float(jet[1] + np.log(jet[2]))

    def gradient(self, y):
        x, _, p, dp, _ = self._at(y)
        return x * dp / p

    def hessian(self, y):
        x, _, p, dp, d2p = self._at(y)
        g = x * dp / p
        return np.diag(g) + np.outer(x, x) * d2p / p - np.outer(g, g)


class _LogSumExpObjective:
    """f(y) = sum_b log sum_t C_bt e^<r_t, y>, over the rows b of C and the
    exponent rows r_t of R: one block for a sparse polynomial, one per row of
    A for a product form. With the softmax weights W of each block, taken
    from exponents shifted by the block's largest, nothing overflows:
    g = G R and H = Q^T Q - P^T P for G = sum_b W_b, Q = sqrt(G) R and
    P = W R. The weights at the last y are kept, so the accepted line-search
    value, the gradient and the Hessian there share one set of exponentials."""

    def __init__(self, C, R):
        # A zero C_bt is a term that is not there: log 0 = -inf weighs 0.
        with np.errstate(divide="ignore"):
            self.logC = np.log(C)
        self.R = R

    @_last_point
    def _at(self, y):
        V = self.logC + self.R @ y
        m = V.max(axis=1, keepdims=True)
        W = np.exp(V - m)
        z = W.sum(axis=1, keepdims=True)
        return float((m + np.log(z)).sum()), W / z

    def value(self, y):
        return self._at(y)[0]

    def gradient(self, y):
        return self._at(y)[1].sum(axis=0) @ self.R

    def hessian(self, y):
        W = self._at(y)[1]
        Q = np.sqrt(W.sum(axis=0))[:, None] * self.R
        P = W @ self.R
        return Q.T @ Q - P.T @ P


class FunctionOracle(EvaluationOracle):
    """Wrap an arbitrary evaluation function as an oracle."""

    def __init__(self, n_vars: int, degree: int, fn: Callable, mode: str = "float"):
        super().__init__()
        if not (_is_int(n_vars) and n_vars >= 1 and _is_int(degree) and degree >= 0):
            raise InputError("FunctionOracle needs integers n_vars >= 1 and "
                             f"degree >= 0, got {n_vars!r} and {degree!r}")
        self.n_vars = n_vars
        self.degree = degree
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
        self.mode, coefs = _scalar_array([cleaned[e] for e in exps], mode, 1)
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
        X, c, finish = self._operands(X, self.coefficients, 1)
        return finish(np.power(X[:, None, :], self.exponents).prod(axis=2) @ c)

    def line_roots(self, points, direction):
        """t = c + M u for the roots u of q(u) = p(y - u d), expanded term by
        term: y = (x - c d)/M is the point of the line nearest 0, scaled to
        |y| = |d| (max norms), where q's coefficients, led by (-1)^n p(d), lose
        least to rounding. The noise, M^n _SLICE_NOISE |p|(|y| + |d|) / |p(d)|,
        bounds it on |u| <= 1, where a stable p has every root along d = 1."""
        n = self.degree
        if n > SLICE_DEGREE_CAP:
            raise ResourceLimitError(f"slice roots refused: degree {n} exceeds "
                                     f"the cap of {SLICE_DEGREE_CAP}")
        c = self._float_view(self.coefficients)
        shift = (points * direction).sum(axis=1) / (direction * direction).sum()
        Y = points - shift[:, None] * direction
        M = np.abs(Y).max(axis=1, keepdims=True) / np.abs(direction).max()
        M[M == 0] = 1.0  # x on the line through d
        q = _in_chunks(lambda y: self._slice_coefficients(y, direction, c), Y / M,
                       len(c) * (n + 1))
        companion = np.zeros((len(q), n, n))
        companion[:, 1:, :-1] = np.eye(n - 1)
        companion[:, 0] = -q[:, -2::-1] / q[:, -1:]
        bound = _in_chunks(lambda z: np.power(z[:, None], self.exponents).prod(axis=2)
                           @ np.abs(c), np.abs(Y / M) + np.abs(direction),
                           self._row_entries())
        return (M * np.linalg.eigvals(companion) + shift[:, None],
                _SLICE_NOISE * M[:, 0] ** n * bound / np.abs(q[:, -1]))

    def _slice_coefficients(self, Y, direction, c):
        """The coefficients, constant first, of sum_r c_r prod_i (y_i - t d_i)^r_i
        per row y of Y, by Horner's rule over the variables, last first: sorted
        terms that share r_1..r_i are adjacent, summed once x_i+1..x_n are in."""
        q = np.zeros((len(Y), len(c), self.degree + 1))
        q[:, :, 0] = c
        rows = np.arange(len(c))  # the first term of each group
        for i in reversed(range(self.n_vars)):
            r = self.exponents[rows, i]
            for k in range(int(r.max())):
                # times (y_i - t d_i): deg < n while a factor is left, so roll wraps 0
                g = q[:, r > k]
                q[:, r > k] = Y[:, i, None, None] * g - direction[i] * np.roll(g, 1, 2)
            head = self.exponents[rows, :i]
            starts = np.flatnonzero(np.r_[True, (head[1:] != head[:-1]).any(axis=1)])
            q = np.add.reduceat(q, starts, axis=1)
            rows = rows[starts]
        return q[:, 0]

    def log_objective(self):
        if (self.coefficients < 0).any():
            raise InputError("capacity needs nonnegative coefficients")
        return _LogSumExpObjective(self._float_view(self.coefficients)[None],
                                   self.exponents.astype(float))

    def mixed_partial(self):
        """The coefficient of x_1...x_n."""
        return self.coefficient((1,) * self.n_vars)

    def __repr__(self):
        return (f"SparsePolynomial(n_vars={self.n_vars}, degree={self.degree}, "
                f"terms={len(self.terms)}, mode={self.mode!r})")


class ProductFormPolynomial(EvaluationOracle):
    """p_A(x) = prod_i (Ax)_i for a square nonnegative matrix A, held in
    ``matrix``."""

    def __init__(self, matrix, mode: str | None = None):
        super().__init__()
        self.mode, self.matrix = _scalar_array(matrix, mode, 2)
        # An exact entry has its numerator's sign: ints compare faster than
        # Fractions.
        signs = (self.matrix if self.mode == "float"
                 else _numerators(self.matrix))
        negative = (signs < 0).any(axis=1)
        bad = np.flatnonzero(negative | (signs == 0).all(axis=1))
        if len(bad):
            i = bad[0]
            if negative[i]:
                raise InputError(f"row {i} has a negative entry; entries must be >= 0")
            raise InputError(f"row {i} is all zeros (polynomial would be identically 0)")
        self.n_vars = self.degree = len(self.matrix)

    def _evaluate_batch(self, X):
        X, A, finish = self._operands(X, self.matrix, self.n_vars)
        return finish(np.prod(X @ A.T, axis=1))

    def _jet(self, X, c, first):
        # p = prod_i u_i with u = Ax: grad p = B^T L1 and Hess p = B^T L2 B
        # for B = A[:, first:], with c summed in before the matrix products.
        A = self._float_view(self.matrix)
        u = X @ A.T
        L1, L2 = _leave_out(u)
        B = A[:, first:]
        n = len(A)
        return (0.0, c @ np.prod(u, axis=1), (c @ L1) @ B,
                B.T @ (c @ L2.reshape(-1, n * n)).reshape(n, n) @ B)

    def line_roots(self, points, direction):
        """(a_i.x)/(a_i.d), as p(x - t d) = prod_i (a_i.x - t a_i.d); formed
        row by row, so a row's roots do not depend on its block."""
        A = self._float_view(self.matrix)
        return (np.array([(A * x).sum(axis=1) for x in points])
                / (A * direction).sum(axis=1), np.zeros(len(points)))

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

    def log_objective(self):
        return _LogSumExpObjective(self._float_view(self.matrix),
                                   np.eye(self.n_vars))

    def mixed_partial(self):
        """per(A), by Glynn's formula."""
        # Looked up per call: oracles imports this module.
        from .oracles import permanent_ryser
        return permanent_ryser(self.matrix, mode=self.mode)

    def __repr__(self):
        return f"ProductFormPolynomial(n={self.n_vars}, mode={self.mode!r})"


def _bareiss(m) -> tuple:
    """(rank, determinant) of a square integer matrix, given as rows, exactly,
    by fraction-free Bareiss elimination. A column with no pivot is skipped,
    which keeps every division exact and leaves one pivot per unit of rank."""
    a, n = [list(row) for row in m], len(m)
    sign, prev, r = 1, 1, 0
    for c in range(n):
        i = next((i for i in range(r, n) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i], sign = a[i], a[r], sign if i == r else -sign
        pivot, tail = a[r][c], a[r][c + 1:]
        for row in a[r + 1:]:
            row[c + 1:] = [(x * pivot - row[c] * y) // prev
                           for x, y in zip(row[c + 1:], tail)]
        prev = pivot
        r += 1
    return r, sign * prev if r == n else 0


class DeterminantalPolynomial(EvaluationOracle):
    """p(x) = det(sum_i x_i A_i) for n symmetric PSD n x n matrices, held in
    ``matrices`` of shape (n, n, n).

    Symmetry is required to 1e-12 entrywise and PSD-ness to eigenvalue
    >= -1e-10 on the float view. Evaluation uses dense determinants, never a
    symbolic expansion, so moderately large n stays evaluable.
    """

    def __init__(self, matrices, mode: str | None = None):
        super().__init__()
        self.mode, self.matrices = _scalar_array(matrices, mode, 3)
        F = self._float_view(self.matrices)
        asymmetric = np.abs(F - F.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12
        # One batched eigvalsh; the float ranks read these spectra.
        self._spectra = np.linalg.eigvalsh(F)
        bad = np.flatnonzero(asymmetric | (self._spectra.min(axis=1) < -1e-10))
        if len(bad):
            i = bad[0]
            if asymmetric[i]:
                raise InputError(f"matrix {i} is not symmetric (tolerance 1e-12)")
            raise InputError(f"matrix {i} is not PSD (min eigenvalue < -1e-10)")
        self.n_vars = self.degree = len(F)

    def _variable_degree(self, i):
        # Exact data gets its exact rank; float data its numerical rank.
        if self.mode == "exact":
            return _bareiss(_integer_rows(self.matrices[i])[0].tolist())[0]
        eig = self._spectra[i]
        scale = max(1.0, float(eig.max(initial=0.0)))
        return int((eig > 1e-9 * scale).sum())

    def _row_entries(self):
        return self.n_vars ** 2

    def _evaluate_batch(self, X):
        X, A, finish = self._operands(X, self.matrices, self.n_vars)
        M = np.tensordot(X, A, axes=([1], [0]))
        return finish([_bareiss(m)[1] for m in M.tolist()] if X.dtype == object
                      else np.linalg.det(M))

    def _jet(self, X, c, first):
        # In the eigenbasis of A(x) = Q diag(lam) Q^T, with B_j = Q^T A_j Q:
        # grad_j p = sum_a L1_a B_j,aa and
        # Hess_jk p = sum_{a != b} L2_ab (B_j,aa B_k,bb - B_j,ab B_k,ab), the
        # first- and second-order terms of det(diag(lam) + E). No inverse, so
        # a singular or indefinite A(x) is safe. A row's jet is e^(n log g)
        # times that of A(x)/g, g the geometric mean of its nonzero |lam|:
        # lam/g, and B/g from Q/sqrt(g). The rows add up over e^s, s the
        # largest n log g, so no product overflows.
        A = self._float_view(self.matrices)
        m, d, n = len(X), len(A) - first, len(A)
        lam, Q = np.linalg.eigh((X @ A.reshape(n, n * n)).reshape(m, n, n))
        mag = np.abs(lam)
        logs = np.log(mag, out=np.zeros_like(mag), where=mag > 0)
        log_g = logs.sum(axis=1) / np.maximum((mag > 0).sum(axis=1), 1)
        s = float(n * log_g.max()) if m else 0.0
        lam = lam / np.exp(log_g)[:, None]
        Q = Q / np.exp(log_g / 2)[:, None, None]
        c = c * np.exp(n * log_g - s)
        B = Q.transpose(0, 2, 1)[:, None] @ A[first:] @ Q[:, None]
        L1, L2 = _leave_out(lam)
        flat = B.reshape(m, d, n * n)
        diag = flat[:, :, ::n + 1]
        L2 = c[:, None, None] * L2
        hess = (diag @ L2 @ diag.transpose(0, 2, 1)
                - (flat * L2.reshape(m, 1, n * n)) @ flat.transpose(0, 2, 1))
        return (s, c @ np.prod(lam, axis=1),
                diag.transpose(1, 0, 2).reshape(d, m * n) @ (c[:, None] * L1).ravel(),
                hess.sum(axis=0))

    def _jet_entries(self, first):
        # Q and B hold (n - first + 1) n^2 entries per row.
        return (self.n_vars - first + 1) * self.n_vars ** 2

    def line_roots(self, points, direction):
        """The eigenvalues of A(d)^-1 A(x), real for A(d) positive definite;
        A(x) is formed row by row, so a row's roots do not depend on its block."""
        A = self._float_view(self.matrices)
        Ax = np.array([np.tensordot(x, A, axes=1) for x in points])
        return (np.linalg.eigvals(
            np.linalg.solve(np.tensordot(direction, A, axes=1), Ax)),
            np.zeros(len(points)))

    def mixed_partial(self):
        """The mixed discriminant D(A_1, ..., A_n), by polarization: 2^(n-1)
        determinants."""
        # Looked up per call: oracles imports this module.
        from .oracles import MIXED_DISC_CAP, mixed_form
        if self.n_vars > MIXED_DISC_CAP:
            raise ResourceLimitError(
                f"mixed discriminant refused: n={self.n_vars} exceeds the cap of "
                f"{MIXED_DISC_CAP}"
            )
        return mixed_form(self)

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
    square_shape(q, "derivative_reduce", 2)
    kept = {e[1:]: c for e, c in q.terms.items() if e[0] == 1}
    if not kept:
        raise InputError(
            "derivative reduction yields the zero polynomial (no terms linear "
            "in the first variable)"
        )
    return SparsePolynomial(q.n_vars - 1, kept, mode=q.mode, allow_signed=True)
