"""Representation layer: construction, validation, evaluation, expansion."""
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures
from polycap.approx import DerivativeSliceOracle
from polycap.oracles import mixed_form
from polycap.polynomials import _bareiss, _scalar_array
from test_bounds import product_with_sparse_first_column


def random_psd_tuple(n, rng):
    """n random full-rank PSD n x n matrices G G^T."""
    return [g @ g.T for g in rng.standard_normal((n, n, n))]


class TestSparsePolynomial:
    def test_mode_inference(self):
        p = pc.SparsePolynomial(2, {(1, 1): Fraction(1, 2), (2, 0): 1})
        assert p.mode == "exact"
        q = pc.SparsePolynomial(2, {(1, 1): 0.5, (2, 0): 1})
        assert q.mode == "float"

    def test_float_literal_rejected_in_exact_mode(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 1): 0.5}, mode="exact")

    def test_unknown_mode(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 1): 1}, mode="rational")

    @pytest.mark.parametrize("n_vars, exp", [(2, (1, True)), (True, (1,))])
    def test_bool_is_not_an_integer(self, n_vars, exp):
        with pytest.raises(pc.InputError, match="integer"):
            pc.SparsePolynomial(n_vars, {exp: 1})

    def test_bad_exponent_length(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 1, 1): 1})

    def test_negative_exponent(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(-1, 3): 1})

    def test_negative_coefficient_rejected(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 1): -1})

    def test_signed_allowed_when_requested(self):
        p = pc.SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1},
                                mode="exact", allow_signed=True)
        assert p.evaluate((2, 1, 1)) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 1): 0})

    def test_zero_coefficients_dropped(self):
        p = pc.SparsePolynomial(2, {(1, 1): 1, (2, 0): 0})
        assert (2, 0) not in p.terms
        assert p.coefficient((2, 0)) == 0
        assert p.coefficient((1, 1)) == 1

    def test_non_homogeneous_rejected(self):
        with pytest.raises(pc.InputError):
            pc.SparsePolynomial(2, {(1, 0): 1, (2, 0): 1})

    def test_exact_evaluation(self):
        p = pc.SparsePolynomial(2, {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2),
                                    (0, 2): Fraction(1, 4)})
        v = p.evaluate((Fraction(1, 3), Fraction(2, 3)))
        assert v == Fraction(1, 4)  # ((1/3 + 2/3)/... = ((x+y)/2)^2 at (1/3,2/3)
        assert isinstance(v, Fraction)

    def test_complex_evaluation(self):
        p = pc.SparsePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        v = p.evaluate((1j, 1.0))
        assert v == pytest.approx(0.0)

    def test_degree_and_call_counter(self):
        p = pc.SparsePolynomial(3, {(1, 1, 1): 1, (3, 0, 0): 2})
        assert p.degree == 3
        assert p.calls == 0
        p.evaluate((1, 1, 1))
        p.evaluate((2, 1, 1))
        assert p.calls == 2
        p.reset_calls()
        assert p.calls == 0

    def test_point_length_validated(self):
        p = pc.SparsePolynomial(2, {(1, 1): 1})
        with pytest.raises(pc.InputError):
            p.evaluate((1, 2, 3))


class TestProductFormPolynomial:
    def test_non_square_rejected(self):
        with pytest.raises(pc.InputError):
            pc.ProductFormPolynomial([[1, 2, 3], [4, 5, 6]])

    def test_negative_entry_rejected(self):
        with pytest.raises(pc.InputError):
            pc.ProductFormPolynomial([[1, -1], [1, 1]])

    def test_zero_row_rejected(self):
        with pytest.raises(pc.InputError):
            pc.ProductFormPolynomial([[0, 0], [1, 1]])

    @pytest.mark.parametrize("matrix, message", [
        ([[1, 1, 1], [1, 0, -1], [0, 0, 0]],
         "row 1 has a negative entry; entries must be >= 0"),
        ([[1, 1, 1], [0, 0, 0], [1, 0, -1]],
         "row 1 is all zeros (polynomial would be identically 0)"),
    ], ids=["negative-first", "zeros-first"])
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_first_bad_row_is_named(self, matrix, message, mode):
        with pytest.raises(pc.InputError) as info:
            pc.ProductFormPolynomial(matrix, mode=mode)
        assert str(info.value) == message

    def test_zero_column_allowed(self):
        p = pc.ProductFormPolynomial([[0, 1], [0, 1]])
        assert p.evaluate((5, 2)) == 4

    def test_evaluate_is_product_of_rows(self):
        p = pc.ProductFormPolynomial([[Fraction(1, 2), Fraction(1, 2)],
                                      [Fraction(1, 3), Fraction(2, 3)]])
        x = (Fraction(2), Fraction(4))
        assert p.evaluate(x) == Fraction(3) * Fraction(10, 3)
        assert p.degree == 2 and p.n_vars == 2

    def test_exact_mode_inference(self):
        assert pc.ProductFormPolynomial([[Fraction(1, 2), Fraction(1, 2)],
                                         [1, 0]]).mode == "exact"
        assert pc.ProductFormPolynomial([[0.5, 0.5], [1.0, 0.0]]).mode == "float"


class TestDeterminantalPolynomial:
    def test_evaluate_is_det_of_pencil(self):
        a = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
        p = pc.DeterminantalPolynomial(a, mode="float")
        assert p.evaluate((3.0, 5.0)) == pytest.approx(15.0)
        assert p.degree == 2 and p.n_vars == 2

    def test_exact_matches_float(self):
        rng = np.random.default_rng(3)
        mats = random_psd_tuple(3, rng)
        exact_mats = [[[Fraction(x).limit_denominator(10 ** 6) for x in row]
                       for row in m] for m in mats]
        # re-symmetrize after rounding
        for m in exact_mats:
            for i in range(3):
                for j in range(i):
                    m[i][j] = m[j][i]
        pe = pc.DeterminantalPolynomial(exact_mats, mode="exact")
        pf = pc.DeterminantalPolynomial([[[float(x) for x in row] for row in m]
                                         for m in exact_mats], mode="float")
        pt = (Fraction(1, 3), Fraction(2), Fraction(1, 2))
        assert float(pe.evaluate(pt)) == pytest.approx(
            pf.evaluate((1 / 3, 2.0, 0.5)), rel=1e-9)
        assert isinstance(pe.evaluate(pt), Fraction)

    def test_exact_pivoting(self):
        # At (-1/3, 1) the pencil is [[0, 1/3], [1/3, 1/3]]: a zero pivot;
        # at (0, 1) it is singular.
        third = Fraction(1, 3)
        p = pc.DeterminantalPolynomial(
            [[[1, 0], [0, 0]], [[third, third], [third, third]]], mode="exact")
        assert p.evaluate((-third, 1)) == Fraction(-1, 9)
        assert p.evaluate((0, 1)) == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(pc.InputError):
            pc.DeterminantalPolynomial([[[1.0, 2.0], [0.0, 1.0]]], mode="float")

    def test_non_psd_rejected(self):
        with pytest.raises(pc.InputError):
            pc.DeterminantalPolynomial([[[1.0, 0.0], [0.0, -1.0]]], mode="float")

    def test_matrix_rank(self):
        a = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
        p = pc.DeterminantalPolynomial(a, mode="float")
        assert p.variable_degree(0) == 1
        assert p.variable_degree(1) == 2


class TestFunctionOracle:
    def test_wraps_callable_and_counts(self):
        o = pc.FunctionOracle(2, 2, lambda x: x[0] * x[1], mode="float")
        assert o.evaluate((3.0, 4.0)) == 12.0
        assert o.calls == 1

    def test_validation(self):
        with pytest.raises(pc.InputError):
            pc.FunctionOracle(0, 2, lambda x: 1.0)

    @pytest.mark.parametrize("n_vars, degree", [
        (2.5, 2), (True, 2), ("3", 2), (2, 1.5), (2, False), (2, "2"), (2, -1),
    ])
    def test_integer_sizes_required(self, n_vars, degree):
        # Neither truncated (2.5 -> 2) nor let through as a bool or a string.
        with pytest.raises(pc.InputError, match="FunctionOracle needs integers"):
            pc.FunctionOracle(n_vars, degree, lambda x: 1.0)

    def test_unknown_mode(self):
        with pytest.raises(pc.InputError, match="unknown mode 'bogus'"):
            pc.FunctionOracle(2, 2, lambda x: 1.0, mode="bogus")


# Every reader of a matrix; a pencil gets the matrix as its first slot.
_MATRIX_READERS = {
    "product": pc.ProductFormPolynomial,
    "pencil": lambda m, **kw: pc.DeterminantalPolynomial([m, [[1, 0], [0, 1]]], **kw),
    "permanent": pc.permanent_ryser,
    "sinkhorn": pc.sinkhorn_scale,
    "sparse-bound": pc.sparse_permanent_bound,
    "diagonal-tuple": fixtures.diagonal_psd_tuple,
}
_NUMERIC_ENTRY_POINTS = {
    "sparse": lambda v: pc.SparsePolynomial(2, {(1, 1): v, (2, 0): 1.0}),
    **{name: lambda v, read=read: read([[0.5, v], [0.5, 0.5]])
       for name, read in _MATRIX_READERS.items()},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(_NUMERIC_ENTRY_POINTS))
def test_non_finite_scalars_refused(entry, value):
    # every numeric input goes through _scalar_array, which refuses them
    with pytest.raises(pc.InputError, match="scalars must be finite"):
        _NUMERIC_ENTRY_POINTS[entry](value)


_MALFORMED_MATRICES = {
    "ragged": [[0.5, 0.5], [1.0]],
    "non-square": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]],
    "too-deep": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
    "empty": [],
    "string": [[0.5, "1/2"], [0.5, 0.5]],
    "complex": [[0.5, 0.5 + 1j], [0.5, 0.5]],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MATRICES))
@pytest.mark.parametrize("reader", sorted(_MATRIX_READERS))
def test_malformed_matrices_refused(reader, case):
    # _scalar_array checks shape and scalars for every reader, so no numpy
    # ValueError or TypeError leaks
    with pytest.raises(pc.InputError, match="^expected a nonempty n x n"):
        _MATRIX_READERS[reader](_MALFORMED_MATRICES[case])


@pytest.mark.parametrize("reader", sorted(_MATRIX_READERS))
def test_complex_arrays_refused(reader):
    # numpy's float cast would drop the imaginary parts with only a warning;
    # the dtype says so before the cast.
    m = np.array([[0.5, 0.5j], [0.5, 0.5]])
    read, data = _MATRIX_READERS[reader], m
    if reader == "pencil":
        read, data = pc.DeterminantalPolynomial, np.array([m, np.eye(2)])
    with pytest.raises(pc.InputError, match="^expected real numbers; got a complex128"):
        read(data)


@pytest.mark.parametrize("reader", ["product", "pencil", "permanent"])
def test_ragged_exact_input_names_its_shape(reader):
    # numpy builds ragged rows with dtype=object as an array of lists: the
    # shape is tested before the exact-type scan, which would say "got list"
    with pytest.raises(pc.InputError, match="of real numbers; got shape"):
        _MATRIX_READERS[reader]([[1, 1], [1]], mode="exact")


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
# (rows, mode) -> the mode and values read, or the refusal. Rows of
# Fractions only pass through as they are; any other type set is checked
# entry by entry.
_SCALAR_TYPE_SETS = {
    "fractions": ([[_HALF, _THIRD], [_THIRD, _HALF]], None,
                  ("exact", [_HALF, _THIRD, _THIRD, _HALF])),
    "fractions-exact": ([[_HALF, _THIRD], [_THIRD, _HALF]], "exact",
                        ("exact", [_HALF, _THIRD, _THIRD, _HALF])),
    "bools": ([[True, _HALF], [False, _THIRD]], None,
              ("exact", [Fraction(1), _HALF, Fraction(0), _THIRD])),
    "ints": ([[1, _HALF], [2, 3]], "exact",
             ("exact", [Fraction(1), _HALF, Fraction(2), Fraction(3)])),
    "numpy-ints": ([[np.int64(1), _HALF], [_THIRD, np.int64(2)]], None,
                   ("float", [1.0, 0.5, 1 / 3, 2.0])),
    "numpy-ints-exact": ([[np.int64(1), _HALF], [_THIRD, np.int64(2)]], "exact",
                         "got int64 (pass rationals, or use float mode)"),
    "floats": ([[0.5, 0.25], [1.0, 2.0]], None, ("float", [0.5, 0.25, 1.0, 2.0])),
    "floats-exact": ([[_HALF, 0.25], [_THIRD, _HALF]], "exact",
                     "got float (pass rationals, or use float mode)"),
    "mixed": ([[_HALF, 0.25], [1, True]], None, ("float", [0.5, 0.25, 1.0, 1.0])),
}


@pytest.mark.parametrize("case", sorted(_SCALAR_TYPE_SETS))
def test_scalar_types_read_as_numbers(case):
    rows, mode, want = _SCALAR_TYPE_SETS[case]
    if isinstance(want, str):
        with pytest.raises(pc.InputError) as info:
            _scalar_array(rows, mode, 2)
        assert str(info.value) == "exact mode requires int or Fraction scalars; " + want
        return
    got_mode, a = _scalar_array(rows, mode, 2)
    values = a.ravel().tolist()
    assert (got_mode, values) == want
    assert a.dtype == (object if got_mode == "exact" else float)
    assert all(type(v) is (Fraction if got_mode == "exact" else float)
               for v in values)


def test_sparse_coefficients_read_as_numbers():
    with pytest.raises(pc.InputError, match="^expected a nonempty list"):
        pc.SparsePolynomial(2, {(1, 1): "1/2"})
    with pytest.raises(pc.InputError, match="^expected a nonempty list"):
        pc.SparsePolynomial(2, {(1, 1): 1j})


def _batch_cases():
    rng = np.random.default_rng(21)
    mats = random_psd_tuple(3, rng)
    return {
        "sparse": pc.SparsePolynomial(3, {(2, 1, 0): 1.5, (1, 1, 1): 2.0,
                                          (0, 0, 3): 0.5}),
        "product": pc.ProductFormPolynomial(fixtures.random_positive_matrix(3, rng),
                                            mode="float"),
        "determinantal": pc.DeterminantalPolynomial(mats, mode="float"),
        "function": pc.FunctionOracle(3, 3, lambda x: x[0] * x[1] * x[2] + x[0] ** 3),
    }


def _rational_cases():
    """Constructor arguments with rational data, and the class, per kind."""
    rng = np.random.default_rng(24)
    vecs = rng.integers(-3, 4, (3, 2, 3))
    pencil = [[[Fraction(int(a), 5) for a in row] for row in v.T @ v]
              for v in vecs]
    return {
        "sparse": ((3, {(2, 1, 0): Fraction(3, 2), (1, 1, 1): 2,
                        (0, 0, 3): Fraction(1, 3)}), pc.SparsePolynomial),
        "product": ((fixtures.random_rational_matrix(3, rng),),
                    pc.ProductFormPolynomial),
        "determinantal": ((pencil,), pc.DeterminantalPolynomial),
    }


class TestEvaluateBatch:
    @pytest.mark.parametrize("kind", ["sparse", "product", "determinantal", "function"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_row_by_row(self, kind, dtype):
        p = _batch_cases()[kind]
        rng = np.random.default_rng(22)
        X = rng.uniform(0.2, 2.0, (7, 3)).astype(dtype)
        if dtype is complex:
            X += 1j * rng.normal(size=(7, 3))
        values = p.evaluate_batch(X)
        assert values.shape == (7,)
        for x, v in zip(X, values):
            assert v == pytest.approx(p.evaluate(tuple(x)), rel=1e-13)
        assert p.calls == 2 * 7

    @pytest.mark.parametrize("kind", ["sparse", "product", "determinantal"])
    def test_exact_matches_float(self, kind):
        data, cls = _rational_cases()[kind]
        exact, floats = cls(*data, mode="exact"), cls(*data, mode="float")
        rng = np.random.default_rng(23)
        X = np.array([[Fraction(int(a), 7) for a in row]
                      for row in rng.integers(1, 20, (9, 3))], dtype=object)
        values = exact.evaluate_batch(X)
        assert all(isinstance(v, Fraction) for v in values)
        expected = floats.evaluate_batch(X.astype(float))
        assert [float(v) for v in values] == pytest.approx(expected, rel=1e-12)
        # A float polynomial at Fraction rows gives floats.
        at_fractions = floats.evaluate_batch(X).tolist()
        assert all(isinstance(v, float) for v in at_fractions)
        assert at_fractions == pytest.approx(expected, rel=1e-12)

    def test_exact_rows_stay_fractions(self):
        p = fixtures.uniform_product_polynomial(3)
        X = np.array([[Fraction(1, 3), 1, Fraction(2, 5)], [1, 2, 3]], dtype=object)
        values = p.evaluate_batch(X)
        assert all(isinstance(v, Fraction) for v in values)
        assert list(values) == [p.evaluate(tuple(x)) for x in X]
        assert values[1] == Fraction(8)

    def test_wrong_shape_rejected(self):
        p = pc.SparsePolynomial(2, {(1, 1): 1})
        for X in (np.ones(2), np.ones((3, 3)), np.ones((1, 2, 2))):
            with pytest.raises(pc.InputError):
                p.evaluate_batch(X)
        assert p.calls == 0


def _fraction_rank_det(m):
    """(rank, determinant) by plain Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in m]
    n, det, r = len(a), Fraction(1), 0
    for c in range(n):
        p = next((i for i in range(r, n) if a[i][c] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            det = -det
        det *= a[r][c]
        for i in range(r + 1, n):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r, det


def _fraction_values(kind, data, X):
    """The value of each representation at the rows X in Fraction arithmetic:
    tensordot plus elimination for a pencil, the product of A x for a product
    form, the sum of the terms for a sparse polynomial."""
    X = np.array(X, dtype=object)
    if kind == "determinantal":
        M = np.tensordot(X, np.array(data, dtype=object), axes=([1], [0]))
        return [_fraction_rank_det(m)[1] for m in M.tolist()]
    if kind == "product":
        return [math.prod(r) for r in (X @ np.array(data, dtype=object).T).tolist()]
    return [sum(c * math.prod(x ** k for x, k in zip(row, e))
                for e, c in data[1].items()) for row in X.tolist()]


def _exact_rows(rng, n):
    """Fraction rows whose denominators differ per row and per entry, one past
    int64, their negation, a zero row and an integer row."""
    rows = [[Fraction(int(a), int(b)) for a, b in
             zip(rng.integers(-20, 21, n), rng.integers(1, 40, n))]
            for _ in range(6)]
    rows.append([Fraction(10 ** 20 + j, 3 + j) for j in range(n)])
    rows += [[-v for v in row] for row in rows]
    rows.append([0] * n)
    rows.append([int(v) for v in rng.integers(-5, 6, n)])
    return np.array(rows, dtype=object)


def _pencil_of_rank(rng, n, r):
    """n PSD matrices U C_i C_i^T U^T / d_i that share the column space of
    the integer n x r matrix U, so every matrix of the pencil has rank <= r;
    the denominators d_i differ."""
    U = rng.integers(-3, 4, (n, r))
    mats = []
    for i in range(n):
        C = rng.integers(-2, 3, (r, r))
        d = int(rng.integers(1, 12))
        mats.append([[Fraction(int(v), d) for v in row]
                     for row in (U @ C @ C.T @ U.T).tolist()])
    return mats


class TestIntegerRoute:
    """Exact evaluation over integer numerators against Fraction arithmetic."""

    def _check(self, p, kind, data, X):
        values = p.evaluate_batch(X)
        assert all(isinstance(v, Fraction) for v in values)
        assert list(values) == _fraction_values(kind, data, X)
        assert p.calls == len(X)

    @pytest.mark.parametrize("r", range(5))
    def test_pencils_of_every_rank(self, r):
        n = 4
        rng = np.random.default_rng(50 + r)
        mats = _pencil_of_rank(rng, n, r)
        p = pc.DeterminantalPolynomial(mats, mode="exact")
        X = _exact_rows(rng, n)
        a = [m[0][0] for m in mats]
        if a[1]:
            # A row where sum_i x_i A_i has a zero leading pivot: a row swap.
            X = np.vstack([X, [[1, -(a[0] + a[2] + a[3]) / a[1], 1, 1]]])
        self._check(p, "determinantal", mats, X)
        assert [p.variable_degree(i) for i in range(n)] == [
            _fraction_rank_det(m)[0] for m in mats]
        signs = [[1] + [1 - 2 * s for s in b] for b in np.ndindex(*(2,) * (n - 1))]
        polarized = sum(math.prod(b) * v for b, v in
                        zip(signs, _fraction_values("determinantal", mats, signs)))
        assert mixed_form(p) == polarized / 2 ** (n - 1)

    def test_product_form(self):
        rng = np.random.default_rng(51)
        A = [[Fraction(int(a), int(b)) for a, b in zip(ra, rb)]
             for ra, rb in zip(rng.integers(0, 9, (4, 4)), rng.integers(1, 30, (4, 4)))]
        self._check(pc.ProductFormPolynomial(A, mode="exact"), "product", A,
                    _exact_rows(rng, 4))

    def test_sparse(self):
        rng = np.random.default_rng(52)
        exps = {e for e in map(tuple, rng.integers(0, 4, (40, 3)).tolist())
                if sum(e) == 4}
        terms = {e: Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 30)))
                 for e in sorted(exps)}
        self._check(pc.SparsePolynomial(3, terms, mode="exact"), "sparse",
                    (3, terms), _exact_rows(rng, 3))

    def test_derivative_slice_rows(self):
        # The slice oracle hands the base rows of Fractions scaled per tail.
        rng = np.random.default_rng(53)
        A = [[Fraction(int(a), int(b)) for a, b in zip(ra, rb)]
             for ra, rb in zip(rng.integers(1, 9, (5, 5)), rng.integers(1, 30, (5, 5)))]
        base = pc.ProductFormPolynomial(A, mode="exact")
        ref = pc.FunctionOracle(5, 5, lambda x: _fraction_values("product", A, [x])[0],
                                mode="exact")
        slices = DerivativeSliceOracle(base, 2), DerivativeSliceOracle(ref, 2)
        T = _exact_rows(rng, 3)
        values = [o.evaluate_batch(T) for o in slices]
        assert all(isinstance(v, Fraction) for v in values[0])
        assert list(values[0]) == list(values[1])
        assert base.calls == ref.calls == slices[0].calls_per_eval * len(T)

    def test_object_rows_with_a_float_are_read_as_floats(self):
        p = fixtures.uniform_product_polynomial(3)
        value = p.evaluate((Fraction(1, 3), 0.5, 2))
        assert isinstance(value, float)
        assert value == pytest.approx(p.evaluate((1 / 3, 0.5, 2.0)), rel=1e-15)


class TestVariableDegree:
    def test_sparse(self):
        p = pc.SparsePolynomial(3, {(2, 1, 0): 1, (1, 1, 1): 1})
        assert p.variable_degree(0) == 2
        assert p.variable_degree(1) == 1
        assert p.variable_degree(2) == 1

    def test_product_counts_nonzero_column_entries(self):
        p = pc.ProductFormPolynomial([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert [p.variable_degree(i) for i in range(3)] == [2, 2, 2]

    def test_determinantal_uses_matrix_rank(self):
        mats = fixtures.diagonal_psd_tuple([[Fraction(1, 2), Fraction(1, 2), 0],
                                            [0, Fraction(1, 2), Fraction(1, 2)],
                                            [Fraction(1, 2), 0, Fraction(1, 2)]])
        p = pc.DeterminantalPolynomial(mats, mode="exact")
        assert [p.variable_degree(i) for i in range(3)] == [2, 2, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_float_pencil_ranks_match_a_fresh_eigvalsh(self, seed):
        # The ranks read the spectra of the construction's PSD check.
        rng = np.random.default_rng(seed)
        n = 6
        ranks = rng.integers(1, n + 1, size=n).tolist()
        p = pc.DeterminantalPolynomial(
            [g @ g.T for g in (rng.standard_normal((n, r)) for r in ranks)],
            mode="float")
        for i, m in enumerate(p.matrices):
            eig = np.linalg.eigvalsh(m)
            fresh = int((eig > 1e-9 * max(1.0, eig.max())).sum())
            assert p.variable_degree(i) == fresh == ranks[i]

    def test_float_pencil_rank_threshold(self):
        # diag(1, 9e-10) sits below the 1e-9 threshold: numerical rank 1
        p = pc.DeterminantalPolynomial([[[1.0, 0.0], [0.0, 9e-10]],
                                        [[1.0, 0.0], [0.0, 1.0]]], mode="float")
        assert [p.variable_degree(i) for i in range(2)] == [1, 2]

    def test_bareiss_rank_and_determinant(self):
        # Products B C of integer n x r and r x n factors have rank r (checked
        # against numpy on these small integers) and determinant 0 for r < n;
        # zero leading columns make the elimination skip a column.
        rng = np.random.default_rng(37)
        for trial in range(40):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, n + 1))
            m = rng.integers(-3, 4, (n, r)) @ rng.integers(-3, 4, (r, n))
            m[:, : int(rng.integers(0, 2))] = 0
            rank, det = _bareiss(m.tolist())
            assert rank == np.linalg.matrix_rank(m)
            assert det == round(np.linalg.det(m))

    def test_agrees_with_structural_rank(self):
        rng = np.random.default_rng(36)
        for k in (1, 2, 3):
            p = product_with_sparse_first_column(5, k, rng)
            assert p.variable_degree(0) == k

    def test_out_of_range(self):
        p = pc.SparsePolynomial(2, {(1, 1): 1})
        with pytest.raises(pc.InputError):
            p.variable_degree(2)

    def test_undefined_for_plain_oracle(self):
        with pytest.raises(pc.InputError):
            pc.FunctionOracle(2, 2, lambda x: 1.0).variable_degree(0)


class TestExpand:
    def test_product_expansion_exact(self):
        p = fixtures.uniform_product_polynomial(2)
        s = p.expand()
        assert s.terms == {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2),
                           (0, 2): Fraction(1, 4)}

    def test_undefined_for_pencil(self):
        mats = fixtures.diagonal_psd_tuple([[Fraction(1, 2), Fraction(1, 2)],
                                            [Fraction(1, 2), Fraction(1, 2)]])
        with pytest.raises(pc.InputError, match="DeterminantalPolynomial"):
            pc.DeterminantalPolynomial(mats, mode="exact").expand()

    def test_sparse_passthrough(self):
        p = pc.SparsePolynomial(2, {(1, 1): 1})
        assert p.expand() is p

    def test_matches_evaluation(self):
        rng = np.random.default_rng(11)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                     mode="float")
        s = p.expand()
        for _ in range(5):
            x = tuple(rng.uniform(0.2, 2.0, 4))
            assert s.evaluate(x) == pytest.approx(p.evaluate(x), rel=1e-12)

    def test_cap_enforced(self):
        p = pc.ProductFormPolynomial(np.ones((11, 11)), mode="float")
        with pytest.raises(pc.ResourceLimitError):
            p.expand()

    def test_undefined_for_oracle(self):
        with pytest.raises(pc.InputError):
            pc.FunctionOracle(2, 2, lambda x: 1.0).expand()


class TestDerivativeReduce:
    def test_product_rule_example(self):
        # q = ((x+y)/2)^2  ->  dq/dx at (0, y) = y/2
        q = pc.SparsePolynomial(2, {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2),
                                    (0, 2): Fraction(1, 4)})
        r = pc.derivative_reduce(q)
        assert r.n_vars == 1
        assert r.terms == {(1,): Fraction(1, 2)}

    def test_exponent_weighting(self):
        # only terms linear in x_0 survive; their coefficients are unchanged
        q = pc.SparsePolynomial(3, {(3, 0, 0): 5, (1, 2, 0): 7, (1, 0, 2): 1,
                                    (0, 0, 3): 2}, mode="exact")
        r = pc.derivative_reduce(q)
        assert r.terms == {(2, 0): Fraction(7), (0, 2): Fraction(1)}

    def test_zero_result_rejected(self):
        q = pc.SparsePolynomial(2, {(2, 0): 1}, mode="exact")
        with pytest.raises(pc.InputError):
            pc.derivative_reduce(q)

    def test_needs_sparse(self):
        with pytest.raises(pc.InputError):
            pc.derivative_reduce(fixtures.uniform_product_polynomial(2))
