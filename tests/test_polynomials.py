"""Representation layer: construction, validation, evaluation, expansion."""
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures
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

    def test_unknown_mode(self):
        with pytest.raises(pc.InputError, match="unknown mode 'bogus'"):
            pc.FunctionOracle(2, 2, lambda x: 1.0, mode="bogus")


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

    def test_determinantal_expansion(self):
        mats = fixtures.diagonal_psd_tuple([[Fraction(1, 2), Fraction(1, 2)],
                                            [Fraction(1, 2), Fraction(1, 2)]])
        s = pc.DeterminantalPolynomial(mats, mode="exact").expand()
        # det(diag pencil) = prod over rows of the pencil diagonal
        assert s.terms == {(2, 0): Fraction(1, 4), (1, 1): Fraction(1, 2),
                           (0, 2): Fraction(1, 4)}

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
