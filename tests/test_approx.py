"""Derivative slice oracle and the guaranteed approximation pipeline."""
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import approx, fixtures, polynomials
from polycap.approx import DerivativeSliceOracle
from polycap.capacity import log_objective
from polycap.oracles import _TABLE_BITS
from polycap.polynomials import _BATCH_ENTRIES, _JetObjective, _OracleObjective


class TestGuaranteeFactor:
    def test_base_values(self):
        assert pc.guarantee_factor(1, 0) == 1.0
        assert pc.guarantee_factor(2, 0) == 2.0
        assert pc.guarantee_factor(3, 0) == pytest.approx(4.5)
        assert pc.guarantee_factor(3, 1) == 2.0
        assert pc.guarantee_factor(3, 2) == 1.0

    def test_strictly_decreasing_in_k(self):
        for n in (2, 5, 12, 30):
            vals = [pc.guarantee_factor(n, k) for k in range(n)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 1.0

    def test_matches_formula(self):
        for n in (4, 7):
            for k in range(n):
                m = n - k
                assert pc.guarantee_factor(n, k) == pytest.approx(
                    m ** m / math.factorial(m))

    def test_validation(self):
        with pytest.raises(pc.InputError):
            pc.guarantee_factor(0, 0)
        with pytest.raises(pc.InputError):
            pc.guarantee_factor(3, 3)
        with pytest.raises(pc.InputError):
            pc.guarantee_factor(3, -1)

    @pytest.mark.parametrize("n, k", [(4, 2.0), (4, 2.5), (4, True), (4.0, 2),
                                      (True, 0), ("4", 2)])
    def test_non_integers_are_refused(self, n, k):
        with pytest.raises(pc.InputError, match="integers"):
            pc.guarantee_factor(n, k)

    def test_numpy_integers_are_accepted(self):
        assert pc.guarantee_factor(np.int64(4), np.int32(2)) == 2.0


class TestDerivativeSliceOracle:
    def test_validation(self):
        p = fixtures.uniform_product_polynomial(3)
        with pytest.raises(pc.InputError):
            DerivativeSliceOracle(p, 0)
        with pytest.raises(pc.InputError):
            DerivativeSliceOracle(p, 3)
        q = pc.SparsePolynomial(2, {(3, 1): 1}, mode="exact")
        with pytest.raises(pc.InputError):
            DerivativeSliceOracle(q, 1)
        for k in (2.0, 2.5, True, "2"):
            with pytest.raises(pc.InputError, match="integer"):
                DerivativeSliceOracle(p, k)
        o = DerivativeSliceOracle(p, np.int64(2))
        assert type(o.k) is int and o.n_vars == 1

    def test_shape_bookkeeping(self):
        p = fixtures.uniform_product_polynomial(6)
        o = DerivativeSliceOracle(p, 2)
        assert o.n_vars == 4 and o.degree == 4 and o.mode == "exact"

    @pytest.mark.parametrize("n, k", [(6, 2), (6, 1), (7, 2), (7, 1), (3, 2)])
    def test_one_node_per_degree_of_h(self, n, k):
        # h(t) has degree floor((n-k)/2), so that many nodes plus one fit it,
        # for odd and for even tails alike.
        o = DerivativeSliceOracle(fixtures.uniform_product_polynomial(n), k)
        assert o.m == (n - k) // 2 + 1
        assert o.calls_per_eval == 2 ** k * ((n - k) // 2 + 1)

    def test_exact_against_symbolic_derivative(self):
        rng = np.random.default_rng(40)
        for n, k in [(3, 1), (4, 1), (4, 2), (5, 2)]:
            m = fixtures.random_rational_matrix(n, rng)
            p = pc.ProductFormPolynomial(m, mode="exact")
            oracle = DerivativeSliceOracle(p, k)
            ref = p.expand()
            for _ in range(k):
                ref = pc.derivative_reduce(ref)
            for _ in range(3):
                x = tuple(Fraction(int(v), 7) for v in rng.integers(1, 12, n - k))
                assert oracle.evaluate(x) == ref.evaluate(x)

    def test_exact_call_accounting(self):
        p = fixtures.uniform_product_polynomial(5)
        o = DerivativeSliceOracle(p, 2)
        p.reset_calls()
        o.evaluate((Fraction(1), Fraction(2), Fraction(3)))
        assert p.calls == o.calls_per_eval
        o.evaluate((Fraction(1), Fraction(1), Fraction(1)))
        assert p.calls == 2 * o.calls_per_eval
        assert o.calls == 2

    def test_float_mode_tracks_condition(self):
        p = fixtures.uniform_product_polynomial(5, mode="float")
        o = DerivativeSliceOracle(p, 2)
        assert o.last_condition is None
        v = o.evaluate((1.0, 1.0, 1.0))
        assert o.last_condition is not None and o.last_condition >= 1.0
        # the exact value: d^2/dx1 dx2 ((x1+..+x5)/5)^5 at (0,0,1,1,1) = ...
        exact = DerivativeSliceOracle(fixtures.uniform_product_polynomial(5), 2)
        ref = exact.evaluate((Fraction(1), Fraction(1), Fraction(1)))
        assert v == pytest.approx(float(ref), rel=1e-9)

    def test_batch_matches_per_point(self):
        p = fixtures.random_product_polynomial(6, np.random.default_rng(43))
        o = DerivativeSliceOracle(p, 2)
        X = np.random.default_rng(44).uniform(0.5, 2.0, (5, 4))
        values = o.evaluate_batch(X)
        batch_condition = o.last_condition
        assert p.calls == 5 * o.calls_per_eval and o.calls == 5
        for x, v in zip(X, values):
            assert v == pytest.approx(o.evaluate(tuple(x)), rel=1e-12)
        assert batch_condition == pytest.approx(o.last_condition, rel=1e-9)

    def test_batch_over_several_chunks_matches_rows(self):
        # Exact data, so that equal means equal.
        rng = np.random.default_rng(45)
        p = pc.ProductFormPolynomial(fixtures.random_rational_matrix(8, rng))
        o = DerivativeSliceOracle(p, 3)
        X = [[Fraction(int(v), 7) for v in row] for row in rng.integers(1, 20, (50, 5))]
        assert len(X) > 2 * (_BATCH_ENTRIES // o._row_entries())
        values = o.evaluate_batch(X)
        assert p.calls == 50 * o.calls_per_eval and o.calls == 50
        assert values.tolist() == [o.evaluate(x) for x in X]
        assert p.calls == 100 * o.calls_per_eval

    @pytest.mark.parametrize("n, k", [(12, 8), (13, 11)])
    def test_large_row_goes_to_the_base_once_per_shift(self, monkeypatch, n, k):
        # A row past one chunk still gives the base one batch per shift of the
        # sign table, all its nodes at once; the base's own chunks bound the
        # memory.
        p = fixtures.random_product_polynomial(n, np.random.default_rng(0))
        o = DerivativeSliceOracle(p, k)
        assert o._row_entries() > _BATCH_ENTRIES
        batches, chunks = [], []
        evaluate_batch, evaluate_chunk = p.evaluate_batch, p._evaluate_batch
        monkeypatch.setattr(p, "evaluate_batch",
                            lambda X: batches.append(len(X)) or evaluate_batch(X))
        monkeypatch.setattr(p, "_evaluate_batch",
                            lambda X: chunks.append(X.size) or evaluate_chunk(X))
        x = np.linspace(0.5, 2.0, n - k)
        value = o.evaluate(x)
        shifts = 2 ** max(k - _TABLE_BITS, 0)
        assert batches == [o.m * 2 ** min(k, _TABLE_BITS)] * shifts
        assert sum(batches) == o.calls_per_eval
        assert len(chunks) > shifts and max(chunks) <= _BATCH_ENTRIES
        monkeypatch.setattr(polynomials, "_BATCH_ENTRIES", 1 << 16)
        assert o.evaluate(x) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("n, k", [(12, 4), (14, 7)])
    def test_float_slices_match_exact_at_every_scale(self, n, k):
        # The nodes scale with the row, so the signed sums cancel no more at
        # small or large tails than at tails of size 1.
        rng = np.random.default_rng(100 * n + k)
        A = rng.integers(1, 100, size=(n, n))
        exact = DerivativeSliceOracle(pc.ProductFormPolynomial(
            [[Fraction(int(a), 100) for a in row] for row in A]), k)
        floats = DerivativeSliceOracle(pc.ProductFormPolynomial(A / 100), k)
        for scale in (Fraction(1, 100), 1, 100):
            tail = [Fraction(int(v), 1024) * scale
                    for v in rng.integers(600, 1700, n - k)]
            ref = float(exact.evaluate(tail))
            assert floats.evaluate(map(float, tail)) == pytest.approx(ref, rel=1e-11)

    def test_head_fixture_identity(self):
        rng = np.random.default_rng(41)
        p = fixtures.multilinear_head_sparse(6, 2, 10, rng)
        oracle = DerivativeSliceOracle(p, 2)
        ref = pc.derivative_reduce(pc.derivative_reduce(p))
        x = tuple(Fraction(k, 3) for k in (2, 4, 1, 5))
        assert oracle.evaluate(x) == ref.evaluate(x)


def _exact_jet(q, x, first):
    """p, grad p and Hess p in the variables first.. at the point x, in Python
    arithmetic (exact at integer points), from the terms of the sparse
    polynomial q."""
    def monomial(exponents):
        return 0 if min(exponents) < 0 else math.prod(
            v ** e for v, e in zip(x, exponents))

    tail = range(first, q.n_vars)
    value, grad = 0, [0] * len(tail)
    hess = [[0] * len(tail) for _ in tail]
    for r, a in q.terms.items():
        value += a * monomial(r)
        for j, J in enumerate(tail):
            rj = list(r)
            rj[J] -= 1
            grad[j] += a * r[J] * monomial(rj)
            for l, L in enumerate(tail):
                rjl = list(rj)
                rjl[L] -= 1
                hess[j][l] += a * r[J] * rj[L] * monomial(rjl)
    return value, grad, hess


def _weighted_exact_jet(q, X, c, first):
    """sum_t c_t of ``_exact_jet`` at the rows of X."""
    refs = [_exact_jet(q, x, first) for x in X]
    d = q.n_vars - first
    return (sum(w * r[0] for w, r in zip(c, refs)),
            [sum(w * r[1][j] for w, r in zip(c, refs)) for j in range(d)],
            [[sum(w * r[2][j][l] for w, r in zip(c, refs)) for l in range(d)]
             for j in range(d)])


def _taylor(p, x, v):
    """The coefficients of t and t^2 in t -> p(x + t v), exactly: p is
    evaluated at t = 0..degree in exact mode and interpolated by Lagrange."""
    d = p.degree
    values = [p.evaluate([Fraction(a) + t * b for a, b in zip(x, v)])
              for t in range(d + 1)]
    coefficients = [Fraction(0)] * (d + 1)
    for i, y in enumerate(values):
        basis, scale = [Fraction(1)], Fraction(1)
        for j in range(d + 1):
            if j != i:
                # basis times (t - j)
                basis = [(basis[r - 1] if r else 0)
                         - j * (basis[r] if r < len(basis) else 0)
                         for r in range(len(basis) + 1)]
                scale *= i - j
        for r, b in enumerate(basis):
            coefficients[r] += y * b / scale
    return coefficients[1], coefficients[2]


def _exact_pencil_jet(p, x, first):
    """grad p and Hess p in the variables first.. at x, exactly: from the
    Taylor coefficients along e_j and along e_j + e_k."""
    n = p.n_vars
    e = np.eye(n, dtype=int)
    tail = range(first, n)
    half = {j: _taylor(p, x, e[j])[1] for j in tail}
    return ([_taylor(p, x, e[j])[0] for j in tail],
            [[2 * half[j] if j == k else _taylor(p, x, e[j] + e[k])[1]
              - half[j] - half[k] for k in tail] for j in tail])


def _nested_slices(base):
    # A slice of a slice: k = 1, then k = 1 again.
    return DerivativeSliceOracle(DerivativeSliceOracle(base, 1), 1)


def _assert_closed_form_of_reduced(o, base):
    """o, two slices of a polynomial that ``base`` expands, takes the
    closed-form objective, and it matches the twice-reduced expansion."""
    assert o.has_jets()
    obj = o.log_objective()
    assert isinstance(obj, _JetObjective)
    exact = log_objective(pc.derivative_reduce(pc.derivative_reduce(base.expand())))
    y = np.array([0.2, -0.1, 0.3, -0.4])
    assert abs(obj.value(y) - exact.value(y)) < 1e-13
    assert np.abs(obj.gradient(y) - exact.gradient(y)).max() < 1e-13
    assert np.abs(obj.hessian(y) - exact.hessian(y)).max() < 1e-13


class TestJets:
    def test_jet_sum_is_exact_where_a_linear_form_vanishes(self):
        # Small integers keep every float operation exact, so the closed form
        # must equal the exact derivatives; a linear form that is 0 at a row
        # rules out division by it.
        A = [[1, 2, 0, 1], [3, 1, 1, 0], [0, 1, 2, 2], [1, 1, 1, 1]]
        p = pc.ProductFormPolynomial(A, mode="exact")
        X = [[2, -1, 0, 0], [1, 0, -1, 1], [3, 1, 2, 1]]
        c = [3, -2, 5]
        assert (np.array(X) @ np.array(A).T == 0).any(axis=1).tolist() == [
            True, True, False]
        for first in (0, 1, 2):
            value, grad, hess = p.jet_sum(X, c, first)
            ref = _weighted_exact_jet(p.expand(), X, c, first)
            assert value == ref[0]
            assert grad.tolist() == ref[1]
            assert hess.tolist() == ref[2]
        assert p.calls == 3 * len(X)

    def test_diagonal_pencil_jet_sum_matches_its_product_form(self):
        # A diagonal pencil is the product form of the transposed matrix.
        rng = np.random.default_rng(9)
        m = fixtures.random_positive_matrix(6, rng)
        pencil = pc.DeterminantalPolynomial(fixtures.diagonal_psd_tuple(m))
        product = pc.ProductFormPolynomial(np.array(m).T, mode="float")
        assert pencil.has_jets()
        X = rng.uniform(-1.0, 2.0, (5, 6))
        c = rng.normal(size=5)
        for first in (0, 2, 5):
            for got, want in zip(pencil.jet_sum(X, c, first),
                                 product.jet_sum(X, c, first)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert pencil.calls == 3 * len(X)

    def test_pencil_jet_is_exact_where_the_pencil_is_singular(self):
        # Rank-deficient Gram matrices, and A_0 = A_1: A(x) is singular at
        # e_0, zero at e_0 - e_1, and singular and indefinite at the third
        # point, yet the jet has no inverse to blow up.
        rng = np.random.default_rng(10)
        G = [rng.integers(-2, 3, (4, r)) for r in (2, 2, 3, 1)]
        G[1] = G[0]
        mats = [g @ g.T for g in G]
        exact = pc.DeterminantalPolynomial(mats, mode="exact")
        floats = pc.DeterminantalPolynomial(mats, mode="float")
        X = [[1, 0, 0, 0], [1, -1, 0, 0], [2, -3, 0, 1], [1, 1, 1, 1]]
        assert [np.linalg.matrix_rank(np.tensordot(x, mats, axes=1))
                for x in X] == [2, 0, 3, 4]
        for x in X:
            for first in (0, 1):
                value, grad, hess = floats.jet_sum([x], [1.0], first)
                ref_grad, ref_hess = _exact_pencil_jet(exact, x, first)
                assert np.isfinite(grad).all() and np.isfinite(hess).all()
                scale = max(1.0, np.abs(np.array(ref_hess, dtype=float)).max())
                assert value == pytest.approx(float(exact.evaluate(x)),
                                              abs=1e-12 * scale)
                np.testing.assert_allclose(grad, np.array(ref_grad, dtype=float),
                                           rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_allclose(hess, np.array(ref_hess, dtype=float),
                                           rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("c, first, match", [
        (np.ones((1, 3)), 0, "weights"), (np.ones(2), 0, "weights"),
        (np.ones(3), -1, "first"), (np.ones(3), 5, "first"),
        (np.ones(3), 1.0, "first"), (np.ones(3), True, "first")])
    def test_jet_sum_refuses_wrong_weights_and_first(self, c, first, match):
        p = fixtures.random_product_polynomial(4, np.random.default_rng(1))
        with pytest.raises(pc.InputError, match=match):
            p.jet_sum(np.ones((3, 4)), c, first)
        assert p.calls == 0
        value, grad, hess = p.jet_sum(np.ones((3, 4)), np.ones(3), np.int64(4))
        assert value == pytest.approx(3 * p.evaluate((1.0,) * 4), rel=1e-12)
        assert grad.shape == (0,) and hess.shape == (0, 0)

    @pytest.mark.parametrize("n, k", [(6, 3), (13, 12)])
    @pytest.mark.parametrize("kind", ["product", "pencil"])
    def test_slice_values_and_jets_agree(self, kind, n, k):
        # Values and jets read the same signed points, within the table
        # (k = 3) and over several shifts of it (k = 12).
        rng = np.random.default_rng(k)
        base = (fixtures.random_product_polynomial(n, rng) if kind == "product"
                else pc.DeterminantalPolynomial(
                    fixtures.doubly_stochastic_psd_tuple(n, rng)))
        o = DerivativeSliceOracle(base, k)
        X = rng.uniform(0.5, 2.0, (2, n - k))
        values = o.evaluate_batch(X)
        for x, v in zip(X, values):
            assert o.jet_sum([x], [1.0], 0)[0] == pytest.approx(v, rel=1e-12)
        c = rng.normal(size=2)
        assert o.jet_sum(X, c, 0)[0] == pytest.approx(c @ values, rel=1e-12)

    def test_slice_of_a_slice_past_the_table(self):
        # The inner slice refills its points once per shift while the outer
        # one's points are still in use; with one variable left the result
        # is per(A) x.
        p = fixtures.random_product_polynomial(13, np.random.default_rng(4))
        o = DerivativeSliceOracle(DerivativeSliceOracle(p, 11), 1)
        per = float(p.mixed_partial())
        X = np.array([[0.5], [1.5], [3.0]])
        np.testing.assert_allclose(o.evaluate_batch(X), per * X[:, 0], rtol=1e-9)
        for x in X:
            assert o.jet_sum([x], [1.0], 0)[0] == pytest.approx(per * x[0], rel=1e-9)

    def test_other_oracles_have_no_jets(self):
        f = pc.FunctionOracle(2, 2, lambda x: x[0] * x[1])
        sparse = fixtures.random_product_polynomial(3, np.random.default_rng(1)).expand()
        for base in (f, sparse):
            assert not base.has_jets()
            with pytest.raises(pc.InputError, match="jet_sum is undefined"):
                base.jet_sum([[1.0] * base.n_vars], [1.0], 0)
            assert base.calls == 0
            o = DerivativeSliceOracle(base, 1)
            assert not o.has_jets()
            assert isinstance(o.log_objective(), _OracleObjective)
            with pytest.raises(pc.InputError, match="jet_sum is undefined"):
                o.jet_sum([[1.0] * o.n_vars], [1.0], 0)

    def test_slice_jet_sum_matches_the_reduced_expansion(self):
        rng = np.random.default_rng(5)
        base = fixtures.random_product_polynomial(7, rng)
        ref = pc.derivative_reduce(pc.derivative_reduce(base.expand()))
        o = DerivativeSliceOracle(base, 2)
        X = rng.uniform(0.5, 2.0, (4, 5))
        c = rng.normal(size=4)
        for first in (0, 2):
            value, grad, hess = o.jet_sum(X, c, first)
            ref_value, ref_grad, ref_hess = _weighted_exact_jet(ref, X, c, first)
            assert value == pytest.approx(ref_value, rel=1e-12)
            assert np.allclose(grad, ref_grad, rtol=1e-12, atol=0)
            assert np.allclose(hess, ref_hess, rtol=1e-12, atol=0)
        assert o.calls == 8 and base.calls == 8 * o.calls_per_eval

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 1), (7, 3), (8, 4)])
    def test_closed_form_slice_objective_matches_the_reduced_expansion(self, n, k):
        base = fixtures.random_product_polynomial(n, np.random.default_rng(n + k))
        ref = base.expand()
        for _ in range(k):
            ref = pc.derivative_reduce(ref)
        obj = DerivativeSliceOracle(base, k).log_objective()
        assert not isinstance(obj, _OracleObjective)
        exact = log_objective(ref)
        rng = np.random.default_rng(n * k)
        for _ in range(3):
            y = rng.normal(0, 0.3, n - k)
            assert abs(obj.value(y) - exact.value(y)) < 5e-14
            assert np.abs(obj.gradient(y) - exact.gradient(y)).max() < 5e-14
            assert np.abs(obj.hessian(y) - exact.hessian(y)).max() < 5e-14

    def test_nested_slices_of_a_product_form_take_the_closed_form(self):
        base = fixtures.random_product_polynomial(6, np.random.default_rng(7))
        _assert_closed_form_of_reduced(_nested_slices(base), base)

    def test_nested_slices_of_a_pencil_take_the_closed_form(self):
        # A diagonal pencil is the product form of the transposed matrix.
        base = fixtures.random_product_polynomial(6, np.random.default_rng(7))
        pencil = pc.DeterminantalPolynomial(fixtures.diagonal_psd_tuple(base.matrix.T))
        _assert_closed_form_of_reduced(_nested_slices(pencil), base)

    @pytest.mark.parametrize("kind", ["sparse", "function"])
    def test_nested_slices_without_jets_take_finite_differences(self, kind):
        base = fixtures.random_product_polynomial(5, np.random.default_rng(8))
        same = _nested_slices(base)
        base = (base.expand() if kind == "sparse"
                else pc.FunctionOracle(5, 5, base.evaluate))
        o = _nested_slices(base)
        assert isinstance(o.log_objective(), _OracleObjective)
        r = pc.capacity_minimize(o)
        assert r.status == "converged"
        assert r.value == pytest.approx(pc.capacity_minimize(same).value, rel=1e-8)

    def test_slice_objective_keeps_its_last_point(self):
        p = fixtures.random_product_polynomial(6, np.random.default_rng(3))
        o = DerivativeSliceOracle(p, 2)
        obj = o.log_objective()
        y = np.array([0.1, -0.2, 0.3, -0.2])
        obj.value(y)
        obj.gradient(y)
        obj.hessian(y)
        assert o.calls == 1 and p.calls == o.calls_per_eval
        obj.gradient(y + 0.1)
        assert o.calls == 2 and p.calls == 2 * o.calls_per_eval

    def test_points_per_base_call_stay_bounded_past_the_table(self, monkeypatch):
        # Past _TABLE_BITS head variables each pattern of the rest shifts the
        # table: a base call gets one node's 2^_TABLE_BITS points, not 2^k.
        p = fixtures.random_product_polynomial(13, np.random.default_rng(2))
        o = DerivativeSliceOracle(p, 12)
        assert o.calls_per_eval == 2 ** 12
        sizes, evaluate_batch, jet_sum = [], p.evaluate_batch, p.jet_sum
        monkeypatch.setattr(p, "evaluate_batch",
                            lambda X: sizes.append(len(X)) or evaluate_batch(X))
        monkeypatch.setattr(p, "jet_sum",
                            lambda X, *a: sizes.append(len(X)) or jet_sum(X, *a))
        value = o.evaluate((1.5,))
        assert sizes == [2 ** 10] * 4
        sizes.clear()
        jet_value = o.jet_sum([[1.5]], [1.0], 0)[0]
        assert sizes == [2 ** 10] * 4
        assert jet_value == pytest.approx(value, rel=1e-12)
        # With one variable left the slice is per(A) x.
        assert value == pytest.approx(1.5 * float(p.mixed_partial()), rel=1e-9)

    def test_closed_form_estimate_matches_finite_differences(self):
        # A FunctionOracle base has no jets, so its slice takes the
        # finite-difference route on the same evaluations.
        p = fixtures.random_product_polynomial(14, np.random.default_rng(0))
        closed = pc.estimate_mixed_partial(p, k=7)
        fd = pc.estimate_mixed_partial(pc.FunctionOracle(14, 14, p.evaluate), k=7)
        assert closed.estimate == pytest.approx(fd.estimate, rel=1e-10)
        assert closed.oracle_calls < fd.oracle_calls / 50

    def test_one_base_batch_per_slice_evaluation(self, monkeypatch):
        slices = []

        class Recorded(DerivativeSliceOracle):
            def __init__(self, *args):
                super().__init__(*args)
                slices.append(self)

        monkeypatch.setattr(approx, "DerivativeSliceOracle", Recorded)
        p = fixtures.random_product_polynomial(20, np.random.default_rng(0))
        r = pc.estimate_mixed_partial(p, k=8)
        (o,) = slices
        assert r.capacity_result.status == "converged"
        assert r.oracle_calls == o.calls_per_eval * o.calls
        # The finite-difference route took 2,076,928 base calls here.
        assert r.oracle_calls < 20_769


class TestEstimateMixedPartial:
    def test_uniform_product_k_zero(self):
        r = pc.estimate_mixed_partial(fixtures.uniform_product_polynomial(3,
                                                                          mode="float"))
        assert r.estimate == pytest.approx(1.0, abs=1e-8)
        assert r.guarantee_factor == pytest.approx(4.5)
        assert r.k_used == 0

    def test_exact_at_k_equals_n_minus_one(self):
        # k = n-1 leaves a linear univariate slice: the estimate is exact.
        p = fixtures.uniform_product_polynomial(3, mode="float")
        r = pc.estimate_mixed_partial(p, k=2)
        assert r.estimate == pytest.approx(2 / 9, rel=1e-12)
        assert r.guarantee_factor == 1.0
        assert r.oracle_calls == 2 ** 2 * 1  # one slice evaluation, m = 1

    def test_sandwich_tightens_with_k(self):
        rng = np.random.default_rng(42)
        m = fixtures.random_positive_matrix(4, rng)
        p = pc.ProductFormPolynomial(m, mode="float")
        true = float(pc.permanent_ryser(m, mode="float"))
        last = np.inf
        for k in range(4):
            r = pc.estimate_mixed_partial(p, k=k)
            assert true <= r.estimate * (1 + 1e-7)
            assert r.estimate <= r.guarantee_factor * true * (1 + 1e-7)
            assert r.estimate <= last * (1 + 1e-9)
            last = r.estimate

    def test_zero_derivative_slice_returns_zero(self):
        for mode in ("float", "exact"):
            r = pc.estimate_mixed_partial(fixtures.power_sum(3, mode=mode), k=1)
            assert r.estimate == 0.0
            assert r.capacity_result.status == "degenerate-zero"
            assert r.capacity_result.stop_reason == "degenerate"
            assert r.capacity_result.log_value is None

    def test_finite_difference_newton_converges_at_tight_tol(self):
        # The CLI defaults: tol 1e-10 sits below what the finite-difference
        # objective resolves, so these runs stop on the Newton decrement
        # instead of spending 200 iterations on null steps.
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.integers(1, 65, size=(7, 7)) / 64
            p = pc.ProductFormPolynomial(m, mode="float")
            r = pc.estimate_mixed_partial(p, k=1, tol=1e-10, max_iter=200)
            cap = r.capacity_result
            assert cap.stop_reason in ("gradient", "decrement")
            assert cap.status == "converged" and cap.iterations <= 10
            assert cap.log_value == pytest.approx(math.log(cap.value), abs=1e-12)
            true = float(pc.permanent_ryser(m, mode="float"))
            assert true * (1 - 1e-9) <= r.estimate
            assert r.estimate <= r.guarantee_factor * true * (1 + 1e-9)

    def test_fourteen_variables_seven_fixed_converge(self):
        p = fixtures.random_product_polynomial(14, np.random.default_rng(0))
        cap = pc.estimate_mixed_partial(p, k=7).capacity_result
        assert cap.status == "converged" and cap.iterations <= 10

    def test_last_variable_left_is_linear(self):
        p = fixtures.uniform_product_polynomial(3, mode="float")
        cap = pc.estimate_mixed_partial(p, k=2).capacity_result
        assert cap.stop_reason == "gradient" and cap.status == "converged"
        assert cap.log_value == pytest.approx(math.log(2 / 9), rel=1e-12)

    def test_oracle_calls_counted_on_base(self):
        p = fixtures.uniform_product_polynomial(4, mode="float")
        before = p.calls
        r = pc.estimate_mixed_partial(p, k=1)
        assert p.calls - before == r.oracle_calls
        assert r.oracle_calls > 0
        assert r.extrapolation_condition is not None

    def test_condition_absent_for_k_zero(self):
        r = pc.estimate_mixed_partial(fixtures.uniform_product_polynomial(3,
                                                                          mode="float"))
        assert r.extrapolation_condition is None

    def test_degree_mismatch(self):
        p = pc.SparsePolynomial(2, {(3, 1): 1.0}, mode="float")
        with pytest.raises(pc.InputError):
            pc.estimate_mixed_partial(p)

    def test_k_validation(self):
        p = fixtures.uniform_product_polynomial(3, mode="float")
        with pytest.raises(pc.InputError):
            pc.estimate_mixed_partial(p, k=3)
        for k in (2.0, 1.5, True, None):
            with pytest.raises(pc.InputError, match="integer"):
                pc.estimate_mixed_partial(p, k=k)
        r = pc.estimate_mixed_partial(p, k=np.int64(2))
        assert r.estimate == pytest.approx(2 / 9, rel=1e-12)
        assert type(r.k_used) is int
