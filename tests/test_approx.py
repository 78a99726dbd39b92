"""Derivative slice oracle and the guaranteed approximation pipeline."""
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures, polynomials
from polycap.approx import DerivativeSliceOracle
from polycap.polynomials import _BATCH_ENTRIES


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

    def test_large_row_goes_to_the_base_in_groups(self, monkeypatch):
        p = fixtures.random_product_polynomial(12, np.random.default_rng(0))
        o = DerivativeSliceOracle(p, 8)
        assert o._row_entries() > _BATCH_ENTRIES
        sizes, evaluate_batch = [], p.evaluate_batch
        monkeypatch.setattr(p, "evaluate_batch",
                            lambda X: sizes.append(len(X)) or evaluate_batch(X))
        value = o.evaluate((1.0, 2.0, 0.5, 1.5))
        assert sum(sizes) == o.calls_per_eval and len(sizes) == o.m
        assert max(sizes) * p.n_vars <= _BATCH_ENTRIES
        monkeypatch.setattr(polynomials, "_BATCH_ENTRIES", o._row_entries())
        assert o.evaluate((1.0, 2.0, 0.5, 1.5)) == pytest.approx(value, rel=1e-12)
        assert len(sizes) == o.m + 1

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
