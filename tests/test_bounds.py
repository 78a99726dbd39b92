"""Certified lower bounds: ladder factors, sparse-support bounds, inequalities."""
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures
from polycap.bounds import _phi, _uniform_factor


def product_with_sparse_first_column(n, k, rng):
    """Product form whose first variable has rank exactly k: the first
    column of the matrix has k nonzeros, all other entries positive."""
    A = rng.uniform(0.1, 1.0, (n, n))
    A[rng.permutation(n)[: n - k], 0] = 0.0
    return pc.ProductFormPolynomial(A, mode="float")


class TestFactors:
    def test_vdw_factor_values(self):
        assert pc.vdw_factor(1) == 1
        assert pc.vdw_factor(2) == Fraction(1, 2)
        assert pc.vdw_factor(3) == Fraction(2, 9)
        assert pc.vdw_factor(4) == Fraction(3, 32)
        assert pc.vdw_factor(5) == Fraction(24, 625)

    def test_vdw_factor_validation(self):
        with pytest.raises(pc.InputError):
            pc.vdw_factor(0)

    def test_phi_values(self):
        assert _phi(1) == 1
        assert _phi(2) == Fraction(1, 2)
        assert _phi(3) == Fraction(4, 9)
        assert _phi(4) == Fraction(27, 64)

    def test_uniform_factor_reduces_to_vdw_at_full_rank(self):
        for n in range(1, 12):
            assert _uniform_factor(n, n) == pc.vdw_factor(n)

    def test_uniform_factor_hand_value(self):
        assert _uniform_factor(3, 2) == Fraction(1, 4)
        assert _uniform_factor(4, 2) == Fraction(1, 8)

    def test_uniform_beats_vdw_for_low_rank(self):
        for n in range(3, 16):
            for k in range(2, n):
                assert _uniform_factor(n, k) > pc.vdw_factor(n)

    def test_ladder_telescopes_to_vdw(self):
        for n in range(1, 25):
            prod = Fraction(1)
            for i in range(n):
                prod *= _phi(n - i)
            assert prod == pc.vdw_factor(n)

    def test_bound_helpers_scale_capacity(self):
        assert pc.vdw_lower_bound(3.0, 3) == pytest.approx(2 / 3)
        assert pc.uniform_rank_bound(4.0, 3, 2) == pytest.approx(1.0)


class TestRankLadderReport:
    def test_two_per_row_circulant_hand_values(self):
        p = pc.ProductFormPolynomial(fixtures.two_per_row_circulant())
        rep = pc.rank_ladder_bound(p)
        assert rep.n == 3
        assert rep.capacity == pytest.approx(1.0, abs=1e-9)
        assert rep.ranks == (2, 2, 2)
        assert rep.G == (2, 2, 1)
        assert rep.lower_bound_rank == pytest.approx(0.25, rel=1e-9)
        assert rep.lower_bound_uniform_rank == pytest.approx(0.25, rel=1e-9)
        assert rep.lower_bound_vdw == pytest.approx(2 / 9, rel=1e-9)
        assert rep.exact_value == pytest.approx(0.25, rel=1e-12)
        assert rep.capacity_status == "converged"

    def test_full_rank_uniform_bound_absent(self):
        rep = pc.rank_ladder_bound(fixtures.uniform_product_polynomial(3))
        assert rep.lower_bound_uniform_rank is None
        assert rep.lower_bound_rank == pytest.approx(rep.lower_bound_vdw, rel=1e-12)

    def test_ordering_changes_the_ladder(self):
        h = Fraction(1, 2)
        q = Fraction(1, 4)
        m = [[q, 3 * q, 0], [h, h, 0], [q, q, h]]
        p = pc.ProductFormPolynomial(m)  # ranks (3, 3, 1)
        as_given = pc.rank_ladder_bound(p, ordering="as-given")
        greedy = pc.rank_ladder_bound(p, ordering="greedy")
        explicit = pc.rank_ladder_bound(p, ordering=(2, 0, 1))
        assert as_given.ranks == (3, 3, 1)
        assert as_given.G == (3, 2, 1)
        assert greedy.ordering_used == (2, 0, 1)
        assert greedy.G == (1, 2, 1)
        # greedy ladder = 1/2 beats as-given = 2/9, relative to capacity
        cap = as_given.capacity
        assert as_given.lower_bound_rank == pytest.approx(cap * 2 / 9, rel=1e-9)
        assert greedy.lower_bound_rank == pytest.approx(cap * 1 / 2, rel=1e-9)
        assert explicit.lower_bound_rank == pytest.approx(
            greedy.lower_bound_rank, rel=1e-12)
        # both are genuine lower bounds on the permanent
        per = float(pc.permanent_ryser(m, mode="exact"))
        assert per >= greedy.lower_bound_rank - 1e-9
        assert rep_is_sandwich(greedy, per)

    def test_invalid_ordering(self):
        p = fixtures.uniform_product_polynomial(3)
        with pytest.raises(pc.InputError):
            pc.rank_ladder_bound(p, ordering=(0, 0, 1))

    def test_degree_mismatch(self):
        p = pc.SparsePolynomial(2, {(3, 0): 1, (0, 3): 1}, mode="exact")
        with pytest.raises(pc.InputError):
            pc.rank_ladder_bound(p)

    def test_sandwich_on_random_product_forms(self):
        rng = np.random.default_rng(20)
        for n in (3, 4, 5):
            m = fixtures.random_positive_matrix(n, rng)
            rep = pc.rank_ladder_bound(pc.ProductFormPolynomial(m, mode="float"))
            assert rep.exact_value is not None
            assert rep_is_sandwich(rep, rep.exact_value)

    def test_include_exact_auto_survives_large_n(self):
        p = pc.ProductFormPolynomial(np.full((21, 21), 1.0 / 21), mode="float")
        rep = pc.rank_ladder_bound(p)
        assert rep.exact_value is None  # brute force refused, bound still valid
        assert rep.lower_bound_rank > 0


def rep_is_sandwich(rep, exact, tol=1e-7):
    scale = max(1.0, abs(exact))
    assert rep.lower_bound_vdw <= exact + tol * scale
    assert rep.lower_bound_rank <= exact + tol * scale
    assert exact <= rep.capacity + tol * max(1.0, rep.capacity)
    if rep.lower_bound_uniform_rank is not None:
        assert rep.lower_bound_uniform_rank <= exact + tol * scale
    return True


class TestSparsePermanentBound:
    def test_circulant_equality(self):
        m = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
        bound = pc.sparse_permanent_bound(m, k=2)
        assert bound == pytest.approx(0.25, rel=1e-12)
        assert float(pc.permanent_ryser(m, mode="float")) == pytest.approx(
            0.25, rel=1e-12)

    def test_two_regular_family(self):
        rng = np.random.default_rng(22)
        for n in (4, 6, 8):
            m, _ = fixtures.random_k_regular_doubly_stochastic(n, 2, rng)
            rows = [[float(v) for v in row] for row in m]
            bound = pc.sparse_permanent_bound(rows, k=2)
            per = float(pc.permanent_ryser(rows, mode="float"))
            assert per >= bound - 1e-9

    def test_not_doubly_stochastic(self):
        with pytest.raises(pc.InputError, match="doubly stochastic"):
            pc.sparse_permanent_bound([[0.9, 0.0], [0.0, 0.9]], k=1)

    def test_support_violation_names_column(self):
        m = fixtures.uniform_matrix(4)
        rows = [[float(v) for v in row] for row in m]
        with pytest.raises(pc.InputError, match="column 0"):
            pc.sparse_permanent_bound(rows, k=2)

    def test_transpose_variant(self):
        m = [[0.5, 0.5, 0.0, 0.0],
             [0.5, 0.0, 0.5, 0.0],
             [0.0, 0.25, 0.25, 0.5],
             [0.0, 0.25, 0.25, 0.5]]
        # rows 0 and 1 are 2-sparse but column 1 is not
        with pytest.raises(pc.InputError, match="column"):
            pc.sparse_permanent_bound(m, k=2)
        bound = pc.sparse_permanent_bound(m, k=2, transpose=True)
        per = float(pc.permanent_ryser(m, mode="float"))
        assert per >= bound - 1e-9


class TestRepeatedColumnPermanent:
    def test_single_entry(self):
        assert pc.repeated_column_permanent((1,)) == 1

    def test_identity_direction(self):
        # a = e_1 gives the permutation-like extreme
        assert pc.repeated_column_permanent((1, 0)) == 1

    def test_uniform_attains_the_floor(self):
        for n in range(1, 8):
            a = (Fraction(1, n),) * n
            assert pc.repeated_column_permanent(a) == pc.vdw_factor(n)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            # n-1 entries below 1/n keep the remainder nonnegative
            a = [Fraction(int(x), 5 * n) for x in rng.integers(0, 5, n - 1)]
            a.append(1 - sum(a))
            assert sum(a) == 1 and all(v >= 0 for v in a)
            b = [(1 - v) / (n - 1) for v in a]
            matrix = [[a[i]] + [b[i]] * (n - 1) for i in range(n)]
            assert pc.repeated_column_permanent(a) == \
                pc.permanent_ryser(matrix, mode="exact")

    def test_validation(self):
        with pytest.raises(pc.InputError):
            pc.repeated_column_permanent((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(pc.InputError):
            pc.repeated_column_permanent((Fraction(3, 2), Fraction(-1, 2)))


class TestEntropicInequality:
    def test_two_variable_equality(self):
        lhs, rhs = pc.entropic_inequality_check((0.5, 0.5))
        assert lhs == pytest.approx(0.5, rel=1e-12)
        assert rhs == pytest.approx(0.5, rel=1e-12)

    def test_zero_entry_uses_zero_log_zero(self):
        lhs, rhs = pc.entropic_inequality_check((1.0, 1.0, 0.0))
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == pytest.approx(1.0, rel=1e-12)

    def test_strict_case(self):
        lhs, rhs = pc.entropic_inequality_check((0.9, 0.9, 0.2))
        assert lhs == pytest.approx(0.684, rel=1e-12)
        assert lhs > rhs

    def test_uniform_equality_for_all_n(self):
        for n in range(2, 12):
            c = ((n - 1) / n,) * n
            lhs, rhs = pc.entropic_inequality_check(c)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_random_feasible_vectors(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            c = fixtures.feasible_entropy_vector(n, rng)
            lhs, rhs = pc.entropic_inequality_check(c)
            assert lhs >= rhs - 1e-12

    def test_infeasible_sum(self):
        with pytest.raises(pc.InputError):
            pc.entropic_inequality_check((0.5, 0.5, 0.5))

    def test_out_of_range_entry(self):
        with pytest.raises(pc.InputError):
            pc.entropic_inequality_check((1.5, 0.5, 0.0))


class TestUnivariateLinearBound:
    def test_equality_pair(self):
        # a_i = 1/n, b_i = (n-1)/n: equality in the single-variable bound
        a, b = (Fraction(1, 5),) * 5, (Fraction(4, 5),) * 5
        d1, C, bound = pc.univariate_linear_bound_check(a, b)
        assert C == pytest.approx(1.0, rel=1e-8)
        assert bound == pytest.approx(0.4096, rel=1e-8)
        assert d1 == pytest.approx(bound, rel=1e-8)

    def test_strict_case(self):
        d1, C, bound = pc.univariate_linear_bound_check((1.0, 0.5, 0.0),
                                                        (0.0, 0.5, 1.0))
        assert d1 >= bound - 1e-10
        assert d1 == pytest.approx(0.5, rel=1e-12)  # a1 b2 b3 + a2 b1 b3 + ...

    def test_all_a_zero(self):
        d1, C, bound = pc.univariate_linear_bound_check((0.0, 0.0), (1.0, 2.0))
        assert d1 == 0.0 and C == 0.0 and bound == 0.0

    def test_validation(self):
        with pytest.raises(pc.InputError):
            pc.univariate_linear_bound_check((1.0, -0.1), (0.5, 0.5))
        with pytest.raises(pc.InputError):
            pc.univariate_linear_bound_check((1.0,), (0.5, 0.5))


class TestContraction:
    def test_uniform_two_by_two_is_tight(self):
        q = fixtures.uniform_product_polynomial(2, mode="float")
        cap_q, cap_r, ratio = pc.contraction_capacity_check(q)
        assert cap_q == pytest.approx(1.0, abs=1e-9)
        assert ratio == pytest.approx(0.5, abs=1e-8)

    def test_rank_refinement_on_sparse_first_column(self):
        rng = np.random.default_rng(25)
        q = product_with_sparse_first_column(5, 2, rng)
        cap_q, cap_r, ratio = pc.contraction_capacity_check(
            q, use_first_variable_rank=True)
        assert ratio >= float(_phi(2)) - 1e-7

    def test_degenerate_returns_vacuous(self):
        q = pc.SparsePolynomial(2, {(2, 0): 1.0}, mode="float")
        assert pc.contraction_capacity_check(q) == (0.0, None, None)

    def test_random_forms(self):
        rng = np.random.default_rng(26)
        for n in (3, 4):
            q = pc.ProductFormPolynomial(fixtures.random_positive_matrix(n, rng),
                                         mode="float")
            cap_q, cap_r, ratio = pc.contraction_capacity_check(q)
            assert ratio >= float(_phi(n)) - 1e-7

    def test_rank_monotonicity(self):
        # After peeling variable 0, each remaining variable's rank is at
        # most min(its rank in q, n - 1).
        rng = np.random.default_rng(27)
        forms = [pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                          mode="float") for _ in range(5)]
        forms.append(pc.ProductFormPolynomial(fixtures.two_per_row_circulant()))
        for q in forms:
            n = q.n_vars
            r = pc.derivative_reduce(q.expand())
            for i in range(n - 1):
                assert r.variable_degree(i) <= min(q.variable_degree(i + 1), n - 1)
