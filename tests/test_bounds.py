"""Certified lower bounds: ladder factors, sparse-support bounds, inequalities."""
import itertools
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
        for n in (3.0, 2.5, True, "3"):
            with pytest.raises(pc.InputError, match="integer"):
                pc.vdw_factor(n)
        # numpy integers are read as Python ints: n^n does not wrap at n = 16.
        assert pc.vdw_factor(np.int64(16)) == pc.vdw_factor(16)

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
        rep = pc.rank_ladder_bound(p)
        assert rep.ranks == (3, 3, 1)
        assert rep.ordering_used == (2, 0, 1)
        assert rep.G == (1, 2, 1)
        # the ascending ladder 1/2 beats index order's (3, 2, 1), 2/9
        cap = rep.capacity
        assert rep.lower_bound_rank == pytest.approx(cap * 1 / 2, rel=1e-9)
        assert _phi(3) * _phi(2) * _phi(1) == Fraction(2, 9)
        per = float(pc.permanent_ryser(m, mode="exact"))
        assert per >= rep.lower_bound_rank - 1e-9
        assert rep_is_sandwich(rep, per)

    def test_ascending_order_is_never_beaten(self):
        # Random sparse product forms, n <= 6: the reported ladder factor is
        # at least the factor of every peeling order of the same ranks.
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            A = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
            A[np.arange(n), rng.permutation(n)] = 1.0  # per(A) > 0
            rep = pc.rank_ladder_bound(pc.ProductFormPolynomial(A, mode="float"))
            assert rep.G == tuple(min(rep.ranks[v], n - i)
                                  for i, v in enumerate(rep.ordering_used))
            reported = math.prod(_phi(g) for g in rep.G)
            for order in itertools.permutations(rep.ranks):
                other = math.prod(_phi(min(r, n - i))
                                  for i, r in enumerate(order))
                assert reported >= other

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
        report = pc.sparse_permanent_bound(m)
        assert report.ranks == (2, 2, 2) and report.G == (2, 2, 1)
        assert report.transpose is False
        assert report.bound == pytest.approx(0.25, rel=1e-12)
        assert float(pc.permanent_ryser(m, mode="float")) == pytest.approx(
            0.25, rel=1e-12)

    def test_two_regular_family(self):
        rng = np.random.default_rng(22)
        for n in (4, 6, 8):
            m, _ = fixtures.random_k_regular_doubly_stochastic(n, 2, rng)
            rows = [[float(v) for v in row] for row in m]
            report = pc.sparse_permanent_bound(rows)
            per = float(pc.permanent_ryser(rows, mode="float"))
            assert max(report.ranks) <= 2
            assert report.bound >= float(_uniform_factor(n, 2))
            assert per >= report.bound - 1e-9

    def test_not_doubly_stochastic(self):
        with pytest.raises(pc.InputError, match="doubly stochastic"):
            pc.sparse_permanent_bound([[0.9, 0.0], [0.0, 0.9]])

    def test_empty_matrix_refused(self):
        with pytest.raises(pc.InputError, match="nonempty"):
            pc.sparse_permanent_bound(np.zeros((0, 0)))

    def test_dense_matrix_gets_k_equals_n(self):
        rows = [[float(v) for v in row] for row in fixtures.uniform_matrix(4)]
        report = pc.sparse_permanent_bound(rows)
        assert report.ranks == (4, 4, 4, 4) and report.G == (4, 3, 2, 1)
        assert report.transpose is False
        assert report.bound == float(Fraction(3, 32))

    def test_transpose_variant(self):
        m = [[0.5, 0.5, 0.0, 0.0],
             [0.0, 0.0, 0.5, 0.5],
             [0.25, 0.25, 0.25, 0.25],
             [0.25, 0.25, 0.25, 0.25]]
        # rows 0 and 1 have two nonzeros each, rows 2 and 3 four: the row
        # ladder (2, 2, 2, 1) gives 1/8; every column has three, and the
        # column ladder (3, 3, 2, 1) gives 8/81
        report = pc.sparse_permanent_bound(m)
        assert report.ranks == (2, 2, 4, 4) and report.G == (2, 2, 2, 1)
        assert report.transpose is True
        assert report.bound == float(_uniform_factor(4, 2)) == 1 / 8
        assert pc.sparse_permanent_bound(np.transpose(m)).transpose is False
        # the ladder sorts the rows, so their order does not matter
        flipped = pc.sparse_permanent_bound(m[::-1])
        assert (flipped.ranks, flipped.G, flipped.transpose) == (
            (4, 4, 2, 2), (2, 2, 2, 1), True)
        assert flipped.bound == report.bound
        per = float(pc.permanent_ryser(m, mode="float"))
        assert per >= report.bound - 1e-9

    def test_convex_combinations_of_permutations(self):
        # sum_i w_i P_i over m permutation matrices: at most m nonzeros in
        # every column, so the bound is at least the closed form at k = m.
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            w = rng.dirichlet(np.ones(m))
            A = sum(wi * np.eye(n)[rng.permutation(n)] for wi in w)
            report = pc.sparse_permanent_bound(A)
            assert max(report.ranks) <= m
            assert report.bound >= float(_uniform_factor(n, m))
            assert report.permanent >= report.bound - 1e-9

    def test_ladder_never_below_the_closed_form_at_the_least_k(self):
        # The closed form phi(k)^(n-k) k!/k^k at the least k for which n-k
        # columns, or rows, have at most k nonzeros each, recomputed here.
        def least_k(counts):
            n = len(counts)
            return min(k for k in range(1, n + 1)
                       if sum(c <= k for c in counts) >= n - k)

        rng = np.random.default_rng(1998)
        higher = 0
        for trial in range(200):
            n = int(rng.integers(6, 15))
            m = int(rng.integers(1, n + 1))
            w = rng.dirichlet(np.ones(m))
            A = sum(wi * np.eye(n)[rng.permutation(n)] for wi in w)
            report = pc.sparse_permanent_bound(A)
            k = min(least_k(np.count_nonzero(A, axis=axis)) for axis in (0, 1))
            closed_form = float(_uniform_factor(n, k))
            assert report.bound >= closed_form
            assert report.bound <= report.permanent + 1e-9
            higher += report.bound > closed_form
        assert higher > 100

    def test_least_k_gives_the_largest_bound(self):
        for n in range(1, 16):
            for k in range(1, n):
                assert _uniform_factor(n, k + 1) <= _uniform_factor(n, k)

    def test_permanent_reported_up_to_the_float_cap(self):
        # I + P over 2 for the cyclic shift P: per = 2^-(n-1), the bound.
        for n, reported in ((20, True), (21, False)):
            m = (np.eye(n) + np.roll(np.eye(n), 1, axis=1)) / 2
            report = pc.sparse_permanent_bound(m)
            assert report.ranks == (2,) * n and report.G == (2,) * (n - 1) + (1,)
            assert report.bound == 2.0 ** (1 - n)
            assert (report.permanent is not None) == reported
            if reported:
                assert report.permanent == pytest.approx(2.0 ** (1 - n),
                                                         rel=1e-12)


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

    @pytest.mark.parametrize("a", [[1j, 1], ["1/2", "1/2"], [], [[0.5, 0.5]],
                                   [float("nan"), 1]])
    def test_non_numeric_input_is_refused(self, a):
        with pytest.raises(pc.InputError):
            pc.repeated_column_permanent(a)

    def test_floats_are_read_exactly(self):
        assert pc.repeated_column_permanent([0.25, 0.75]) == \
            pc.repeated_column_permanent([Fraction(1, 4), Fraction(3, 4)])


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

    @pytest.mark.parametrize("c", [["a", 1], [1j, 1], [], [float("inf"), 0]])
    def test_non_numeric_input_is_refused(self, c):
        with pytest.raises(pc.InputError):
            pc.entropic_inequality_check(c)


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

    @pytest.mark.parametrize("a, b", [([float("inf")], [1]), ([1], [1j]),
                                      (["1/2"], [1]), ([], [])])
    def test_non_numeric_input_is_refused(self, a, b):
        with pytest.raises(pc.InputError):
            pc.univariate_linear_bound_check(a, b)


class TestContraction:
    def test_uniform_two_by_two_is_tight(self):
        q = fixtures.uniform_product_polynomial(2, mode="float")
        cap_q, cap_r, ratio = pc.contraction_capacity_check(q)
        assert cap_q == pytest.approx(1.0, abs=1e-9)
        assert ratio == pytest.approx(0.5, abs=1e-8)

    def test_rank_refinement_on_sparse_first_column(self):
        rng = np.random.default_rng(25)
        q = product_with_sparse_first_column(5, 2, rng)
        cap_q, cap_r, ratio = pc.contraction_capacity_check(q)
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
