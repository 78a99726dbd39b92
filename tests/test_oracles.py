"""Brute-force reference computations: permanents, polarization, discriminants."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures


def permanent_by_permutations(m):
    n = len(m)
    return sum(math.prod(m[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def gamma(k):
    """Higham's gamma_k for binary64."""
    u = 2.0 ** -53
    return k * u / (1 - k * u)


def dyadic(rows, den=1024):
    return [[Fraction(round(float(v) * den), den) for v in row] for row in rows]


class TestPermanentRyser:
    def test_all_ones_2x2(self):
        assert pc.permanent_ryser([[1, 1], [1, 1]], mode="exact") == 2

    def test_diagonal(self):
        assert pc.permanent_ryser([[3, 0], [0, 5]], mode="exact") == 15

    def test_known_3x3(self):
        m = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert pc.permanent_ryser(m, mode="exact") == 450

    def test_permutation_matrix(self):
        rng = np.random.default_rng(5)
        rows, _ = fixtures.random_permutation_matrix(6, rng)
        assert pc.permanent_ryser(rows, mode="exact") == 1

    def test_uniform_matrix_closed_form(self):
        import math
        for n in range(1, 7):
            per = pc.permanent_ryser(fixtures.uniform_matrix(n), mode="exact")
            assert per == Fraction(math.factorial(n), n ** n)

    def test_exact_type(self):
        v = pc.permanent_ryser([[Fraction(1, 2), Fraction(1, 2)],
                                [Fraction(1, 3), Fraction(2, 3)]], mode="exact")
        assert isinstance(v, Fraction) and v == Fraction(1, 2)

    def test_float_matches_exact(self):
        rng = np.random.default_rng(6)
        m = fixtures.random_rational_matrix(5, rng)
        exact = pc.permanent_ryser(m, mode="exact")
        approx = pc.permanent_ryser([[float(x) for x in row] for row in m],
                                    mode="float")
        assert approx == pytest.approx(float(exact), rel=1e-11)

    def test_row_expansion_recursion(self):
        # per expands along the first row: per(A) = sum_j a_0j per(A_0j)
        rng = np.random.default_rng(7)
        m = fixtures.random_rational_matrix(4, rng)
        total = Fraction(0)
        for j in range(4):
            minor = [[m[i][l] for l in range(4) if l != j] for i in range(1, 4)]
            total += m[0][j] * pc.permanent_ryser(minor, mode="exact")
        assert total == pc.permanent_ryser(m, mode="exact")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_sum(self, n):
        rng = np.random.default_rng(40 + n)
        nums = rng.integers(-5, 6, (n, n))
        nums[rng.random((n, n)) < 0.2] = 0
        m = [[Fraction(int(a), int(b)) for a, b in zip(row, dens)]
             for row, dens in zip(nums, rng.integers(1, 10, (n, n)))]
        for matrix in (m, [[0] * n for _ in range(n)]):
            per = permanent_by_permutations(matrix)
            assert pc.permanent_ryser(matrix, mode="exact") == per
            floats = [[float(v) for v in row] for row in matrix]
            scale = math.prod(sum(abs(v) for v in row) for row in floats)
            assert abs(pc.permanent_ryser(floats, mode="float") - per) <= \
                gamma(2 ** (n - 1) + n * n) * scale

    def test_exact_past_int64(self):
        # n = 12 with entries a/60: the integer numerators' row products pass
        # 2^63, and column 12 sits past the 2^10-row table.
        rng = np.random.default_rng(15)
        m = [[Fraction(int(v), 60) for v in row]
             for row in rng.integers(6, 61, size=(12, 12))]
        value = pc.permanent_ryser(m, mode="exact")
        assert isinstance(value, Fraction)
        assert value == pc.mixed_form(pc.ProductFormPolynomial(m, mode="exact"))

    def test_float_within_bound_on_dyadic_families(self):
        # Dyadic entries from the families of suite criteria 1, 3 and 5:
        # every +-1 sum is exact, so only products and the final sum round.
        rng = np.random.default_rng(16)
        cases = [dyadic(fixtures.random_doubly_stochastic(n, rng))
                 for n in (3, 7, 10, 14)]
        cases += [fixtures.random_rational_matrix(n, rng, denominator=1024)
                  for n in (2, 5, 8, 13)]
        cases += [fixtures.random_k_regular_doubly_stochastic(n, k, rng)[0]
                  for n, k in ((4, 2), (8, 4), (12, 2), (12, 4))]
        for m in cases:
            n = len(m)
            exact = pc.permanent_ryser(m, mode="exact")
            approx = pc.permanent_ryser([[float(v) for v in row] for row in m],
                                        mode="float")
            scale = math.prod(sum(abs(v) for v in row) for row in m)
            assert abs(Fraction(approx) - exact) <= \
                Fraction(gamma(2 ** (n - 1) + n)) * scale

    def test_error_bound_holds_on_criteria_families(self):
        # Float entries from the families of suite criteria 1, 3 and 5: the
        # exact permanent of those same floats is within the reported bound,
        # which is never below the docstring's bound formed exactly.
        rng = np.random.default_rng(17)
        cases = [fixtures.random_doubly_stochastic(n, rng) for n in (3, 7, 10, 14)]
        cases += [fixtures.random_rational_matrix(n, rng) for n in (2, 5, 8, 13)]
        cases += [fixtures.random_k_regular_doubly_stochastic(n, k, rng)[0]
                  for n, k in ((4, 2), (8, 4), (12, 2), (12, 4))]
        for m in cases:
            n = len(m)
            floats = [[float(v) for v in row] for row in m]
            exact = pc.permanent_ryser([[Fraction(v) for v in row]
                                        for row in floats], mode="exact")
            bound = pc.permanent_error_bound(floats)
            k = 2 ** (n - 1) + n * n
            assert Fraction(bound) >= Fraction(k, 2 ** 53 - k) * math.prod(
                sum(abs(Fraction(v)) for v in row) for row in floats)
            error = Fraction(pc.permanent_ryser(floats, mode="float")) - exact
            assert abs(error) <= Fraction(bound)

    def test_exact_cap(self):
        with pytest.raises(pc.ResourceLimitError):
            pc.permanent_ryser([[1] * 15 for _ in range(15)], mode="exact")

    def test_float_cap(self):
        with pytest.raises(pc.ResourceLimitError):
            pc.permanent_ryser([[1.0] * 21 for _ in range(21)], mode="float")

    def test_non_square(self):
        with pytest.raises(pc.InputError):
            pc.permanent_ryser([[1, 2, 3], [4, 5, 6]])

    def test_exact_mode_refuses_floats(self):
        # As ProductFormPolynomial(..., mode="exact") does.
        with pytest.raises(pc.InputError, match="exact mode"):
            pc.permanent_ryser([[0.5, 1], [1, 1]], mode="exact")


class TestPolarization:
    def test_all_odd_exponents_contribute(self):
        # p = x1^3 + x1 x2 x3: both terms have every exponent odd, but only
        # the multilinear one survives the signed average.
        p = pc.SparsePolynomial(3, {(3, 0, 0): 1, (1, 1, 1): 1}, mode="exact")
        assert pc.mixed_form(p) == Fraction(1)

    def test_coefficient_extraction_with_mixed_terms(self):
        p = pc.SparsePolynomial(3, {(1, 1, 1): Fraction(5, 7), (3, 0, 0): 2,
                                    (0, 2, 1): 3, (2, 1, 0): 11}, mode="exact")
        assert pc.mixed_form(p) == Fraction(5, 7)

    def test_matches_ryser_on_product_forms(self):
        rng = np.random.default_rng(8)
        m = fixtures.random_rational_matrix(4, rng)
        p = pc.ProductFormPolynomial(m, mode="exact")
        assert pc.mixed_form(p) == pc.permanent_ryser(m, mode="exact")

    def test_uniform_product(self):
        p = fixtures.uniform_product_polynomial(3)
        assert pc.mixed_form(p) == Fraction(2, 9)

    def test_call_count_is_2_to_n(self):
        p = fixtures.uniform_product_polynomial(5)
        p.reset_calls()
        pc.mixed_form(p)
        assert p.calls == 2 ** 5

    def test_float_past_the_table_matches_ryser(self):
        # n = 13: the first 10 vectors make a table of 1,024 sums, and the
        # 8 sign patterns of the other 3 shift it.
        rng = np.random.default_rng(9)
        m = fixtures.random_positive_matrix(13, rng)
        p = pc.ProductFormPolynomial(m, mode="float")
        assert pc.mixed_form(p) == pytest.approx(
            pc.permanent_ryser(m, mode="float"), rel=1e-9)

    def test_exact_past_the_table_matches_ryser(self):
        # n = 11: one vector past the 1,024-row table, in Fractions.
        rng = np.random.default_rng(14)
        m = [[Fraction(int(v), 7) for v in row]
             for row in rng.integers(0, 4, size=(11, 11))]
        value = pc.mixed_form(pc.ProductFormPolynomial(m, mode="exact"))
        assert isinstance(value, Fraction)
        assert value == pc.permanent_ryser(m, mode="exact")

    def test_needs_degree_equal_n_vars(self):
        p = pc.SparsePolynomial(2, {(2, 2): 1}, mode="exact")
        with pytest.raises(pc.InputError):
            pc.mixed_form(p)

    def test_exact_cap(self):
        n = 15
        p = pc.SparsePolynomial(n, {(1,) * n: 1}, mode="exact")
        with pytest.raises(pc.ResourceLimitError):
            pc.mixed_form(p)

    def test_float_cap(self):
        n = 23
        p = pc.SparsePolynomial(n, {(1,) * n: 1.0}, mode="float")
        with pytest.raises(pc.ResourceLimitError):
            pc.mixed_form(p)

    def test_explicit_vectors_validation(self):
        p = fixtures.uniform_product_polynomial(3)
        with pytest.raises(pc.InputError):
            pc.mixed_form(p, vectors=[(1, 0, 0), (0, 1, 0)])
        with pytest.raises(pc.InputError):
            pc.mixed_form(p, vectors=[(1, 0), (0, 1), (0, 0)])


class TestMixedDiscriminant:
    def test_identity_pair(self):
        eye = [[1, 0], [0, 1]]
        assert pc.mixed_discriminant([eye, eye], mode="exact") == 2

    def test_diagonal_tuple_equals_permanent(self):
        rng = np.random.default_rng(10)
        m = fixtures.random_rational_matrix(4, rng)
        mats = fixtures.diagonal_psd_tuple(m)
        assert pc.mixed_discriminant(mats, mode="exact") == \
            pc.permanent_ryser(m, mode="exact")

    def test_cap(self):
        n = 13
        mats = [np.eye(n).tolist() for _ in range(n)]
        with pytest.raises(pc.ResourceLimitError):
            pc.mixed_discriminant(mats, mode="float")

    def test_polynomial_is_used_as_is(self):
        rng = np.random.default_rng(10)
        m = fixtures.random_rational_matrix(4, rng)
        poly = pc.DeterminantalPolynomial(fixtures.diagonal_psd_tuple(m))
        for mode in (None, "exact"):
            before = poly.calls
            assert pc.mixed_discriminant(poly, mode=mode) == \
                pc.permanent_ryser(m, mode="exact")
            assert poly.calls - before == 2 ** 4
        # The representation decides exact or float; another mode is refused.
        with pytest.raises(pc.InputError, match="mode"):
            pc.mixed_discriminant(poly, mode="float")


class TestTaylorCoefficient:
    def test_binomial_cube(self):
        # (x + 2y)^3: the coefficient of x^r y^s is M_q(X) / (r! s!), with
        # e_1 r times and e_2 s times in X; for x y^2 it is 3 * 2^2 = 12
        q = pc.SparsePolynomial(2, {(3, 0): 1, (2, 1): 6, (1, 2): 12, (0, 3): 8},
                                mode="exact")
        e1, e2 = (1, 0), (0, 1)
        assert pc.mixed_form(q, [e1, e2, e2]) == 12 * math.factorial(2)
        assert pc.mixed_form(q, [e1, e1, e1]) == 1 * math.factorial(3)


class TestExactMixedPartial:
    def test_sparse_is_coefficient_lookup(self):
        p = pc.SparsePolynomial(2, {(1, 1): Fraction(9, 4), (2, 0): 1}, mode="exact")
        assert pc.exact_mixed_partial(p) == Fraction(9, 4)

    def test_product_is_permanent(self):
        rng = np.random.default_rng(12)
        m = fixtures.random_rational_matrix(4, rng)
        p = pc.ProductFormPolynomial(m, mode="exact")
        assert pc.exact_mixed_partial(p) == pc.permanent_ryser(m, mode="exact")

    def test_determinantal_is_mixed_discriminant(self):
        rng = np.random.default_rng(13)
        mats = fixtures.doubly_stochastic_psd_tuple(3, rng)
        p = pc.DeterminantalPolynomial(mats, mode="float")
        assert pc.exact_mixed_partial(p) == pytest.approx(
            pc.mixed_discriminant(mats, mode="float"), rel=1e-12)

    def test_degree_mismatch(self):
        p = pc.SparsePolynomial(3, {(2, 0, 0): 1, (0, 1, 1): 1}, mode="exact")
        with pytest.raises(pc.InputError):
            pc.exact_mixed_partial(p)

    @pytest.mark.parametrize("kind", ["function", "derivative-slice"])
    def test_plain_oracle_refused(self, kind):
        if kind == "function":
            poly = pc.FunctionOracle(2, 2, lambda x: x[0] * x[1])
        else:
            poly = pc.DerivativeSliceOracle(fixtures.uniform_product_polynomial(3), 1)
        with pytest.raises(pc.InputError) as info:
            pc.exact_mixed_partial(poly)
        assert str(info.value) == (
            f"no exact mixed-partial route for {type(poly).__name__}")
