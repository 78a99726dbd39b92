"""Brute-force reference computations: permanents, polarization, discriminants."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures, oracles
from polycap.polynomials import _integer_rows


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


def permanent_by_expansion(m):
    """per(m) by expansion along the rows in turn, one entry per column subset
    of the rows still to expand (the bitmask form of the cofactor expansion)."""
    n = len(m)
    per = {0: 1}
    for mask in range(1, 1 << n):
        i = n - bin(mask).count("1")
        per[mask] = sum(m[i][j] * per[mask ^ (1 << j)]
                        for j in range(n) if mask >> j & 1)
    return per[(1 << n) - 1]


def glynn_row_major(m):
    """The float Glynn sum as the row-major kernel formed it: (2^10, n) blocks
    of points, one np.prod along each row, and the shifts of the 2^10-point
    table summed in order."""
    a = np.array(m, dtype=float)
    n = len(a)

    def sign_table(vectors):
        table, signs = np.zeros((1, n)), np.ones(1, dtype=int)
        for v in vectors:
            table = np.concatenate([table + v, table - v])
            signs = np.concatenate([signs, -signs])
        return table, signs

    table, signs = sign_table(a.T[1:11])
    shifts, shift_signs = sign_table(a.T[11:])
    total = 0
    for shift, sign in zip(shifts, shift_signs.tolist()):
        points = table + (shift + a.T[:1][:, None, :])
        values = np.prod(points.reshape(-1, n), axis=1)
        total = total + sign * (values.reshape(-1, len(table)) @ signs)
    return total.tolist()[0] / 2.0 ** (n - 1)


def int64_groups(m):
    """The exact kernel's view of the rational matrix m: (numerators, row groups)."""
    return oracles._int64_groups(_integer_rows(np.array(m, dtype=object))[0])


def error_bound_by_fractions(m):
    """The float permanent's error bound formed with one Fraction per entry."""
    rows = [[abs(Fraction(float(v))) for v in r] for r in m]
    n = len(rows)
    k = (1 << (n - 1)) + n * n
    bound = Fraction(k, (1 << 53) - k) * math.prod(sum(r) for r in rows)
    try:
        value = float(bound)
    except OverflowError:
        return math.inf
    return value if value >= bound else math.nextafter(value, math.inf)


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
        # n = 12 with entries a/60: each row's numerators over its common
        # denominator (a divisor of 60) sum to at most 720, and the twelve
        # row bounds multiply past 2^62, so the rows run in several int64
        # groups; column 12 sits past the 2^10-point table.
        rng = np.random.default_rng(15)
        m = [[Fraction(int(v), 60) for v in row]
             for row in rng.integers(6, 61, size=(12, 12))]
        N, groups = int64_groups(m)
        assert N.dtype == np.int64 and len(groups) >= 2
        assert [i for g in groups for i in range(12)[g]] == list(range(12))
        value = pc.permanent_ryser(m, mode="exact")
        assert isinstance(value, Fraction)
        assert value == permanent_by_expansion(m)
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

    @pytest.mark.parametrize("n", range(11, 21))
    def test_float_equals_the_row_major_kernel(self, n):
        # n >= 11 puts vectors past the 2^10-point table, so the shift loop
        # runs: the point-major blocks must add and multiply in the same order.
        rng = np.random.default_rng(70 + n)
        m = rng.random((n, n)) * 10.0 ** rng.integers(-3, 4, (n, 1))
        m[rng.random((n, n)) < 0.3] *= -1
        value = pc.permanent_ryser(m.tolist(), mode="float")
        assert type(value) is float
        assert value == glynn_row_major(m)

    def test_exact_numerator_of_2_to_70(self):
        # A numerator of 2^70 leaves int64: the same sum runs over Python
        # ints, in one group.
        rng = np.random.default_rng(72)
        m = [[Fraction(int(v), 3) for v in row]
             for row in rng.integers(-9, 10, size=(11, 11))]
        m[4][7] = Fraction(2 ** 70)
        N, groups = int64_groups(m)
        assert N.dtype == object and groups == [slice(None)]
        assert pc.permanent_ryser(m, mode="exact") == permanent_by_expansion(m)

    def test_exact_negative_entries(self):
        rng = np.random.default_rng(73)
        m = [[Fraction(int(a), int(b)) for a, b in zip(row, dens)]
             for row, dens in zip(rng.integers(-30, 31, (12, 12)),
                                  rng.integers(1, 30, (12, 12)))]
        assert pc.permanent_ryser(m, mode="exact") == permanent_by_expansion(m)

    def test_exact_row_of_one_huge_and_many_small_entries(self):
        # Row 0's bound is just under 2^62, so it is a group on its own; row 1
        # holds 1 beside entries 2^-40, numerators 2^40 and 1.
        rng = np.random.default_rng(74)
        n = 11
        m = [[Fraction(int(v), 5) for v in row]
             for row in rng.integers(0, 6, size=(n, n))]
        m[0] = [Fraction(2 ** 61 + 1)] + [Fraction(1)] * (n - 1)
        m[1] = [Fraction(1)] + [Fraction(1, 2 ** 40)] * (n - 1)
        N, groups = int64_groups(m)
        assert N.dtype == np.int64 and groups[0] == slice(0, 1)
        assert pc.permanent_ryser(m, mode="exact") == permanent_by_expansion(m)

    def test_error_bound_equals_the_fraction_formula(self):
        rng = np.random.default_rng(75)
        for n in range(1, 21):
            m = rng.random((n, n)) * 10.0 ** rng.integers(-20, 0, (n, n))
            m[rng.random((n, n)) < 0.3] *= -1
            m[rng.random((n, n)) < 0.1] = 0.0
            m[rng.random((n, n)) < 0.1] = 5e-324
            m = m.tolist()
            m[0][0] = 1e300
            assert pc.permanent_error_bound(m) == error_bound_by_fractions(m)
        for m in ([[0.0]], [[5e-324, -5e-324], [0.0, 1.0]],
                  [[-0.5, 0.25, 1e-310], [1.0, 0.0, -3.0], [7.0, 0.1, 0.2]]):
            assert pc.permanent_error_bound(m) == error_bound_by_fractions(m)
        # Past the float range: inf from both.
        big = [[1e300, -1e300], [1e300, 1e300]]
        assert pc.permanent_error_bound(big) == error_bound_by_fractions(big) == math.inf

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

    def test_call_count_is_2_to_n_minus_1(self):
        # Homogeneity pairs b with -b: b_1 = +1 is fixed.
        p = fixtures.uniform_product_polynomial(5)
        p.reset_calls()
        pc.mixed_form(p)
        assert p.calls == 2 ** 4

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (6, 3)])
    def test_derivative_slice_matches_permanent(self, n, k):
        # The slice oracle is a form of degree n - k, so the halving holds
        # for it too; its mixed partial is that of p, the permanent.
        rng = np.random.default_rng(60 + n)
        m = fixtures.random_rational_matrix(n, rng)
        p = pc.ProductFormPolynomial(m, mode="exact")
        value = pc.mixed_form(pc.DerivativeSliceOracle(p, k))
        assert isinstance(value, Fraction)
        assert value == pc.permanent_ryser(m, mode="exact")

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


class TestMixedDiscriminant:
    def test_identity_pair(self):
        eye = [[1, 0], [0, 1]]
        assert pc.mixed_discriminant([eye, eye]) == 2

    def test_diagonal_tuple_equals_permanent(self):
        rng = np.random.default_rng(10)
        m = fixtures.random_rational_matrix(4, rng)
        mats = fixtures.diagonal_psd_tuple(m)
        assert pc.mixed_discriminant(mats) == \
            pc.permanent_ryser(m, mode="exact")

    def test_cap(self):
        n = 13
        mats = [np.eye(n).tolist() for _ in range(n)]
        with pytest.raises(pc.ResourceLimitError):
            pc.mixed_discriminant(mats)

    def test_polynomial_is_used_as_is(self):
        rng = np.random.default_rng(10)
        m = fixtures.random_rational_matrix(4, rng)
        poly = pc.DeterminantalPolynomial(fixtures.diagonal_psd_tuple(m))
        assert pc.mixed_discriminant(poly) == pc.permanent_ryser(m, mode="exact")
        assert poly.calls == 2 ** 3


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
            pc.mixed_discriminant(mats), rel=1e-12)

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
