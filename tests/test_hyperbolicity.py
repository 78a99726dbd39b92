"""Real-rootedness of restrictions and stability diagnostics."""
import math
import warnings

import numpy as np
import pytest

import polycap as pc
from polycap import fixtures
from polycap.approx import DerivativeSliceOracle
from polycap.hyperbolicity import root_profile
from polycap.polynomials import SLICE_DEGREE_CAP


def two_squares():
    # x1^2 + x2^2: nonnegative coefficients but not real-rooted along 1
    return pc.SparsePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}, mode="float")


def lorentz_quadratic():
    # x0^2 - x1^2 - x2^2: real-rooted along (1, 0, 0) though its
    # coefficients are signed
    return pc.SparsePolynomial(3, {(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): -1},
                               mode="exact", allow_signed=True)


class TestRestrictedRoots:
    def test_root_count_matches_degree(self):
        p = fixtures.uniform_product_polynomial(3, mode="float")
        prof = root_profile(p, (0.3, 1.7, 0.9), (1.0, 1.0, 1.0))
        assert len(prof.roots) == 3
        assert prof.all_real

    def test_known_simple_roots(self):
        # eigenvalue convention: roots of t -> p(x - t * e); for p = x1 * x2
        # at x = (2, 3) along e = (1, 1) they sit at 2 and 3
        p = pc.SparsePolynomial(2, {(1, 1): 1.0}, mode="float")
        roots = root_profile(p, (2.0, 3.0), (1.0, 1.0)).roots
        got = sorted(r.real for r in roots)
        assert got == pytest.approx([2.0, 3.0], abs=1e-9)
        assert max(abs(r.imag) for r in roots) < 1e-9

    def test_complex_pair_detected(self):
        # x1^2 + x2^2 at (1, 0) along (0, 1): 1 + t^2, roots +-i
        roots = root_profile(two_squares(), (1.0, 0.0), (0.0, 1.0)).roots
        ims = sorted(r.imag for r in roots)
        assert ims == pytest.approx([-1.0, 1.0], abs=1e-9)

    @pytest.mark.parametrize("label", ["float-product", "exact-product",
                                       "pencil"])
    def test_closed_form_root_product(self, label):
        # p(x - t d) = p(d) prod_i (r_i - t), so prod(roots) p(d) = p(x)
        rng = np.random.default_rng(31)
        if label == "pencil":
            p = pc.DeterminantalPolynomial(
                fixtures.doubly_stochastic_psd_tuple(5, rng), mode="float")
        elif label == "exact-product":
            p = pc.ProductFormPolynomial(rng.integers(0, 10, (5, 5)).tolist())
            assert p.mode == "exact"
        else:
            p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(5, rng),
                                         mode="float")
        d = (1.0,) * 5
        for _ in range(5):
            x = tuple(rng.normal(0, 1, 5))
            prof = root_profile(p, x, d)
            assert prof.all_real
            prod = complex(np.prod(prof.roots)) * p.evaluate(d)
            assert prod == pytest.approx(p.evaluate(x), rel=1e-12)

    def test_nonpositive_direction_value_rejected(self):
        p = lorentz_quadratic()
        # p(1, 1, 1) = -1: not a valid hyperbolicity direction
        with pytest.raises(pc.InputError):
            root_profile(p, (0.5, 0.1, 0.1), (1.0, 1.0, 1.0))
        # light-cone direction: p vanishes, the slice degenerates
        with pytest.raises(pc.InputError):
            root_profile(p, (0.5, 0.1, 0.1), (1.0, 1.0, 0.0))

    @pytest.mark.parametrize("label", ["product", "pencil"])
    def test_closed_form_at_a_zero_direction_value_rejected(self, label):
        # a_2.d = 0, and A(d) = diag(2, 0) is singular: p(d) = 0 either way
        p = (pc.ProductFormPolynomial([[1.0, 0.0], [0.0, 1.0]])
             if label == "product" else
             pc.DeterminantalPolynomial([[[1.0, 0.0], [0.0, 0.0]]] * 2))
        d = (1.0, 0.0) if label == "product" else (1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pc.InputError, match="positive value"):
                root_profile(p, (0.5, 0.1), d)

    def test_closed_form_roots_past_the_float_range_refused(self):
        # p(d) = 1e8, but a_1.x = 2e308 overflows
        p = pc.ProductFormPolynomial([[1e308, 0.0], [0.0, 1e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pc.ResourceLimitError, match="not finite"):
                root_profile(p, (2.0, 1.0), (1.0, 1.0))

    def test_degree_zero_refused_before_evaluation(self):
        p = pc.SparsePolynomial(2, {(0, 0): 1.0}, mode="float")
        with pytest.raises(pc.InputError, match="degree >= 1"):
            root_profile(p, (1.0, 0.0), (1.0, 1.0))
        assert p.calls == 0

    def test_bad_lengths(self):
        p = fixtures.uniform_product_polynomial(2, mode="float")
        with pytest.raises(pc.InputError):
            root_profile(p, (1.0,), (1.0, 1.0))

    def test_degree_cap_refused_before_evaluation(self):
        d = SLICE_DEGREE_CAP + 1
        p = pc.SparsePolynomial(2, {(d, 0): 1.0, (0, d): 1.0}, mode="float")
        with pytest.raises(pc.ResourceLimitError, match="exceeds the cap"):
            root_profile(p, (1.0, 0.0), (1.0, 1.0))
        assert p.calls == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_slice_refused(self):
        big = [[1e300, 0.0], [0.0, 1e300]]
        p = pc.DeterminantalPolynomial([big, big], mode="float")
        with pytest.raises(pc.ResourceLimitError, match="overflows the float"):
            root_profile(p, (1.0, 0.5), (1.0, 1.0))


class TestRootProfile:
    def test_calls_per_slice(self):
        # A product form's roots are closed-form, and so are its expansion's:
        # p(direction) is the one evaluation of each.
        rng = np.random.default_rng(37)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                     mode="float")
        q = p.expand()
        for poly in (p, q):
            root_profile(poly, (0.3, -1.2, 0.8, 2.0), (1.0, 1.0, 1.0, 1.0))
            assert poly.calls == 1

    @pytest.mark.parametrize("n, tol", [(4, 1e-9), (6, 1e-9), (8, 1e-5)])
    def test_expansion_roots_match_the_product_form(self, n, tol):
        # The expanded slice's roots against the product form's exact ones,
        # relative to the largest. At n = 8 one of the 50 slices has two
        # roots 1.1e-4 apart, which its float coefficients place to 1e-6.
        p = fixtures.random_product_polynomial(n, np.random.default_rng(n))
        points = np.array([np.random.default_rng(ss).standard_normal(n)
                           for ss in np.random.SeedSequence(0).spawn(50)])
        exact, _ = p.line_roots(points, np.ones(n))
        roots, _ = p.expand().line_roots(points, np.ones(n))
        for got, want in zip(roots, exact):
            assert np.abs(got.imag).max() == 0
            assert np.sort(got.real) == pytest.approx(
                np.sort(want), abs=tol * np.abs(want).max())

    def test_repeated_root_classified_real(self):
        # ((x1+..+x4)/4)^4 has a quadruple root on every slice; the cluster
        # of its expansion's roots spreads like eps^(1/4) and must still
        # count as real.
        p = fixtures.uniform_product_polynomial(4, mode="float").expand()
        prof = root_profile(p, (0.9, 1.3, 0.4, 1.1), (1.0,) * 4)
        assert prof.all_real
        assert prof.max_imag > 1e-6  # real by the cluster tolerance alone

    def test_genuine_complex_pair_not_masked(self):
        prof = root_profile(two_squares(), (1.0, 0.5), (1.0, 1.0))
        assert not prof.all_real
        assert prof.max_imag > 0.1

    @pytest.mark.parametrize("label", ["function", "derivative-slice"])
    def test_plain_oracles_refused_before_evaluation(self, label):
        # A plain oracle has no slice roots of its own; the half-plane check,
        # which only evaluates, still runs on it.
        base = fixtures.uniform_product_polynomial(3, mode="float")
        p = (pc.FunctionOracle(3, 3, base.evaluate) if label == "function"
             else DerivativeSliceOracle(base, 1))
        n = p.n_vars
        with pytest.raises(pc.InputError, match="line_roots is undefined"):
            root_profile(p, (0.5,) * n, (1.0,) * n)
        with pytest.raises(pc.InputError, match="line_roots is undefined"):
            pc.real_rootedness_check(p, trials=5)
        assert p.calls == 0
        ok, stats = pc.half_plane_sample_check(p, samples=20)
        assert ok and p.calls == 2 * 20


class TestRealRootednessCheck:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_products_pass(self, n):
        p = fixtures.uniform_product_polynomial(n, mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=25, seed=11)
        assert ok, f"max_imag {worst.max_imag}"

    @pytest.mark.parametrize("label", ["uniform", "random"])
    def test_product_forms_pass_at_degree_cap(self, label):
        n = SLICE_DEGREE_CAP
        p = (fixtures.uniform_product_polynomial(n, mode="float")
             if label == "uniform" else
             fixtures.random_product_polynomial(n, np.random.default_rng(0)))
        ok, worst = pc.real_rootedness_check(p, trials=10, seed=0)
        assert ok, f"max_imag {worst.max_imag}"

    @pytest.mark.parametrize("label", ["perfect-power", "power-sum"])
    def test_sparse_slices_at_the_degree_cap(self, label):
        # (x1+x2)^46/2^46 has a 46-fold real root on every slice, which the
        # cluster tolerance keeps real; x1^46 + x2^46 has complex ones.
        n = SLICE_DEGREE_CAP
        if label == "perfect-power":
            p = pc.SparsePolynomial(2, {(k, n - k): math.comb(n, k) / 2 ** n
                                        for k in range(n + 1)})
        else:
            p = pc.SparsePolynomial(2, {(n, 0): 1.0, (0, n): 1.0})
        # 100 trials take in a slice with x1 - x2 = 0.0024, where the roots
        # cluster at that scale.
        ok, worst = pc.real_rootedness_check(p, trials=100, seed=0)
        assert ok == (label == "perfect-power"), f"max_imag {worst.max_imag}"
        prof = root_profile(p, (0.3, -1.1), (1.0, 1.0))
        assert prof.all_real == ok
        if ok:  # the cluster sits about its mean, the 46-fold root
            assert np.mean(prof.roots) == pytest.approx(-0.4, abs=1e-9)

    def test_uniform_roots_stay_near_real_at_degree_20(self):
        # the 20-fold root comes in closed form, with no spread at all
        p = fixtures.uniform_product_polynomial(20, mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=20, seed=0)
        assert ok
        assert worst.max_imag < 2

    @pytest.mark.parametrize("label", ["uniform-product", "random-product",
                                       "pencil"])
    def test_closed_forms_pass_past_the_fit_cap(self, label):
        # SLICE_DEGREE_CAP holds for sparse slices alone.
        n = SLICE_DEGREE_CAP + 14
        rng = np.random.default_rng(0)
        p = {"uniform-product": lambda: fixtures.uniform_product_polynomial(
                 n, mode="float"),
             "random-product": lambda: fixtures.random_product_polynomial(n, rng),
             "pencil": lambda: pc.DeterminantalPolynomial(
                 fixtures.doubly_stochastic_psd_tuple(n, rng), mode="float"),
             }[label]()
        ok, worst = pc.real_rootedness_check(p, trials=10, seed=0)
        assert ok, f"max_imag {worst.max_imag}"
        assert p.calls == 1

    def test_random_product_passes(self):
        rng = np.random.default_rng(32)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(5, rng),
                                     mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=25, seed=12)
        assert ok, f"max_imag {worst.max_imag}"

    def test_determinantal_passes(self):
        rng = np.random.default_rng(33)
        p = pc.DeterminantalPolynomial(fixtures.doubly_stochastic_psd_tuple(4, rng),
                                       mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=25, seed=13)
        assert ok, f"max_imag {worst.max_imag}"

    def test_two_squares_fails(self):
        ok, worst = pc.real_rootedness_check(two_squares(), trials=10, seed=14)
        assert not ok
        assert worst.max_imag > 0.1

    def test_power_sum_fails(self):
        ok, worst = pc.real_rootedness_check(fixtures.power_sum(3, mode="float"),
                                             trials=10, seed=15)
        assert not ok

    @pytest.mark.parametrize("degree", [12, 42])
    def test_complex_pair_beside_a_repeated_root_fails(self, degree):
        # ((x1+x2)/2)^(n-2) (x1^2+x2^2)/2: the pair is as far from the
        # (n-2)-fold root as a perfect power's cluster spreads, so the
        # backward error it is allowed must not grow like 10^m.
        m = degree - 2
        terms = {}
        for k in range(m + 1):
            for e in ((k + 2, m - k), (k, m - k + 2)):
                terms[e] = terms.get(e, 0) + math.comb(m, k) / 2 ** (m + 1)
        ok, worst = pc.real_rootedness_check(pc.SparsePolynomial(2, terms),
                                             trials=50, seed=0)
        assert not ok

    def test_squared_two_squares_fails(self):
        # (x1^2 + x2^2)^2: repeated complex pairs must not be excused
        p = pc.SparsePolynomial(2, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0},
                                mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=10, seed=16)
        assert not ok
        assert worst.max_imag > 0.1

    def test_lorentz_along_time_axis(self):
        p = lorentz_quadratic()
        rng = np.random.default_rng(17)
        for x in rng.standard_normal((25, 3)):
            prof = root_profile(p, x, (1.0, 0.0, 0.0))
            assert prof.all_real, f"max_imag {prof.max_imag}"

    def test_derivative_preserves_rootedness(self):
        rng = np.random.default_rng(34)
        q = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                     mode="float")
        r = pc.derivative_reduce(q.expand())
        ok, _ = pc.real_rootedness_check(q, trials=15, seed=18)
        ok_r, _ = pc.real_rootedness_check(r, trials=15, seed=18)
        assert ok and ok_r

    def test_one_batch_per_window_round(self):
        # p(d) once per block, and no other evaluation: 1 for the product
        # form and 1 for its expansion. One root_profile per trial would
        # spend p(d) 50 times.
        from polycap.hyperbolicity import _root_profiles
        n = 6
        product = fixtures.random_product_polynomial(n, np.random.default_rng(0))
        points = [np.random.default_rng(ss).standard_normal(n)
                  for ss in np.random.SeedSequence(0).spawn(50)]
        for p in (product, product.expand()):
            profiles = _root_profiles(p, points, np.ones(n))
            assert p.calls == 1
            for x, prof in zip(points, profiles):
                assert root_profile(p, x, np.ones(n)) == prof  # bit for bit
            p.reset_calls()
            pc.real_rootedness_check(p, trials=50, seed=0)
            assert p.calls == 1

    @pytest.mark.parametrize("label", ["random-product", "pencil",
                                       "two-squares"])
    def test_blocks_match_per_trial_profiles(self, label):
        # 130 trials are three blocks; the worst is the first maximum of
        # (not all_real, max_imag) over the same SeedSequence children, and
        # each block evaluates p(d) once where each trial did.
        p = {"random-product": lambda: fixtures.random_product_polynomial(
                 6, np.random.default_rng(1)),
             "pencil": lambda: pc.DeterminantalPolynomial(
                 fixtures.doubly_stochastic_psd_tuple(
                     6, np.random.default_rng(1)), mode="float"),
             "two-squares": two_squares}[label]()
        n = p.n_vars
        worst = None
        for ss in np.random.SeedSequence(7).spawn(130):
            prof = root_profile(p, np.random.default_rng(ss).standard_normal(n),
                                (1.0,) * n)
            if worst is None or ((not prof.all_real, prof.max_imag)
                                 > (not worst.all_real, worst.max_imag)):
                worst = prof
        loop_calls = p.calls
        p.reset_calls()
        ok, got = pc.real_rootedness_check(p, trials=130, seed=7)
        assert got == worst
        assert ok == worst.all_real
        assert p.calls == loop_calls - 130 + 3

    def test_trials_validation(self):
        with pytest.raises(pc.InputError):
            pc.real_rootedness_check(two_squares(), trials=0)


class TestHalfPlaneSampleCheck:
    def test_stable_families_pass(self):
        p = fixtures.uniform_product_polynomial(3, mode="float")
        ok, stats = pc.half_plane_sample_check(p, samples=300, seed=12)
        assert ok
        assert stats["worst_margin"] >= -1e-9
        assert stats["samples"] == 300

    def test_power_sum_fails_with_witness(self):
        ok, stats = pc.half_plane_sample_check(fixtures.power_sum(3, mode="float"),
                                               samples=300, seed=13)
        assert not ok
        pairs = stats["witness"]
        assert pairs is not None and len(pairs) == 3
        # the witness itself certifies the failure: Re z > 0 but |p(z)| < p(Re z)
        p = fixtures.power_sum(3, mode="float")
        z = tuple(complex(re, im) for re, im in pairs)
        re = tuple(v.real for v in z)
        assert all(v > 0 for v in re)
        assert abs(p.evaluate(z)) < p.evaluate(re)

    def test_overflowing_samples_refused(self):
        # p overflows at most samples: the check refuses them rather than
        # passing on the few that stay finite
        p = pc.ProductFormPolynomial([[3e5] * 40] * 40, mode="float")
        with pytest.raises(pc.ResourceLimitError, match="overflows the float"):
            pc.half_plane_sample_check(p)

    def test_samples_validation(self):
        with pytest.raises(pc.InputError):
            pc.half_plane_sample_check(two_squares(), samples=0)


@pytest.mark.parametrize("check", [pc.real_rootedness_check,
                                   pc.half_plane_sample_check])
def test_negative_seed_refused_before_evaluation(check):
    p = fixtures.uniform_product_polynomial(3, mode="float")
    with pytest.raises(pc.InputError, match="seed must be >= 0"):
        check(p, seed=-1)
    assert p.calls == 0
