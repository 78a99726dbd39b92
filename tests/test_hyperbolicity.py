"""Real-rootedness of restrictions and stability diagnostics."""
import numpy as np
import pytest

import polycap as pc
from polycap import fixtures
from polycap.hyperbolicity import SLICE_DEGREE_CAP, root_profile


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
        assert prof.residual <= 1e-6

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

    def test_product_identity_residual(self):
        rng = np.random.default_rng(31)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(5, rng),
                                     mode="float")
        for _ in range(5):
            x = tuple(rng.normal(0, 1, 5))
            assert root_profile(p, x, (1.0,) * 5).residual <= 1e-6

    def test_nonpositive_direction_value_rejected(self):
        p = lorentz_quadratic()
        # p(1, 1, 1) = -1: not a valid hyperbolicity direction
        with pytest.raises(pc.InputError):
            root_profile(p, (0.5, 0.1, 0.1), (1.0, 1.0, 1.0))
        # light-cone direction: p vanishes, the slice degenerates
        with pytest.raises(pc.InputError):
            root_profile(p, (0.5, 0.1, 0.1), (1.0, 1.0, 0.0))

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
        # p(direction) and p(point) in one batch, then n + 1 = 5 nodes for
        # the first window and 5 for the rescaled one: p(direction) once.
        rng = np.random.default_rng(37)
        p = pc.ProductFormPolynomial(fixtures.random_positive_matrix(4, rng),
                                     mode="float")
        root_profile(p, (0.3, -1.2, 0.8, 2.0), (1.0, 1.0, 1.0, 1.0))
        assert p.calls == 12

    def test_repeated_root_classified_real(self):
        # ((x1+..+x4)/4)^4 has a quadruple root on every slice; the extracted
        # cluster spreads like eps^(1/4) and must still count as real.
        p = fixtures.uniform_product_polynomial(4, mode="float")
        prof = root_profile(p, (0.9, 1.3, 0.4, 1.1), (1.0,) * 4)
        assert prof.all_real
        assert prof.residual <= 1e-6

    def test_genuine_complex_pair_not_masked(self):
        prof = root_profile(two_squares(), (1.0, 0.5), (1.0, 1.0))
        assert not prof.all_real
        assert prof.max_imag > 0.1


class TestRealRootednessCheck:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_uniform_products_pass(self, n):
        p = fixtures.uniform_product_polynomial(n, mode="float")
        ok, worst = pc.real_rootedness_check(p, trials=25, seed=11)
        assert ok, f"max_imag {worst.max_imag}"

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

    def test_samples_validation(self):
        with pytest.raises(pc.InputError):
            pc.half_plane_sample_check(two_squares(), samples=0)
