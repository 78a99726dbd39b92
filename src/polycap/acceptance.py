"""Built-in check suite: ten end-to-end criteria covering the certified
bounds, the oracles, and the diagnostics, each with pinned tolerances,
deterministic seeds, and a wall-clock budget where one applies.

Each criterion returns a CriterionResult; ``run_all`` executes all ten and
the CLI ``suite`` command prints one pass/fail line per criterion.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fixtures
from .approx import DerivativeSliceOracle, estimate_mixed_partial, guarantee_factor
from .bounds import (
    _phi,
    _uniform_factor,
    contraction_capacity_check,
    entropic_inequality_check,
    rank_ladder_bound,
    sparse_permanent_bound,
    vdw_factor,
)
from .capacity import capacity_minimize, sinkhorn_scale
from .errors import InputError
from .hyperbolicity import half_plane_sample_check, real_rootedness_check
from .oracles import mixed_discriminant, mixed_form, permanent_ryser
from .polynomials import (
    DeterminantalPolynomial,
    ProductFormPolynomial,
    SparsePolynomial,
    derivative_reduce,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.seconds:.2f}s)  {self.detail}"


def _run(name, budget, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except Exception as exc:  # noqa: BLE001 - the suite reports, not raises
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    seconds = time.perf_counter() - start
    if passed and budget is not None and seconds > budget:
        passed = False
        detail += f" [exceeded {budget:.0f}s budget]"
    return CriterionResult(name, passed, detail, seconds)


def criterion_1_permanent_floor() -> CriterionResult:
    """200 Sinkhorn-balanced matrices, n in 3..10: permanent >= n!/n^n - 1e-10;
    the uniform matrix attains the floor exactly. Budget 120 s."""
    def body():
        rng = np.random.default_rng(101)
        checked = 0
        worst = math.inf
        for n in range(3, 11):
            floor = float(vdw_factor(n))
            for _ in range(25):
                m = fixtures.random_doubly_stochastic(n, rng)
                per = float(permanent_ryser(m, mode="float"))
                slack = per - floor
                worst = min(worst, slack)
                if slack < -1e-10:
                    raise AssertionError(
                        f"n={n}: permanent {per} below floor {floor}")
                checked += 1
            exact = permanent_ryser(fixtures.uniform_matrix(n))
            if exact != vdw_factor(n):
                raise AssertionError(
                    f"uniform n={n}: exact permanent {exact} != {vdw_factor(n)}")
        return (f"{checked} balanced matrices >= n!/n^n (worst slack "
                f"{worst:.3e}); uniform matrix exact for n=3..10")

    return _run("01-permanent-floor-doubly-stochastic", 120.0, body)


def criterion_2_capacity_sandwich() -> CriterionResult:
    """100 random product forms, n <= 10: (n!/n^n) Cap <= per <= Cap with
    relative slack >= -1e-7. Budget 300 s."""
    def body():
        rng = np.random.default_rng(202)
        worst_upper = math.inf
        worst_lower = math.inf
        for i in range(100):
            n = 2 + i % 9
            poly = fixtures.random_product_polynomial(n, rng)
            cap = capacity_minimize(poly).value
            per = float(permanent_ryser(poly.matrix, mode="float"))
            scale = max(1.0, abs(per))
            upper_slack = (cap - per) / scale
            lower_slack = (per - float(vdw_factor(n)) * cap) / scale
            worst_upper = min(worst_upper, upper_slack)
            worst_lower = min(worst_lower, lower_slack)
            if upper_slack < -1e-7 or lower_slack < -1e-7:
                raise AssertionError(
                    f"case {i} (n={n}): per={per}, cap={cap}, "
                    f"slacks {upper_slack:.3e}/{lower_slack:.3e}")
        return (f"100 product forms sandwiched; worst upper slack "
                f"{worst_upper:.3e}, worst lower slack {worst_lower:.3e}")

    return _run("02-capacity-sandwich-product-forms", 300.0, body)


def criterion_3_polarization_exact() -> CriterionResult:
    """Signed-average mixed form equals the Glynn permanent exactly on 50
    random rational matrices (n <= 8), and the mixed discriminant of diagonal
    tuples equals the permanent exactly."""
    def body():
        rng = np.random.default_rng(303)
        for i in range(50):
            n = 2 + i % 7
            m = fixtures.random_rational_matrix(n, rng)
            poly = ProductFormPolynomial(m, mode="exact")
            a = mixed_form(poly)
            b = permanent_ryser(m)
            if a != b:
                raise AssertionError(
                    f"case {i} (n={n}): polarization {a} != permanent {b}")
        for n in range(2, 9):
            m = fixtures.random_rational_matrix(n, rng)
            d = mixed_discriminant(fixtures.diagonal_psd_tuple(m))
            b = permanent_ryser(m)
            if d != b:
                raise AssertionError(
                    f"diagonal tuple n={n}: mixed discriminant {d} != "
                    f"permanent {b}")
        return ("50 rational matrices: signed average == permanent exactly; "
                "diagonal tuples n=2..8: mixed discriminant == permanent exactly")

    return _run("03-polarization-matches-permanent", None, body)


def criterion_4_contraction() -> CriterionResult:
    """Cap(dp/dx_0 at x_0=0) >= ((n-1)/n)^(n-1) Cap(p) - 1e-7 on 100 product
    forms (n <= 8), with equality at the 2x2 uniform matrix to 1e-9."""
    def body():
        rng = np.random.default_rng(404)
        worst = math.inf
        for i in range(100):
            n = 2 + i % 7
            poly = fixtures.random_product_polynomial(n, rng)
            cap_q, cap_r, ratio = contraction_capacity_check(poly, tol=1e-7)
            if cap_r is None:
                continue
            factor = float(_phi(n))
            worst = min(worst, ratio - factor)
        cap_q, cap_r, ratio = contraction_capacity_check(
            fixtures.uniform_product_polynomial(2, mode="float"))
        if abs(ratio - 0.5) > 1e-9:
            raise AssertionError(
                f"uniform 2x2: contraction ratio {ratio} != 1/2")
        return (f"100 product forms: Cap(r)/Cap(q) - ((n-1)/n)^(n-1) >= "
                f"{worst:.3e}; uniform 2x2 attains equality")

    return _run("04-contraction-capacity-drop", None, body)


def criterion_5_sparse_support() -> CriterionResult:
    """Two-per-row circulant: permanent = bound = 1/4 exactly (1e-12); random
    k-regular matrices (k in 2..3, n <= 12): permanent >= bound - 1e-9."""
    def body():
        circ = fixtures.two_per_row_circulant()
        per = permanent_ryser(circ)
        if per != Fraction(1, 4):
            raise AssertionError(f"circulant permanent {per} != 1/4")
        bound = sparse_permanent_bound(circ, k=2)
        if abs(bound - 0.25) > 1e-12 or abs(float(per) - bound) > 1e-12:
            raise AssertionError(
                f"circulant: bound {bound} and permanent {float(per)} "
                "should both be 0.25")

        rng = np.random.default_rng(505)
        checked = 0
        worst = math.inf
        for k in (2, 3):
            for n in (4, 6, 8, 10, 12):
                for _ in range(3):
                    m, perms = fixtures.random_k_regular_doubly_stochastic(
                        n, k, rng)
                    per_exact = permanent_ryser(m)
                    b = sparse_permanent_bound(m, k=k)
                    slack = float(per_exact) - b
                    worst = min(worst, slack)
                    if slack < -1e-9:
                        raise AssertionError(
                            f"n={n}, k={k}: permanent {float(per_exact)} "
                            f"below bound {b}")
                    if k == 2 and len(set(perms)) == 2:
                        s1, s2 = perms
                        comp = tuple(s2[s1.index(j)] for j in range(n))
                        seen = [False] * n
                        cycles = 0
                        for start in range(n):
                            if not seen[start]:
                                cycles += 1
                                j = start
                                while not seen[j]:
                                    seen[j] = True
                                    j = comp[j]
                        formula = Fraction(2 ** cycles, 2 ** n)
                        if per_exact != formula:
                            raise AssertionError(
                                f"2-regular n={n}: permanent {per_exact} != "
                                f"cycle formula {formula}")
                    checked += 1
        return (f"circulant equality exact; {checked} k-regular matrices "
                f">= support bound (worst slack {worst:.3e})")

    return _run("05-sparse-support-permanent-bound", None, body)


def criterion_6_ladder_telescopes() -> CriterionResult:
    """Per-step factors ((m-1)/m)^(m-1) multiply out to n!/n^n exactly for
    n <= 30 (checked to 1e-12 relative in floats and exactly in rationals)."""
    def body():
        for n in range(1, 31):
            prod = Fraction(1)
            for m in range(1, n + 1):
                prod *= _phi(m)
            if prod != vdw_factor(n):
                raise AssertionError(f"n={n}: ladder product {prod} != n!/n^n")
            if _uniform_factor(n, n) != vdw_factor(n):
                raise AssertionError(f"n={n}: uniform factor at k=n mismatch")
            rel = abs(float(prod) - float(vdw_factor(n))) / float(vdw_factor(n))
            if rel > 1e-12:
                raise AssertionError(f"n={n}: float mismatch rel={rel}")
        report = rank_ladder_bound(
            fixtures.uniform_product_polynomial(30, mode="float"))
        target = float(vdw_factor(30)) * report.capacity
        rel = abs(report.lower_bound_rank - target) / max(target, 1e-300)
        if rel > 1e-12:
            raise AssertionError(
                f"n=30 report: ladder bound {report.lower_bound_rank} vs "
                f"n!/n^n * cap {target} (rel {rel:.3e})")
        if report.G != tuple(range(30, 0, -1)):
            raise AssertionError(f"n=30 report: unexpected step ranks {report.G}")
        return ("ladder product == n!/n^n exactly for n=1..30; full report at "
                f"n=30 agrees to {rel:.1e} relative")

    return _run("06-full-rank-ladder-telescopes", None, body)


def criterion_7_sinkhorn_newton() -> CriterionResult:
    """Sinkhorn scaling capacity and interior-point capacity agree to 1e-6
    relative on 100 random positive matrices (n <= 10); Sinkhorn reaches
    deviation 1e-10 within 10000 sweeps."""
    def body():
        rng = np.random.default_rng(707)
        worst = 0.0
        max_iters = 0
        for i in range(100):
            n = 2 + i % 9
            m = fixtures.random_positive_matrix(n, rng)
            scaling = sinkhorn_scale(m, tol=1e-10, max_iter=10000)
            if scaling.status != "converged":
                raise AssertionError(
                    f"case {i} (n={n}): Sinkhorn stopped at deviation "
                    f"{scaling.max_deviation:.3e} after {scaling.iterations} sweeps")
            max_iters = max(max_iters, scaling.iterations)
            cap = capacity_minimize(ProductFormPolynomial(m, mode="float")).value
            rel = abs(scaling.capacity - cap) / max(abs(cap), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-6:
                raise AssertionError(
                    f"case {i} (n={n}): Sinkhorn {scaling.capacity} vs Newton "
                    f"{cap} (rel {rel:.3e})")
        return (f"100 matrices: worst relative gap {worst:.3e}; deepest "
                f"Sinkhorn run {max_iters} sweeps")

    return _run("07-sinkhorn-newton-agreement", None, body)


def criterion_8_entropic() -> CriterionResult:
    """Symmetric-function inequality holds with slack >= -1e-12 on 10000
    random feasible vectors (n <= 20); equality at c_i = (n-1)/n to 1e-10."""
    def body():
        rng = np.random.default_rng(808)
        worst = math.inf
        for i in range(10000):
            n = 2 + i % 19
            c = fixtures.feasible_entropy_vector(n, rng)
            lhs, rhs = entropic_inequality_check(c, tol=1e-12)
            worst = min(worst, lhs - rhs)
        for n in range(2, 21):
            c = [(n - 1) / n] * n
            lhs, rhs = entropic_inequality_check(c)
            if abs(lhs - rhs) > 1e-10:
                raise AssertionError(
                    f"n={n}: equality case off by {abs(lhs - rhs):.3e}")
        return (f"10000 feasible vectors hold (worst slack {worst:.3e}); "
                "equality at c=(n-1)/n for n=2..20")

    return _run("08-entropic-symmetric-inequality", None, body)


def criterion_9_head_derivative_oracle() -> CriterionResult:
    """Signed-average head-derivative oracle equals k-fold symbolic reduction
    exactly (rational arithmetic, n <= 10, k <= 3), and the k-step guarantee
    factor (n-k)^(n-k)/(n-k)! contains the estimate/truth ratio."""
    def body():
        rng = np.random.default_rng(909)
        cases = [(4, 1), (4, 2), (4, 3), (6, 1), (6, 2), (6, 3),
                 (8, 2), (8, 3), (10, 1), (10, 3)]
        for n, k in cases:
            p = fixtures.multilinear_head_sparse(n, k, 2 * n, rng, mode="exact")
            oracle = DerivativeSliceOracle(p, k)
            r = p
            for _ in range(k):
                r = derivative_reduce(r)
            for trial in range(3):
                point = tuple(Fraction(int(rng.integers(1, 9)), 7)
                              for _ in range(n - k))
                a = oracle.evaluate(point)
                b = r.evaluate(point)
                if a != b:
                    raise AssertionError(
                        f"n={n}, k={k}, trial {trial}: oracle {a} != "
                        f"symbolic {b}")
            expected_calls = oracle.calls_per_eval * 3
            if oracle.base.calls != expected_calls:
                raise AssertionError(
                    f"n={n}, k={k}: expected {expected_calls} base calls, "
                    f"saw {oracle.base.calls}")

        worst_low = math.inf
        worst_high = math.inf
        for n, k in [(4, 1), (5, 2), (6, 2)]:
            poly = fixtures.random_product_polynomial(n, rng)
            true = float(permanent_ryser(poly.matrix, mode="float"))
            res = estimate_mixed_partial(poly, k=k)
            factor = guarantee_factor(n, k)
            low = (res.estimate - true) / max(true, 1e-300)
            high = (factor * true - res.estimate) / max(true, 1e-300)
            worst_low = min(worst_low, low)
            worst_high = min(worst_high, high)
            if low < -1e-6 or high < -1e-6:
                raise AssertionError(
                    f"n={n}, k={k}: estimate {res.estimate} outside "
                    f"[true, factor*true] = [{true}, {factor * true}]")
        return ("10 exact oracle/symbolic matches with exact call accounting; "
                f"guarantee interval holds (worst slacks {worst_low:.3e}, "
                f"{worst_high:.3e})")

    return _run("09-head-derivative-oracle", None, body)


def criterion_10_diagnostics() -> CriterionResult:
    """Stable families pass real-rootedness and half-plane sampling; the
    power-sum and two-square examples fail their designated checks; all
    verdicts come with oracle-call counts."""
    def body():
        rng = np.random.default_rng(1010)
        calls = {}

        good = {
            "uniform-product": fixtures.uniform_product_polynomial(4, mode="float"),
            "random-product": fixtures.random_product_polynomial(5, rng),
            "psd-pencil": DeterminantalPolynomial(
                fixtures.doubly_stochastic_psd_tuple(4, rng), mode="float"),
        }
        for label, poly in good.items():
            ok_root, worst = real_rootedness_check(poly, trials=25, seed=11)
            ok_half, stats = half_plane_sample_check(poly, samples=300, seed=12)
            calls[label] = poly.calls
            if not ok_root:
                raise AssertionError(
                    f"{label}: spurious complex root, max imag {worst.max_imag}")
            if not ok_half:
                raise AssertionError(
                    f"{label}: half-plane margin {stats['worst_margin']}")

        ps = fixtures.power_sum(3, mode="float")
        ok_half, stats = half_plane_sample_check(ps, samples=300, seed=13)
        calls["power-sum"] = ps.calls
        if ok_half:
            raise AssertionError("power sum unexpectedly passed the half-plane check")

        sq = SparsePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0}, mode="float")
        ok_root, worst = real_rootedness_check(sq, trials=25, seed=14)
        calls["two-squares"] = sq.calls
        if ok_root:
            raise AssertionError("x1^2 + x2^2 unexpectedly passed real-rootedness")

        counts = ", ".join(f"{k}={v}" for k, v in calls.items())
        return ("stable families pass, designated failures fail; "
                f"oracle calls: {counts}")

    return _run("10-stability-diagnostics", None, body)


_CRITERIA = (
    criterion_1_permanent_floor,
    criterion_2_capacity_sandwich,
    criterion_3_polarization_exact,
    criterion_4_contraction,
    criterion_5_sparse_support,
    criterion_6_ladder_telescopes,
    criterion_7_sinkhorn_newton,
    criterion_8_entropic,
    criterion_9_head_derivative_oracle,
    criterion_10_diagnostics,
)


def run_all(only=None):
    """Run the criteria in order and return a list of CriterionResult.

    `only` selects a subset by 1-based criterion number; None runs all ten.
    """
    if only is None:
        selected = _CRITERIA
    else:
        wanted = sorted(set(int(i) for i in only))
        bad = [i for i in wanted if not 1 <= i <= len(_CRITERIA)]
        if bad:
            raise InputError(
                f"criterion numbers {bad} out of range 1..{len(_CRITERIA)}")
        selected = [_CRITERIA[i - 1] for i in wanted]
    return [fn() for fn in selected]
