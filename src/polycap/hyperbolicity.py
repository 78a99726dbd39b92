"""Real-rootedness and half-plane diagnostics through restricted univariate
slices.

For a homogeneous polynomial p and a direction d with p(d) > 0, the slice
t -> p(x - t d) is a degree-n univariate polynomial. Stability of p along d
means every such slice has only real roots; that property, together with
positivity on the open right half-plane, is what the capacity machinery is
calibrated against. ``root_profile`` recovers the restricted roots of one
slice by Chebyshev interpolation, validates the window through the
root-product identity prod(roots) = p(x)/p(d), and classifies the roots as
real or complex; ``real_rootedness_check`` samples many slices along the
all-ones direction, and ``half_plane_sample_check`` samples the half-plane
condition directly.

Numerical honesty about repeated roots: an m-fold real root computed through
a degree-n fit splits into a cluster with imaginary parts of order
(backward error)^(1/m), which can dwarf any fixed tolerance. The classifier
therefore compares each complex pair against the backward-error bound for a
repeated real root at the same location, so perfect powers (uniform product
matrices, equality families) classify as real while genuinely complex pairs
(macroscopic imaginary parts) still fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import InputError, ResourceLimitError
from .polynomials import EvaluationOracle

_FIT_NOISE = 1e-14  # relative backward error budget for the Chebyshev fit
_CLUSTER_SAFETY = 10.0
_TINY = 1e-300
_REAL_TOL = 1e-6    # |imag| / root scale below which a root is real
_MARGIN_TOL = 1e-9  # how far the margin |p(z)|/p(Re z) - 1 may fall below 0
# Slice fits refuse a degree past this. One fit plus its companion-matrix
# roots takes 0.05 s at degree 200, 0.2 s at 400 and 1.3 s at 800 (2 vCPUs,
# one BLAS thread), and check-hyperbolic fits at least two slices per trial.
SLICE_DEGREE_CAP = 400


@dataclass
class RootProfile:
    direction: tuple
    point: tuple
    roots: tuple
    max_imag: float
    all_real: bool
    residual: float


class _SliceFit(NamedTuple):
    roots: tuple
    residual: float
    lead_abs: float  # |leading monomial coefficient| of the slice in t
    vmax: float      # max |slice value| over the fitted window


def _finite_values(poly, X):
    """Real parts of p at the rows X, with numpy's overflow warnings off:
    values past the float range are refused here instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.real(poly.evaluate_batch(X)).astype(float)
    if not np.isfinite(vals).all():
        raise ResourceLimitError(
            "slice fit refused: p overflows the float range along the slice "
            "(non-finite values); rescale the input")
    return vals


def _slice_values(poly, point, direction, ts):
    pt = np.array(point, dtype=float)
    d = np.array(direction, dtype=float)
    return _finite_values(poly, pt - ts[:, None] * d)


def _fit_once(poly, point, direction, M, n):
    """Interpolate the slice on [-M, M] and extract companion-matrix roots."""
    u_nodes = cheb.chebpts2(n + 1)
    vals = _slice_values(poly, point, direction, M * u_nodes)
    coeffs = cheb.chebfit(u_nodes, vals, n)
    vmax = float(np.abs(vals).max())
    # T_n has leading monomial coefficient 2^(n-1); convert to t = M u units.
    lead_u = float(coeffs[-1]) * (2.0 ** (n - 1) if n >= 1 else 1.0)
    lead_abs = abs(lead_u) / (M ** n if n >= 1 else 1.0)
    if abs(coeffs[-1]) <= 1e-13 * max(1.0, float(np.abs(coeffs).max())):
        return None, lead_abs, vmax
    roots = tuple(complex(r) * M for r in cheb.chebroots(coeffs))
    return roots, lead_abs, vmax


def _slice_fit(poly, point, direction, expected) -> _SliceFit:
    """Fit the slice; ``expected`` = p(point)/p(direction) is the product of
    its roots (both leading sign flips cancel)."""
    n = poly.degree

    x_norm = max((abs(v) for v in point), default=0.0)
    d_norm = max(max(abs(v) for v in direction), _TINY)
    M = 8.0 * (1.0 + x_norm / d_norm)

    best = None
    rescaled = False
    for _ in range(5):
        roots, lead_abs, vmax = _fit_once(poly, point, direction, M, n)
        if roots is None:
            M *= 4.0
            continue
        if not rescaled:
            # Second pass on a window matched to the actual root magnitudes:
            # conditioning of clustered roots degrades with oversized windows.
            rescaled = True
            r_max = max((abs(r) for r in roots), default=0.0)
            M_opt = min(max(4.0 * r_max, 1e-2), M)
            if M_opt < 0.5 * M:
                M = M_opt
                roots, lead_abs, vmax = _fit_once(poly, point, direction, M, n)
                if roots is None:
                    M *= 4.0
                    continue
        prod = complex(np.prod(roots)) if roots else complex(1.0)
        # Noise floor: prod(roots) = +-q(0)/lead, and q(0) carries absolute
        # interpolation noise ~ eps * vmax, so differences below
        # vmax/lead-scaled noise are not evidence of a bad window.
        atol = 1e-9 * vmax / max(lead_abs, _TINY)
        denom = max(abs(expected), abs(prod), atol, 1e-12)
        residual = abs(prod - expected) / denom
        fit = _SliceFit(roots, float(residual), lead_abs, vmax)
        if best is None or residual < best.residual:
            best = fit
        if residual <= 1e-6:
            return fit
        M *= 4.0
    if best is None:
        raise InputError(
            "slice interpolation degenerated: leading coefficient vanished "
            "at every window (is the polynomial of full degree along this "
            "direction?)")
    return best


def _cluster_tolerance(roots, center, radius, lead_abs, vmax):
    """Backward-error radius for treating the roots within ``radius`` of
    ``center`` as one repeated root at ``center``: perturbing the slice by
    eps*vmax moves an m-fold root at t0 with cofactor g by about
    (eps*vmax / |lead*g(t0)|)^(1/m)."""
    cluster = [i for i, s in enumerate(roots) if abs(s - center) <= radius]
    m = max(len(cluster), 1)
    cofactor = 1.0
    for i, s in enumerate(roots):
        if i not in cluster:
            cofactor *= max(abs(center - s), _TINY)
    eta = (_FIT_NOISE * vmax / max(lead_abs * cofactor, _TINY)) ** (1.0 / m)
    return _CLUSTER_SAFETY * eta


def _classify_real(fit: _SliceFit):
    """(all_real, max_imag): a complex pair counts as numerically real when
    its imaginary part is under _REAL_TOL*scale or within the repeated-real-
    root backward-error bound at its location."""
    roots = fit.roots
    if not roots:
        return True, 0.0
    scale = max(1.0, max(abs(r) for r in roots))
    max_imag = max(abs(r.imag) for r in roots)
    all_real = True
    for r in roots:
        b = abs(r.imag)
        if b <= _REAL_TOL * scale:
            continue
        if b <= _cluster_tolerance(roots, r.real, 4.0 * b, fit.lead_abs,
                                   fit.vmax):
            continue
        all_real = False
        break
    return all_real, float(max_imag)


def root_profile(poly: EvaluationOracle, point, direction) -> RootProfile:
    """Restricted roots plus a real/complex classification for one slice,
    which needs p(direction) > 0. A degree past SLICE_DEGREE_CAP is refused
    before any evaluation, then values past the float range; p(direction)
    and p(point) are one batch."""
    point = tuple(float(v) for v in point)
    direction = tuple(float(v) for v in direction)
    if len(point) != poly.n_vars or len(direction) != poly.n_vars:
        raise InputError("point and direction must have length n_vars")
    if poly.degree > SLICE_DEGREE_CAP:
        raise ResourceLimitError(
            f"slice fit refused: degree {poly.degree} exceeds the cap of "
            f"{SLICE_DEGREE_CAP}")
    p_dir, p_point = _finite_values(
        poly, np.array([direction, point], dtype=float)).tolist()
    if not p_dir > 0:
        raise InputError(
            f"p(direction) = {p_dir}; root extraction needs a positive value")
    fit = _slice_fit(poly, point, direction, p_point / p_dir)
    all_real, max_imag = _classify_real(fit)
    return RootProfile(
        direction=direction,
        point=point,
        roots=fit.roots,
        max_imag=max_imag,
        all_real=all_real,
        residual=fit.residual,
    )


def real_rootedness_check(poly: EvaluationOracle, trials: int = 50,
                          seed: int = 0):
    """Sample random slice points and test that every restricted polynomial
    is real-rooted along the all-ones direction.

    Returns (ok, worst_profile): ok is True iff all trials were real-rooted;
    worst_profile is the failing slice with the largest imaginary part, or,
    if none failed, the slice with the largest imaginary part overall.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    n = poly.n_vars
    direction = (1.0,) * n
    worst = None
    ok = True
    children = np.random.SeedSequence(seed).spawn(trials)
    for ss in children:
        rng = np.random.default_rng(ss)
        x = rng.standard_normal(n)
        profile = root_profile(poly, tuple(x), direction)
        if not profile.all_real:
            ok = False
        if (worst is None
                or (not profile.all_real and worst.all_real)
                or (profile.all_real == worst.all_real
                    and profile.max_imag > worst.max_imag)):
            worst = profile
    return ok, worst


def half_plane_sample_check(poly: EvaluationOracle, samples: int = 500,
                            seed: int = 0):
    """Sample z with Re(z) > 0 and test |p(z)| >= p(Re(z)) and |p(z)| > 0.

    Both hold for every polynomial with nonnegative coefficients that is
    nonvanishing on the open right half-plane; a negative worst margin or a
    zero witness refutes that property. Returns (ok, stats) with stats
    carrying samples, worst_margin, and the witness point if any failed.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    n = poly.n_vars
    rng = np.random.default_rng(seed)
    worst_margin = np.inf
    witness = None
    ok = True
    draws = rng.standard_normal((samples, 2, n))
    xs = np.exp(draws[:, 0])
    ys = xs * draws[:, 1]
    vals = np.abs(poly.evaluate_batch(xs + 1j * ys)).tolist()
    bases = np.real(poly.evaluate_batch(xs)).tolist()
    for x, y, val, base in zip(xs, ys, vals, bases):
        margin = val / base - 1.0 if base > 0 else -1.0
        failed = val == 0.0 or margin < -_MARGIN_TOL
        if margin < worst_margin:
            worst_margin = margin
            if failed:
                witness = [[float(a), float(b)] for a, b in zip(x, y)]
        if failed:
            ok = False
    stats = {
        "samples": samples,
        "worst_margin": float(worst_margin),
        "witness": witness,
    }
    return ok, stats
