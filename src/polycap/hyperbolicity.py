"""Real-rootedness and half-plane diagnostics through restricted univariate
slices.

For a homogeneous polynomial p and a direction d with p(d) > 0, the slice
t -> p(x - t d) is a degree-n univariate polynomial. Stability of p along d
means every such slice has only real roots; that property, together with
positivity on the open right half-plane, is what the capacity machinery is
calibrated against. ``root_profile`` finds and classifies the roots of one
slice, ``real_rootedness_check`` samples slices along the all-ones direction
in blocks of 64, and ``half_plane_sample_check`` samples the half-plane
condition directly. Product forms and PSD pencils give their slice roots in
closed form (``line_roots``); sparse polynomials and plain oracles are fitted
by Chebyshev interpolation on one window per slice.

Numerical honesty about repeated roots: an m-fold real root computed through
a degree-n fit splits into a cluster with imaginary parts of order
(backward error)^(1/m), which can dwarf any fixed tolerance. The classifier
therefore compares each complex pair of a fitted slice against the
backward-error bound for a repeated real root at the same location, so
perfect powers classify as real while genuinely complex pairs (macroscopic
imaginary parts) still fail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import InputError, ResourceLimitError
from .polynomials import EvaluationOracle

_FIT_NOISE = 1e-14  # relative backward error budget for the Chebyshev fit
_CLUSTER_SAFETY = 10.0
_TINY = 1e-300
_REAL_TOL = 1e-6    # |imag| / root scale below which a root is real
_MARGIN_TOL = 1e-9  # how far the margin |p(z)|/p(Re z) - 1 may fall below 0
# Fitted slices (not closed-form ones) refuse a degree past this. The fit
# rejects a slice whose leading Chebyshev coefficient is at most 1e-13 of the
# largest, which shrinks like 2^(1-n): from degree 47 on that rejected every
# slice of product forms and pencils when they were fitted. A fit and its
# companion-matrix roots take about 1 ms at degree 46 (2 vCPUs, one BLAS thread).
SLICE_DEGREE_CAP = 46
_BLOCK = 64  # slices per batch in real_rootedness_check
_SLICE_OVERFLOW = "slice fit refused: p overflows the float range along the slice"


@dataclass
class RootProfile:
    direction: tuple
    point: tuple
    roots: tuple
    max_imag: float
    all_real: bool


def _finite_values(poly, X, part=np.real, refused=_SLICE_OVERFLOW):
    """part(p) at the rows X as floats, with numpy's overflow warnings off:
    values past the float range are refused here instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = part(poly.evaluate_batch(X)).astype(float)
    if not np.isfinite(vals).all():
        raise ResourceLimitError(
            f"{refused} (non-finite values); rescale the input")
    return vals


def _fitted_roots(poly, points, direction) -> list:
    """(roots, (lead_abs, vmax)) for the slice through each row x of
    ``points``: its fitted roots, the absolute value of its leading monomial
    coefficient in t and its largest absolute value on the window. Each slice
    is fitted on one window, |t| <= M = 1 + |x|/|d| (max norms): for a stable
    p with nonnegative coefficients the positive orthant lies in the
    hyperbolicity cone (Garding), so along d = 1 every root lies in
    [min x, max x]. The Chebyshev nodes of all the slices are one batch."""
    n = poly.degree
    u_nodes = cheb.chebpts2(n + 1)
    d_norm = max(float(np.abs(direction).max()), _TINY)
    windows = 1.0 + np.abs(points).max(axis=1) / d_norm
    X = points[:, None, :] - (windows[:, None] * u_nodes)[:, :, None] * direction
    rows = _finite_values(poly, X.reshape(-1, poly.n_vars))
    fits = []
    for M, vals in zip(windows.tolist(), rows.reshape(len(points), n + 1)):
        coeffs = cheb.chebfit(u_nodes, vals, n)
        if abs(coeffs[-1]) <= 1e-13 * max(1.0, float(np.abs(coeffs).max())):
            raise InputError(
                "slice interpolation degenerated: leading coefficient "
                "vanished (is the polynomial of full degree along this "
                "direction?)")
        # T_n has leading monomial coefficient 2^(n-1); in t = M u units the
        # slice's leading coefficient is that over M^n.
        lead_abs = abs(float(coeffs[-1]) * 2.0 ** (n - 1)) / M ** n
        fits.append((cheb.chebroots(coeffs) * M,
                     (lead_abs, float(np.abs(vals).max()))))
    return fits


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


def _profile(direction, point, roots, fit) -> RootProfile:
    """A complex pair counts as real when its imaginary part is under
    _REAL_TOL*scale or, on a fitted slice (``fit`` = (lead_abs, vmax)), within
    the repeated-real-root backward-error bound at its location."""
    roots = tuple(complex(r) for r in roots)
    scale = max(1.0, max(abs(r) for r in roots))
    all_real = all(
        abs(r.imag) <= _REAL_TOL * scale
        or fit is not None
        and abs(r.imag) <= _cluster_tolerance(roots, r.real, 4.0 * abs(r.imag),
                                              *fit)
        for r in roots)
    return RootProfile(direction, point, roots,
                       float(max(abs(r.imag) for r in roots)), all_real)


def _root_profiles(poly: EvaluationOracle, points, direction) -> list:
    """One RootProfile per row of ``points`` along ``direction`` (p(direction)
    > 0), from ``poly.line_roots`` or else fitted. Degree 0, and for fitted
    slices a degree past SLICE_DEGREE_CAP, are refused before any evaluation."""
    points = np.array(points, dtype=float)
    direction = np.array(direction, dtype=float)
    if points.shape[1:] != (poly.n_vars,) or direction.shape != (poly.n_vars,):
        raise InputError("point and direction must have length n_vars")
    if poly.degree < 1:
        raise InputError(f"slice roots need degree >= 1; got degree {poly.degree}")
    # A closed form divides by a_i.d or solves with A(d), which fails only
    # where p(d) = 0; that, and roots past the float range, are refused below.
    try:
        with np.errstate(all="ignore"):
            roots = poly.line_roots(points, direction)
    except np.linalg.LinAlgError:
        roots = np.nan
    if roots is None and poly.degree > SLICE_DEGREE_CAP:
        raise ResourceLimitError(
            f"slice fit refused: degree {poly.degree} exceeds the cap of "
            f"{SLICE_DEGREE_CAP}")
    p_dir = float(_finite_values(poly, direction[None])[0])
    if not p_dir > 0:
        raise InputError(
            f"p(direction) = {p_dir}; root extraction needs a positive value")
    if roots is None:
        roots, fits = zip(*_fitted_roots(poly, points, direction))
    elif np.isfinite(roots).all():
        fits = [None] * len(points)
    else:
        raise ResourceLimitError("slice roots refused: not finite; rescale the input")
    return [_profile(tuple(direction.tolist()), tuple(x), r, fit)
            for x, r, fit in zip(points.tolist(), roots, fits)]


def root_profile(poly: EvaluationOracle, point, direction) -> RootProfile:
    """Restricted roots plus a real/complex classification for one slice:
    ``_root_profiles`` on one point."""
    return _root_profiles(poly, [point], direction)[0]


def real_rootedness_check(poly: EvaluationOracle, trials: int = 50,
                          seed: int = 0):
    """Sample random slice points and test that every restricted polynomial
    is real-rooted along the all-ones direction.

    Returns (ok, worst_profile): ok is True iff all trials were real-rooted;
    worst_profile is the failing slice with the largest imaginary part, or,
    if none failed, the slice with the largest imaginary part overall (the
    first such trial on a tie). Trial i draws its point from the i-th child
    of ``SeedSequence(seed)``, and the trials are taken in blocks of
    _BLOCK, so memory stays bounded whatever ``trials`` is.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    n = poly.n_vars
    seeds = np.random.SeedSequence(seed)
    worst = None
    for start in range(0, trials, _BLOCK):
        points = [np.random.default_rng(ss).standard_normal(n)
                  for ss in seeds.spawn(min(_BLOCK, trials - start))]
        profiles = _root_profiles(poly, points, np.ones(n))
        worst = max(profiles if worst is None else [worst, *profiles],
                    key=lambda p: (not p.all_real, p.max_imag))
    return worst.all_real, worst


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
    draws = rng.standard_normal((samples, 2, n))
    xs = np.exp(draws[:, 0])
    ys = xs * draws[:, 1]
    refused = "half-plane check refused: p overflows the float range"
    vals = _finite_values(poly, xs + 1j * ys, np.abs, refused)
    bases = _finite_values(poly, xs, refused=refused)
    # A base that is not positive scores -1 without dividing.
    positive = bases > 0
    with np.errstate(over="ignore"):
        margins = np.where(positive, vals / np.where(positive, bases, 1.0) - 1.0,
                           -1.0)
    failed = (vals == 0.0) | (margins < -_MARGIN_TOL)
    i = int(np.argmin(margins))
    witness = (np.stack((xs[i], ys[i]), axis=1).tolist() if failed[i]
               else None)
    stats = {
        "samples": samples,
        "worst_margin": float(margins[i]),
        "witness": witness,
    }
    return not failed.any(), stats
