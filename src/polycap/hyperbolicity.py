"""Real-rootedness and half-plane diagnostics through restricted univariate
slices.

For a homogeneous polynomial p and a direction d with p(d) > 0, the slice
t -> p(x - t d) is a degree-n univariate polynomial. Stability of p along d
means every such slice has only real roots; that property, together with
positivity on the open right half-plane, is what the capacity machinery is
calibrated against. ``root_profile`` classifies the roots of one slice,
``real_rootedness_check`` samples slices along the all-ones direction in
blocks of 64, and ``half_plane_sample_check`` samples the half-plane
condition directly. Each representation gives its slice roots in closed form
(``line_roots``); a plain evaluation oracle has none and is refused.

Repeated roots: an m-fold real root of a slice whose coefficients carry a
backward error splits into a cluster with imaginary parts of order
(backward error)^(1/m). The classifier compares each complex pair against
that bound for a repeated real root at its location, so perfect powers
classify as real while genuinely complex pairs still fail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .polynomials import EvaluationOracle

_CLUSTER_SAFETY = 10.0
_TINY = 1e-300
_REAL_TOL = 1e-6    # |imag| / root scale below which a root is real
_MARGIN_TOL = 1e-9  # how far the margin |p(z)|/p(Re z) - 1 may fall below 0
_BLOCK = 64  # slices per batch in real_rootedness_check


@dataclass
class RootProfile:
    direction: tuple
    point: tuple
    roots: tuple
    max_imag: float
    all_real: bool


def _finite_values(poly, X, part=np.real,
                   refused="slice roots refused: p overflows the float range"):
    """part(p) at the rows X as floats, with numpy's overflow warnings off:
    values past the float range are refused here instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = part(poly.evaluate_batch(X)).astype(float)
    if not np.isfinite(vals).all():
        raise ResourceLimitError(
            f"{refused} (non-finite values); rescale the input")
    return vals


def _cluster_radius(roots, r, noise):
    """How far an m-fold real root at t0 = Re r moves when the slice moves by
    _CLUSTER_SAFETY ``noise`` times its leading coefficient, (10 noise /
    |g(t0)|)^(1/m), for the m roots within 4 |Im r| of t0 and their cofactor g."""
    dist = np.abs(np.array(roots) - r.real)
    inside = dist <= 4.0 * abs(r.imag)
    cofactor = max(np.maximum(dist[~inside], _TINY).prod(), _TINY)
    return (_CLUSTER_SAFETY * noise / cofactor) ** (1.0 / max(inside.sum(), 1))


def _profile(direction, point, roots, noise) -> RootProfile:
    """A root counts as real when its imaginary part is under _REAL_TOL*scale
    or within the cluster radius at its real part (0 without ``noise``)."""
    roots = tuple(complex(r) for r in roots)
    scale = max(1.0, max(abs(r) for r in roots))
    all_real = all(abs(r.imag) <= _REAL_TOL * scale
                   or abs(r.imag) <= _cluster_radius(roots, r, noise) for r in roots)
    return RootProfile(direction, point, roots,
                       float(max(abs(r.imag) for r in roots)), all_real)


def _root_profiles(poly: EvaluationOracle, points, direction) -> list:
    """One RootProfile per row of ``points`` along ``direction`` (p(direction)
    > 0), from ``poly.line_roots``. Degree 0, a plain oracle and a sparse
    degree past its cap are refused before any evaluation."""
    points = np.array(points, dtype=float)
    direction = np.array(direction, dtype=float)
    if points.shape[1:] != (poly.n_vars,) or direction.shape != (poly.n_vars,):
        raise InputError("point and direction must have length n_vars")
    if poly.degree < 1:
        raise InputError(f"slice roots need degree >= 1; got degree {poly.degree}")
    # The closed forms divide by a_i.d or the slice's leading coefficient, or
    # solve with A(d): where p(d) = 0 they fail, and are refused below.
    try:
        with np.errstate(all="ignore"):
            roots, noise = poly.line_roots(points, direction)
    except np.linalg.LinAlgError:
        roots = noise = np.nan
    p_dir = float(_finite_values(poly, direction[None])[0])
    if not p_dir > 0:
        raise InputError(
            f"p(direction) = {p_dir}; root extraction needs a positive value")
    if not (np.isfinite(roots).all() and np.isfinite(noise).all()):
        raise ResourceLimitError("slice roots refused: not finite; rescale the input")
    return [_profile(tuple(direction.tolist()), tuple(x), r, e)
            for x, r, e in zip(points.tolist(), roots, noise.tolist())]


def _check_seed(seed):
    # numpy refuses a negative seed with a bare ValueError.
    if seed < 0:
        raise InputError("seed must be >= 0")


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
    _check_seed(seed)
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
    _check_seed(seed)
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
