"""Seeded inputs and job lists for the three workloads.

Each workload is a fixed list of CLI invocations on JSON documents that this
module writes in the library's format, with every scalar quoted. The seed
chooses the entries; the sizes, commands and options are the same for every
seed, so one pass does the same kind and amount of work whatever the seed.
Each job carries what its check needs: a reference value computed in
``refs`` or the properties its report must have.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import refs

# Float jobs use the denominator 1024: every entry and every sum of a few
# entries is then exact in binary64, so the only rounding is in the
# products and the final sum, and the error bound in refs applies.
DYADIC = 1024
# Exact jobs use a denominator that is not a power of two.
EXACT_DENOM = 60

# approx jobs stop Newton after this many iterations instead of the CLI's
# 200. At the CLI's --tol 1e-10 the finite-difference Newton run reaches its
# noise floor after 3 to 8 iterations and then either stalls in its line
# search or runs on to the cap, with up to 60 halvings per line search,
# depending on rounding noise in the input. With a cap of 200 one job costs
# 0.1 s or 2-6 s and the pass time swings with the seed. A cap of 12 keeps
# the iterations spent at the noise floor, a third to a half of the work,
# while bounding the swing.
APPROX_MAX_ITER = 12
# Product-form estimates per (n, k); each (n, k) also gets one pencil.
APPROX_PRODUCTS = 5

# bound and capacity jobs in certify stop Newton after this many iterations
# instead of the CLI's 200. Converged runs take 3 to about 25 iterations.
# About one run in fifteen instead ends with its gradient norm between the
# tolerance and the resolution of the line search (see CHANGES.md) and then
# spends every remaining iteration on null steps: on a 24 x 24 pencil, 200
# iterations took 0.44 s against 0.02 s for a converged run. The cap of 30
# keeps such runs visible while bounding what one of them adds to a pass.
CERTIFY_MAX_ITER = 30


@dataclass
class Job:
    argv: list
    check: str
    expect: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.directory / f"doc{self.count:03d}.json"
        path.write_text(json.dumps({"schema": "polycap/1", **doc}))
        return str(path)


def _ratio_rows(num, den):
    return [[f"{int(a)}/{den}" for a in row] for row in num]


def _product_doc(num, den):
    return {"kind": "product", "matrix": _ratio_rows(num, den)}


def _pencil_doc(nums, den):
    return {"kind": "determinantal",
            "matrices": [_ratio_rows(m, den) for m in nums]}


def _float_pencil_doc(mats):
    return {"kind": "determinantal",
            "matrices": [[[repr(float(v)) for v in row] for row in m]
                         for m in mats]}


def _positive(rng, shape, den):
    """Integer numerators in [den/10, den]: entries in [0.1, 1]."""
    return rng.integers(den // 10, den + 1, size=shape)


def _gram(rng, n, rank, lo=-3, hi=3):
    """Integer PSD matrix W W^T with W of shape (n, rank)."""
    w = rng.integers(lo, hi + 1, size=(n, rank))
    return (w @ w.T).tolist()


def _diagonal_tuple(num):
    """A_i = diag(column i of M), whose mixed discriminant is per(M)."""
    n = len(num)
    return [[[num[j][i] if j == l else 0 for l in range(n)] for j in range(n)]
            for i in range(n)]


def _latin_support(rng, n, k):
    """0/1 matrix with exactly k ones in every row and column: the union of
    k permutation matrices that never share a position."""
    perms = []
    while len(perms) < k:
        p = rng.permutation(n)
        if all((p != q).all() for q in perms):
            perms.append(p)
    support = np.zeros((n, n), dtype=int)
    for p in perms:
        support[np.arange(n), p] = 1
    return support


def _doubly_stochastic_pencil(rng, n, ranks):
    """PSD matrices A_i of the given ranks with sum_i A_i = I and
    tr A_i = 1, by alternately normalizing the sum and the traces
    (operator scaling). Such a pencil has capacity 1."""
    mats = []
    for r in ranks:
        w = rng.standard_normal((n, r))
        mats.append(w @ w.T)
    mats = np.array(mats)
    for _ in range(2000):
        vals, vecs = np.linalg.eigh(mats.sum(axis=0))
        half = vecs @ np.diag(vals ** -0.5) @ vecs.T
        mats = half @ mats @ half
        traces = np.trace(mats, axis1=1, axis2=2)
        mats /= traces[:, None, None]
        if np.abs(traces - 1.0).max() < 1e-13:
            break
    else:
        raise RuntimeError("operator scaling did not converge")
    return mats


def _symmetric(m):
    m = (m + m.T) / 2.0
    return np.triu(m) + np.triu(m, 1).T


def reference_jobs(rng, out):
    """Exact and float permanents and mixed discriminants."""
    jobs = []
    for n in (15, 16, 17, 18):
        num = _positive(rng, (n, n), DYADIC).tolist()
        per, abs_sum = refs.ryser(num)
        scale = DYADIC ** n
        # Subset sums are exact; each term has n-1 rounded products and the
        # 2^n - 1 terms are summed in some order.
        jobs.append(Job(["permanent", out.write(_product_doc(num, DYADIC))],
                        "float", {"value": Fraction(per, scale),
                                  "tol": refs.gamma(2 ** n + n) * abs_sum / scale}))
    for n in (10, 11, 12):
        num = _positive(rng, (n, n), EXACT_DENOM).tolist()
        per, _ = refs.ryser(num)
        jobs.append(Job(["permanent", out.write(_product_doc(num, EXACT_DENOM)),
                         "--mode", "exact"],
                        "exact", {"value": Fraction(per, EXACT_DENOM ** n)}))
    for n in (9, 10, 11):
        num = _positive(rng, (n, n), DYADIC).tolist()
        per, _ = refs.ryser(num)
        abs_sum, log_spread = refs.diagonal_polarization_scale(num, DYADIC)
        scale = DYADIC ** n
        mats = _diagonal_tuple(num)
        # 2^n terms, each a determinant taken through its logarithm:
        # relative error (n + 2)(1 + sum_j |ln|d_j||) u per term.
        steps = (n + 2) * (1 + log_spread) + 2 ** n
        jobs.append(Job(["mixed-disc", out.write(_pencil_doc(mats, DYADIC))],
                        "float", {"value": Fraction(per, scale),
                                  "tol": refs.gamma(steps) * abs_sum / scale / 2 ** n}))
    # Rank-one tuple A_i = v_i v_i^T: D(A_1..A_n) = det(V)^2.
    det = 0
    while det == 0:
        v = rng.integers(-4, 5, size=(6, 6))
        det = refs.det_int(v.tolist())
    mats = [np.outer(v[:, i], v[:, i]).tolist() for i in range(6)]
    jobs.append(Job(["mixed-disc", out.write(_pencil_doc(mats, 7)),
                     "--mode", "exact"],
                    "exact", {"value": Fraction(det * det, 7 ** 6)}))
    for n in (5, 6):
        mats = [_gram(rng, n, int(rng.integers(1, n + 1))) for _ in range(n)]
        value = refs.mixed_disc_by_columns(mats)
        jobs.append(Job(["mixed-disc", out.write(_pencil_doc(mats, 5)),
                         "--mode", "exact"],
                        "exact", {"value": Fraction(value, 5 ** n)}))
    return jobs


def certify_jobs(rng, out):
    """Capacity, scaling and certified bounds past the brute-force caps."""
    jobs = []
    den = 1000
    cap = ["--max-iter", str(CERTIFY_MAX_ITER)]
    # (n, nonzeros per column or None for dense, commands)
    products = [
        (30, None, ("bound", "scale")), (45, None, ("bound", "capacity")),
        (60, None, ("bound", "capacity")), (75, None, ("bound", "scale")),
        (90, None, ("bound", "scale")), (105, None, ("bound", "capacity")),
        (120, None, ("bound", "capacity", "scale")),
    ] + [(n, k, ("bound", "capacity", "scale"))
         for n, k in ((40, 3), (60, 3), (80, 4), (100, 4), (120, 5))]
    for n, k, commands in products:
        num = _positive(rng, (n, n), den)
        if k is not None:
            num = num * _latin_support(rng, n, k)
        path = out.write(_product_doc(num.tolist(), den))
        matrix = num / den
        expect = {"matrix": matrix, "log_cap": refs.sinkhorn_capacity(matrix),
                  "ranks": [k or n] * n, "k": k}
        for command in commands:
            argv = [command, path] + (cap if command != "scale" else [])
            jobs.append(Job(argv, command, expect))
    for n in (13, 16, 20, 24, 30):
        ranks = [int(r) for r in rng.integers(2, n // 2 + 1, size=n)]
        d = rng.uniform(0.5, 2.0, size=n)
        mats = _doubly_stochastic_pencil(rng, n, ranks)
        mats = [_symmetric(di * m) for di, m in zip(d, mats)]
        # Cap(p(Dx)) = det(D) Cap(p), and Cap(p) = 1.
        expect = {"log_cap": float(np.log(d).sum()), "ranks": ranks, "k": None}
        jobs.append(Job(["bound", out.write(_float_pencil_doc(mats))] + cap,
                        "bound", expect))
    return jobs


def approx_jobs(rng, out):
    """Evaluation-access estimates (n = 6, 7) and stability checks (n = 6..9).

    Many small estimates rather than a few large ones: the cost of one
    estimate depends on where its Newton run meets the noise floor, so the
    pass time settles only as an average over many inputs.
    """
    jobs = []
    den = 64

    def approx(doc, n, k, value):
        jobs.append(Job(["approx", out.write(doc), "--k", str(k),
                         "--max-iter", str(APPROX_MAX_ITER)],
                        "approx", {"n": n, "k": k, "value": value}))

    for n in (6, 7):
        for k in (1, 2, 3):
            for _ in range(APPROX_PRODUCTS):
                num = _positive(rng, (n, n), den).tolist()
                approx(_product_doc(num, den), n, k,
                       Fraction(refs.ryser(num)[0], den ** n))
            if n == 6:
                mats = [_gram(rng, n, int(rng.integers(2, n + 1)))
                        for _ in range(n)]
                approx(_pencil_doc(mats, 8), n, k,
                       Fraction(refs.mixed_disc_by_columns(mats), 8 ** n))
            else:
                num = _positive(rng, (n, n), den).tolist()
                approx(_pencil_doc(_diagonal_tuple(num), den), n, k,
                       Fraction(refs.ryser(num)[0], den ** n))
    for n in (6, 7, 8, 9):
        num = _positive(rng, (n, n), den).tolist()
        jobs.append(Job(["check-hyperbolic", out.write(_product_doc(num, den))],
                        "stable"))
    for n in (6, 7, 8):
        mats = [_gram(rng, n, int(rng.integers(2, n + 1))) for _ in range(n)]
        jobs.append(Job(["check-hyperbolic", out.write(_pencil_doc(mats, 8))],
                        "stable"))
    return jobs


WORKLOADS = {
    "reference": reference_jobs,
    "certify": certify_jobs,
    "approx": approx_jobs,
}


def build(workload: str, seed: int, directory) -> list:
    """Write the workload's documents under ``directory`` and return its
    job list. The same seed gives the same documents and jobs."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng, _Writer(directory))

