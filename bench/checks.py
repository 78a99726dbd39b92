"""Checks on every CLI report against the references in ``refs`` or against
properties the method must have. None compares against a stored copy of an
earlier output.

Tolerances, stated before any output is seen:

* exact values: equal to the reference as rationals;
* float permanents and mixed discriminants: within the a-priori rounding
  bound each job carries (see ``workloads.reference_jobs``);
* capacities: within ``CAP_RTOL`` of the reference;
* quantities the report derives from its capacity by an exact factor:
  within ``DERIVED_RTOL`` of the factor times the reported capacity.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import refs

CAP_RTOL = 1e-7
DERIVED_RTOL = 1e-12
# |sum_i ln x_i| for a minimizer reported on the slice prod(x) = 1.
SLICE_ATOL = 1e-9
# Relative gap allowed between the reported p(x) and p(x) recomputed here.
VALUE_RTOL = 1e-10
# The CLI's default tolerance, which scale promises for row and column sums,
# plus the rounding of the sums recomputed here.
SCALE_TOL = 1e-10 + 1e-13


def _close(value, target, rtol) -> bool:
    return abs(value - target) <= rtol * abs(target)


def _log_close(value, log_target, rtol) -> bool:
    return value > 0 and abs(math.log(value) - log_target) <= rtol


def _scalar(job, result):
    key = "permanent" if job.argv[0] == "permanent" else "mixed_discriminant"
    return result[key]


def check_exact(job, result):
    value = _scalar(job, result)
    if not isinstance(value, str):
        return [f"exact result {value!r} is not a rational string"]
    if Fraction(value) != job.expect["value"]:
        return [f"{value} != reference {job.expect['value']}"]
    return []


def check_float(job, result):
    value = _scalar(job, result)
    err = abs(Fraction(value) - job.expect["value"])
    if err > Fraction(job.expect["tol"]):
        return [f"{value} is {float(err):.3g} from the reference, "
                f"over the bound {job.expect['tol']:.3g}"]
    return []


def check_bound(job, result):
    errors = []
    n = result["n"]
    cap = result["capacity"]
    if not _log_close(cap, job.expect["log_cap"], CAP_RTOL):
        errors.append(f"capacity {cap} is not exp({job.expect['log_cap']})")
    vdw = float(refs.vdw_factor(n) * Fraction(cap))
    if not _close(result["lower_bound_vdw"], vdw, DERIVED_RTOL):
        errors.append(f"lower_bound_vdw {result['lower_bound_vdw']} != "
                      f"n!/n^n * capacity = {vdw}")
    if result["lower_bound_rank"] < result["lower_bound_vdw"] * (1 - DERIVED_RTOL):
        errors.append("lower_bound_rank < lower_bound_vdw")
    if result["ranks"] != job.expect["ranks"]:
        errors.append(f"ranks {result['ranks']} != {job.expect['ranks']}")
    if result.get("exact_value") is not None:
        errors.append("an exact reference ran past the brute-force caps")
    k = job.expect["k"]
    if k is not None:
        uniform = result.get("lower_bound_uniform_rank")
        target = float(refs.uniform_rank_factor(n, k) * Fraction(cap))
        if uniform is None or not _close(uniform, target, DERIVED_RTOL):
            errors.append(f"lower_bound_uniform_rank {uniform} != {target}")
    return errors


def check_capacity(job, result):
    errors = []
    value = result["value"]
    if not _log_close(value, job.expect["log_cap"], CAP_RTOL):
        errors.append(f"capacity {value} is not exp({job.expect['log_cap']})")
    x = np.array(result["minimizer"])
    if not (x > 0).all() or abs(np.log(x).sum()) > SLICE_ATOL:
        errors.append("minimizer is not on the slice prod(x) = 1")
    else:
        log_px = float(np.log(job.expect["matrix"] @ x).sum())
        if value <= 0 or abs(log_px - math.log(value)) > VALUE_RTOL:
            errors.append(f"p(minimizer) = exp({log_px}), report says {value}")
    return errors


def check_scale(job, result):
    errors = []
    B = np.array(result["scaled_matrix"])
    dev = max(np.abs(B.sum(axis=1) - 1).max(), np.abs(B.sum(axis=0) - 1).max())
    if result["status"] != "converged" or dev > SCALE_TOL:
        errors.append(f"scaled matrix is {dev:.3g} from doubly stochastic")
    A = job.expect["matrix"]
    r = np.array(result["row_scalers"])
    c = np.array(result["col_scalers"])
    if np.abs(B * r[:, None] * c[None, :] - A).max() > 1e-9 * A.max():
        errors.append("scaled matrix is not diag(1/r) A diag(1/c)")
    if not _log_close(result["capacity"], job.expect["log_cap"], CAP_RTOL):
        errors.append(f"capacity {result['capacity']} is not "
                      f"exp({job.expect['log_cap']})")
    return errors


def check_approx(job, result):
    errors = []
    n, k = job.expect["n"], job.expect["k"]
    factor = refs.approx_guarantee(n, k)
    if not _close(result["guarantee_factor"], float(factor), DERIVED_RTOL):
        errors.append(f"guarantee_factor {result['guarantee_factor']} != {factor}")
    true = job.expect["value"]
    estimate = Fraction(result["estimate"])
    slack = Fraction(1, 10 ** 9)
    if not true * (1 - slack) <= estimate <= factor * true * (1 + slack):
        errors.append(f"estimate {float(estimate)} outside "
                      f"[{float(true)}, {float(factor * true)}]")
    if result["k_used"] != k:
        errors.append(f"k_used {result['k_used']} != {k}")
    return errors


def check_stable(job, result):
    if result["passed"] is not True:
        return ["check-hyperbolic failed on an input stable by construction"]
    return []


CHECKS = {
    "exact": check_exact,
    "float": check_float,
    "bound": check_bound,
    "capacity": check_capacity,
    "scale": check_scale,
    "approx": check_approx,
    "stable": check_stable,
}


def check(job, report) -> list:
    """Errors found in one report (an empty list when it is correct)."""
    if report.get("command") != job.argv[0]:
        return [f"report is for {report.get('command')!r}"]
    return CHECKS[job.check](job, report["result"])
