"""Command-line interface.

Every command reads a polynomial (or matrix) JSON document, runs one library
entry point, and prints a JSON report to stdout:

    {"schema": "polycap/1", "command": ..., "inputs": ..., "result": ..., "meta": ...}

Result objects go into the report as they are: the ``default`` hook of the
one ``json.dumps`` call writes a result dataclass as its fields, a non-finite
float field as null, a Fraction as its string and a complex root as [re, im].

Exit codes: 0 success, 1 check-suite failure (or a failed diagnostic with
--strict), 2 invalid input, 3 resource limit refused, 4 unexpected error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .acceptance import run_all
from .approx import estimate_mixed_partial
from .bounds import rank_ladder_bound, sparse_permanent_bound
from .capacity import capacity_minimize, sinkhorn_scale
from .errors import InputError, ResourceLimitError
from .hyperbolicity import half_plane_sample_check, real_rootedness_check
from .io import SCHEMA, load_polynomial
from .oracles import (
    mixed_discriminant,
    permanent_error_bound,
    permanent_ryser,
)
from .polynomials import DeterminantalPolynomial, ProductFormPolynomial

_EQUALITY_TOL = 1e-9


def _finite(value):
    """A non-finite float as None (JSON null); anything else as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _encode(obj):
    """json.dumps default: what json cannot write by itself."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _finite(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot write {type(obj).__name__} into a report")


def _emit(args, inputs: dict, result) -> str:
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "result": result,
    }
    if not args.no_meta:
        report["meta"] = {
            "tool": "polycap",
            "version": __version__,
            "mode": args.mode,
        }
    # A non-finite float left outside a result field raises (exit 4) rather
    # than writing Infinity or NaN, which are not JSON.
    text = json.dumps(report, indent=2, sort_keys=True, default=_encode,
                      allow_nan=False)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
    else:
        print(text)
    return text


def _load(args, kind=None, what=None):
    """Load the input document; with ``kind``, refuse any other representation
    with the error '<command> needs a <what>'."""
    if not args.input:
        raise InputError("an input file is required")
    poly = load_polynomial(args.input, mode=args.mode)
    if kind is not None and not isinstance(poly, kind):
        raise InputError(f"{args.command} needs a {what}")
    return poly


def _cmd_capacity(args) -> int:
    poly = _load(args)
    res = capacity_minimize(poly, tol=args.tol, max_iter=args.max_iter)
    _emit(args, {"path": args.input, "n_vars": poly.n_vars,
                 "degree": poly.degree}, res)
    return 0


def _cmd_permanent(args) -> int:
    poly = _load(args, ProductFormPolynomial, "'product' document (the matrix rows)")
    result = {"permanent": permanent_ryser(poly.matrix, mode=args.mode)}
    if args.mode == "float":
        result["error_bound"] = permanent_error_bound(poly.matrix)
    _emit(args, {"path": args.input, "n": poly.n_vars}, result)
    return 0


def _cmd_mixed_disc(args) -> int:
    poly = _load(args, DeterminantalPolynomial,
                 "'determinantal' document (the PSD tuple)")
    value = mixed_discriminant(poly)
    _emit(args, {"path": args.input, "n": poly.n_vars},
          {"mixed_discriminant": value})
    return 0


def _cmd_bound(args) -> int:
    poly = _load(args)
    ordering = args.ordering
    if ordering not in ("as-given", "greedy"):
        try:
            ordering = tuple(int(s) for s in ordering.split(","))
        except ValueError:
            raise InputError(
                "ordering must be 'as-given', 'greedy', or a comma-separated "
                "permutation of 0..n-1") from None
    report = rank_ladder_bound(poly, ordering=ordering, tol=args.tol,
                               max_iter=args.max_iter)
    result = _encode(report)
    if report.exact_value is not None:
        scale = max(1.0, abs(report.exact_value))
        result["equality_vdw"] = bool(
            abs(report.exact_value - report.lower_bound_vdw) <= _EQUALITY_TOL * scale)
        result["equality_rank"] = bool(
            abs(report.exact_value - report.lower_bound_rank) <= _EQUALITY_TOL * scale)
    _emit(args, {"path": args.input, "n_vars": poly.n_vars,
                 "degree": poly.degree}, result)
    return 0


def _cmd_approx(args) -> int:
    poly = _load(args)
    res = estimate_mixed_partial(poly, k=args.k, tol=args.tol,
                                 max_iter=args.max_iter)
    _emit(args, {"path": args.input, "n_vars": poly.n_vars,
                 "degree": poly.degree, "k": args.k}, res)
    return 0


def _cmd_check_hyperbolic(args) -> int:
    poly = _load(args)
    checks = []
    ok_root, worst = real_rootedness_check(
        poly, trials=args.trials, seed=args.seed)
    checks.append({
        "check": "real-rootedness",
        "passed": bool(ok_root),
        "trials": args.trials,
        "worst_profile": worst,
    })
    ok_half, stats = half_plane_sample_check(
        poly, samples=args.samples, seed=args.seed)
    checks.append({
        "check": "half-plane",
        "passed": bool(ok_half),
        "samples": stats["samples"],
        "worst_margin": stats["worst_margin"],
        "witness": stats["witness"],
    })
    passed = bool(ok_root and ok_half)
    _emit(args, {"path": args.input, "n_vars": poly.n_vars,
                 "degree": poly.degree},
          {"passed": passed, "checks": checks,
           "oracle_calls": poly.calls})
    if args.strict and not passed:
        return 1
    return 0


def _cmd_scale(args) -> int:
    poly = _load(args, ProductFormPolynomial, "'product' document (the matrix rows)")
    res = sinkhorn_scale(poly.matrix, tol=args.tol, max_iter=args.max_iter)
    _emit(args, {"path": args.input, "n": poly.n_vars}, res)
    return 0


def _cmd_sparse_bound(args) -> int:
    poly = _load(args, ProductFormPolynomial, "'product' document (the matrix rows)")
    bound = sparse_permanent_bound(poly.matrix, k=args.k,
                                   transpose=args.transpose)
    result = {"bound": bound, "k": args.k, "transpose": bool(args.transpose)}
    if poly.n_vars <= 14:
        result["permanent"] = float(permanent_ryser(poly.matrix, mode="float"))
    _emit(args, {"path": args.input, "n": poly.n_vars}, result)
    return 0


def _cmd_suite(args) -> int:
    only = None
    if args.only is not None:
        try:
            only = [int(s) for s in args.only.split(",")]
        except ValueError:
            raise InputError(
                f"--only expects comma-separated integers, got {args.only!r}")
    results = run_all(only)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} criteria passed"
    print(summary)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycap",
        description=(
            "Capacity bounds for homogeneous polynomials with nonnegative "
            "coefficients: permanents, mixed discriminants, and certified "
            "approximation of mixed partial derivatives."),
    )
    parser.add_argument("--version", action="version",
                        version=f"polycap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, max_iter=200):
        if needs_input:
            p.add_argument("input", help="polynomial JSON file")
        p.add_argument("--mode", choices=("exact", "float"), default="float",
                       help="arithmetic mode (default float)")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="convergence tolerance (default 1e-10)")
        p.add_argument("--max-iter", dest="max_iter", type=int,
                       default=max_iter,
                       help=f"iteration cap (default {max_iter})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks (default 0)")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--no-meta", dest="no_meta", action="store_true",
                       help="omit the meta block (byte-stable reports)")

    p = sub.add_parser("capacity", help="minimize p over the slice prod(x)=1")
    common(p)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("permanent", help="exact/float permanent of a product matrix")
    common(p)
    p.set_defaults(fn=_cmd_permanent)

    p = sub.add_parser("mixed-disc", help="mixed discriminant of a PSD tuple")
    common(p)
    p.set_defaults(fn=_cmd_mixed_disc)

    p = sub.add_parser("bound",
                       help="capacity lower bounds on the full mixed partial")
    common(p)
    p.add_argument("--ordering", default="as-given",
                   help="'as-given', 'greedy', or comma-separated permutation")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("approx",
                       help="estimate the mixed partial with a guarantee factor")
    common(p)
    p.add_argument("--k", type=int, default=0,
                   help="head variables to differentiate out (default 0)")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("check-hyperbolic",
                       help="real-rootedness and half-plane diagnostics")
    common(p)
    p.add_argument("--trials", type=int, default=50,
                   help="random slice directions (default 50)")
    p.add_argument("--samples", type=int, default=500,
                   help="half-plane sample points (default 500)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when a diagnostic fails")
    p.set_defaults(fn=_cmd_check_hyperbolic)

    p = sub.add_parser("scale", help="Sinkhorn-balance a product matrix")
    common(p, max_iter=10000)
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser("sparse-bound",
                       help="support-sparsity permanent lower bound")
    common(p)
    p.add_argument("--k", type=int, required=True,
                   help="support size (nonzeros per column among the first n-k)")
    p.add_argument("--transpose", action="store_true",
                   help="apply the row-wise variant")
    p.set_defaults(fn=_cmd_sparse_bound)

    p = sub.add_parser("suite", help="run the built-in check suite")
    common(p, needs_input=False)
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers (1..10)")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.tol > 0:
            raise InputError("tol must be positive")
        if args.max_iter < 1:
            raise InputError("max-iter must be >= 1")
        if getattr(args, "k", 0) < 0:
            raise InputError("k must be >= 0")
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
