"""Command-line interface.

Every command but ``suite`` reads a polynomial (or matrix) JSON document,
runs one library entry point, and prints a JSON report to stdout; ``main``
does the loading and the printing, and a ``_cmd_*`` function the run:

    {"schema": "polycap/1", "command": ..., "inputs": ..., "result": ..., "meta": ...}

Result objects go into the report as they are. ``_json`` writes the report
byte for byte as ``json.dumps(report, indent=2, sort_keys=True,
default=_encode, allow_nan=False)`` would, joining each row of floats in one
C-level call; ``_encode`` writes a result dataclass as its fields, a
non-finite float field as null, a Fraction as its string and a complex root as
[re, im].

Exit codes: 0 success, 1 check-suite failure (or a failed diagnostic with
--strict), 2 invalid input, 3 resource limit refused, 4 unexpected error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .polynomials import (
    DeterminantalPolynomial,
    EvaluationOracle,
    ProductFormPolynomial,
)

_EQUALITY_TOL = 1e-9
_ascii = json.encoder.encode_basestring_ascii
# How a refusal names the one representation a command needs.
_KIND_NAMES = {
    ProductFormPolynomial: "'product' document (the matrix rows)",
    DeterminantalPolynomial: "'determinantal' document (the PSD tuple)",
}


def _finite(value):
    """A non-finite float as None (JSON null); anything else as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _encode(obj):
    """What json cannot write by itself (``json.dumps``'s ``default``)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _finite(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        try:
            return str(obj)
        except ValueError:  # only the int-to-str digit limit raises here
            raise ResourceLimitError(
                "exact result refused: a numerator or denominator has more "
                f"than {sys.get_int_max_str_digits()} digits, Python's limit "
                "on writing an int (PYTHONINTMAXSTRDIGITS)"
            ) from None
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot write {type(obj).__name__} into a report")


def _json(obj, pad: str = "\n") -> str:
    """obj as ``json.dumps(obj, indent=2, sort_keys=True, default=_encode,
    allow_nan=False)`` writes it, with ``pad`` the newline and indent of its
    level. A list of finite floats is joined in one C-level call; any other
    item (an int, a bool, a nested list) sends its list item by item, so an
    error is the one json raises, at the same item."""
    if isinstance(obj, str):
        return _ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            if all(map(math.isfinite, obj)):
                items = map(float.__repr__, obj)
                return "[" + inner + ("," + inner).join(items) + pad + "]"
        except Exception:  # written item by item below, as json would
            pass
        items = (_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{_ascii(_key(k))}: {_json(v, inner)}"
                 for k, v in sorted(obj.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return _json(_encode(obj), pad)


def _key(key) -> str:
    """A dict key as json turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _emit(args, inputs: dict, result):
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
    text = _json(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
    else:
        print(text)


def _shape(poly) -> dict:
    return {"n_vars": poly.n_vars, "degree": poly.degree}


# Each document command takes the parsed arguments and the loaded document
# and returns its report's (inputs, result); ``main`` loads and emits. The
# library functions are called through this module's names, so that a
# wrapper set on the module sees every call.

def _cmd_capacity(args, poly):
    return _shape(poly), capacity_minimize(poly, tol=args.tol,
                                           max_iter=args.max_iter)


def _cmd_permanent(args, poly):
    result = {"permanent": permanent_ryser(poly.matrix, mode=args.mode)}
    if args.mode == "float":
        result["error_bound"] = permanent_error_bound(poly.matrix)
    return {"n": poly.n_vars}, result


def _cmd_mixed_disc(args, poly):
    return {"n": poly.n_vars}, {"mixed_discriminant": mixed_discriminant(poly)}


def _cmd_bound(args, poly):
    report = rank_ladder_bound(poly, tol=args.tol, max_iter=args.max_iter)
    result = _encode(report)
    if report.exact_value is not None:
        scale = max(1.0, abs(report.exact_value))
        result["equality_vdw"] = bool(
            abs(report.exact_value - report.lower_bound_vdw) <= _EQUALITY_TOL * scale)
        result["equality_rank"] = bool(
            abs(report.exact_value - report.lower_bound_rank) <= _EQUALITY_TOL * scale)
    return _shape(poly), result


def _cmd_approx(args, poly):
    return {**_shape(poly), "k": args.k}, estimate_mixed_partial(
        poly, k=args.k, tol=args.tol, max_iter=args.max_iter)


def _cmd_check_hyperbolic(args, poly):
    ok_root, worst = real_rootedness_check(
        poly, trials=args.trials, seed=args.seed)
    ok_half, stats = half_plane_sample_check(
        poly, samples=args.samples, seed=args.seed)
    checks = [{
        "check": "real-rootedness",
        "passed": bool(ok_root),
        "trials": args.trials,
        "worst_profile": worst,
    }, {
        "check": "half-plane",
        "passed": bool(ok_half),
        "samples": stats["samples"],
        "worst_margin": stats["worst_margin"],
        "witness": stats["witness"],
    }]
    return _shape(poly), {"passed": bool(ok_root and ok_half),
                          "checks": checks, "oracle_calls": poly.calls}


def _cmd_scale(args, poly):
    return {"n": poly.n_vars}, sinkhorn_scale(poly.matrix, tol=args.tol,
                                              max_iter=args.max_iter)


def _cmd_sparse_bound(args, poly):
    return {"n": poly.n_vars}, sparse_permanent_bound(poly.matrix)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; every caller shares it."""
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

    def common(p, fn, max_iter=None, kind=EvaluationOracle):
        # Every document command's options; the solvers' also --tol, --max-iter.
        # A command that needs one representation refuses any other.
        p.add_argument("input", help="polynomial JSON file")
        p.add_argument("--mode", choices=("exact", "float"), default="float",
                       help="arithmetic mode (default float)")
        if max_iter is not None:
            p.add_argument("--tol", type=float, default=1e-10,
                           help="convergence tolerance (default 1e-10)")
            p.add_argument("--max-iter", dest="max_iter", type=int,
                           default=max_iter,
                           help=f"iteration cap (default {max_iter})")
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--no-meta", dest="no_meta", action="store_true",
                       help="omit the meta block (byte-stable reports)")
        p.set_defaults(fn=fn, kind=kind)

    p = sub.add_parser("capacity", help="minimize p over the slice prod(x)=1")
    common(p, _cmd_capacity, max_iter=200)

    p = sub.add_parser("permanent", help="exact/float permanent of a product matrix")
    common(p, _cmd_permanent, kind=ProductFormPolynomial)

    p = sub.add_parser("mixed-disc", help="mixed discriminant of a PSD tuple")
    common(p, _cmd_mixed_disc, kind=DeterminantalPolynomial)

    p = sub.add_parser("bound",
                       help="capacity lower bounds on the full mixed partial")
    common(p, _cmd_bound, max_iter=200)

    p = sub.add_parser("approx",
                       help="estimate the mixed partial with a guarantee factor")
    common(p, _cmd_approx, max_iter=200)
    p.add_argument("--k", type=int, default=0,
                   help="head variables to differentiate out (default 0)")

    p = sub.add_parser("check-hyperbolic",
                       help="real-rootedness and half-plane diagnostics")
    common(p, _cmd_check_hyperbolic)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled checks (default 0)")
    p.add_argument("--trials", type=int, default=50,
                   help="random slice directions (default 50)")
    p.add_argument("--samples", type=int, default=500,
                   help="half-plane sample points (default 500)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when a diagnostic fails")

    p = sub.add_parser("scale", help="Sinkhorn-balance a product matrix")
    common(p, _cmd_scale, max_iter=10000, kind=ProductFormPolynomial)

    p = sub.add_parser("sparse-bound",
                       help="doubly stochastic permanent lower bound")
    common(p, _cmd_sparse_bound, kind=ProductFormPolynomial)

    p = sub.add_parser("suite", help="run the built-in check suite")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers (1..10)")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # The subcommand's own usage, not the top-level one.
        commands = next(a for a in parser._actions if a.dest == "command")
        commands.choices[args.command].error(
            f"unrecognized arguments: {' '.join(unknown)}")
    try:
        # Each command is checked only for the options it has.
        if "tol" in args and not args.tol > 0:
            raise InputError("tol must be positive")
        if "max_iter" in args and args.max_iter < 1:
            raise InputError("max-iter must be >= 1")
        if args.command == "suite":
            return args.fn(args)
        if not args.input:
            raise InputError("an input file is required")
        poly = load_polynomial(args.input, mode=args.mode)
        if not isinstance(poly, args.kind):
            raise InputError(f"{args.command} needs a {_KIND_NAMES[args.kind]}")
        inputs, result = args.fn(args, poly)
        _emit(args, {"path": args.input, **inputs}, result)
        return 1 if getattr(args, "strict", False) and not result["passed"] else 0
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
