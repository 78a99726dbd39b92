"""Polynomial file format and scalar parsing.

Files are JSON with a ``kind`` discriminator::

    {"kind": "sparse", "n": 3, "terms": [{"exp": [1,1,1], "coef": "6"}]}
    {"kind": "product", "matrix": [["1/2","1/2","0"], ...]}
    {"kind": "determinantal", "matrices": [[[...], ...], ...]}

Scalars are decimal or rational strings ("0.5", "1/3", "6") so exact inputs
survive the round trip; plain JSON numbers are accepted in float mode.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from numbers import Integral, Real

from .errors import InputError
from .polynomials import (
    DeterminantalPolynomial,
    ProductFormPolynomial,
    SparsePolynomial,
)

SCHEMA = "polycap/1"


def parse_scalar(value, mode: str):
    """Parse a JSON scalar (string/int/float) into a Fraction, or in float
    mode into a finite float.

    A float-mode string goes through float() unless it is a ratio 'p/q',
    which goes through Fraction; both round correctly, so either way the
    float is the exact value rounded once.
    """
    if isinstance(value, bool):
        raise InputError(f"cannot parse scalar {value!r}")
    if not isinstance(value, (str, Real)):
        raise InputError(f"cannot parse scalar of type {type(value).__name__}")
    if mode == "exact" and not isinstance(value, (str, Integral)):
        raise InputError(
            f"float literal {value!r} in exact mode; quote it as a rational "
            "string (e.g. \"1/3\") to preserve exactness"
        )
    try:
        if mode == "exact":
            return Fraction(value)
        f = float(Fraction(value) if isinstance(value, str) and "/" in value else value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot parse scalar {value!r}: {exc}") from None
    if not math.isfinite(f):
        raise InputError(f"cannot parse scalar {value!r}: not a finite number")
    return f


def scalar_to_string(value) -> str:
    """Canonical string form: Fractions as 'p/q' or 'k', floats via repr."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def format_scalar(value):
    """JSON-report form: Fractions become strings, floats stay numbers."""
    if isinstance(value, (Fraction, int)):
        return str(value)
    return float(value)


def _check_list(value, where: str, of: str):
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{where} must be a list of {of}")
    return value


def _parse_rows(rows, mode: str, where: str):
    """parse_scalar over a list of rows. On failure the rows are scanned again
    to name the bad entry, as in matrix[0][1], so success builds no label."""
    for i, row in enumerate(_check_list(rows, where, "rows")):
        _check_list(row, f"{where}[{i}]", "scalars")
    try:
        return [[parse_scalar(v, mode) for v in row] for row in rows]
    except InputError as exc:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                try:
                    parse_scalar(v, mode)
                except InputError:
                    raise InputError(f"{where}[{i}][{j}]: {exc}") from None
        raise


def _require(obj: dict, field: str, where: str):
    if field not in obj:
        raise InputError(f"missing field {field!r} in {where}")
    return obj[field]


def polynomial_from_dict(obj, mode: str = "float"):
    if not isinstance(obj, dict):
        raise InputError("polynomial document must be a JSON object")
    schema = obj.get("schema")
    if schema is not None and schema != SCHEMA:
        raise InputError(f"unsupported schema {schema!r}; expected {SCHEMA!r}")
    if "mode" in obj:
        pinned = obj["mode"]
        if pinned not in ("exact", "float"):
            raise InputError(
                f"field 'mode' must be 'exact' or 'float', got {pinned!r}")
        if pinned != mode:
            raise InputError(
                f"document pins mode {pinned!r} but {mode!r} was requested")
    kind = _require(obj, "kind", "polynomial document")
    if kind == "sparse":
        n = _require(obj, "n", "sparse polynomial")
        if not isinstance(n, int) or n < 1:
            raise InputError(f"field 'n' must be a positive integer, got {n!r}")
        raw_terms = _require(obj, "terms", "sparse polynomial")
        terms = {}
        for idx, t in enumerate(_check_list(raw_terms, "terms", "objects")):
            if not isinstance(t, dict):
                raise InputError(f"terms[{idx}] must be an object with 'exp' and 'coef'")
            exp = _require(t, "exp", f"terms[{idx}]")
            coef = _require(t, "coef", f"terms[{idx}]")
            try:
                e = tuple(int(k) for k in exp)
            except (TypeError, ValueError):
                raise InputError(f"terms[{idx}].exp must be a list of integers") from None
            try:
                terms[e] = parse_scalar(coef, mode)
            except InputError as exc:
                raise InputError(f"terms[{idx}].coef: {exc}") from None
        return SparsePolynomial(n, terms, mode=mode)
    if kind == "product":
        matrix = _require(obj, "matrix", "product polynomial")
        return ProductFormPolynomial(_parse_rows(matrix, mode, "matrix"), mode=mode)
    if kind == "determinantal":
        matrices = _require(obj, "matrices", "determinantal polynomial")
        mats = [_parse_rows(m, mode, f"matrices[{k}]")
                for k, m in enumerate(_check_list(matrices, "matrices", "matrices"))]
        return DeterminantalPolynomial(mats, mode=mode)
    raise InputError(
        f"unknown kind {kind!r}; expected 'sparse', 'product', or 'determinantal'"
    )


def polynomial_to_dict(poly) -> dict:
    if isinstance(poly, SparsePolynomial):
        return {
            "kind": "sparse",
            "n": poly.n_vars,
            "terms": [
                {"exp": list(e), "coef": scalar_to_string(c)}
                for e, c in sorted(poly.terms.items())
            ],
        }
    if isinstance(poly, ProductFormPolynomial):
        return {
            "kind": "product",
            "matrix": [[scalar_to_string(v) for v in row] for row in poly.rows],
        }
    if isinstance(poly, DeterminantalPolynomial):
        return {
            "kind": "determinantal",
            "matrices": [
                [[scalar_to_string(v) for v in row] for row in m]
                for m in poly.matrices
            ],
        }
    raise InputError(f"cannot serialize {type(poly).__name__}")


def load_polynomial(path, mode: str = "float"):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return polynomial_from_dict(obj, mode=mode)


def save_polynomial(path, poly):
    doc = {"schema": SCHEMA, **polynomial_to_dict(poly)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
