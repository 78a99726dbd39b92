"""Polynomial file format and scalar parsing.

Files are JSON with a ``kind`` discriminator::

    {"kind": "sparse", "n": 3, "terms": [{"exp": [1,1,1], "coef": "6"}]}
    {"kind": "product", "matrix": [["1/2","1/2","0"], ...]}
    {"kind": "determinantal", "matrices": [[[...], ...], ...]}

Scalars are decimal or rational strings ("0.5", "1/3", "6"), so exact inputs
are written without rounding. Plain JSON numbers are accepted in float mode,
and JSON integers in exact mode too. A document's strings go through one
table: each distinct string is parsed once per load, in bulk in either mode
(float() or Fraction(), and int(p) / int(q) or Fraction(int(p), int(q)) for
"p/q"), and each entry of a matrix of strings is then looked up in C,
straight into a float array in float mode. A matrix that holds a JSON number
or bool, or a string the bulk step refuses, is parsed entry by entry with
parse_scalar, the reference parse. The package reads these documents and
does not write them.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from numbers import Integral, Real
from operator import truediv

import numpy as np

from .errors import InputError
from .polynomials import (
    DeterminantalPolynomial,
    ProductFormPolynomial,
    SparsePolynomial,
    _is_int,
)

SCHEMA = "polycap/1"
# The strings that _bulk reads as int(p) and int(q) around one '/'.
_RATIO_SHAPE = re.compile(r"[+-]?\d+/\d+")


def parse_scalar(value, mode: str):
    """Parse a JSON scalar (string/int/float) into a Fraction, or in float
    mode into a finite float: float() for a number or a string without '/',
    float(Fraction()) for a string with one, so the float is the exact value
    rounded once. This is the reference parse that every loading path
    matches."""
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
        f = float(Fraction(value) if isinstance(value, str) and "/" in value
                  else value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot parse scalar {value!r}: {exc}") from None
    if not math.isfinite(f):
        raise InputError(f"cannot parse scalar {value!r}: not a finite number")
    return f


def _check_list(value, where: str, of: str):
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{where} must be a list of {of}")
    return value


def _bulk(strings, mode: str, table: dict):
    """Store in table the value of each string that parses in bulk, with
    parse_scalar's value: float(), or Fraction() in exact mode, over the
    strings without '/'; int(p) / int(q), or Fraction(int(p), int(q)), over
    those of the shape [+-]digits/digits. A group with any refusal (an
    error, or a non-finite float) is left out whole, as is any other string."""
    exact = mode == "exact"
    plain = [s for s in strings if "/" not in s]
    ratios = (list(filter(_RATIO_SHAPE.fullmatch, strings))
              if len(plain) < len(strings) else [])
    try:
        values = list(map(Fraction if exact else float, plain))
        if exact or all(map(math.isfinite, values)):
            table.update(zip(plain, values))
    except ValueError:
        pass
    if ratios:
        # Each of them holds one '/', so the joined parts alternate p, q.
        parts = "/".join(ratios).split("/")
        try:
            table.update(zip(ratios, list(map(
                Fraction if exact else truediv,
                map(int, parts[::2]), map(int, parts[1::2])))))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass


def _parse_one(value, mode: str, table: dict, where: str, *index):
    """parse_scalar for one entry, through the table for a string (only str
    keys are stored: True, 1 and 1.0 hash alike but parse differently). A
    refusal is labelled where.format(*index), as in matrix[0][1]."""
    try:
        if type(value) is not str:
            return parse_scalar(value, mode)
        parsed = table.get(value)
        if parsed is None:
            parsed = table[value] = parse_scalar(value, mode)
        return parsed
    except InputError as exc:
        raise InputError(f"{where.format(*index)}: {exc}") from None


def _parse_rows(rows, mode: str, table: dict, where: str):
    """The parsed scalars of a list of rows: one float ndarray for
    rectangular rows in float mode, else lists. The new distinct strings are
    parsed in bulk and every entry is then mapped through the table in C.
    Rows holding anything but strings, or a string the bulk step left out,
    are parsed entry by entry, so the first refusal names the first bad
    entry in row-major order."""
    for i, row in enumerate(_check_list(rows, where, "rows")):
        _check_list(row, f"{where}[{i}]", "scalars")
    try:
        distinct = set(chain.from_iterable(rows))
    except TypeError:
        distinct = set()
    bulk = set(map(type, distinct)) == {str}
    if bulk:
        new = list(distinct.difference(table))
        size = len(table) + len(new)
        _bulk(new, mode, table)
        bulk = len(table) == size
    if not bulk:
        where += "[{}][{}]"
        return [[_parse_one(v, mode, table, where, i, j)
                 for j, v in enumerate(row)] for i, row in enumerate(rows)]
    get = table.__getitem__
    width = len(rows[0])
    if mode == "float" and set(map(len, rows)) == {width}:
        return np.fromiter(map(get, chain.from_iterable(rows)), float,
                           len(rows) * width).reshape(len(rows), width)
    return [list(map(get, row)) for row in rows]


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
    table = {}  # each distinct string's value, for this load only
    if kind == "sparse":
        n = _require(obj, "n", "sparse polynomial")
        if not _is_int(n) or n < 1:
            raise InputError(f"field 'n' must be a positive integer, got {n!r}")
        raw_terms = _require(obj, "terms", "sparse polynomial")
        terms = []
        for idx, t in enumerate(_check_list(raw_terms, "terms", "objects")):
            if not isinstance(t, dict):
                raise InputError(f"terms[{idx}] must be an object with 'exp' and 'coef'")
            exp = _require(t, "exp", f"terms[{idx}]")
            coef = _require(t, "coef", f"terms[{idx}]")
            where = f"terms[{idx}].exp"
            if not all(_is_int(k) for k in _check_list(exp, where, "integers")):
                raise InputError(f"{where} must be a list of integers")
            coef = _parse_one(coef, mode, table, "terms[{}].coef", idx)
            terms.append((exp, coef))
        return SparsePolynomial(n, terms, mode=mode)
    if kind == "product":
        matrix = _require(obj, "matrix", "product polynomial")
        return ProductFormPolynomial(_parse_rows(matrix, mode, table, "matrix"),
                                     mode=mode)
    if kind == "determinantal":
        matrices = _require(obj, "matrices", "determinantal polynomial")
        mats = [_parse_rows(m, mode, table, f"matrices[{k}]")
                for k, m in enumerate(_check_list(matrices, "matrices", "matrices"))]
        return DeterminantalPolynomial(mats, mode=mode)
    raise InputError(
        f"unknown kind {kind!r}; expected 'sparse', 'product', or 'determinantal'"
    )


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

