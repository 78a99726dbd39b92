"""Polynomial file format and scalar parsing.

Files are JSON with a ``kind`` discriminator::

    {"kind": "sparse", "n": 3, "terms": [{"exp": [1,1,1], "coef": "6"}]}
    {"kind": "product", "matrix": [["1/2","1/2","0"], ...]}
    {"kind": "determinantal", "matrices": [[[...], ...], ...]}

Scalars are decimal or rational strings ("0.5", "1/3", "6"), so exact inputs
are written without rounding. Plain JSON numbers are accepted in float mode,
and JSON integers in exact mode too. A document's strings go through one
table: each distinct string is parsed once per load, in float mode in bulk
(float(), or int(p) / int(q) for "p/q", with parse_scalar taking whatever
those refuse), and each entry of a matrix of strings is then looked up in C,
straight into a float array in float mode. A matrix that holds a JSON number
or bool is parsed entry by entry. The package reads these documents and does
not write them.
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
# The strings _ratio reads without Fraction, for a bulk check.
_RATIO_SHAPE = re.compile(r"[+-]?\d+/\d+")


def _ratio(text: str):
    """(p, q) for a string that is exactly [+-]digits/digits with q != 0, else
    None. Such a string needs no Fraction regex; every other string goes
    through Fraction, so the accepted syntax stays Fraction's."""
    num, slash, den = text.partition("/")
    if slash and den.isdecimal() and (
            num[1:] if num[:1] in ("+", "-") else num).isdecimal():
        q = int(den)
        if q:
            return int(num), q
    return None


def parse_scalar(value, mode: str):
    """Parse a JSON scalar (string/int/float) into a Fraction, or in float
    mode into a finite float.

    A float-mode string 'p/q' is int(p) / int(q), which Python rounds
    correctly; any other string goes through float(), or through Fraction if
    it holds a '/' (a str without one skips the checks that lead there).
    Every way, the float is the exact value rounded once.
    """
    plain = mode == "float" and type(value) is str and "/" not in value
    if not plain:
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
        ratio = None if plain or not isinstance(value, str) else _ratio(value)
        if mode == "exact":
            return Fraction(*ratio) if ratio else Fraction(value)
        if ratio:
            f = ratio[0] / ratio[1]
        else:
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


def _bulk_floats(strings, table: dict):
    """Store in table the float of each string that float mode can parse in
    bulk, with parse_scalar's value: float() over the strings without '/',
    and int(p) / int(q) over those of _ratio's shape [+-]digits/digits, a
    digit being what str.isdecimal accepts. A group with any refusal
    (ValueError, a non-finite value, a zero denominator, an overflow) is left
    out whole, as is every other string, for parse_scalar to parse or
    refuse."""
    plain = [s for s in strings if "/" not in s]
    ratios = (list(filter(_RATIO_SHAPE.fullmatch, strings))
              if len(plain) < len(strings) else [])
    try:
        values = list(map(float, plain))
        if all(map(math.isfinite, values)):
            table.update(zip(plain, values))
    except ValueError:
        pass
    if ratios:
        # Each of them holds one '/', so the joined parts alternate p, q.
        parts = "/".join(ratios).split("/")
        try:
            table.update(zip(ratios, list(map(
                truediv, map(int, parts[::2]), map(int, parts[1::2])))))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass


class _ScalarTable:
    """The scalars of one document, keyed by their strings: each distinct
    string is parsed once per load and its value reused. Only str keys are
    stored (True, 1 and 1.0 hash alike but parse differently), a failed parse
    raises before it is stored, and the table is dropped after the load."""

    def __init__(self, mode: str):
        self.mode = mode
        self.values = {}

    def parse(self, value):
        """parse_scalar for one entry, through the table for a string."""
        if type(value) is not str:
            return parse_scalar(value, self.mode)
        parsed = self.values.get(value)
        if parsed is None:
            parsed = self.values[value] = parse_scalar(value, self.mode)
        return parsed

    def rows(self, rows):
        """The parsed scalars of a list of rows: one float ndarray for
        rectangular rows in float mode, else lists. The new distinct strings
        are parsed first, in bulk in float mode, and every entry is then
        mapped through the table in C. Rows holding anything but strings (a
        number, a bool, an unhashable value) are parsed entry by entry."""
        try:
            distinct = set(chain.from_iterable(rows))
        except TypeError:
            distinct = set()
        if set(map(type, distinct)) != {str}:
            return [[self.parse(v) for v in row] for row in rows]
        values = self.values
        new = list(distinct.difference(values))
        size = len(values) + len(new)
        if self.mode == "float":
            _bulk_floats(new, values)
        if len(values) < size:
            # In row-major order, so the first refusal is the first bad entry.
            for s in chain.from_iterable(rows):
                if s not in values:
                    values[s] = parse_scalar(s, self.mode)
        get = values.__getitem__
        width = len(rows[0])
        if self.mode == "float" and set(map(len, rows)) == {width}:
            return np.fromiter(map(get, chain.from_iterable(rows)), float,
                               len(rows) * width).reshape(len(rows), width)
        return [list(map(get, row)) for row in rows]


def _parse_rows(rows, table: _ScalarTable, where: str):
    """table.rows over a list of rows. On failure the rows are scanned again
    to name the bad entry, as in matrix[0][1], so success builds no label."""
    for i, row in enumerate(_check_list(rows, where, "rows")):
        _check_list(row, f"{where}[{i}]", "scalars")
    try:
        return table.rows(rows)
    except InputError as exc:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                try:
                    table.parse(v)
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
    table = _ScalarTable(mode)
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
            try:
                terms.append((exp, table.parse(coef)))
            except InputError as exc:
                raise InputError(f"terms[{idx}].coef: {exc}") from None
        return SparsePolynomial(n, terms, mode=mode)
    if kind == "product":
        matrix = _require(obj, "matrix", "product polynomial")
        return ProductFormPolynomial(_parse_rows(matrix, table, "matrix"), mode=mode)
    if kind == "determinantal":
        matrices = _require(obj, "matrices", "determinantal polynomial")
        mats = [_parse_rows(m, table, f"matrices[{k}]")
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

