"""The JSON document format: scalars, documents, files, error diagnostics."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import polycap as pc
from polycap import io as pio
from polycap import fixtures


class TestParseScalar:
    def test_rational_string(self):
        assert pio.parse_scalar("1/3", "exact") == Fraction(1, 3)

    def test_decimal_string_is_exact(self):
        assert pio.parse_scalar("0.5", "exact") == Fraction(1, 2)

    def test_int_in_float_mode(self):
        v = pio.parse_scalar(7, "float")
        assert v == 7.0 and isinstance(v, float)

    def test_int_in_exact_mode(self):
        v = pio.parse_scalar(7, "exact")
        assert v == Fraction(7)

    def test_float_literal_rejected_in_exact_mode(self):
        with pytest.raises(pc.InputError, match="quote it as a rational string"):
            pio.parse_scalar(0.5, "exact")

    def test_float_literal_in_float_mode(self):
        assert pio.parse_scalar(0.25, "float") == 0.25

    def test_bool_rejected(self):
        with pytest.raises(pc.InputError):
            pio.parse_scalar(True, "float")

    def test_garbage_string(self):
        with pytest.raises(pc.InputError):
            pio.parse_scalar("one half", "exact")

    @pytest.mark.parametrize("text", ["0.1", "1/3", "1e-5"])
    def test_float_mode_rounds_the_exact_value_once(self, text):
        v = pio.parse_scalar(text, "float")
        assert isinstance(v, float) and v == float(Fraction(text))

    @pytest.mark.parametrize("text", ["1e400", "inf", "-infinity", "nan"])
    def test_non_finite_rejected_in_float_mode(self, text):
        with pytest.raises(pc.InputError, match="not a finite number"):
            pio.parse_scalar(text, "float")

    def test_ratio_matches_fraction_on_random_strings(self):
        # 'p/q' strings, which skip Fraction's regex, against Fraction itself.
        rng = np.random.default_rng(0)
        for _ in range(20000):
            num, den = ("".join(map(str, rng.integers(0, 10, rng.integers(1, 41))))
                        for _ in range(2))
            text = f"{rng.choice(['', '+', '-'])}{num}/{den}"
            if int(den) == 0:
                with pytest.raises(pc.InputError, match="Fraction"):
                    pio.parse_scalar(text, "float")
                continue
            assert pio.parse_scalar(text, "float") == float(Fraction(text))
            assert pio.parse_scalar(text, "exact") == Fraction(text)

    def test_plain_strings_parse_as_before(self):
        # The float-mode rule, written out as the reference for values and
        # messages alike: float() for a str without '/', float(Fraction())
        # for one with. parse_scalar follows it, and so does every value the
        # bulk step stores, on the strings above, their digits as decimals,
        # and edge strings.
        def before(text):
            try:
                f = float(Fraction(text) if "/" in text else text)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                return f"cannot parse scalar {text!r}: {exc}"
            if not math.isfinite(f):
                return f"cannot parse scalar {text!r}: not a finite number"
            return repr(f)

        def now(text):
            try:
                return repr(pio.parse_scalar(text, "float"))
            except pc.InputError as exc:
                return str(exc)

        texts = ["nan", "inf", "-Infinity", "1e400", "1e-400", " 0.5 ", "",
                 "1_0", "_1", "0x10", "-0", "1 2", " x ", " nan ", "\u0661",
                 "0.5\n"]
        rng = np.random.default_rng(0)
        for _ in range(20000):
            num, den = ("".join(map(str, rng.integers(0, 10, rng.integers(1, 41))))
                        for _ in range(2))
            sign = rng.choice(['', '+', '-'])
            texts += [f"{sign}{num}/{den}", f"{sign}{num}", f"{sign}{num}.{den}",
                      f"{sign}{num[:3]}e{den[:3]}"]
        for text in texts:
            assert now(text) == before(text), text
            table = {}
            pio._bulk([text], "float", table)
            if table:
                assert repr(table[text]) == before(text), text

    @pytest.mark.parametrize("text", [
        " 1/2 ", "1_0/3", "\u0661/\u0662", "1 / 2", "1/ 2", "1/-2", "/2", "1/",
        "\u00b2/3", "1/0", "1" + "0" * 400 + "/1"])
    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_ratio_syntax_is_fractions(self, text, mode):
        # Whatever Fraction accepts is accepted with its value, and whatever
        # it refuses is refused with its message.
        try:
            value = Fraction(text)
            expected = value if mode == "exact" else float(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            with pytest.raises(pc.InputError) as info:
                pio.parse_scalar(text, mode)
            assert str(info.value) == f"cannot parse scalar {text!r}: {exc}"
        else:
            assert pio.parse_scalar(text, mode) == expected

    def test_zero_denominator_message(self):
        with pytest.raises(pc.InputError) as info:
            pio.parse_scalar("1/0", "float")
        assert str(info.value) == "cannot parse scalar '1/0': Fraction(1, 0)"


# ((x_1 + x_2 + x_3)/3)^3 as a product document.
UNIFORM3 = {"kind": "product", "matrix": [["1/3"] * 3] * 3}


class TestDocumentRoundTrip:
    """A document written as a literal loads as the polynomial it describes."""

    def test_sparse(self):
        p = pc.SparsePolynomial(3, {(1, 1, 1): Fraction(2, 3), (3, 0, 0): 1})
        q = pio.polynomial_from_dict({"kind": "sparse", "n": 3, "terms": [
            {"exp": [1, 1, 1], "coef": "2/3"}, {"exp": [3, 0, 0], "coef": "1"}]},
            mode="exact")
        assert isinstance(q, pc.SparsePolynomial)
        assert q.n_vars == 3 and q.terms == p.terms and q.mode == "exact"

    def test_product(self):
        p = fixtures.uniform_product_polynomial(3)
        q = pio.polynomial_from_dict(UNIFORM3, mode="exact")
        assert isinstance(q, pc.ProductFormPolynomial)
        assert q.matrix.tolist() == p.matrix.tolist()

    def test_determinantal(self):
        mats = fixtures.diagonal_psd_tuple([[Fraction(1, 2), Fraction(1, 2)],
                                            [Fraction(1, 2), Fraction(1, 2)]])
        p = pc.DeterminantalPolynomial(mats, mode="exact")
        half = [["1/2", "0"], ["0", "1/2"]]
        q = pio.polynomial_from_dict({"kind": "determinantal",
                                      "matrices": [half, half]}, mode="exact")
        assert isinstance(q, pc.DeterminantalPolynomial)
        assert q.evaluate((Fraction(1), Fraction(2))) == p.evaluate(
            (Fraction(1), Fraction(2)))

    def test_float_mode_load(self):
        q = pio.polynomial_from_dict(UNIFORM3, mode="float")
        assert q.mode == "float"
        assert q.evaluate((1.0, 1.0, 1.0)) == pytest.approx(1.0)


class TestFileRoundTrip:
    def test_schema_stamped_file_loads(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "sparse", "n": 2,
            "terms": [{"exp": [2, 0], "coef": "1"},
                      {"exp": [1, 1], "coef": "1/2"},
                      {"exp": [0, 2], "coef": "1"}]}))
        q = pio.load_polynomial(path, mode="exact")
        assert q.terms == {(2, 0): 1, (1, 1): Fraction(1, 2), (0, 2): 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(pc.InputError, match="cannot read"):
            pio.load_polynomial(tmp_path / "nope.json")


def _sparse(n, *exps):
    return {"kind": "sparse", "n": n,
            "terms": [{"exp": e, "coef": "1"} for e in exps]}


# Sparse documents that once loaded with truncated or bool exponents, a bool
# size, a repeated term silently overwritten, or an exponent no int64 holds.
BAD_SPARSE_DOCUMENTS = [
    (_sparse(2, [1.7, 0.9]), "terms[0].exp must be a list of integers"),
    (_sparse(2, [2, 0], ["1", True]), "terms[1].exp must be a list of integers"),
    (_sparse(2, [1, True]), "terms[0].exp must be a list of integers"),
    (_sparse(True, [1]), "field 'n' must be a positive integer, got True"),
    (_sparse(2, [1, 1], [1, 1]), "duplicate exponent vector (1, 1)"),
    (_sparse(1, [2 ** 63]), "exponents must be below 2^63"),
]
BAD_SPARSE_IDS = ["float-exp", "string-exp", "bool-exp", "bool-n", "repeated-exp",
                  "huge-exp"]


class TestErrorDiagnostics:
    def test_malformed_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "sparse",\n  "n": 2,\n  "terms": [}')
        with pytest.raises(pc.InputError, match=r"line 3, column \d+"):
            pio.load_polynomial(path)

    def test_unknown_kind(self):
        with pytest.raises(pc.InputError):
            pio.polynomial_from_dict({"kind": "dense", "n": 2}, mode="float")

    def test_missing_field(self):
        with pytest.raises(pc.InputError, match="missing field"):
            pio.polynomial_from_dict({"kind": "sparse", "n": 2}, mode="float")

    def test_term_index_in_message(self):
        doc = {"kind": "sparse", "n": 2,
               "terms": [{"exp": [1, 1], "coef": 1}, {"exp": "xy", "coef": 1}]}
        with pytest.raises(pc.InputError, match=r"terms\[1\]"):
            pio.polynomial_from_dict(doc, mode="float")

    @pytest.mark.parametrize("doc, label", [
        ({"kind": "sparse", "n": 2,
          "terms": [{"exp": [2, 0], "coef": "1"}, {"exp": [1, 1], "coef": "abc"}]},
         "terms[1].coef"),
        ({"kind": "product", "matrix": [["1", "1"], ["1", "abc"]]},
         "matrix[1][1]"),
        ({"kind": "determinantal",
          "matrices": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]] * 2
          + [[["1", "abc", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
         "matrices[2][0][1]"),
    ], ids=["sparse", "product", "determinantal"])
    def test_bad_scalar_names_its_entry(self, doc, label):
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict(doc, mode="exact")
        assert str(info.value).startswith(f"{label}: cannot parse scalar 'abc'")

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_bad_entry_deep_in_a_large_matrix_is_named(self, mode):
        matrix = [[f"{(7 * i + j) % 1000 + 1}/1000" for j in range(150)]
                  for i in range(150)]
        matrix[137][91] = "3/0"
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict({"kind": "product", "matrix": matrix},
                                     mode=mode)
        assert str(info.value) == \
            "matrix[137][91]: cannot parse scalar '3/0': Fraction(3, 0)"

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "product", "matrix": [1, 2]},
         "matrix[0] must be a list of scalars"),
        ({"kind": "determinantal", "matrices": [1, 2]},
         "matrices[0] must be a list of rows"),
        ({"kind": "determinantal", "matrices": [[1, 2]]},
         "matrices[0][0] must be a list of scalars"),
    ], ids=["matrix-row", "matrices-entry", "matrices-row"])
    def test_row_that_is_not_a_list_names_its_entry(self, doc, message):
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict(doc, mode="float")
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, message", BAD_SPARSE_DOCUMENTS,
                             ids=BAD_SPARSE_IDS)
    def test_sparse_document_must_hold_integers(self, doc, message):
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict(doc, mode="float")
        assert str(info.value) == message

    def test_non_object_document(self):
        with pytest.raises(pc.InputError):
            pio.polynomial_from_dict([1, 2, 3], mode="float")

    def test_bad_n(self):
        with pytest.raises(pc.InputError, match="'n'"):
            pio.polynomial_from_dict({"kind": "sparse", "n": 0, "terms": []},
                                     mode="float")

    def test_document_mode_field(self):
        doc = {"kind": "product", "mode": "exact", "matrix": [["1/2"]]}
        assert pio.polynomial_from_dict(doc, mode="exact").mode == "exact"
        with pytest.raises(pc.InputError, match="pins mode 'exact' but "
                                                "'float' was requested"):
            pio.polynomial_from_dict(doc, mode="float")
        with pytest.raises(pc.InputError, match="field 'mode'"):
            pio.polynomial_from_dict({**doc, "mode": "symbolic"}, mode="exact")

    def test_float_coefficient_in_exact_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "sparse", "n": 2,
            "terms": [{"exp": [1, 1], "coef": 0.5}]}))
        with pytest.raises(pc.InputError, match="rational string"):
            pio.load_polynomial(path, mode="exact")
        # same file loads fine in float mode
        q = pio.load_polynomial(path, mode="float")
        assert q.evaluate((2.0, 3.0)) == pytest.approx(3.0)


def _distinct_strings(doc):
    """The distinct string scalars of a product, pencil or sparse document."""
    if doc["kind"] == "sparse":
        return {t["coef"] for t in doc["terms"]}
    mats = [doc["matrix"]] if doc["kind"] == "product" else doc["matrices"]
    return {v for m in mats for row in m for v in row}


def _pencil_doc(n, seed):
    mats = fixtures.doubly_stochastic_psd_tuple(n, np.random.default_rng(seed))
    return {"kind": "determinantal",
            "matrices": [[[repr(float(v)) for v in row] for row in m]
                         for m in mats]}


class TestScalarMemo:
    """Each distinct string of a document is parsed once per load; numbers,
    bools and bad strings are not remembered."""

    @pytest.mark.parametrize("mode, matrix, label, scalar", [
        ("float", [[1, True]], "matrix[0][1]", "True"),
        ("exact", [[1, 1.0]], "matrix[0][1]", "1.0"),
        ("exact", [["1", "x"], ["x", "1"]], "matrix[0][1]", "'x'"),
    ], ids=["bool-after-int", "float-after-int", "repeated-bad-string"])
    def test_scalar_that_equals_a_parsed_one_is_still_checked(
            self, mode, matrix, label, scalar):
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict({"kind": "product", "matrix": matrix},
                                     mode=mode)
        assert str(info.value).startswith(f"{label}: ")
        assert scalar in str(info.value)

    def test_string_and_int_of_one_value_load_in_exact_mode(self):
        q = pio.polynomial_from_dict(
            {"kind": "product", "matrix": [["1", 1], [1, "1"]]}, mode="exact")
        assert q.matrix.tolist() == [[Fraction(1)] * 2] * 2

    def test_bad_string_in_two_pencil_matrices_is_named_in_the_first(self):
        good = [["1", "0"], ["0", "1"]]
        bad = [["1", "x"], ["x", "1"]]
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict(
                {"kind": "determinantal", "matrices": [good, bad, bad]},
                mode="float")
        assert str(info.value).startswith("matrices[1][0][1]: cannot parse "
                                          "scalar 'x'")

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_sparse_terms_sharing_a_coefficient(self, mode):
        exps = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        doc = {"kind": "sparse", "n": 3,
               "terms": [{"exp": list(e), "coef": "1/3"} for e in exps]}
        q = pio.polynomial_from_dict(doc, mode=mode)
        third = Fraction(1, 3) if mode == "exact" else 1 / 3
        assert q.terms == pc.SparsePolynomial(
            3, {e: third for e in exps}, mode=mode).terms

    @pytest.mark.parametrize("doc", [
        {"kind": "product",
         "matrix": [[f"{(7 * i + 3 * j) % 901 + 100}/1000" for j in range(60)]
                    for i in range(60)]},
        _pencil_doc(6, 0),
        {"kind": "determinantal", "matrices": [
            [["1/2", "0"], ["0", "1/2"]], [["1/2", "0"], ["0", "1/4"]]]},
        {"kind": "sparse", "n": 2, "terms": [
            {"exp": [2, 0], "coef": "1"}, {"exp": [1, 1], "coef": "0"},
            {"exp": [0, 2], "coef": "1"}]},
        {"kind": "product", "matrix": [[" 1/2", "1/2", "0.5"],
                                       ["3/4 ", "0.5", " 1/2"],
                                       ["1/2", "3/4 ", "0.25"]]},
    ], ids=["product-60", "pencil", "pencil-sharing-strings", "sparse",
            "bulk-refusals"])
    def test_each_distinct_string_is_parsed_once_per_load(self, doc,
                                                          monkeypatch):
        # A string is parsed in bulk (_bulk) or by parse_scalar; count the
        # strings either one parses.
        parsed = []
        bulk, one = pio._bulk, pio.parse_scalar

        def counting_bulk(strings, mode, table):
            bulk(strings, mode, table)
            parsed.extend(s for s in strings if s in table)

        def counting_one(value, mode):
            result = one(value, mode)
            parsed.append(value)
            return result

        monkeypatch.setattr(pio, "_bulk", counting_bulk)
        monkeypatch.setattr(pio, "parse_scalar", counting_one)
        distinct = sorted(_distinct_strings(doc))
        for mode in ("float", "exact"):
            parsed.clear()
            pio.polynomial_from_dict(doc, mode=mode)
            assert sorted(parsed) == distinct
            # A second load parses every string again: no table outlives a
            # load.
            pio.polynomial_from_dict(doc, mode=mode)
            assert sorted(parsed[len(distinct):]) == distinct


def _entry_by_entry(doc, mode):
    """What loading a product or pencil document gives with parse_scalar
    called on every entry in row-major order: the polynomial, or the error's
    type and the message that names the first bad entry."""
    if doc["kind"] == "product":
        named = [("matrix", doc["matrix"])]
    else:
        named = [(f"matrices[{k}]", m) for k, m in enumerate(doc["matrices"])]
    mats = []
    for where, rows in named:
        mats.append([])
        for i, row in enumerate(rows):
            mats[-1].append([])
            for j, v in enumerate(row):
                try:
                    mats[-1][-1].append(pio.parse_scalar(v, mode))
                except pc.InputError as exc:
                    return "InputError", f"{where}[{i}][{j}]: {exc}"
    try:
        if doc["kind"] == "product":
            return pc.ProductFormPolynomial(mats[0], mode=mode)
        return pc.DeterminantalPolynomial(mats, mode=mode)
    except pc.PolycapError as exc:
        return type(exc).__name__, str(exc)


def _assert_loads_as_entry_by_entry(doc, mode):
    want = _entry_by_entry(doc, mode)
    try:
        got = pio.polynomial_from_dict(doc, mode=mode)
    except pc.PolycapError as exc:
        got = type(exc).__name__, str(exc)
    if isinstance(want, tuple):
        assert got == want
        return
    a, b = ((q.matrix if doc["kind"] == "product" else q.matrices)
            for q in (want, got))
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    if a.dtype == object:
        assert [(type(v), v) for v in a.flat] == [(type(v), v) for v in b.flat]
    else:
        assert a.tobytes() == b.tobytes()


# Strings the bulk step must parse as parse_scalar does, or leave to it.
EDGE_STRINGS = [" 1/2", "1_000", "+3/4", "-0/7", "\u0663/\u0664", "1/0", "1/-2",
                "1e400", "nan", "-inf", "0x10", "1" + "0" * 400 + "/3",
                "-0", "0/5", "7", "2.5e-3", "1/" + "0" * 30 + "3",
                # Past int()'s default limit of 4,300 digits.
                "7" * 5000 + "/9", "9/" + "7" * 5000]


class TestBulkTable:
    """Loading through the table gives, bit for bit, what parse_scalar gives
    entry by entry: the same arrays, or the same message and label."""

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_edge_string_in_a_product(self, text, mode):
        matrix = [[f"{(3 * i + j) % 7 + 1}/8" for j in range(5)]
                  for i in range(5)]
        matrix[1][3] = matrix[4][0] = text
        _assert_loads_as_entry_by_entry({"kind": "product", "matrix": matrix},
                                        mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("text", EDGE_STRINGS)
    def test_edge_string_in_a_pencil(self, text, mode):
        mats = [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "1/3"]],
                [["1/2", text, "0"], [text, "3/4", "0"], ["0", "0", "1/3"]],
                [["0.5", "0", text], ["0", "1", "0"], [text, "0", "1/3"]]]
        _assert_loads_as_entry_by_entry(
            {"kind": "determinantal", "matrices": mats}, mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_random_strings(self, mode):
        # Decimals, exponents, signed and unsigned ratios, in both orders of
        # first occurrence, over a product form and a Gram pencil.
        rng = np.random.default_rng(5)
        pool = [f"{a}/{b}" for a, b in rng.integers(0, 999, (40, 2)) + 1]
        pool += [f"+{a}/64" for a in rng.integers(0, 99, 10)]
        pool += [f"{a}e-{b}" for a, b in rng.integers(1, 99, (10, 2))]
        pool += [repr(v) for v in rng.uniform(0, 5, 20)] + ["-0/3", "0"]
        matrix = rng.choice(pool, (30, 30)).tolist()
        _assert_loads_as_entry_by_entry({"kind": "product", "matrix": matrix},
                                        mode)
        grams = [(w @ w.T).tolist() for w in rng.integers(-3, 4, (4, 4, 2))]
        mats = [[[f"{v}/8" for v in row] for row in g] for g in grams]
        _assert_loads_as_entry_by_entry(
            {"kind": "determinantal", "matrices": mats}, mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("matrix", [
        [["1/2", 1], [1, "1/2"]],
        [["1", 1.0], ["1/2", "1"]],
        [[1.0, "1/2"], ["1/2", 1]],
        [["1/2", True], [True, "1/2"]],
        [[True, "1"], ["1", 1]],
        [["1", "1/2"], [None, "1"]],
        [["1", ["1"]], ["1", "1"]],
        [[3, 2], [1, 4]],
    ], ids=["int", "float", "float-first", "bool", "bool-first", "null",
            "nested-list", "no-strings"])
    def test_strings_mixed_with_json_numbers(self, matrix, mode):
        _assert_loads_as_entry_by_entry({"kind": "product", "matrix": matrix},
                                        mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("matrix", [
        [["1/2", "1/2"], ["1"]],
        [["1/2"], ["1", "1/2"]],
        [["1/2", "x"], ["1"]],
        [["1", "1", "1"], ["1", "1", "1"]],
        [[], []],
        [],
    ], ids=["short-row", "long-row", "ragged-bad-string", "wide", "empty-rows",
            "no-rows"])
    def test_ragged_and_empty_rows(self, matrix, mode):
        _assert_loads_as_entry_by_entry({"kind": "product", "matrix": matrix},
                                        mode)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("bad", ["x", "1/0", "nan", "1/-2"])
    def test_pencil_with_a_bad_string_in_two_matrices(self, bad, mode):
        good = [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]
        mats = [good, [["1", bad, "0"], [bad, "1", "0"], ["0", "0", "1"]],
                [["1", "0", bad], ["0", "1", "0"], [bad, "0", "1"]]]
        doc = {"kind": "determinantal", "matrices": mats}
        _assert_loads_as_entry_by_entry(doc, mode)
        with pytest.raises(pc.InputError) as info:
            pio.polynomial_from_dict(doc, mode=mode)
        assert str(info.value).startswith("matrices[1][0][1]: ")

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_first_of_many_bad_strings_is_named(self, mode):
        # Each bad string has its own message: the first in row-major order
        # must be the one parsed, and named, first.
        matrix = [[f"{i + j + 1}/9" for j in range(8)] for i in range(8)]
        for k in range(20):
            matrix[7 - k // 8][(5 * k) % 8] = f"bad{k}"
        _assert_loads_as_entry_by_entry({"kind": "product", "matrix": matrix},
                                        mode)

    def test_pencils_of_different_shapes(self):
        mats = [[["1", "0"], ["0", "1"]],
                [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]
        for mode in ("float", "exact"):
            _assert_loads_as_entry_by_entry(
                {"kind": "determinantal", "matrices": mats}, mode)
