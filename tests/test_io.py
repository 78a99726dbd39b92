"""JSON serialization: scalars, documents, files, error diagnostics."""
import json
from fractions import Fraction

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

    def test_scalar_to_string_round_trip(self):
        s = pio.scalar_to_string(Fraction(22, 7))
        assert pio.parse_scalar(s, "exact") == Fraction(22, 7)


class TestDocumentRoundTrip:
    def test_sparse(self):
        p = pc.SparsePolynomial(3, {(1, 1, 1): Fraction(2, 3), (3, 0, 0): 1})
        q = pio.polynomial_from_dict(pio.polynomial_to_dict(p), mode="exact")
        assert isinstance(q, pc.SparsePolynomial)
        assert q.n_vars == 3 and q.terms == p.terms and q.mode == "exact"

    def test_product(self):
        p = fixtures.uniform_product_polynomial(3)
        q = pio.polynomial_from_dict(pio.polynomial_to_dict(p), mode="exact")
        assert isinstance(q, pc.ProductFormPolynomial)
        assert q.rows == p.rows

    def test_determinantal(self):
        mats = fixtures.diagonal_psd_tuple([[Fraction(1, 2), Fraction(1, 2)],
                                            [Fraction(1, 2), Fraction(1, 2)]])
        p = pc.DeterminantalPolynomial(mats, mode="exact")
        q = pio.polynomial_from_dict(pio.polynomial_to_dict(p), mode="exact")
        assert isinstance(q, pc.DeterminantalPolynomial)
        assert q.evaluate((Fraction(1), Fraction(2))) == p.evaluate(
            (Fraction(1), Fraction(2)))

    def test_float_mode_load(self):
        p = fixtures.uniform_product_polynomial(3)
        q = pio.polynomial_from_dict(pio.polynomial_to_dict(p), mode="float")
        assert q.mode == "float"
        assert q.evaluate((1.0, 1.0, 1.0)) == pytest.approx(1.0)


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        p = pc.SparsePolynomial(2, {(2, 0): 1, (1, 1): Fraction(1, 2), (0, 2): 1})
        path = tmp_path / "poly.json"
        pio.save_polynomial(path, p)
        doc = json.loads(path.read_text())
        assert doc["schema"] == pio.SCHEMA
        q = pio.load_polynomial(path, mode="exact")
        assert q.terms == p.terms

    def test_missing_file(self, tmp_path):
        with pytest.raises(pc.InputError, match="cannot read"):
            pio.load_polynomial(tmp_path / "nope.json")


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
