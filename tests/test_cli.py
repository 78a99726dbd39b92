"""Command-line interface: JSON reports, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polycap as pc
from polycap import io as pio
from polycap import cli
from polycap.cli import main
from test_io import BAD_SPARSE_DOCUMENTS, BAD_SPARSE_IDS, UNIFORM3


def write_doc(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    return write_doc(tmp_path / "uniform3.json", UNIFORM3)


@pytest.fixture
def circulant_file(tmp_path):
    return write_doc(tmp_path / "circulant.json", {"kind": "product", "matrix": [
        ["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]]})


@pytest.fixture
def determinantal_file(tmp_path):
    eye = [["1", "0"], ["0", "1"]]
    return write_doc(tmp_path / "pencil.json",
                     {"kind": "determinantal", "matrices": [eye, eye]})


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_process(argv):
    """The CLI in a process of its own: pytest captures the warnings of an
    in-process main, so only a subprocess shows what reaches stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(pc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "polycap", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


CAPACITY_FIELDS = {"value", "minimizer", "iterations", "gradient_norm",
                   "stop_reason", "log_value", "status"}
PROFILE_FIELDS = {"direction", "point", "roots", "max_imag", "all_real",
                  "residual"}


class TestReportFields:
    """Each command's result block: the fields of its result dataclass (plus
    the command's own keys), with Fractions as strings and roots as pairs."""

    @pytest.mark.parametrize("argv, document, fields", [
        (["capacity"], "product_file", CAPACITY_FIELDS),
        (["bound"], "product_file",
         {"n", "capacity", "lower_bound_vdw", "lower_bound_rank",
          "lower_bound_uniform_rank", "exact_value", "ranks", "G",
          "ordering_used", "capacity_status", "provenance",
          "equality_vdw", "equality_rank"}),
        (["approx", "--k", "1"], "product_file",
         {"estimate", "guarantee_factor", "oracle_calls", "k_used",
          "capacity_result", "extrapolation_condition"}),
        (["check-hyperbolic", "--trials", "5", "--samples", "50"],
         "product_file", {"passed", "checks", "oracle_calls"}),
        (["scale"], "product_file",
         {"row_scalers", "col_scalers", "scaled_matrix", "capacity",
          "log_capacity", "iterations", "max_deviation", "status"}),
        (["permanent", "--mode", "exact"], "product_file", {"permanent"}),
        (["permanent"], "product_file", {"permanent", "error_bound"}),
        (["mixed-disc", "--mode", "exact"], "determinantal_file",
         {"mixed_discriminant"}),
    ], ids=["capacity", "bound", "approx", "check-hyperbolic", "scale",
            "permanent", "permanent-float", "mixed-disc"])
    def test_result_fields(self, request, capsys, argv, document, fields):
        path = request.getfixturevalue(document)
        code, doc = run_json(capsys, argv[:1] + [path] + argv[1:])
        assert code == 0
        result = doc["result"]
        assert set(result) == fields
        if "--mode" in argv:
            assert all(isinstance(v, str) for v in result.values())
        if argv[0] == "approx":
            assert set(result["capacity_result"]) == CAPACITY_FIELDS
        if argv[0] == "check-hyperbolic":
            worst = result["checks"][0]["worst_profile"]
            assert set(worst) == PROFILE_FIELDS
            assert len(worst["roots"]) == 3
            assert all(len(r) == 2 and all(isinstance(v, float) for v in r)
                       for r in worst["roots"])


class TestRunConfig:
    def test_validation(self, capsys, product_file):
        for option, value in (("--tol", "0"), ("--max-iter", "0"),
                              ("--k", "-1")):
            assert main(["approx", product_file, option, value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        with pytest.raises(SystemExit) as exc:
            main(["capacity", product_file, "--mode", "symbolic"])
        assert exc.value.code == 2


class TestCapacityCommand:
    def test_report_shape(self, capsys, product_file):
        code, doc = run_json(capsys, ["capacity", product_file])
        assert code == 0
        assert doc["schema"] == pio.SCHEMA
        assert doc["command"] == "capacity"
        assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["result"]["status"] == "converged"
        assert doc["meta"]["tool"] == "polycap"
        assert doc["inputs"]["n_vars"] == 3

    def test_no_meta(self, capsys, product_file):
        code, doc = run_json(capsys, ["capacity", product_file, "--no-meta"])
        assert code == 0
        assert "meta" not in doc

    def test_output_file_determinism(self, tmp_path, product_file):
        f1, f2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["capacity", product_file, "--no-meta", "--output", f1]) == 0
        assert main(["capacity", product_file, "--no-meta", "--output", f2]) == 0
        b1 = Path(f1).read_bytes()
        assert b1 == Path(f2).read_bytes()
        assert b1.strip()


class TestPermanentCommand:
    def test_exact_fraction_output(self, capsys, product_file):
        code, doc = run_json(capsys, ["permanent", product_file, "--mode", "exact"])
        assert code == 0
        assert doc["result"]["permanent"] == "2/9"

    def test_float_output(self, capsys, product_file):
        code, doc = run_json(capsys, ["permanent", product_file])
        assert code == 0
        assert doc["result"]["permanent"] == pytest.approx(2 / 9, rel=1e-12)
        # gamma_k with k = 2^2 + 3^2 = 13, times row sums that are all 1.
        assert 1.4e-15 < doc["result"]["error_bound"] < 1.5e-15

    @pytest.mark.parametrize("argv, message", [
        (["permanent"], "permanent needs a 'product' document (the matrix rows)"),
        (["mixed-disc"],
         "mixed-disc needs a 'determinantal' document (the PSD tuple)"),
        (["scale"], "scale needs a 'product' document (the matrix rows)"),
        (["sparse-bound", "--k", "1"],
         "sparse-bound needs a 'product' document (the matrix rows)"),
    ], ids=["permanent", "mixed-disc", "scale", "sparse-bound"])
    def test_wrong_kind_exits_2(self, tmp_path, capsys, argv, message):
        path = write_doc(tmp_path / "sparse.json", {
            "kind": "sparse", "n": 3, "terms": [{"exp": [1, 1, 1], "coef": "1"}]})
        assert main(argv[:1] + [path] + argv[1:]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_document_mode_must_match(self, tmp_path, capsys):
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "product", "mode": "exact",
            "matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}))
        assert main(["permanent", str(path)]) == 2
        assert "pins mode 'exact'" in capsys.readouterr().err
        code, doc = run_json(capsys, ["permanent", str(path), "--mode", "exact"])
        assert code == 0
        assert doc["result"]["permanent"] == "1/2"

    def test_resource_cap_exits_3(self, tmp_path, capsys):
        path = write_doc(tmp_path / "big.json",
                         {"kind": "product", "matrix": [["1"] * 15] * 15})
        assert main(["permanent", path, "--mode", "exact"]) == 3
        assert "error" in capsys.readouterr().err


class TestMixedDiscCommand:
    def test_identity_pair(self, capsys, determinantal_file):
        code, doc = run_json(capsys, ["mixed-disc", determinantal_file,
                                      "--mode", "exact"])
        assert code == 0
        assert doc["result"]["mixed_discriminant"] == "2"


class TestBoundCommand:
    def test_circulant_equality_flags(self, capsys, circulant_file):
        code, doc = run_json(capsys, ["bound", circulant_file])
        assert code == 0
        r = doc["result"]
        assert r["G"] == [2, 2, 1]
        assert r["equality_rank"] is True
        assert r["equality_vdw"] is False
        assert r["lower_bound_rank"] == pytest.approx(0.25, rel=1e-9)

    def test_explicit_ordering(self, capsys, circulant_file):
        code, doc = run_json(capsys, ["bound", circulant_file,
                                      "--ordering", "2,1,0"])
        assert code == 0
        assert doc["result"]["ordering_used"] == [2, 1, 0]

    def test_bad_ordering_exits_2(self, capsys, circulant_file):
        assert main(["bound", circulant_file, "--ordering", "bogus"]) == 2

    def test_rank_zero_variable_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero_column.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "product",
            "matrix": [["1", "0"], ["1", "0"]]}))
        assert main(["bound", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: variable 1 does not occur in p (rank 0)\n")

    def test_infinite_capacity_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "product",
            "matrix": [["1e200", "1e200"], ["1e200", "1e200"]]}))
        assert main(["bound", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestApproxCommand:
    def test_k_flag(self, capsys, product_file):
        code, doc = run_json(capsys, ["approx", product_file, "--k", "1"])
        assert code == 0
        r = doc["result"]
        assert r["k_used"] == 1
        assert r["estimate"] >= 2 / 9 - 1e-9
        assert r["estimate"] <= r["guarantee_factor"] * (2 / 9) * (1 + 1e-7)


class TestCheckHyperbolicCommand:
    def test_stable_input_passes(self, capsys, product_file):
        code, doc = run_json(capsys, ["check-hyperbolic", product_file,
                                      "--trials", "10", "--samples", "50"])
        assert code == 0
        assert doc["result"]["passed"] is True
        assert {c["check"] for c in doc["result"]["checks"]} == \
            {"real-rootedness", "half-plane"}

    def test_unstable_input_strict_exits_1(self, tmp_path, capsys):
        # (x_1^3 + x_2^3 + x_3^3)/3
        path = write_doc(tmp_path / "psum.json", {"kind": "sparse", "n": 3, "terms": [
            {"exp": e, "coef": "1/3"} for e in ([3, 0, 0], [0, 3, 0], [0, 0, 3])]})
        code, doc = run_json(capsys, ["check-hyperbolic", path,
                                      "--trials", "5", "--samples", "50"])
        assert code == 0
        assert doc["result"]["passed"] is False
        assert main(["check-hyperbolic", path, "--trials", "5",
                     "--samples", "50", "--strict"]) == 1


class TestScaleCommand:
    def test_reports_scalers(self, capsys, tmp_path):
        rng = np.random.default_rng(50)
        path = write_doc(tmp_path / "m.json", {
            "kind": "product", "matrix": rng.uniform(0.1, 1.0, (3, 3)).tolist()})
        code, doc = run_json(capsys, ["scale", path])
        assert code == 0
        r = doc["result"]
        assert r["status"] == "converged"
        assert len(r["row_scalers"]) == 3
        s = np.array(r["scaled_matrix"])
        assert np.abs(s.sum(axis=0) - 1).max() < 1e-8
        assert np.abs(s.sum(axis=1) - 1).max() < 1e-8
        assert r["log_capacity"] == pytest.approx(np.log(r["capacity"]),
                                                  rel=1e-12)

    def test_max_iter_caps_the_sweeps(self, capsys, tmp_path):
        rng = np.random.default_rng(50)
        path = write_doc(tmp_path / "m.json", {
            "kind": "product", "matrix": rng.uniform(0.1, 1.0, (3, 3)).tolist()})
        code, doc = run_json(capsys, ["scale", path, "--max-iter", "3"])
        assert code == 0
        assert doc["result"]["iterations"] == 3
        assert doc["result"]["status"] == "iteration-cap"
        assert cli.build_parser().parse_args(["scale", path]).max_iter == 10000

    def test_capacity_past_the_float_range(self, tmp_path):
        # Capacity e^2156.81 overflows a float; its log is reported, with no
        # numpy overflow warning.
        path = tmp_path / "m.json"
        matrix = np.random.default_rng(0).uniform(0.1, 1.0, (400, 400))
        path.write_text(json.dumps({"kind": "product",
                                    "matrix": matrix.tolist()}))
        proc = run_process(["scale", str(path)])
        assert proc.returncode == 0 and proc.stderr == ""
        r = json.loads(proc.stdout)["result"]
        assert r["capacity"] is None and r["status"] == "converged"
        assert r["log_capacity"] == pytest.approx(2156.8101550, abs=1e-6)


class TestSparseBoundCommand:
    def test_circulant(self, capsys, circulant_file):
        code, doc = run_json(capsys, ["sparse-bound", circulant_file, "--k", "2"])
        assert code == 0
        r = doc["result"]
        assert r["bound"] == pytest.approx(0.25, rel=1e-12)
        assert r["permanent"] == pytest.approx(0.25, rel=1e-12)

    def test_k_required(self, capsys, circulant_file):
        with pytest.raises(SystemExit):
            main(["sparse-bound", circulant_file])


class TestSuiteCommand:
    def test_single_criterion(self, capsys):
        code = main(["suite", "--only", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "1/1 criteria passed" in out

    def test_bad_selector_exits_2(self, capsys):
        assert main(["suite", "--only", "99"]) == 2
        assert main(["suite", "--only", "six"]) == 2


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys):
        assert main(["capacity", "/nonexistent/poly.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys, product_file):
        out = tmp_path / "missing" / "x.json"
        assert main(["capacity", product_file, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["capacity", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "product", "matrix": [1, 2]},
         "matrix[0] must be a list of scalars"),
        ({"kind": "product", "matrix": [["1e400"]]},
         "matrix[0][0]: cannot parse scalar '1e400': not a finite number"),
        ({"kind": "product", "matrix": [["inf"]]},
         "matrix[0][0]: cannot parse scalar 'inf': not a finite number"),
        ({"kind": "product", "matrix": [["nan"]]},
         "matrix[0][0]: cannot parse scalar 'nan': not a finite number"),
    ], ids=["row-not-a-list", "overflow", "inf", "nan"])
    def test_malformed_document_exits_2(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["permanent", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, message", BAD_SPARSE_DOCUMENTS,
                             ids=BAD_SPARSE_IDS)
    def test_malformed_sparse_document_exits_2(self, tmp_path, capsys, doc,
                                               message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["capacity", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unexpected_error_exits_4(self, monkeypatch, capsys, product_file):
        def fail(args):
            raise RuntimeError("no report")
        monkeypatch.setattr(cli, "_cmd_capacity", fail)
        assert main(["capacity", product_file]) == 4
        assert capsys.readouterr().err == "error: RuntimeError: no report\n"

    @pytest.mark.parametrize("doc, error", [
        ({"kind": "determinantal",
          "matrices": [[["1e300", "0"], ["0", "1e300"]]] * 2},
         "error: slice fit refused: p overflows the float range along the "
         "slice (non-finite values); rescale the input"),
        ({"kind": "sparse", "n": 2,
          "terms": [{"exp": [1 << 62, 0], "coef": "1"},
                    {"exp": [0, 1 << 62], "coef": "1"}]},
         f"error: slice fit refused: degree {1 << 62} exceeds the cap of 400"),
    ], ids=["overflowing-pencil", "huge-exponents"])
    def test_refused_slice_exits_3(self, tmp_path, capsys, doc, error):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["check-hyperbolic", str(path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("error:") == 1
        assert err.splitlines()[-1] == error

    @pytest.mark.parametrize("command, doc, error", [
        ("check-hyperbolic",
         {"kind": "determinantal",
          "matrices": [[["1e300", "0"], ["0", "1e300"]]] * 2},
         "error: slice fit refused: p overflows the float range along the "
         "slice (non-finite values); rescale the input\n"),
        ("bound", {"kind": "product", "matrix": [["1e200"] * 2] * 2},
         "error: capacity inf is not finite in float arithmetic; the bounds "
         "cannot be formed\n"),
        ("permanent", {"kind": "product", "matrix": [["1e200"] * 2] * 2},
         "error: float permanent refused: the result overflows the float "
         "range; rescale the input or use exact mode\n"),
        ("mixed-disc",
         {"kind": "determinantal",
          "matrices": [[["1e200", "0"], ["0", "1e200"]]] * 2},
         "error: float polarization refused: the result overflows the float "
         "range; rescale the input or use exact mode\n"),
    ], ids=["overflowing-pencil", "overflowing-product", "overflowing-permanent",
            "overflowing-mixed-disc"])
    def test_overflow_refusal_prints_one_line(self, tmp_path, command, doc,
                                              error):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        proc = run_process([command, str(path)])
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr == error

    def test_non_finite_outside_a_result_field_exits_4(self, monkeypatch,
                                                       capsys, product_file):
        def infinite(args):
            cli._emit(args, {}, {"value": float("inf")})
            return 0
        monkeypatch.setattr(cli, "_cmd_capacity", infinite)
        assert main(["capacity", product_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ValueError")

    def test_bad_tol_exits_2(self, capsys, product_file):
        assert main(["capacity", product_file, "--tol", "-1"]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert pc.__version__ in capsys.readouterr().out
