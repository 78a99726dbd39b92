"""Command-line interface: JSON reports, exit codes, determinism."""
import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import polycap as pc
from polycap import bounds, capacity, cli, fixtures
from polycap import io as pio
from polycap.cli import main
from polycap.polynomials import SLICE_DEGREE_CAP
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


def wide_product(seed):
    """A 5 x 5 product document whose entries U(0.1, 1) 10^U(-300, 300)
    (numpy default_rng(seed)) are written with repr(float)."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 1, (5, 5)) * 10.0 ** rng.uniform(-300, 300, (5, 5))
    return {"kind": "product", "matrix": [[repr(v) for v in row]
                                          for row in m.tolist()]}


# Exact documents with an entry past the float range.
PAST_FLOATS = {
    "product": {"kind": "product", "matrix": [["1e400", "1"], ["1", "1"]]},
    "determinantal": {"kind": "determinantal", "matrices": [[["1e400"]]]},
}

# tests/test_fuzz.py seed 1, case 5. On the slice x_1 x_2 x_3 = 1,
# p = c_021 x_2 / x_1 + c_111 falls to c_111 only as x_2 / x_1 -> 0.
BOUNDARY_MINIMUM = {"kind": "sparse", "n": 3, "terms": [
    {"exp": [0, 2, 1], "coef": 1.27454730706034e-118},
    {"exp": [1, 1, 1], "coef": 1.9412332167722488e-143}]}

CAPACITY_FIELDS = {"value", "minimizer", "iterations", "gradient_norm",
                   "stop_reason", "log_value", "status"}
PROFILE_FIELDS = {"direction", "point", "roots", "max_imag", "all_real"}


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


def dumps(obj) -> str:
    """What the report writer must match, byte for byte."""
    return json.dumps(obj, indent=2, sort_keys=True, default=cli._encode,
                      allow_nan=False)


@dataclasses.dataclass
class Sample:
    x: float
    rows: tuple
    label: str


# Scalars the writer has to spell as json does.
FLOATS = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 5e-324, 2.2250738585072014e-308,
          1.7976931348623157e308, 1e16, 1e-7, 123456789.125, -1e22]
STRINGS = ["", "a", "polycap/1", "é中\U0001f600", "\ud800",
           "quote\" back\\ slash/", "\n\r\t\b\f\x00\x1f\x7f"]


def random_scalar(rng: random.Random):
    kind = rng.randrange(11)
    if kind == 0:
        return rng.choice(FLOATS)
    if kind == 1:
        return np.float64(rng.uniform(-1e3, 1e3))
    if kind == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    if kind == 3:
        return rng.choice([rng.randint(-5, 5), 10 ** rng.randint(17, 400),
                           -(2 ** 64) - 1])
    if kind == 4:
        return rng.choice([True, False, None])
    if kind == 5:
        return rng.choice(STRINGS) + "".join(
            chr(rng.randrange(0x20000)) for _ in range(rng.randrange(4)))
    if kind == 6:
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 99))
    if kind == 7:
        return complex(rng.choice(FLOATS), rng.uniform(-1, 1))
    if kind == 8:
        return Sample(rng.choice([float("inf"), float("nan"), 0.5]),
                      tuple(rng.uniform(0, 1) for _ in range(rng.randrange(3))),
                      rng.choice(STRINGS))
    if kind == 9:
        return capacity.CapacityResult(rng.uniform(0, 1), (1.0, 2.0), 3,
                                       float("nan"), "gradient", None)
    return rng.randrange(3)  # a small int inside a float row


def random_object(rng: random.Random, depth=0):
    kind = rng.randrange(7) if depth < 4 else 6
    if kind == 0:  # a float row, numpy scalars among them
        row = [rng.choice([rng.uniform(-1, 1), np.float64(rng.gauss(0, 1e5)),
                           rng.choice(FLOATS)]) for _ in range(rng.randrange(6))]
        return tuple(row) if rng.random() < 0.5 else row
    if kind == 1:  # a row that falls back item by item
        return [random_scalar(rng) for _ in range(rng.randrange(5))]
    if kind == 2:
        items = [random_object(rng, depth + 1) for _ in range(rng.randrange(4))]
        return tuple(items) if rng.random() < 0.3 else items
    if kind in (3, 4):
        return {rng.choice(STRINGS) + str(rng.randrange(50)):
                random_object(rng, depth + 1) for _ in range(rng.randrange(5))}
    if kind == 5:  # keys json turns into strings, one type per dict
        keys = rng.choice([lambda: rng.randint(-9, 9),
                           lambda: rng.choice(FLOATS), lambda: rng.random()])
        return {keys(): random_object(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return random_scalar(rng)


class TestReportWriter:
    """``cli._json`` writes what ``json.dumps(indent=2, sort_keys=True)``
    writes, and fails where it fails."""

    def test_matches_json_dumps_on_random_objects(self):
        rng = random.Random(29)
        for _ in range(3000):
            obj = random_object(rng)
            assert cli._json(obj) == dumps(obj), obj

    @pytest.mark.parametrize("obj", [
        {}, [], (), [[]], {"a": {}}, [1.0, [2.0], 3.0], [1.0, True, 2.0],
        [np.float64(0.5), 1.5], [float(2 ** 60), 10 ** 400],
        {True: 1, False: 2}, {None: [0.25]}, [Fraction(1, 3), 1j],
        [0.5, Fraction(10 ** 400)],
    ], ids=repr)
    def test_matches_json_dumps_on_edge_cases(self, obj):
        assert cli._json(obj) == dumps(obj)

    @pytest.mark.parametrize("obj", [
        [1.0, float("inf")], [float("nan")], (0.5, np.float64("-inf")),
        {"x": [1, float("inf")]}, [0.5, [np.int64(1)], float("inf")],
        [np.int64(3)], [1.0, np.bool_(True)], {"a": np.float32(1.0)},
        {1: 1, "a": 2}, {(1, 2): 3}, [0.5, Decimal("sNaN")],
    ], ids=repr)
    def test_raises_what_json_dumps_raises(self, obj):
        with pytest.raises((ValueError, TypeError)) as expected:
            dumps(obj)
        with pytest.raises(expected.type) as raised:
            cli._json(obj)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("value, error", [
        ([1.0, float("inf")],
         "ValueError: Out of range float values are not JSON compliant: inf"),
        (np.int64(3), "TypeError: cannot write int64 into a report"),
        ([0.5, np.bool_(True)], "TypeError: cannot write "
         f"{type(np.bool_(True)).__name__} into a report"),
    ], ids=["inf-row", "int64", "bool_"])
    def test_unwritable_result_exits_4(self, monkeypatch, capsys,
                                       product_file, value, error):
        monkeypatch.setattr(cli, "permanent_ryser", lambda *a, **k: value)
        assert main(["permanent", product_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["scale"], ["bound"], ["capacity"], ["approx", "--k", "1"],
        ["check-hyperbolic", "--trials", "5", "--samples", "20"],
        ["bound", "--mode", "exact"],
    ], ids=["scale", "bound", "capacity", "approx", "check-hyperbolic",
            "bound-exact"])
    @pytest.mark.parametrize("no_meta", [[], ["--no-meta"]], ids=["meta", "no-meta"])
    def test_reports_are_json_dumps_indent_2(self, capsys, product_file, argv,
                                             no_meta):
        assert main(argv[:1] + [product_file] + argv[1:] + no_meta) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class ReadRecorder(argparse.Namespace):
    """Parsed options that remember which of them were read."""

    def __init__(self, options):
        object.__setattr__(self, "_reads", set())
        super().__init__(**options)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# Each document command, run on a small document.
DOCUMENT_COMMANDS = [
    (["capacity"], "product_file"),
    (["permanent"], "product_file"),
    (["mixed-disc"], "determinantal_file"),
    (["bound"], "product_file"),
    (["approx", "--k", "1"], "product_file"),
    (["check-hyperbolic", "--trials", "5", "--samples", "50"], "product_file"),
    (["scale"], "product_file"),
    (["sparse-bound"], "circulant_file"),
]
# What main reads to load, refuse, run and emit, rather than the command.
MAIN_OPTIONS = {"command", "input", "mode", "output", "no_meta", "fn", "kind",
                "strict"}
# Options that only the solver commands and check-hyperbolic take, and the
# parameters that the bounds work out for themselves.
REFUSED_OPTIONS = [
    ("capacity", "--seed"), ("bound", "--seed"), ("approx", "--seed"),
    ("scale", "--seed"), ("check-hyperbolic", "--tol"),
    ("check-hyperbolic", "--max-iter"), ("bound", "--ordering"),
    ("sparse-bound", "--k"), ("sparse-bound", "--transpose"),
] + [(command, option) for command in ("permanent", "mixed-disc", "sparse-bound")
     for option in ("--tol", "--max-iter", "--seed")]


class TestOptions:
    @pytest.mark.parametrize("argv, document", DOCUMENT_COMMANDS,
                             ids=[argv[0] for argv, _ in DOCUMENT_COMMANDS])
    def test_every_option_is_read(self, request, monkeypatch, capsys, argv,
                                  document):
        path = request.getfixturevalue(document)
        parser = cli.build_parser()
        args = parser.parse_args(argv[:1] + [path] + argv[1:])
        # The command itself reads every option that main does not use, so
        # main's validation of --tol cannot hide a command that drops it.
        recorder = ReadRecorder(vars(args))
        args.fn(recorder, cli.load_polynomial(path, mode=args.mode))
        assert set(vars(args)) - MAIN_OPTIONS - recorder._reads == set()
        # main reads the rest, run on a recorder in place of what it parses.
        recorder = ReadRecorder(vars(args))
        monkeypatch.setattr(parser, "parse_known_args", lambda argv: (recorder, []))
        assert main([]) == 0
        capsys.readouterr()
        assert set(vars(args)) - recorder._reads == set()

    @pytest.mark.parametrize("command, option", REFUSED_OPTIONS,
                             ids=[" ".join(pair) for pair in REFUSED_OPTIONS])
    def test_unread_options_are_refused(self, tmp_path, capsys,
                                        circulant_file, command, option):
        path = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([command, circulant_file, "--output", str(path), option, "1"])
        assert exc.value.code == 2
        assert not path.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: polycap {command} ")
        assert captured.err.endswith(
            f"polycap {command}: error: unrecognized arguments: {option} 1\n")


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

    def test_degenerate_run_reports_a_null_minimizer(self, tmp_path, capsys):
        # x_6 occurs in no term: Newton drives it to 0, and the exponentials
        # of the last iterate overflow.
        path = write_doc(tmp_path / "absent.json", {"kind": "sparse", "n": 6, "terms": [
            {"exp": e, "coef": "1"} for e in ([1, 1, 1, 3, 0, 0], [2, 1, 2, 1, 0, 0],
                                              [0, 2, 2, 0, 2, 0], [1, 1, 1, 2, 1, 0])]})
        code, doc = run_json(capsys, ["capacity", path, "--no-meta"])
        assert code == 0 and capsys.readouterr().err == ""
        r = doc["result"]
        assert r["status"] == "degenerate-zero" and r["value"] == 0.0
        assert r["minimizer"] is None and r["log_value"] is None

    def test_pencil_whose_determinant_overflows(self, tmp_path, capsys):
        # The slots sigma d_i A_i of the 40 x 40 doubly stochastic tuple A,
        # sigma = 1e9: p's values pass 1e360, so the value is null, and
        # Cap = sigma^40 prod(d) Cap(A) with Cap(A) = 1. The slot scales d_i
        # make Newton take steps.
        rng = np.random.default_rng(0)
        mats = np.array(fixtures.doubly_stochastic_psd_tuple(40, rng))
        d = rng.uniform(0.5, 2.0, 40)
        path = write_doc(tmp_path / "pencil40.json", {
            "kind": "determinantal",
            "matrices": (1e9 * d[:, None, None] * mats).tolist()})
        code, doc = run_json(capsys, ["capacity", path, "--no-meta"])
        assert code == 0 and capsys.readouterr().err == ""
        r = doc["result"]
        assert r["value"] is None and r["status"] == "converged"
        assert r["iterations"] > 0
        assert r["log_value"] == pytest.approx(
            40 * math.log(1e9) + np.log(d).sum(), abs=1e-9)

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
        (["sparse-bound"],
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

    def test_exact_result_past_the_int_digit_limit_exits_3(self, tmp_path,
                                                           capsys):
        # Each entry's denominator has 2,201 digits and the permanent's
        # 4,401, past the 4,300 digits Python writes by default; the limit
        # is not lifted, so parsing keeps its guard.
        path = write_doc(tmp_path / "tiny.json", {
            "kind": "product", "matrix": [[f"1/{10 ** 2200}"] * 2] * 2})
        assert main(["permanent", path, "--mode", "exact"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: exact result refused: ")
        assert f"{sys.get_int_max_str_digits()} digits" in err


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

    def test_ordering_is_ascending_rank(self, tmp_path, capsys):
        path = write_doc(tmp_path / "ranks331.json", {"kind": "product", "matrix": [
            ["1/4", "3/4", "0"], ["1/2", "1/2", "0"], ["1/4", "1/4", "1/2"]]})
        code, doc = run_json(capsys, ["bound", path])
        assert code == 0
        r = doc["result"]
        assert r["ranks"] == [3, 3, 1]
        assert r["ordering_used"] == [2, 0, 1] and r["G"] == [1, 2, 1]

    def test_bad_ordering_exits_2(self, circulant_file):
        # The order is no longer an option; the refusal names the subcommand.
        proc = run_process(["bound", circulant_file, "--ordering", "greedy"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: polycap bound ")
        assert proc.stderr.endswith(
            "polycap bound: error: unrecognized arguments: --ordering greedy\n")

    def test_exact_pencil_ranks_are_exact(self, tmp_path, capsys):
        # The eigenvalue 9e-10 falls under the float rank threshold 1e-9. The
        # numerical rank 1 gives G = [1, 1] and a bound above the exact
        # value; exact mode counts it.
        path = write_doc(tmp_path / "pencil.json", {
            "kind": "determinantal",
            "matrices": [[["1", "0"], ["0", "9/10000000000"]],
                         [["1", "0"], ["0", "1"]]]})
        code, doc = run_json(capsys, ["bound", path, "--mode", "exact"])
        assert code == 0
        r = doc["result"]
        assert r["ranks"] == [2, 2] and r["G"] == [2, 1]
        assert r["lower_bound_rank"] <= r["exact_value"]
        code, doc = run_json(capsys, ["bound", path])
        assert code == 0 and doc["result"]["ranks"] == [1, 2]

    def test_rank_zero_variable_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero_column.json"
        path.write_text(json.dumps({
            "schema": pio.SCHEMA, "kind": "product",
            "matrix": [["1", "0"], ["1", "0"]]}))
        assert main(["bound", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: variable 1 does not occur in p (rank 0)\n")

    @pytest.mark.parametrize("kind, options", [
        ("product", ["bound"]), ("product", ["approx"]),
        ("product", ["approx", "--k", "1"]),
        ("determinantal", ["bound"]), ("determinantal", ["approx"])],
        ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_exact_entry_past_the_float_range_exits_3(self, tmp_path, capsys,
                                                      kind, options):
        path = write_doc(tmp_path / "past_floats.json", PAST_FLOATS[kind])
        assert main([options[0], path, "--mode", "exact", *options[1:]]) == 3
        assert "overflows the float range" in capsys.readouterr().err

    def test_exact_permanent_needs_no_float_view(self, tmp_path, capsys):
        path = write_doc(tmp_path / "past_floats.json", PAST_FLOATS["product"])
        code, doc = run_json(capsys, ["permanent", path, "--mode", "exact"])
        assert code == 0 and doc["result"]["permanent"] == str(10 ** 400 + 1)

    def test_exact_value_past_the_float_range_is_null(self, tmp_path):
        # per(A) is about 10^926. Newton's 50-nat fall test still stops it at
        # degenerate-zero on this input, although Cap(A) > 0, so the capacity
        # and the bounds are finite. The product-form objective is taken in
        # the log domain, so nothing reaches stderr.
        path = write_doc(tmp_path / "wide.json", wide_product(0))
        proc = run_process(["bound", path, "--mode", "exact", "--no-meta"])
        assert proc.returncode == 0 and proc.stderr == ""
        r = json.loads(proc.stdout)["result"]
        assert r["exact_value"] is None and "equality_rank" not in r

    def test_capacity_whose_minimizer_leaves_the_float_range(self, tmp_path):
        # Newton reaches the boundary infimum c_111 = e^f of p, at a
        # minimizer past the float range: the value is e^f, not p there.
        path = write_doc(tmp_path / "boundary.json", BOUNDARY_MINIMUM)
        proc = run_process(["capacity", path, "--no-meta"])
        assert proc.returncode == 0 and proc.stderr == ""
        r = json.loads(proc.stdout)["result"]
        assert r["minimizer"] is None and r["status"] == "converged"
        assert r["value"] == pytest.approx(1.9412332167722488e-143, rel=1e-12)
        proc = run_process(["bound", path, "--no-meta"])
        assert proc.returncode == 0 and proc.stderr == ""
        r = json.loads(proc.stdout)["result"]
        assert r["exact_value"] == 1.9412332167722488e-143
        assert r["capacity"] == pytest.approx(r["exact_value"], rel=1e-12)

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

    @pytest.mark.parametrize("s", ["1e-4", "1e-6", "1e-8"])
    def test_small_pencil_slot(self, tmp_path, capsys, s):
        # Newton's line search on the slice of (I, s I, I) tries points whose
        # exponentials overflow; the objective reads them as inf. The
        # mixed partial is 12 s; Cap of the slice is 12 s too.
        eye = np.eye(3)
        path = write_doc(tmp_path / "pencil.json", {
            "kind": "determinantal",
            "matrices": [eye.tolist(), (float(s) * eye).tolist(), eye.tolist()]})
        code, doc = run_json(capsys, ["approx", path, "--k", "1", "--no-meta"])
        assert code == 0 and capsys.readouterr().err == ""
        if s == "1e-4":
            assert doc["result"]["estimate"] == pytest.approx(0.0012, rel=1e-6)


class TestCheckHyperbolicCommand:
    def test_stable_input_passes(self, capsys, product_file):
        code, doc = run_json(capsys, ["check-hyperbolic", product_file,
                                      "--trials", "10", "--samples", "50"])
        assert code == 0
        assert doc["result"]["passed"] is True
        assert {c["check"] for c in doc["result"]["checks"]} == \
            {"real-rootedness", "half-plane"}

    @pytest.mark.parametrize("label", ["uniform-50", "pencil-100"])
    def test_closed_forms_pass_past_the_fit_cap(self, tmp_path, capsys,
                                                label):
        # The slice degree cap holds for sparse polynomials alone.
        if label == "uniform-50":
            doc = {"kind": "product", "matrix": [["1"] * 50] * 50}
        else:
            mats = fixtures.doubly_stochastic_psd_tuple(
                100, np.random.default_rng(0))
            doc = {"kind": "determinantal", "matrices": [
                [[repr(float(v)) for v in row] for row in m] for m in mats]}
        path = write_doc(tmp_path / "doc.json", doc)
        code, report = run_json(capsys, ["check-hyperbolic", path, "--strict",
                                         "--samples", "50"])
        assert code == 0
        assert report["result"]["passed"] is True

    @pytest.mark.parametrize("label", ["perfect-power", "power-sum"])
    def test_sparse_slices_at_the_degree_cap(self, tmp_path, capsys, label):
        # (x1+x2)^46/2^46 is stable; x1^46 + x2^46 is not.
        n = SLICE_DEGREE_CAP
        terms = ([{"exp": [k, n - k], "coef": f"{math.comb(n, k)}/{2 ** n}"}
                  for k in range(n + 1)] if label == "perfect-power" else
                 [{"exp": [n, 0], "coef": "1"}, {"exp": [0, n], "coef": "1"}])
        path = write_doc(tmp_path / "doc.json",
                         {"kind": "sparse", "n": 2, "terms": terms})
        code = main(["check-hyperbolic", path, "--strict", "--samples", "50"])
        assert code == (0 if label == "perfect-power" else 1)
        assert capsys.readouterr().err == ""

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

    def test_negative_seed_exits_2(self, capsys, product_file):
        assert main(["check-hyperbolic", product_file, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"


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


    def test_scaler_past_the_float_range_exits_3(self, tmp_path, capsys):
        path = write_doc(tmp_path / "wide.json", wide_product(5))
        assert main(["scale", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: scaling refused: a row or column scaler left the float "
            "range; rescale the input\n")


class TestSparseBoundCommand:
    def test_circulant(self, capsys, circulant_file):
        code, doc = run_json(capsys, ["sparse-bound", circulant_file])
        assert code == 0
        r = doc["result"]
        assert r["ranks"] == [2, 2, 2] and r["G"] == [2, 2, 1]
        assert r["transpose"] is False
        assert r["bound"] == pytest.approx(0.25, rel=1e-12)
        assert r["permanent"] == pytest.approx(0.25, rel=1e-12)

    def test_ladder_and_side_read_off_the_matrix(self, tmp_path, capsys):
        # Row ladder (2, 2, 2, 1), 1/8; every column has three nonzeros, and
        # the column ladder (3, 3, 2, 1) gives 8/81.
        path = write_doc(tmp_path / "rows.json", {"kind": "product", "matrix": [
            ["1/2", "1/2", "0", "0"], ["0", "0", "1/2", "1/2"],
            ["1/4"] * 4, ["1/4"] * 4]})
        code, doc = run_json(capsys, ["sparse-bound", path])
        assert code == 0
        r = doc["result"]
        assert r["ranks"] == [2, 2, 4, 4] and r["G"] == [2, 2, 2, 1]
        assert r["transpose"] is True
        assert r["bound"] == pytest.approx(1 / 8, rel=1e-12)
        assert r["permanent"] >= r["bound"]

    def test_one_permanent_reported_at_n16(self, tmp_path, capsys, monkeypatch):
        # I + P over 2 for the cyclic shift P: per = 2^-15, the ladder's bound.
        n = 16
        matrix = [["1/2" if j in (i, (i + 1) % n) else "0" for j in range(n)]
                  for i in range(n)]
        path = write_doc(tmp_path / "cycle16.json",
                         {"kind": "product", "matrix": matrix})
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return pc.permanent_ryser(*args, **kwargs)

        monkeypatch.setattr(bounds, "permanent_ryser", counted)
        monkeypatch.setattr(cli, "permanent_ryser", counted)
        code, doc = run_json(capsys, ["sparse-bound", path])
        assert code == 0 and len(calls) == 1
        r = doc["result"]
        assert set(r) == {"bound", "ranks", "G", "transpose", "permanent"}
        assert r["bound"] == 2.0 ** -15 and r["transpose"] is False
        assert r["ranks"] == [2] * n and r["G"] == [2] * (n - 1) + [1]
        assert r["permanent"] == pytest.approx(2.0 ** -15, rel=1e-12)


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

    @pytest.mark.parametrize("option", ["--output", "--max-iter"])
    def test_report_options_are_refused(self, tmp_path, capsys, option):
        # suite prints criterion lines, not a report: it takes only --only.
        path = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--only", "6", option, str(path)])
        assert exc.value.code == 2
        assert not path.exists()
        assert capsys.readouterr().out == ""


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

    def test_degree_zero_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path / "const.json", {
            "kind": "sparse", "n": 2, "terms": [{"exp": [0, 0], "coef": "1"}]})
        assert main(["check-hyperbolic", path]) == 2
        assert capsys.readouterr().err == (
            "error: slice roots need degree >= 1; got degree 0\n")

    def test_unexpected_error_exits_4(self, monkeypatch, capsys, product_file):
        # The parser is built once, so the patch goes below the command.
        def fail(*args, **kwargs):
            raise RuntimeError("no report")
        monkeypatch.setattr(cli, "capacity_minimize", fail)
        assert main(["capacity", product_file]) == 4
        assert capsys.readouterr().err == "error: RuntimeError: no report\n"

    @pytest.mark.parametrize("doc, error", [
        ({"kind": "determinantal",
          "matrices": [[["1e300", "0"], ["0", "1e300"]]] * 2},
         "error: slice roots refused: p overflows the float range "
         "(non-finite values); rescale the input"),
        ({"kind": "sparse", "n": 2,
          "terms": [{"exp": [1 << 62, 0], "coef": "1"},
                    {"exp": [0, 1 << 62], "coef": "1"}]},
         f"error: slice roots refused: degree {1 << 62} exceeds the cap of "
         f"{SLICE_DEGREE_CAP}"),
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
         "error: slice roots refused: p overflows the float range "
         "(non-finite values); rescale the input\n"),
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
        # "permanent" is a plain key of the command's result dict.
        monkeypatch.setattr(cli, "permanent_ryser",
                            lambda *args, **kwargs: float("inf"))
        assert main(["permanent", product_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ValueError")

    def test_bad_tol_exits_2(self, capsys, product_file):
        assert main(["capacity", product_file, "--tol", "-1"]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert pc.__version__ in capsys.readouterr().out
