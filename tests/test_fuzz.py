"""Seeded fuzzing of every document command through ``cli.main``.

Product, pencil and sparse documents with n <= 6 are drawn from fixed seeds:
product entries spread over 10^+-300, pencil slots scaled by 10^0, 10^+-200
or 10^U(-8, 8), and in some documents one scalar replaced by an edge value
("1e400", "1/0", "nan", a huge int, a JSON bool, null or a list, ...). Each
command runs in both modes. Whatever the input, a command exits 0, 1, 2 or 3
(never 4, the unexpected error), writes strict JSON (no NaN or Infinity) on
success and nothing otherwise, and says at most one ``error:`` line; a rerun
writes the same ``--no-meta`` report. The seeds are fixed: a case that fails
later is a defect to mend, not a reason to draw other cases.

Floating-point warnings are recorded, not raised, as the command line prints
them. On product and sparse documents no command but ``approx`` may record
one. Pencil documents and ``approx`` still give some on overflowing inputs
(the slice sums, a pencil jet's Hessian), and those are not asserted here.
"""
import contextlib
import io
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polycap.cli import main

EDGE_SCALARS = ["1e400", "-1e400", "1/0", "nan", "inf", "-0", "5e-324", "-1",
                "0", str(10 ** 400), 10 ** 400, True, False, None, [1, 2], "x"]
COMMANDS = ["capacity", "permanent", "mixed-disc", "bound", "approx",
            "check-hyperbolic", "scale", "sparse-bound"]
# Newton's commands stop after MAX_ITER steps, so that a slice run that
# crawls to the default budget of 200 does not hold the test up.
NEWTON = ("capacity", "bound", "approx")
MAX_ITER = 30
CASES_PER_SEED = 70
RERUN_EVERY = 5  # every fifth case is run twice


def _writer(rng):
    """One document's way of writing a float: as a JSON number (refused in
    exact mode), a decimal string or its exact p/q string."""
    return (float, lambda v: repr(float(v)),
            lambda v: str(Fraction(float(v))))[rng.integers(3)]


def _product(rng, n):
    exponents = (rng.integers(-300, 301, (n, n)) if rng.random() < 0.5
                 else np.zeros((n, n)))
    m = rng.uniform(0.1, 1.0, (n, n)) * 10.0 ** exponents
    m[rng.random((n, n)) < 0.15] = 0.0
    write = _writer(rng)
    return {"kind": "product", "matrix": [[write(v) for v in row] for row in m]}


def _pencil(rng, n):
    scales = [1.0, 1e200, 1e-200, 10.0 ** rng.uniform(-8, 8)]
    mats = []
    for _ in range(n):
        g = rng.integers(-2, 3, (n, int(rng.integers(1, n + 1))))
        mats.append((g @ g.T) * scales[rng.integers(len(scales))])
    write = _writer(rng)
    return {"kind": "determinantal",
            "matrices": [[[write(v) if v else 0 for v in row] for row in m]
                         for m in mats]}


def _sparse(rng, n):
    terms = {}
    for _ in range(int(rng.integers(1, 2 * n + 2))):
        exp = np.bincount(rng.integers(n, size=n), minlength=n)
        terms[tuple(exp.tolist())] = 10.0 ** rng.uniform(-300, 300)
    write = _writer(rng)
    return {"kind": "sparse", "n": n, "terms": [
        {"exp": list(e), "coef": write(c)} for e, c in terms.items()]}


def _mutate(rng, doc):
    """doc with one of its scalars replaced by an edge value."""
    edge = EDGE_SCALARS[rng.integers(len(EDGE_SCALARS))]
    if doc["kind"] == "sparse":
        term = doc["terms"][rng.integers(len(doc["terms"]))]
        term["coef"] = edge
    else:
        rows = doc["matrix"] if doc["kind"] == "product" else doc["matrices"][
            rng.integers(len(doc["matrices"]))]
        row = rows[rng.integers(len(rows))]
        row[rng.integers(len(row))] = edge
    return doc


def _cases(seed):
    """(case number, document, argv tail): every command in both modes."""
    rng = np.random.default_rng(seed)
    for case in range(CASES_PER_SEED):
        n = int(rng.integers(1, 7))
        doc = (_product, _pencil, _sparse)[rng.integers(3)](rng, n)
        if rng.random() < 0.3:
            doc = _mutate(rng, doc)
        for command in COMMANDS:
            for mode in ("float", "exact"):
                tail = [command, "--mode", mode, "--no-meta"]
                if command in NEWTON:
                    tail += ["--max-iter", str(MAX_ITER)]
                if command == "approx":
                    tail += ["--k", str(rng.integers(n))]
                yield case, doc, tail


def _run(argv):
    """(exit code, stdout, stderr, warnings) of main(argv), its warnings
    recorded as their messages."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("seed", [0, 1])
def test_no_command_exits_4(tmp_path, seed):
    path = tmp_path / "doc.json"
    for case, doc, tail in _cases(seed):
        path.write_text(json.dumps(doc))
        argv = [tail[0], str(path), *tail[1:]]
        code, out, err, caught = _run(argv)
        what = (f"{argv} on {json.dumps(doc)}: exit {code}, stderr {err!r}, "
                f"warnings {caught}")
        assert code in (0, 1, 2, 3), what
        if doc["kind"] != "determinantal" and tail[0] != "approx":
            assert not caught, what
        assert err.count("error:") <= 1, what
        if code == 0:
            json.loads(out, parse_constant=_strict)
        else:
            assert out == "", what
        if case % RERUN_EVERY == 0:
            assert _run(argv)[:3] == (code, out, err), what
