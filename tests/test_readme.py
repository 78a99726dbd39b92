"""The README's Quick start runs and gives the values its comments state,
and its CLI examples print the result blocks it shows."""
import ast
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from polycap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# A commented value: a Fraction literal or a decimal, "..." when truncated.
_VALUE = re.compile(r"#\s*(Fraction\(\d+, \d+\)|\d+\.\d+)(\.\.\.)?")


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (library)")[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_values():
    source = _quick_start()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        match = _VALUE.search(lines[stmt.end_lineno - 1])
        if match is None:
            continue
        stated, truncated = match.groups()
        if truncated:
            assert str(value).startswith(stated), (ast.unparse(stmt), value)
        elif stated.startswith("Fraction"):
            assert value == eval(stated, {"Fraction": Fraction})
            assert isinstance(value, Fraction)
        else:
            assert value == pytest.approx(float(stated), rel=1e-12), (
                ast.unparse(stmt), value)
        checked.append(ast.unparse(stmt))
    assert checked == [
        "pc.permanent_ryser(p.matrix)",
        "report.lower_bound_vdw",
        "report.lower_bound_rank",
        "report.exact_value",
        "est.estimate",
        "est.guarantee_factor",
    ]
    cap = namespace["cap"]
    assert cap.status == "converged" and cap.value == pytest.approx(1.0)


# "(`polycap <command> circ.json <options>`, `result` block):" then the block.
_CLI_EXAMPLE = re.compile(
    r"\(`polycap (\S+) circ\.json([^`]*)`, `result` block\):\s*```json\n(.*?)```",
    re.DOTALL)
# The Quick start's circulant, as a document.
CIRCULANT = {"kind": "product", "matrix": [
    ["1/2", "1/2", "0"], ["0", "1/2", "1/2"], ["1/2", "0", "1/2"]]}


def test_cli_examples(tmp_path, capsys):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(CIRCULANT))
    examples = _CLI_EXAMPLE.findall(README.read_text(encoding="utf-8"))
    assert [(command, options) for command, options, _ in examples] == [
        ("sparse-bound", " --no-meta"), ("bound", " --mode exact --no-meta")]
    for command, options, block in examples:
        assert main([command, str(path), *options.split()]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        stated = json.loads(block)
        for fields in (result, stated):
            fields.pop("provenance", None)
        assert result == stated, command
