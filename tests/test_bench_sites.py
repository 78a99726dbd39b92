"""The traced benchmark wraps polycap's functions by name at their import
sites; a refactor that drops one of those names must fail here."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_finds_every_wrapped_name():
    code = ("import sys; sys.path[:0] = ['bench', 'src']; import spans; "
            "spans.install(spans.Recorder())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
