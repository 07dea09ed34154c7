"""Smoke test: every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) == 5


def _run(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demo_02_shows_the_phase_identity_at_nonzero_values():
    lines = _run(ROOT / "demos" / "02_newvector_values.py").stdout.splitlines()
    at = lines.index("== Atkin-Lehner reduction of a high column ==")
    lhs, rhs = (line.split(" = ", 1)[1] for line in lines[at + 1:at + 3])
    assert lhs == rhs and lhs != "(0.0 + 0.0j)"
    [matrix] = [line for line in lines if line.strip().startswith("W(g) = ")]
    assert not matrix.endswith("(0.0 + 0.0j)")
