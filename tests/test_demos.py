"""Every demo runs to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


def test_there_are_demos():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr


def test_gate_recognition_prints_gate_reprs():
    result = run_demo(ROOT / "demos" / "gate_recognition.py")
    assert "MpmctGate(lines=3, target=x3, controls=[-x1, -x2]): t(0 4)" in result.stdout
