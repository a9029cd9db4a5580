"""Smoke tests: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr


def test_birational_maps_demo_checks_hold():
    result = run_demo(ROOT / "demos" / "04_birational_maps.py")
    assert result.returncode == 0, result.stderr
    checks = [
        line
        for line in result.stdout.splitlines()
        if any(word in line for word in ("matches", "equals", "agrees", "commutes"))
    ]
    assert len(checks) == 4
    assert all(line.endswith("True") for line in checks)
