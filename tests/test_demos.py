"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphinv

DEMOS = Path(__file__).resolve().parents[1] / "demos"
PACKAGE_ROOT = str(Path(graphinv.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
