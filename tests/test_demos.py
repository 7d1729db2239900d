"""The narrative demos still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demos/05 is left out: it takes about 20 s, and acceptance criteria 6-8
# already cover its runs.
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
