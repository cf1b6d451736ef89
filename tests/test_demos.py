"""Each demo script runs to completion and writes the figures it announces."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_writes_its_figures(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    announced = re.findall(r"[\w.-]+\.svg", "\n".join(
        line for line in done.stdout.splitlines() if line.startswith("wrote ")))
    assert announced or "write_line_plot" not in demo.read_text()
    for name in announced:
        assert (tmp_path / name).stat().st_size > 0, name
