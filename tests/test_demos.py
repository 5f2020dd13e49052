"""Smoke test of the demo scripts: each runs to completion and prints.

Every demo is copied into a temporary directory first, because some write
their outputs next to the script.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["correction_basics.py", "h2_dissociation.py", "lih_deep_circuit.py", "noise_threshold.py"],
)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
