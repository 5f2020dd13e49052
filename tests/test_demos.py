"""Smoke test of the demo scripts and of README's Python tour.

Every demo is copied into a temporary directory first, because some write
their outputs next to the script.
"""
import os
import re
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


def test_readme_tour_runs():
    # the tour's comments promise err_vqe ~2.5e-2 and err_rem ~6e-4
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert 2e-2 < report.err_vqe < 3e-2
    assert abs(report.err_rem) < 1e-3
