"""The benchmark's tracer stays in step with the package.

`perfbench/tracing.py` wraps package functions by module and name. A rename
of one of them would otherwise fail only the benchmark's traced run; its
self-test checks, on tiny configs, that every call site is still patched.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_table_matches_package():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "selftest"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"violations": []}'
