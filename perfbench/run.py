"""remvqe benchmark: end-to-end metrics of one workload, or its layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. --trace 0 measures the end-to-end metrics of
BENCHMARK.json without tracing: one child process runs driver calls for S
seconds, and SETUP_REPEATS fresh interpreters around it time the set-up.
Times are scaled to one machine speed (see REF_KERNEL_S). --trace 1
runs the workload's fixed number of calls twice, untraced and traced, in
separate children, and reports the per-layer metrics. The last line of
standard output is the JSON result; the line before it records the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, run_problems

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Run times are reported at the machine speed at which the child's reference
# kernel (child.SpeedProbe) takes this long: about the fast phase of the
# 2-vCPU Xeon virtual machine the benchmark was built on.
REF_KERNEL_S = 2.0e-3
BUDGET_S = 170.0
# One caller, no helper threads inside numpy/scipy, reproducible hashing.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Children keep a bytecode cache, as an installed package does, so setup_s
# does not depend on whether the caller's environment disables it. The cache
# lives under OUT, so a child writes nothing outside the checkout.
CHILD_ENV["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
CHILD_ENV_REMOVED = ("PYTHONDONTWRITEBYTECODE",)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_REMOVED}
    return {**env, **CHILD_ENV}


def _child(args: list, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before " + " ".join(map(str, args[:2])))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *map(str, args)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} exceeded the {BUDGET_S:.0f} s budget") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _median_wall(ops: list[dict]) -> float:
    return statistics.median(op["wall_s"] for op in ops)


def _scaled(seconds: float, child: dict) -> float:
    """`seconds` measured in `child`, at the reference machine speed."""
    return seconds * REF_KERNEL_S / child["ref_s"]


def _run_s(child: dict) -> float:
    """Median seconds per driver call, at the reference machine speed."""
    return _scaled(_median_wall(child["ops"]), child)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    # Set-ups before and after the workload sample two phases of a machine
    # whose speed drifts over tens of seconds.
    setups = [_child(["setup", workload, seed], deadline) for _ in range(2)]
    run = _child(["run", workload, seed, seconds, 0, 0, ""], deadline)
    setups += [_child(["setup", workload, seed], deadline) for _ in range(SETUP_REPEATS - 2)]
    done = [op for op in run["ops"] if "evaluations" in op]
    busy = _scaled(sum(op["wall_s"] for op in done), run)
    metrics = {
        "run_s": (_run_s(run), "s"),
        "setup_s": (statistics.median(_scaled(s["setup_s"], s) for s in setups), "s"),
        "evals_per_s": (sum(op["evaluations"] for op in done) / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    return run["ops"], metrics, [], run["env"]


def per_layer(workload: str, seed: int, deadline: float):
    ops = WORKLOADS[workload].traced_ops
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    selftest = _child(["selftest"], deadline)
    base = _child(["run", workload, seed, 0, ops, 0, ""], deadline)
    traced = _child(["run", workload, seed, 0, ops, 1, spans], deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (_run_s(traced) - _run_s(base), "s")
    metrics["wall.run_s"] = (_median_wall(base["ops"]), "s")
    metrics["wall.ref_ms"] = (1e3 * base["ref_s"], "ms")
    errors = [op["err_rem_mha"] for op in base["ops"] if not op["failed"]]
    metrics["err_rem_mha"] = (statistics.fmean(errors) if errors else 0.0, "mHa")
    violations = selftest["violations"] + traced["violations"]
    return base["ops"] + traced["ops"], metrics, violations, traced["env"]


def _check_names(metrics: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
            f"unit mismatch {wrong}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "remvqe" / "__init__.py").is_file():
        print(f"no remvqe source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            ops, metrics, violations, env = per_layer(args.workload, args.seed, deadline)
            _check_names(metrics, spec["per_layer"])
        else:
            ops, metrics, violations, env = end_to_end(
                args.workload, args.seed, args.seconds, deadline
            )
            _check_names(metrics, spec["end_to_end"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    failed = [op for op in ops if op["failed"]]
    for op in failed:
        print(f"failed operation (seed {op['seed']}): {op['failed']}", file=sys.stderr)
    violations += run_problems(WORKLOADS[args.workload], ops)
    for problem in violations:
        print(f"check failed: {problem}", file=sys.stderr)
    env["commit"] = _git_commit()
    print("env " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": not failed and not violations,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
