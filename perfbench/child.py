"""Benchmark child process: one measurement per fresh interpreter.

    python3 perfbench/child.py setup WORKLOAD SEED
        time `import remvqe` plus experiments.resolve of the workload config,
        then sample the machine's speed
    python3 perfbench/child.py run WORKLOAD SEED SECONDS OPS TRACE SPANS
        run driver calls one after another (closed loop, one caller): OPS
        calls when OPS > 0, otherwise until SECONDS have passed; TRACE=1
        wraps the layers and writes the spans to SPANS
    python3 perfbench/child.py selftest
        check on tiny configs that the trace sees every call site

Each mode prints one JSON object as its last line of standard output.
"""
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing
from workloads import WORKLOADS, Workload, driver, evaluations, run_config

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _unchecked(result) -> tuple[None, float]:
    return None, 0.0


# Tiny configs for the self-test: a shot-based sweep with unfolding, an exact
# density Nelder-Mead run, and a calibrated curve. Their accuracy is not
# checked; only the trace's counts are.
SELFTEST = (
    Workload(
        "selftest-sweep",
        "cmd_single_point",
        (
            ("molecule", "h2"), ("backend", "noisy"), ("shots", 1000),
            ("confusion", "figure-s2"), ("mitigation", "readout+rem"), ("grid_points", 5),
        ),
        1,
        _unchecked,
    ),
    Workload(
        "selftest-nelder-mead",
        "cmd_single_point",
        (("molecule", "heh+"), ("backend", "noisy"), ("optimizer", "nelder-mead"),
         ("mitigation", "rem")),
        1,
        _unchecked,
    ),
    Workload(
        "selftest-curve",
        "cmd_dissociation",
        (
            ("molecule", "h2"), ("backend", "noisy"), ("shots", 500), ("confusion", "calibrate"),
            ("mitigation", "readout+rem"), ("grid_points", 4), ("shots_per_state", 50),
            ("repeats", 2),
        ),
        1,
        _unchecked,
    ),
)


# The speed probe's period; each sample costs about 3 ms, 1.5 % of it.
PROBE_INTERVAL_S = 0.2


def _reference_kernel() -> None:
    """Fixed numpy work independent of remvqe: 200 small reshapes and products."""
    import numpy as np

    a = np.fft.fft(np.eye(16)) / 4.0  # unitary, so the product stays bounded
    x = a
    for _ in range(200):
        x = np.moveaxis(x.reshape((2,) * 8), (0, 1), (1, 0)).reshape(16, 16) @ a


class SpeedProbe:
    """Samples the machine's speed while a run executes.

    On a shared 2-vCPU virtual machine, other tenants slow a run by up to
    half for tens of seconds. Every PROBE_INTERVAL_S of wall time, SIGALRM
    times _reference_kernel between two bytecodes of the run; the kernel
    slows with the machine, so the parent divides the run's times by its
    median. `spent` is the time the samples took, which the run's times
    exclude.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def setup(workload: Workload, seed: int) -> dict:
    t0 = time.perf_counter()
    from remvqe import experiments

    experiments.resolve(run_config(workload, seed, 0))
    setup_s = time.perf_counter() - t0
    probe = SpeedProbe()
    for _ in range(5):
        probe.sample()
    return {"setup_s": setup_s, "ref_s": statistics.median(probe.samples)}


def _call(workload: Workload, call, cfg, probe: SpeedProbe) -> dict:
    spent = probe.spent
    t0 = time.perf_counter()
    try:
        result = call(cfg)
    except Exception:  # an operation that raises counts as failed; keep going
        wall = time.perf_counter() - t0 - (probe.spent - spent)
        traceback.print_exc(file=sys.stderr)
        return {"seed": cfg.seed, "wall_s": wall, "failed": "raised"}
    wall = time.perf_counter() - t0 - (probe.spent - spent)
    reason, err = workload.check(result)
    return {
        "seed": cfg.seed,
        "wall_s": wall,
        "evaluations": evaluations(cfg, result),
        "err_rem_mha": err,
        "failed": reason,
    }


def _groups(cfg) -> int:
    """Measurement groups per evaluation, equal across the dataset's geometries."""
    from remvqe import builtin, group_terms

    sizes = {len(group_terms(g.hamiltonian)) for g in builtin(cfg.molecule).geometries}
    if len(sizes) != 1:
        raise RuntimeError(f"{cfg.molecule} geometries differ in group count: {sizes}")
    return sizes.pop()


def run(workload: Workload, seed: int, seconds: float, ops: int, trace: bool, spans=None):
    """Driver calls in a closed loop; layer metrics and invariants when traced."""
    cmd = driver(workload)
    tracer = tracing.Tracer() if trace else None
    call = tracer.span(tracing.ROOT, cmd) if trace else cmd
    records = []
    start = time.perf_counter()
    with SpeedProbe() as probe, tracing.installed(tracer) if trace else nullcontext():
        while True:
            cfg = run_config(workload, seed, len(records))
            records.append(_call(workload, call, cfg, probe))
            if len(records) == ops or (
                ops <= 0 and time.perf_counter() - start >= seconds
            ):
                break
    out = {
        "ops": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_s": statistics.median(probe.samples),
    }
    if trace:
        cfg = run_config(workload, seed, 0)
        layers = tracing.layer_metrics(tracer)
        out["layers"] = layers
        if all("evaluations" in r for r in records):
            out["violations"] = tracing.invariants(
                layers,
                sum(r["evaluations"] for r in records),
                cfg.backend == "noisy",
                cfg.shots,
                _groups(cfg),
            )
        else:
            out["violations"] = []
        if spans:
            tracer.write(spans)
    return out


def selftest() -> dict:
    problems = []
    for workload in SELFTEST:
        result = run(workload, 0, 0.0, 1, True)
        problems += [f"{workload.name}: {p}" for p in result["violations"]]
        problems += [f"{workload.name}: {r['failed']}" for r in result["ops"] if r["failed"]]
    return {"violations": problems}


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        out = setup(WORKLOADS[argv[1]], int(argv[2]))
    elif mode == "run":
        workload, seed, seconds, ops, trace, spans = argv[1:7]
        out = run(WORKLOADS[workload], int(seed), float(seconds), int(ops), trace == "1", spans)
        out["env"] = environment()
    elif mode == "selftest":
        out = selftest()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
