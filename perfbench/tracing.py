"""Per-layer tracing from outside the package.

The package is not edited: `installed(tracer)` replaces each measured
function by a wrapper at every module attribute through which callers look it
up (vqe and experiments import names directly, so patching the defining
module alone would miss their calls), and restores the originals on exit.
Each wrapped call records a span (name, start, end, parent index) in memory;
`circuits.gate_matrix` runs once per gate and is counted without a span.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

# Span name -> (module, attribute) sites that must all hold the same function.
SPANNED = (
    ("sim.run_density", (("vqe", "run_density"),)),
    ("sim.basis_rotation", (("vqe", "_basis_probabilities"), ("sim", "_basis_probabilities"))),
    ("sim.sample_counts", (("vqe", "sample_counts"),)),
    ("sim.apply_readout_noise", (("vqe", "apply_readout_noise"),)),
    ("mitigation.calibrate_confusion", (("experiments", "calibrate_confusion"),)),
    ("mitigation.unfold", (("vqe", "unfold"),)),
    ("mitigation.counts_to_distribution", (("vqe", "counts_to_distribution"),)),
    ("pauli.expectation", (("vqe", "expectation"),)),
    ("pauli.ground_state_energy", (("experiments", "ground_state_energy"),)),
    ("pauli.group_terms", (("vqe", "group_terms"),)),
    ("vqe.evaluate", (("vqe", "evaluate"), ("experiments", "evaluate"))),
    ("vqe.group_energy", (("vqe", "_group_energy"),)),
    ("vqe.minimize", (("experiments", "minimize"),)),
    ("vqe.sweep_and_fit", (("experiments", "sweep_and_fit"),)),
    ("ansatz.ansatz_circuit", (("vqe", "ansatz_circuit"),)),
    ("chemdata.builtin", (("experiments", "builtin"),)),
    ("experiments.resolve", (("experiments", "resolve"),)),
    ("experiments.run_point", (("experiments", "_run_point"),)),
)
COUNTED = (("circuits.gate_matrix", (("sim", "gate_matrix"),)),)
# The benchmark's own span around each driver call; its self time is the
# driver glue no other span covers (report text, CSV formatting).
ROOT = "experiments.cmd"
FUNCTIONS = tuple(name for name, _ in SPANNED) + (ROOT,)

# Percentiles tried, highest first, for the evaluation latency tail.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shots = 0
        self.converged: list[bool] = []
        self.cache_info = None
        self.cache_start = (0, 0)

    def span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _observer(self, name: str, fn):
        if name == "sim.sample_counts":
            signature = inspect.signature(fn)

            def add_shots(args, kwargs, _result):
                self.shots += int(signature.bind(*args, **kwargs).arguments["shots"])

            return add_shots
        if name == "vqe.minimize":
            return lambda _args, _kwargs, outcome: self.converged.append(
                bool(outcome.converged)
            )
        return None

    def write(self, path) -> None:
        """One JSON line per span: [name, start_s, end_s, parent index or -1]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _sites(sites):
    for module, attr in sites:
        yield importlib.import_module(f"remvqe.{module}"), attr


@contextmanager
def installed(tracer: Tracer):
    """Route every measured lookup through `tracer` until the block exits."""
    saved = []
    try:
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for name, sites in table:
                targets = list(_sites(sites))
                original = getattr(*targets[0])
                for mod, attr in targets[1:]:
                    if getattr(mod, attr) is not original:
                        raise RuntimeError(
                            f"{mod.__name__}.{attr} is not {targets[0][0].__name__}."
                            f"{targets[0][1]}; the trace table is out of date"
                        )
                if kind == "span":
                    wrapper = tracer.span(name, original, tracer._observer(name, original))
                else:
                    wrapper = tracer.counter(name, original)
                if name == "ansatz.ansatz_circuit":
                    tracer.cache_info = original.cache_info
                    info = original.cache_info()
                    tracer.cache_start = (info.hits, info.misses)
                for mod, attr in targets:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    idx = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[idx]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: calls and self time per function, plus derived ratios."""
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    evaluate_ms = []
    for i, (name, start, end, _parent) in enumerate(tracer.spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if name == "vqe.evaluate":
            evaluate_ms.append(1e3 * (end - start))
    out: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name, _ in COUNTED:
        out[f"{name}.calls"] = (tracer.counts[name], "count")

    evaluate_ms.sort()
    n = len(evaluate_ms)
    tail_pct = next(
        (p for p in _TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), _TAIL_PERCENTILES[-1]
    )
    out["vqe.evaluate.p50_ms"] = (_nearest_rank(evaluate_ms, 50.0) if n else 0.0, "ms")
    out["vqe.evaluate.tail_ms"] = (_nearest_rank(evaluate_ms, tail_pct) if n else 0.0, "ms")
    out["vqe.evaluate.tail_pct"] = (tail_pct, "%")

    densities = calls["sim.run_density"]
    out["sim.gates_per_eval"] = (
        tracer.counts["circuits.gate_matrix"] / densities if densities else 0.0,
        "count",
    )
    out["sim.shots"] = (tracer.shots, "count")
    info = tracer.cache_info()
    hits = info.hits - tracer.cache_start[0]
    lookups = hits + info.misses - tracer.cache_start[1]
    out["ansatz.ansatz_circuit.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    attempts = len(tracer.converged)
    out["vqe.minimize.converged_ratio"] = (
        sum(tracer.converged) / attempts if attempts else 0.0,
        "ratio",
    )
    return out


def invariants(
    out: dict[str, tuple[float, str]],
    evaluations: int,
    noisy: bool,
    shots: int | None,
    n_groups: int,
) -> list[str]:
    """Count identities that only hold when every call site is patched."""
    evals = out["vqe.evaluate.calls"][0]
    problems = []
    if evals != evaluations:
        problems.append(f"vqe.evaluate.calls {evals} != {evaluations} reported evaluations")
    if noisy and out["sim.run_density.calls"][0] != evals:
        problems.append(
            f"sim.run_density.calls {out['sim.run_density.calls'][0]} != evaluate calls {evals}"
        )
    if shots is not None:
        sampled = out["sim.sample_counts.calls"][0]
        if sampled != evals * n_groups:
            problems.append(
                f"sim.sample_counts.calls {sampled} != {evals} evaluations x {n_groups} groups"
            )
        if out["sim.shots"][0] != evals * shots:
            problems.append(f"sim.shots {out['sim.shots'][0]} != {evals} x {shots}")
    return problems
