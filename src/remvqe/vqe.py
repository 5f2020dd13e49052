"""Energy evaluation, derivative-free minimization, and the 1-parameter
sweep-and-fit procedure.

The sampling pipeline per evaluation: group commuting terms, compute every
group's outcome distribution p in one batched basis rotation, turn each into
C p through the readout confusion matrix C (rounded onto sim's sampling grid
once per state, which keeps it), draw counts with one draw per group (splitting
the shot budget equally), divide each group's counts by its share of the
split (a draw sums to its share exactly, so no sum is taken), optionally
unfold all groups' distributions at once, and add each group's partial
energy f_g . p to the Hamiltonian offset, where f_g = sum_t c_t sign_t over
the group's terms. Readout error acts on each shot alone, so N shots drawn
from p and resampled through C are Multinomial(N, C p), the law of the one
draw. Exact backends replace counts with the exact distributions, which
keeps noisy-but-shotless runs deterministic.

One seed rule keys every random draw of a run: draw `index` at curve or
sweep point `point` (0 for a single point) comes from
default_rng(SeedSequence(seed, spawn_key=(point, index))) under the master
`seed`. mitigation._stream computes that generator (its docstring says how)
and keeps recent state words, which the readout-unfolded evaluator, drawing
the raw evaluator's keys again, finds. An evaluation draws all its groups, in
group order, from the generator of its evaluation index. Reserved keys: the
indices REFERENCE_INDEX (the reference-state measurement), MEASURE_INDEX (the
re-measured optimum) and SPSA_INDEX (SPSA's perturbation directions), and
calibration's point mitigation.CALIBRATION_POINT, indexed by prepared state.
A fixed seed reproduces every draw bit for bit whatever the order of
evaluations.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._frozen import frozen
from .ansatz import AnsatzSpec, ansatz_circuit
from .mitigation import ConfusionMatrix, _stream, unfold
from .mitigation import counts_to_distribution  # noqa: F401 (not called: perfbench/tracing.py patches this name)
from .pauli import PauliHamiltonian, _support_mask, basis_energy, group_terms, sign_table
from .sim import (
    NoiseModel,
    QuantumState,
    _basis_probabilities,
    _sampling_grid,
    apply_readout_noise,  # noqa: F401 (not called: perfbench/tracing.py patches this name)
    expectation,
    run_density,
    run_statevector,
    sample_counts,
)

# Evaluation indices reserved far past any optimizer's reach (see the module doc).
REFERENCE_INDEX = 10**9
MEASURE_INDEX = REFERENCE_INDEX + 1
SPSA_INDEX = REFERENCE_INDEX + 2


@frozen
class EnergyEvaluator:
    """Immutable recipe for measuring <H> at a parameter vector.

    noise=None runs the pure statevector; shots=None skips sampling and uses
    exact outcome distributions. `seed` is the run's master seed and `point`
    the curve or sweep point whose draws this evaluator makes. `confusion` C
    turns each outcome distribution p into C p before any draw, the law of
    resampling every shot through C; with `unfold_matrix` set, every outcome
    distribution is unfolded through that matrix. The ansatz circuit is
    resolved once, when the evaluator is made.
    """

    hamiltonian: PauliHamiltonian
    ansatz: AnsatzSpec
    noise: NoiseModel | None = None
    shots: int | None = None
    seed: int = 0
    confusion: ConfusionMatrix | None = None
    unfold_matrix: ConfusionMatrix | None = None
    point: int = 0

    def __post_init__(self) -> None:
        shots = 1 if self.shots is None else self.shots
        for name, value in (("seed", self.seed), ("shots", shots), ("point", self.point)):
            # an integer is what operator.index takes (numpy integers too), but no bool
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.point < 2**32:
            raise ValueError(f"point must lie in [0, 2^32), got {self.point}")
        n = self.hamiltonian.n_qubits
        for name in ("ansatz", "confusion", "unfold_matrix"):
            part = getattr(self, name)
            if part is not None and part.n_qubits != n:
                raise ValueError(f"{name} acts on {part.n_qubits} qubits, the Hamiltonian on {n}")
        object.__setattr__(self, "_circuit", ansatz_circuit(self.ansatz))
        if self.shots is None:
            return
        if self.shots <= 0:
            raise ValueError("shots must be positive when sampling")
        n_groups = len(_plan(self.hamiltonian)[0])
        if self.shots < n_groups:
            raise ValueError(
                f"{self.shots} shots cannot cover the {n_groups} measurement groups "
                f"of one energy evaluation"
            )
        # each group's share of the shots, split equally, and the shares as a
        # read-only (G, 1) float column (no groups, no shares)
        base, extra = divmod(self.shots, max(n_groups, 1))
        split = tuple(base + (g < extra) for g in range(n_groups))
        column = np.array(split, dtype=float)[:, None]
        column.setflags(write=False)
        object.__setattr__(self, "_split", split)
        object.__setattr__(self, "_column", column)


@lru_cache(maxsize=64)
def _plan(h: PauliHamiltonian) -> tuple[tuple[str, ...], np.ndarray]:
    """How h is measured: the basis labels of its qubit-wise commuting groups
    (group_terms), and the read-only (G, 2^n) weights whose row g is
    f_g = sum_t c_t sign_t over the terms t of group g."""
    groups = group_terms(h)
    weights = np.zeros((len(groups), 1 << h.n_qubits))
    for f, (_, members) in zip(weights, groups):
        for t in members:
            label, coeff = h.terms[t]
            f += coeff * sign_table(h.n_qubits, _support_mask(label))
    weights.setflags(write=False)
    return tuple(basis for basis, _ in groups), weights


def _group_energy(dist: np.ndarray, weights: np.ndarray) -> float:
    """Partial energy f_g . dist of a group from an outcome distribution drawn
    in its basis, or the sum of those of all groups from (G, 2^n) rows of
    distributions and weights (offset excluded)."""
    return float(np.vdot(weights, dist))


def _prepare(ev: EnergyEvaluator, theta: Sequence[float]) -> QuantumState:
    spec = ev.ansatz
    if len(theta) != spec.n_params:
        raise ValueError(
            f"{spec.family} ansatz takes {spec.n_params} parameters, got {len(theta)}"
        )
    bindings = dict(zip(spec.parameter_names(), theta))  # floats when bound (sim._bind)
    noise = ev.noise
    # A noise model with zero gate-error rates (a noise-sweep point at p2 = 0)
    # leaves the state pure, so it runs the statevector.
    if noise is None or (noise.p1 == 0.0 and noise.p2 == 0.0):
        return run_statevector(ev._circuit, bindings)
    return run_density(ev._circuit, bindings, noise)


def evaluate(ev: EnergyEvaluator, theta: Sequence[float], index: int = 0) -> float:
    """Energy at `theta`; `index` keys this evaluation's random draws."""
    state = _prepare(ev, theta)
    h = ev.hamiltonian
    confusion = ev.confusion
    if ev.shots is None and confusion is None and ev.unfold_matrix is None:
        return float(expectation(h, state))
    labels, weights = _plan(h)
    if not labels:  # nothing to measure: the energy is the offset
        return h.offset
    if ev.shots is not None:
        sampler = _stream(ev.seed, ev.point, index)
        grid = _sampling_grid(state, labels, confusion)
        counts = np.array([sample_counts(p, shots, sampler) for p, shots in zip(grid, ev._split)])
        # each row sums to its share exactly, so this is counts / counts.sum(1)
        dists = counts / ev._column
    else:
        dists = _basis_probabilities(state, labels)
        if confusion is not None:
            dists = dists @ confusion.matrix.T
    if ev.unfold_matrix is not None:
        dists = unfold(ev.unfold_matrix, dists)
    return h.offset + _group_energy(dists, weights)


def reference_exact_energy(ev: EnergyEvaluator) -> float:
    """Exact <H> in the ansatz's Hartree-Fock basis state (classical value)."""
    return basis_energy(ev.hamiltonian, ev.ansatz.hf_bitstring)


@frozen
class VqeOutcome:
    """An optimizer run: every (theta, energy) it evaluated, why it stopped,
    and the theta it chose.

    Nelder-Mead and SPSA on exact distributions choose the first
    lowest-energy trace entry. Under shots the lowest entry is the one the
    noise pulled down most, so SPSA chooses the mean of its last window's
    iterates instead. Either way the reported energy is a new measurement at
    theta (this module's MEASURE_INDEX).
    """

    trace: tuple[tuple[tuple[float, ...], float], ...]
    converged: bool
    message: str
    theta: tuple[float, ...]

    @property
    def n_evaluations(self) -> int:
        return len(self.trace)


# Stop rule of both optimizers: Nelder-Mead's simplex spread (fatol and xatol),
# SPSA's change between the energy averages of successive 10-iteration (20-
# evaluation) windows, or under shots that change's noise floor if higher.
_TOL = 1e-6
# SPSA gains a and c of the standard schedules a/(k+1+A)^0.602, c/(k+1)^0.101.
_SPSA_A, _SPSA_C = 0.15, 0.1
# SPSA's perturbation signs, indexed as Generator.choice((-1.0, 1.0)) draws them.
_SIGNS = np.array([-1.0, 1.0])


# Default budgets: every Nelder-Mead run measured on exact distributions converged
# within 16 939 evaluations (README); SPSA and shot runs get 2000.
_EXACT_BUDGET, _BUDGET = 20_000, 2000


def minimize(
    ev: EnergyEvaluator, optimizer: str = "nelder-mead", max_evals: int | None = None
) -> VqeOutcome:
    """Derivative-free minimization from the Hartree-Fock start theta = 0.

    Runs until the optimizer's stop rule holds or the evaluation budget is
    exhausted; running out of budget sets converged=False in the outcome
    instead of raising. The outcome's theta is the optimizer's choice
    (VqeOutcome). The budget defaults to 20 000 for Nelder-Mead on exact
    distributions (shots=None), else 2000.
    """
    if max_evals is None:
        max_evals = _EXACT_BUDGET if ev.shots is None and optimizer == "nelder-mead" else _BUDGET
    if max_evals < 1:
        raise ValueError(f"max_evals must be at least 1, got {max_evals}")
    trace: list[tuple[tuple[float, ...], float]] = []

    def f(theta: np.ndarray) -> float:
        energy = evaluate(ev, theta, index=len(trace))
        trace.append((tuple(theta.tolist()), energy))
        return energy

    if optimizer == "nelder-mead":
        return _nelder_mead(f, np.zeros(ev.ansatz.n_params), max_evals, trace)
    if optimizer == "spsa":
        return _spsa(ev, f, max_evals, trace)
    raise ValueError(f"unknown optimizer {optimizer!r} (choose nelder-mead or spsa)")


class _BudgetSpent(Exception):
    """The next evaluation would exceed the budget."""


def _nelder_mead(f, theta0, max_evals, trace) -> VqeOutcome:
    """Nelder-Mead with reflection 1, expansion 2, contraction and shrink 1/2
    from the simplex theta0 + 0.1 e_k (the radian scale of rotation angles),
    until every vertex is within _TOL of the best in each coordinate and in
    energy, or before an evaluation past max_evals. Each re-sort is stable:
    vertices of equal energy keep their order, whatever sort numpy's build
    and CPU select. The float expressions and the messages are those of the
    common reference implementation, which the tests replay point for point
    under a stable argsort; its iteration cap, also max_evals, never binds
    first: the simplex and each iteration cost an evaluation.
    """
    n = theta0.size

    def func(x: np.ndarray) -> float:
        if len(trace) >= max_evals:
            raise _BudgetSpent
        return f(x)

    sim = np.vstack([theta0, theta0 + 0.1 * np.eye(n)])
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
        while len(trace) < max_evals:
            ind = fsim.argsort(kind="stable")
            sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
            # the energies as Python floats, read before this iteration
            # changes fsim; both spreads are pure, so testing the cheaper
            # energy spread first leaves the result of the `and` as the
            # reference's; `all` fails at a NaN, as a NaN max does
            fs = fsim.tolist()
            if (all(abs(fs[0] - e) <= _TOL for e in fs[1:])
                    and np.abs(sim[1:] - sim[0]).max() <= _TOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]  # the reference's 1 * sim[-1] is exact
            fxr = func(xr)
            if fxr < fs[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fs[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fs[-1]:  # outside contraction
                    x = 1.5 * xbar - 0.5 * sim[-1]
                    fx = func(x)
                    accept = fx <= fxr
                else:  # inside contraction
                    x = 0.5 * xbar + 0.5 * sim[-1]
                    fx = func(x)
                    accept = fx < fs[-1]
                if accept:
                    sim[-1], fsim[-1] = x, fx
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
    except _BudgetSpent:
        pass
    if len(trace) >= max_evals:
        return _outcome(trace, False, "Maximum number of function evaluations has been exceeded.")
    return _outcome(trace, True, "Optimization terminated successfully.")


def _outcome(trace, converged: bool, message: str, theta=None) -> VqeOutcome:
    """The run's outcome; theta defaults to the first lowest-energy trace entry's."""
    if theta is None:
        theta = min(trace, key=lambda entry: entry[1])[0]
    return VqeOutcome(tuple(trace), converged, message, theta)


def _spsa(ev, f, max_evals, trace) -> VqeOutcome:
    """Simultaneous-perturbation descent with the standard gain schedules.

    After every 10 iterations the window's energy estimates (e+ + e-)/2 give
    a mean m and, under shots, the variance v of that mean (their sample
    variance / 10; on exact distributions v = 0). The run stops once
    |m_k - m_(k-1)| < max(_TOL, 2 sqrt(v_k + v_(k-1))) holds for one window
    on exact distributions, or for two windows in a row under shots, where
    the floor is what two noisy means differ by anyway. Under shots the
    chosen theta is the mean of the last complete window's iterates, the
    points that window measured (the final iterate before any window
    completes); on exact distributions it is the first lowest trace entry.
    The chosen theta, or the final iterate, is evaluated once more when the
    budget allows.
    """
    alpha, gamma, stability = 0.602, 0.101, 10.0
    rng = _stream(ev.seed, ev.point, SPSA_INDEX)
    theta = np.zeros(ev.ansatz.n_params)
    shots = ev.shots is not None
    window: list[float] = []
    iterates: list[np.ndarray] = []
    prev: tuple[float, float] | None = None  # the last window's (m, v)
    passes = 0
    chosen = None
    converged = False
    message = "evaluation budget exhausted"
    for k in range(max_evals // 2):
        ak = _SPSA_A / (k + 1 + stability) ** alpha
        ck = _SPSA_C / (k + 1) ** gamma
        direction = _SIGNS[rng.integers(0, 2, size=theta.shape)]
        e_plus = f(theta + ck * direction)
        e_minus = f(theta - ck * direction)
        gradient = (e_plus - e_minus) / (2.0 * ck) * (1.0 / direction)
        iterates.append(theta)
        theta = theta - ak * gradient
        window.append(0.5 * (e_plus + e_minus))
        if len(window) == 10:
            avg = sum(window) / len(window)
            var = 0.0
            if shots:  # the sample variance (n - 1 = 9) over n = 10
                var = sum((e - avg) ** 2 for e in window) / 90
                chosen = np.mean(iterates, axis=0)
            window.clear()
            iterates.clear()
            close = prev is not None and abs(avg - prev[0]) < max(_TOL, 2.0 * math.sqrt(var + prev[1]))
            passes = passes + 1 if close else 0
            if passes == (2 if shots else 1):
                converged = True
                message = "averaged energy change below tolerance"
                break
            prev = (avg, var)
    if chosen is not None:
        theta = chosen
    if len(trace) < max_evals:
        f(theta)
    return _outcome(trace, converged, message, tuple(theta.tolist()) if shots else None)


@frozen
class SweepFit:
    """Least-squares fit of a 1-parameter energy curve to C + A cos(theta - alpha)."""

    c: float
    a: float
    alpha: float
    grid: tuple[float, ...]
    energies: tuple[float, ...]

    @property
    def theta_min(self) -> float:
        """The model's minimum, alpha + pi wrapped to [-pi, pi]."""
        return math.atan2(math.sin(self.alpha + math.pi), math.cos(self.alpha + math.pi))

    @property
    def e_min(self) -> float:
        return self.c - self.a

    def value_at(self, theta: float) -> float:
        return self.c + self.a * math.cos(theta - self.alpha)


def default_grid(n_points: int = 25) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, n_points)


def sweep_and_fit(ev: EnergyEvaluator, grid: Sequence[float] | None = None) -> SweepFit:
    """Evaluate a 1-parameter ansatz on a grid and fit the cosine model.

    The fit is linear least squares on the basis {1, cos, sin}, normalized to
    A >= 0; the minimum of the model is at theta_min = alpha + pi (wrapped),
    e_min = c - a.
    """
    if ev.ansatz.n_params != 1:
        raise ValueError(
            f"sweep needs a 1-parameter ansatz, {ev.ansatz.family} has "
            f"{ev.ansatz.n_params}"
        )
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 4:
        raise ValueError("grid needs at least 4 points")
    if not np.isfinite(grid).all():
        raise ValueError("grid angles must be finite")
    # a set, not np.unique, which imports numpy.ma on numpy 2
    if len(set(grid.tolist())) < 3:
        raise ValueError("grid is degenerate: fewer than 3 distinct angles")
    energies = np.array([evaluate(ev, (t,), index=i) for i, t in enumerate(grid)])
    design = np.column_stack([np.ones_like(grid), np.cos(grid), np.sin(grid)])
    (c0, pc, ps), *_ = np.linalg.lstsq(design, energies, rcond=None)
    return SweepFit(
        float(c0),
        math.hypot(pc, ps),
        math.atan2(ps, pc),
        tuple(float(t) for t in grid),
        tuple(float(e) for e in energies),
    )
