"""Readout-error mitigation and reference-state error mitigation.

Readout mitigation: a column-stochastic confusion matrix C with
C[j][i] = P(measure j | prepared i) is calibrated from prepare-and-measure
experiments and inverted through a simplex-constrained least-squares unfolding
(an exact active-set quadratic program; no matrix inversion).

Reference-state mitigation: the energy discrepancy of a classically tractable
reference state, delta = e_vqe_ref - e_exact_ref, is subtracted pointwise from
measured energies. The shift is affine, so it moves every point of an energy
curve equally and never changes the argmin. Corrected energies may fall below
the exact minimum; they are deliberately not clamped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Generator.multinomial rejects a distribution whose leading entries sum to
# more than 1 + 1e-12; half that leaves room for the two sums' rounding, so
# every accepted column can be drawn from.
_COLUMN_TOL = 5e-13


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic readout matrix; entry [j][i] = P(measure j | prepared i)."""

    n_qubits: int
    matrix: np.ndarray
    uncertainty: np.ndarray | None = None

    def __post_init__(self) -> None:
        dim = 1 << self.n_qubits
        # C order whatever the caller's layout, so unfold's products (and its
        # last bits) depend on the values only
        mat = np.array(self.matrix, dtype=float, order="C")
        if mat.shape != (dim, dim):
            raise ValueError(f"confusion matrix must be {dim}x{dim}, got {mat.shape}")
        if not np.all((mat >= -1e-12) & (mat <= 1 + 1e-12)):  # NaN compares false
            raise ValueError("confusion entries must lie in [0, 1]")
        mat = np.clip(mat, 0.0, 1.0)
        # summed after the clip: those are the columns drawn from
        deviation = np.max(np.abs(mat.sum(axis=0) - 1.0))
        if deviation > _COLUMN_TOL:
            raise ValueError(f"confusion columns must sum to 1 (max deviation {deviation:.2e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        # unfold's H = C^T C and its full-support KKT matrix, built once per matrix
        gram = mat.T @ mat
        kkt = _kkt_matrix(gram)
        gram.setflags(write=False)
        kkt.setflags(write=False)
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_kkt", kkt)
        if self.uncertainty is not None:
            unc = np.array(self.uncertainty, dtype=float)
            if unc.shape != (dim, dim):
                raise ValueError("uncertainty shape must match matrix")
            if not ((unc >= 0.0) & (unc < np.inf)).all():  # NaN compares false
                raise ValueError("uncertainty entries must be finite and non-negative")
            unc.setflags(write=False)
            object.__setattr__(self, "uncertainty", unc)

    @classmethod
    def identity(cls, n_qubits: int) -> "ConfusionMatrix":
        return cls(n_qubits, np.eye(1 << n_qubits))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


# Measured two-qubit readout calibration of a superconducting device, used as
# the package's stock nontrivial readout model. Percent values, basis order
# 00, 01, 10, 11; raw columns sum to 99.9-100.1 and are normalized on load.
_DEVICE_PERCENT = [
    [96.8, 5.9, 5.9, 0.4],
    [2.0, 93.0, 0.1, 5.7],
    [1.1, 0.1, 92.1, 5.6],
    [0.0, 1.1, 1.9, 88.4],
]
_DEVICE_PERCENT_SIGMA = [
    [0.21, 0.67, 0.59, 0.08],
    [0.15, 0.69, 0.04, 0.58],
    [0.12, 0.03, 0.57, 0.56],
    [0.01, 0.13, 0.17, 0.86],
]


def device_confusion() -> ConfusionMatrix:
    """Stock two-qubit device readout calibration, column-normalized."""
    mat = np.array(_DEVICE_PERCENT) / 100.0
    mat = mat / mat.sum(axis=0, keepdims=True)
    return ConfusionMatrix(2, mat, np.array(_DEVICE_PERCENT_SIGMA) / 100.0)


def calibrate_confusion(
    truth: ConfusionMatrix, shots_per_state: int, repeats: int, seed: int = 0
) -> ConfusionMatrix:
    """Estimate `truth` by prepare-and-measure runs on a backend it describes.

    All `repeats` runs of prepared state i draw their counts from column i
    of `truth` with one generator, keyed by (seed, i). Column i of the
    estimate is the empirical distribution averaged over the runs; the
    per-entry uncertainty is the sample std over repeats (zero when
    repeats == 1).
    """
    if shots_per_state <= 0:
        raise ValueError("shots_per_state must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    # runs[k, j, i]: the share of outcome j in repeat k of prepared state i
    runs = np.stack([
        np.random.default_rng(np.random.SeedSequence((seed, i)))
        .multinomial(shots_per_state, truth.matrix[:, i], size=repeats)
        for i in range(truth.dim)
    ], axis=-1) / shots_per_state
    sigma = runs.std(axis=0, ddof=1) if repeats > 1 else np.zeros_like(runs[0])
    return ConfusionMatrix(truth.n_qubits, runs.mean(axis=0), sigma)


_KKT_TOL = 1e-10


def _kkt_matrix(H_free: np.ndarray) -> np.ndarray:
    """[[H_free, -1], [1, 0]]: the KKT matrix of x.Hx/2 - b.x with sum(x) = 1
    on a free index set, given H restricted to that set."""
    k = len(H_free)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = H_free
    # stationarity is Hx - b - mu = 0 on the free set, so the multiplier
    # column carries -1 while the constraint row carries +1
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    return kkt


def _kkt_target(H: np.ndarray, b: np.ndarray, free: list[int]) -> tuple[np.ndarray, float]:
    """Minimizer of x.Hx/2 - b.x with sum(x) = 1 and x = 0 off `free`, and
    the multiplier of the sum constraint."""
    sol = np.linalg.solve(_kkt_matrix(H[free][:, free]), np.append(b[free], 1.0))
    target = np.zeros(len(b))
    target[free] = sol[:-1]
    return target, sol[-1]


def unfold(c: ConfusionMatrix, m: np.ndarray) -> np.ndarray:
    """argmin ||m - Cx||^2 over the probability simplex, for one measured
    vector or each row of a (G, 2^n) stack.

    Exact primal active-set quadratic program (`_active_set`). When the
    full-support solution of its first step is already feasible, that step
    is the whole run, and it is replayed here without the loop, for all rows
    in one stacked product and one batched solve: each row is bit for bit
    the active set's. Other rows run the active set one at a time. Each
    result sums to 1 with entries >= 0 (tiny negatives clamped).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim > 2 or m.shape[-1:] != (c.dim,):
        raise ValueError(f"measured vector must have length {c.dim}, got {m.shape}")
    rows = m.reshape(-1, c.dim)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():  # tested before any sum, where inf + -inf warns
        bad = rows[~finite][0].tolist()
        raise ValueError(f"measured vector must be finite and sum to 1, got {bad}")
    error = np.abs(rows.sum(axis=1) - 1.0)
    if not error.max() <= 1e-6:
        raise ValueError(
            f"measured vector must be finite and sum to 1, got {rows[error.argmax()].sum():.8f}"
        )
    # _kkt_target on every index, against the matrix built once per C; its
    # right-hand side is (b, 1) with b = C^T m formed row by row
    rhs = np.ones((len(rows), c.dim + 1, 1))
    rhs[:, :-1] = c.matrix.T @ rows[:, :, None]
    target = np.linalg.solve(c._kkt, rhs)[:, :-1, 0]
    # a feasible target: no bound blocks the full step (alpha = 1) from the uniform
    # start x, and the next iteration finds it stationary with no bound to release
    x = 1.0 / c.dim
    step = target - x
    out = np.where(np.abs(step).max(axis=1, keepdims=True) > _KKT_TOL, x + 1.0 * step, x)
    out = np.where(out < 0.0, 0.0, out)
    for g in np.flatnonzero(~(target >= 0.0).all(axis=1)):
        out[g] = _active_set(c._gram, rhs[g, :-1, 0])
    return out.reshape(m.shape)


def _active_set(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The active-set loop of `unfold` from the uniform start: the
    equality-constrained KKT system is solved on the free index set, bounds
    are added at the first blocking constraint and released at the most
    negative multiplier."""
    n = len(b)
    x = np.full(n, 1.0 / n)
    active: set[int] = set()
    for _ in range(100 * n):
        free = [i for i in range(n) if i not in active]
        target, mu = _kkt_target(H, b, free)

        step = target - x
        if np.max(np.abs(step)) <= _KKT_TOL:
            # stationary on the working set; check bound multipliers
            grad = H @ x - b
            lagrange = {i: grad[i] - mu for i in active}
            worst = min(lagrange, key=lagrange.get, default=None)
            if worst is None or lagrange[worst] >= -_KKT_TOL:
                break
            active.remove(worst)
            continue

        alpha = 1.0
        blocking = None
        for i in free:
            if step[i] < -1e-15:
                limit = max(x[i], 0.0) / -step[i]
                if limit < alpha:
                    alpha = limit
                    blocking = i
        x = x + alpha * step
        if blocking is not None:
            x[blocking] = 0.0
            active.add(blocking)
    else:
        raise RuntimeError("active-set unfolding failed to converge")

    return np.where(x < 0.0, 0.0, x)


def counts_to_distribution(counts: np.ndarray) -> np.ndarray:
    """Normalized outcome distribution from a count vector, or one per row
    of a 2-D array of count vectors."""
    total = counts.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("counts are empty")
    return counts / total


@dataclass(frozen=True)
class RemReport:
    """One reference-state mitigation run: the measured and exact energies
    it starts from, and the correction derived from them.

    delta_rem = e_vqe_ref - e_exact_ref and e_rem = e_vqe_min - delta_rem.
    Given the noise-free minimum, err_vqe = e_vqe_min - e_exact_min and
    err_rem = e_rem - e_exact_min: positive err_vqe means noise raised the
    energy; err_rem may be negative (over-correction).
    """

    e_vqe_ref: float
    e_exact_ref: float
    e_vqe_min: float
    e_exact_min: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.e_vqe_ref) and np.isfinite(self.e_exact_ref)):
            raise ValueError("reference energies must be finite")

    @property
    def delta_rem(self) -> float:
        return float(self.e_vqe_ref) - float(self.e_exact_ref)

    @property
    def e_rem(self) -> float:
        return float(self.e_vqe_min) - self.delta_rem

    @property
    def err_vqe(self) -> float | None:
        if self.e_exact_min is None:
            return None
        return float(self.e_vqe_min) - float(self.e_exact_min)

    @property
    def err_rem(self) -> float | None:
        if self.e_exact_min is None:
            return None
        return self.e_rem - float(self.e_exact_min)


# rem_report(e_vqe_ref, e_exact_ref, e_vqe_min, e_exact_min=None): the
# function-style name the README and the demos use.
rem_report = RemReport


# --- confusion matrix CSV serialization -------------------------------------


def format_confusion_csv(c: ConfusionMatrix) -> str:
    """Row-major CSV with a `# confusion n=<qubits>` header; probabilities to
    8 decimal places, optional uncertainty block."""
    lines = [f"# confusion n={c.n_qubits}"]
    for row in c.matrix:
        lines.append(",".join(f"{v:.8f}" for v in row))
    if c.uncertainty is not None:
        lines.append("# uncertainty")
        for row in c.uncertainty:
            lines.append(",".join(f"{v:.8f}" for v in row))
    return "\n".join(lines) + "\n"


def parse_confusion_csv(text: str) -> ConfusionMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# confusion n="):
        raise ValueError("missing '# confusion n=<qubits>' header")
    n_qubits = int(lines[0].split("=", 1)[1])
    dim = 1 << n_qubits
    rows: list[list[float]] = []
    sigma_rows: list[list[float]] = []
    current = rows
    for ln in lines[1:]:
        if ln.startswith("#"):
            if ln == "# uncertainty":
                current = sigma_rows
                continue
            continue
        current.append([float(v) for v in ln.split(",")])
    if len(rows) != dim:
        raise ValueError(f"expected {dim} matrix rows, got {len(rows)}")
    # re-normalize columns: 8-decimal rounding may leave ~1e-8 drift
    mat = np.array(rows)
    sums = mat.sum(axis=0, keepdims=True)
    if not np.all(sums > 0):
        raise ValueError(f"confusion column sums {sums[0].tolist()} are not all positive")
    mat = mat / sums
    unc = np.array(sigma_rows) if sigma_rows else None
    return ConfusionMatrix(n_qubits, mat, unc)


def write_confusion_csv(c: ConfusionMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_confusion_csv(c))


def read_confusion_csv(path) -> ConfusionMatrix:
    with open(path, encoding="utf-8") as fh:
        return parse_confusion_csv(fh.read())
