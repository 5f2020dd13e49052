"""Readout-error mitigation and reference-state error mitigation.

Readout mitigation: a column-stochastic confusion matrix C with
C[j][i] = P(measure j | prepared i) is calibrated from prepare-and-measure
experiments and inverted through a simplex-constrained least-squares unfolding
(an exact active-set quadratic program; no matrix inversion) whose first
iterate is one batched solve for a whole stack of distributions.

Reference-state mitigation: the energy discrepancy of a classically tractable
reference state, delta = e_vqe_ref - e_exact_ref, is subtracted pointwise from
measured energies. The shift is affine, so it moves every point of an energy
curve equally and never changes the argmin. Corrected energies may fall below
the exact minimum; they are deliberately not clamped.

The seed rule: draw `index` at point `point` of a run with master seed `seed`
comes from default_rng(SeedSequence(seed, spawn_key=(point, index))), which
`_stream` computes; calibration draws at the reserved CALIBRATION_POINT.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate

import numpy as np

from ._frozen import frozen

# Calibration's reserved point; a run's curves and sweeps count points up from 0.
CALIBRATION_POINT = 2**32 - 1


def _stream(seed: int, point: int, index: int) -> np.random.Generator:
    """The generator of draw `index` at curve or sweep point `point` of a run
    with master seed `seed`, the seed rule's default_rng(SeedSequence(seed,
    spawn_key=(point, index))), computed: numpy's SeedSequence(seed,
    spawn_key=(point,)) gives the pool after the seed and the point, and
    `_block_words` hashes the indices of a block of 64 into it and the 4
    uint64 words of generate_state(4, uint64) out, from which numpy's PCG64
    seeds itself. The most recent blocks are kept, so the next evaluation's
    index, and a key drawn again, as an unfolded sweep draws its raw sweep's
    keys, costs a lookup; every call returns a fresh Generator. Tests pin it
    to the law.

    (point, index) is a spawn key, not entropy: SeedSequence pads short
    entropy with zeros, so entropies of unequal length can collide. It joins
    the 32-bit words of the key entries, so an entry of 2^32 or more could
    make two keys collide, and is rejected.
    """
    if not (0 <= point < 2**32 and 0 <= index < 2**32):
        raise ValueError(f"spawn key entries must lie in [0, 2^32), got ({point}, {index})")
    index = operator.index(index)
    words = _block_words(operator.index(seed), operator.index(point), index >> 6)[index & 63]
    return np.random.Generator(np.random.PCG64(_pinned()(words)))


@lru_cache(maxsize=4)
def _block_words(seed: int, point: int, block: int) -> np.ndarray:
    """Read-only (64, 4) uint64: row i is generate_state(4, uint64) of the seed
    rule's SeedSequence at index 64 * block + i, hashed on uint32 arrays, whose
    products wrap mod 2^32 as SeedSequence's masked ones do (array arithmetic
    wraps without warning)."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    pool = np.random.SeedSequence(seed, spawn_key=(point,)).pool
    # SeedSequence hashes 4 steps per word of the seed, zero-padded to four
    # words, and 4 per spawn key entry; the index is the key's last entry
    xor, mult = _index_steps(max(4, -(-seed.bit_length() // 32)))
    h = (np.arange(block << 6, block + 1 << 6, dtype=np.uint32)[:, None] ^ xor) * mult
    x = 0xCA01F9DD * pool - 0x4973F715 * (h ^ h >> 16)  # (64, 4): row i is the pool after index i
    x ^= x >> 16
    out = (x[:, None] ^ _OUTPUT_WORDS[0]) * _OUTPUT_WORDS[1]  # (64, 2, 4): [i, j // 4, j % 4] is word j
    out ^= out >> 16
    # as generate_state: uint64 word k is the 32-bit words 2k, 2k + 1 read little-endian
    words = out.reshape(64, 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    words.setflags(write=False)
    return words


def _steps(const: int, mult: int, n: int) -> np.ndarray:
    """Read-only (2, n) uint32: the (xor, multiplier) pairs of n successive
    SeedSequence hashes from the hash constant `const`, which advances by
    `mult` mod 2^32 (NEP 19 fixes both, whatever the words hashed)."""
    consts = list(accumulate(range(n), lambda c, _: c * mult % 2**32, initial=const))
    steps = np.array([consts[:-1], consts[1:]], dtype=np.uint32)
    steps.setflags(write=False)
    return steps


@lru_cache(maxsize=8)
def _index_steps(n_words: int) -> np.ndarray:
    """The (xor, multiplier) rows of the index's hash into pool words 0-3 after
    a seed of `n_words` 32-bit words and a point: the last four hash steps."""
    return _steps(0x43B0D7E5, 0x931E8875, 4 * n_words + 8)[:, -4:]


# generate_state's (xor, multiplier) of output word j at [:, j // 4, j % 4]; it hashes pool word j % 4
_OUTPUT_WORDS = _steps(0x8B51F9DD, 0x58F38DED, 8).reshape(2, 2, 4)


@lru_cache(maxsize=1)
def _pinned() -> type:
    """The seed sequence that hands PCG64 its state words; made on first use, as
    only runs that draw import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Pinned(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:  # PCG64's request, and no other
                raise ValueError("only 4 uint64 state words are pinned")
            return self.state

    return Pinned


# Generator.multinomial rejects a distribution whose leading entries sum to
# more than 1 + 1e-12; half that leaves room for the two sums' rounding, so
# every accepted column can be drawn from.
_COLUMN_TOL = 5e-13


@frozen
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
        # the values as bytes, read once: the key of the C p grids a state keeps
        object.__setattr__(self, "_key", mat.tobytes())
        # unfold's H = C^T C and its full-support KKT matrix, built once per matrix
        gram = mat.T @ mat
        kkt = _kkt_matrix(gram)
        gram.setflags(write=False)
        kkt.setflags(write=False)
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_kkt", kkt)
        object.__setattr__(self, "_kkts", {})  # _active_set's, per free index set
        if self.uncertainty is not None:
            unc = np.array(self.uncertainty, dtype=float)
            if unc.shape != (dim, dim):
                raise ValueError("uncertainty shape must match matrix")
            if not ((unc >= 0.0) & (unc < np.inf)).all():  # NaN compares false
                raise ValueError("uncertainty entries must be finite and non-negative")
            unc.setflags(write=False)
            object.__setattr__(self, "uncertainty", unc)

    def _values(self) -> tuple:
        """What equality compares and hash hashes: arrays as their bytes."""
        unc = self.uncertainty
        return self.n_qubits, self._key, None if unc is None else unc.tobytes()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

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
    of `truth` with one generator, `_stream(seed, CALIBRATION_POINT, i)`.
    Column i of the estimate is the empirical distribution averaged over the
    runs; the per-entry uncertainty is the sample std over repeats (zero
    when repeats == 1).
    """
    if shots_per_state <= 0:
        raise ValueError("shots_per_state must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    # runs[k, j, i]: the share of outcome j in repeat k of prepared state i
    runs = np.stack([
        _stream(seed, CALIBRATION_POINT, i)
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


def unfold(c: ConfusionMatrix, m: np.ndarray) -> np.ndarray:
    """argmin ||m - Cx||^2 over the probability simplex, for one measured
    vector or each row of a (G, 2^n) stack.

    Exact primal active-set quadratic program (`_active_set`). Its first
    iterate, the full-support KKT solution t, is solved for all rows in one
    stacked product and one batched solve, and each row is routed by its
    least entry of t: a stationary row (every |t - x| within tolerance of the
    uniform start x = 2^-n) is exactly x; a feasible row (t >= 0) takes the
    full step, x + (t - x), which is the whole run; a row that leaves the
    simplex, or holds a NaN, continues the active set from t. Each result
    sums to 1 with entries >= 0. A full step needs no clamp: for t >= 0,
    t - x rounds to no less than -x, so x + (t - x) rounds to no less than 0.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim > 2 or m.shape[-1:] != (c.dim,):
        raise ValueError(f"measured vector must have length {c.dim}, got {m.shape}")
    rows = m.reshape(-1, c.dim)
    if not np.isfinite(rows).all():  # tested before any sum, where inf + -inf warns
        bad = rows[~np.isfinite(rows).all(axis=1)][0].tolist()
        raise ValueError(f"measured vector must be finite and sum to 1, got {bad}")
    # a test over the list: on a few rows, numpy's per-call cost would exceed it
    sums = rows.sum(axis=1).tolist()
    if not all(abs(s - 1.0) <= 1e-6 for s in sums):
        worst = max(sums, key=lambda s: abs(s - 1.0))
        raise ValueError(f"measured vector must be finite and sum to 1, got {worst:.8f}")
    # the KKT system on every index, against the matrix built once per C; its
    # right-hand side is (b, 1) with b = C^T m formed row by row
    rhs = np.ones((len(rows), c.dim + 1, 1))
    np.matmul(c.matrix.T, rows[:, :, None], out=rhs[:, :-1])
    sol = np.linalg.solve(c._kkt, rhs)[:, :, 0]
    target = sol[:, :-1]
    # each row goes by its least target entry. Below 0 (or NaN) a bound blocks
    # the full step (alpha = 1) from the uniform start x, and the row takes the
    # active set; otherwise the next iteration finds the target stationary with
    # no bound to release. A stationary row's least step is within tolerance
    # too, so the mask is built only if some unblocked row's is: the max skips
    # the blocked rows, as a NaN in it could hide a stationary row. A zeroed
    # step leaves x exactly
    x = 1.0 / c.dim
    step = target - x
    lows = target.min(axis=1).tolist()
    blocked = [g for g, low in enumerate(lows) if not low >= 0.0]
    feasible = [low for low in lows if low >= 0.0] if blocked else lows
    if max(feasible, default=-1.0) - x >= -_KKT_TOL:
        step[(np.abs(step) <= _KKT_TOL).all(axis=1)] = 0.0
    out = np.add(step, x, out=step)
    for g in blocked:
        out[g] = _active_set(c, rhs[g, :-1, 0], sol[g])
    return out.reshape(m.shape)


def _active_set(c: ConfusionMatrix, b: np.ndarray, first: np.ndarray) -> list[float]:
    """`unfold`'s active set for one row, from the uniform start and `first`,
    the full-support KKT solution. The KKT system is solved once per free index
    set visited (its matrix is built once per C); bounds are added at the first
    blocking constraint and released at the most negative multiplier.

    The solves and the gradient's product stay numpy calls; the rest is
    Python floats, whose single operations round as numpy's elementwise ones."""
    n = len(b)
    b = b.tolist()
    x = [1.0 / n] * n
    active: set[int] = set()
    solved = {tuple(range(n)): (first[:-1].tolist(), float(first[-1]))}
    for _ in range(100 * n):
        free = [i for i in range(n) if i not in active]
        key = tuple(free)
        if key not in solved:
            if key not in c._kkts:
                c._kkts[key] = _kkt_matrix(c._gram[free][:, free])
            sol = np.linalg.solve(c._kkts[key], np.array([b[i] for i in free] + [1.0])).tolist()
            target = [0.0] * n
            for i, v in zip(free, sol):
                target[i] = v
            solved[key] = target, sol[-1]
        target, mu = solved[key]

        step = [t - v for t, v in zip(target, x)]
        if all(abs(s) <= _KKT_TOL for s in step):  # False on NaN, as numpy's max is
            # stationary on the working set; check bound multipliers
            hx = (c._gram @ np.array(x)).tolist()
            lagrange = {i: hx[i] - b[i] - mu for i in active}
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
        x = [v + alpha * s for v, s in zip(x, step)]
        if blocking is not None:
            x[blocking] = 0.0
            active.add(blocking)
    else:
        raise RuntimeError("active-set unfolding failed to converge")

    return [0.0 if v < 0.0 else v for v in x]


def counts_to_distribution(counts: np.ndarray) -> np.ndarray:
    """Normalized outcome distribution from a count vector, or one per row
    of a 2-D array of count vectors: the helper for counts from elsewhere.
    vqe.evaluate divides its own draws by the shot split they sum to."""
    total = counts.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("counts are empty")
    return counts / total


@frozen
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


def read_confusion_csv(path) -> ConfusionMatrix:
    with open(path, encoding="utf-8") as fh:
        return parse_confusion_csv(fh.read())
