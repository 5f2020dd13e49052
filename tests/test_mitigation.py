"""Readout unfolding, confusion calibration, reference-state correction arithmetic."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remvqe import (
    ConfusionMatrix,
    RemReport,
    apply_readout_noise,
    calibrate_confusion,
    counts_to_distribution,
    device_confusion,
    format_confusion_csv,
    parse_confusion_csv,
    read_confusion_csv,
    unfold,
)
from remvqe.mitigation import CALIBRATION_POINT, _stream


def dirichlet(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    return rng.dirichlet(np.ones(dim))


# --- frozen reference of unfold's active set --------------------------------


def kkt_target(H: np.ndarray, b: np.ndarray, free: list[int]) -> tuple[np.ndarray, float]:
    """Minimizer of x.Hx/2 - b.x with sum(x) = 1 and x = 0 off `free`, and
    the multiplier of the sum constraint."""
    k = len(free)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = H[free][:, free]
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    sol = np.linalg.solve(kkt, np.append(b[free], 1.0))
    target = np.zeros(len(b))
    target[free] = sol[:-1]
    return target, sol[-1]


def reference_active_set(H: np.ndarray, b: np.ndarray, visited: list | None = None) -> np.ndarray:
    """The primal active set from the uniform start, solving every
    iteration's free set afresh: the row-by-row path unfold must reproduce
    bit for bit. `visited`, if given, receives each iteration's free set as
    a tuple and "release" after each released bound."""
    n = len(b)
    x = np.full(n, 1.0 / n)
    active: set[int] = set()
    for _ in range(100 * n):
        free = [i for i in range(n) if i not in active]
        if visited is not None:
            visited.append(tuple(free))
        target, mu = kkt_target(H, b, free)

        step = target - x
        if np.max(np.abs(step)) <= 1e-10:
            grad = H @ x - b
            lagrange = {i: grad[i] - mu for i in active}
            worst = min(lagrange, key=lagrange.get, default=None)
            if worst is None or lagrange[worst] >= -1e-10:
                break
            active.remove(worst)
            if visited is not None:
                visited.append("release")
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


# --- ConfusionMatrix ---------------------------------------------------------


def test_confusion_validation():
    with pytest.raises(ValueError, match="must be 4x4"):
        ConfusionMatrix(2, np.eye(2))
    bad = np.eye(4)
    bad[0, 0] = 0.5
    with pytest.raises(ValueError, match="sum to 1"):
        ConfusionMatrix(2, bad)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ConfusionMatrix(1, np.array([[2.0, 0.0], [-1.0, 1.0]]))
    # every comparison with NaN is false, so a NaN column passes a test for
    # entries outside [0, 1] and a column sum test
    for bad in ([[np.nan, 0.0], [np.nan, 1.0]], [[np.inf, 0.0], [-np.inf, 1.0]]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConfusionMatrix(1, bad)
    with pytest.raises(ValueError, match="uncertainty shape"):
        ConfusionMatrix(1, np.eye(2), uncertainty=np.zeros(2))
    for bad in (np.nan, np.inf, -np.inf, -1e-3):
        with pytest.raises(ValueError, match="uncertainty entries"):
            ConfusionMatrix(1, np.eye(2), uncertainty=[[0.0, bad], [0.0, 0.0]])


def test_every_accepted_confusion_matrix_can_be_drawn_from():
    # Generator.multinomial rejects columns whose leading entries sum above
    # 1 + 1e-12, so the column sum test is tighter than that, and it sums
    # the clipped columns that are drawn from
    off = np.eye(4)
    off[:, 0] = [0.6, 0.4 + 5e-10, 0.0, 0.0]
    clipped = np.eye(4)
    clipped[:, 0] = [0.6, 0.4 + 2e-12, -1e-12, -1e-12]  # sums to 1 before the clip
    for bad in (off, clipped):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(2, bad)
    near = np.eye(4)
    near[:, 0] = [0.6, 0.4 + 4e-13, 0.0, 0.0]
    c = ConfusionMatrix(2, near)
    assert apply_readout_noise([100, 0, 0, 0], c, 1).sum() == 100
    assert np.allclose(calibrate_confusion(c, 100, 3).matrix.sum(axis=0), 1.0)


def test_confusion_identity():
    c = ConfusionMatrix.identity(2)
    assert c.dim == 4
    assert np.array_equal(c.matrix, np.eye(4))


def test_confusion_matrix_read_only():
    c = ConfusionMatrix.identity(1)
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 0.5


def test_confusion_matrices_compare_and_hash_by_value():
    one, other = device_confusion(), device_confusion()
    assert one == other and hash(one) == hash(other)
    assert one != ConfusionMatrix(2, one.matrix) != ConfusionMatrix.identity(2)
    wider = ConfusionMatrix(2, one.matrix, 2 * one.uncertainty)
    assert one != wider and len({one, other, wider}) == 2
    # the values, not the layout the caller gave them in
    assert ConfusionMatrix(2, np.asfortranarray(one.matrix)) == ConfusionMatrix(2, one.matrix)
    assert one != (2, one.matrix)


def test_device_matrix_properties():
    c = device_confusion()
    assert c.n_qubits == 2
    assert np.allclose(c.matrix.sum(axis=0), 1.0, atol=1e-12)
    # dominant diagonal as measured, after column normalization
    assert c.matrix[0, 0] == pytest.approx(0.968, abs=2e-3)
    assert c.matrix[3, 3] == pytest.approx(0.884, abs=2e-3)
    assert c.uncertainty is not None
    assert c.uncertainty[0, 0] == pytest.approx(0.0021, abs=1e-6)


# --- unfold ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unfold_rejects_non_finite_input(bad):
    # a NaN sum compares false to the tolerance; unchecked, the active set
    # would loop to its iteration cap. inf and -inf together would make the
    # sum warn before any check ran (an error under filterwarnings = error)
    for m in ([bad, 0.5, 0.25, 0.25], [[0.25] * 4, [0.5, 0.25, bad, 0.25]],
              [np.inf, -np.inf, 0.0, 0.0], [[0.25] * 4, [-np.inf, 0.0, np.inf, bad]]):
        with pytest.raises(ValueError, match="finite and sum to 1"):
            unfold(device_confusion(), m)


def test_unfold_identity_passthrough():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = dirichlet(rng)
        assert np.allclose(unfold(ConfusionMatrix.identity(2), m), m, atol=1e-10)


def test_unfold_recovers_interior_points():
    c = device_confusion()
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = dirichlet(rng)
        assert np.max(np.abs(unfold(c, c.matrix @ x) - x)) < 1e-8


def test_unfold_calibration_column():
    c = device_confusion()
    x = unfold(c, c.matrix[:, 0])
    assert np.max(np.abs(x - np.array([1.0, 0.0, 0.0, 0.0]))) < 0.01


def test_unfold_boundary_recovery():
    c = device_confusion()
    for x in (np.eye(4)[2], np.array([0.5, 0.0, 0.5, 0.0])):
        assert np.max(np.abs(unfold(c, c.matrix @ x) - x)) < 1e-8


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4), st.integers(0, 2**31))
def test_unfold_output_on_simplex(weights, seed):
    m = np.array(weights) / np.sum(weights)
    rng = np.random.default_rng(seed)
    perturbed = m + rng.normal(scale=0.02, size=4)
    perturbed = np.abs(perturbed)
    perturbed /= perturbed.sum()
    x = unfold(device_confusion(), perturbed)
    assert abs(x.sum() - 1.0) < 1e-9
    assert x.min() >= 0.0


def enumerated_simplex_qp(c: ConfusionMatrix, m: np.ndarray) -> np.ndarray:
    """Offline oracle for argmin ||m - Cx||^2 over the probability simplex.

    For full-rank C the minimizer is unique and, on its own support S, is the
    minimizer under sum(x) = 1 alone, which solves the KKT system
    [[H_SS, -1], [1, 0]] [x_S, mu] = [b_S, 1] with H = C^T C, b = C^T m. So
    solving that system on every nonempty support and keeping the feasible
    solution of least residual is exact; 2^dim - 1 supports keep it to
    dim <= 16.
    """
    C = c.matrix
    H, b = C.T @ C, C.T @ m
    best, best_cost = None, np.inf
    for bits in range(1, 1 << c.dim):
        support = [i for i in range(c.dim) if bits >> i & 1]
        k = len(support)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = H[np.ix_(support, support)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        sol = np.linalg.solve(kkt, np.append(b[support], 1.0))
        if sol[:k].min() < -1e-12:
            continue
        x = np.zeros(c.dim)
        x[support] = sol[:k]
        cost = float(np.sum((m - C @ x) ** 2))
        if cost < best_cost:
            best, best_cost = x, cost
    return best


def test_unfold_device_matrix_on_dense_draws():
    c = device_confusion()
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = dirichlet(rng)
        assert np.max(np.abs(unfold(c, m) - enumerated_simplex_qp(c, m))) < 1e-10


def random_confusion(rng: np.random.Generator, n_qubits: int, diagonal: float = 0.6) -> ConfusionMatrix:
    dim = 1 << n_qubits
    noise = rng.dirichlet(np.ones(dim), size=dim).T
    c = ConfusionMatrix(n_qubits, diagonal * np.eye(dim) + (1.0 - diagonal) * noise)
    assert np.linalg.matrix_rank(c.matrix) == dim
    return c


@pytest.mark.parametrize("which", ["device", "random-3q"])
def test_unfold_against_enumerated_supports(which):
    rng = np.random.default_rng(11)
    c = device_confusion() if which == "device" else random_confusion(rng, 3)
    boundary_hits = 0
    for trial in range(40):
        # sparse Dirichlet draws put many measured vectors outside C(simplex),
        # so the bounds bind; dense ones keep interior cases in the mix
        m = rng.dirichlet(np.full(c.dim, 0.3 if trial % 2 else 3.0))
        expected = enumerated_simplex_qp(c, m)
        boundary_hits += int(expected.min() == 0.0)
        assert np.max(np.abs(unfold(c, m) - expected)) < 1e-8
    assert boundary_hits >= 5


def device_like_inputs(rng: np.random.Generator, c: ConfusionMatrix, shots: int) -> np.ndarray:
    """A measured vector: `shots` draws from C x for a random x on the simplex."""
    x = rng.dirichlet(np.full(c.dim, 0.5))
    return rng.multinomial(shots, c.matrix @ x) / shots


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from([50, 500, 5000, 10**6]))
def test_unfold_fast_path_matches_active_set_bit_for_bit(seed, n_qubits, shots):
    rng = np.random.default_rng(seed)
    c = device_confusion() if n_qubits == 2 and seed % 2 else random_confusion(rng, n_qubits)
    m = device_like_inputs(rng, c, shots)
    C = c.matrix
    assert np.array_equal(unfold(c, m), reference_active_set(C.T @ C, C.T @ m))


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6),
       st.sampled_from([0.05, 0.5, 5.0]))
def test_batched_unfold_matches_rows_bit_for_bit(seed, n_qubits, n_rows, concentration):
    # a (G, 2^n) stack unfolds each row as a call on that row alone would;
    # sparse Dirichlet draws (small concentration) send rows to the active set
    rng = np.random.default_rng(seed)
    c = device_confusion() if n_qubits == 2 and seed % 2 else random_confusion(rng, n_qubits)
    m = rng.dirichlet(np.full(c.dim, concentration), size=n_rows)
    if seed % 3 == 0:
        m = m @ c.matrix.T  # as readout noise would leave it
    batched = unfold(c, m)
    assert batched.shape == m.shape
    for row, x in zip(m, batched):
        assert np.array_equal(x, unfold(c, row))
        assert np.array_equal(x, reference_active_set(c._gram, c.matrix.T @ row))


def signed_rows(rng: np.random.Generator, dim: int, n_rows: int) -> np.ndarray:
    """Rows that sum to 1 with entries of either sign: sparse Dirichlet draws
    plus noise, shifted back onto sum(x) = 1. On a weakly diagonal C they
    send the active set through added and released bounds."""
    m = rng.dirichlet(np.full(dim, 0.3), size=n_rows) + rng.normal(scale=0.3, size=(n_rows, dim))
    return m - (m.sum(axis=1, keepdims=True) - 1.0) / dim


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 6),
       st.sampled_from(["sparse", "dense", "signed"]), st.booleans())
def test_unfold_matches_the_reference_active_set_bit_for_bit(seed, n_qubits, n_rows, kind, single):
    # every row, sign bits included, is the reference's on that row alone:
    # stacks of 0-6 rows, single vectors, and rows that add and release bounds
    rng = np.random.default_rng(seed)
    if n_qubits == 2 and seed % 2:
        c = device_confusion()
    else:
        c = random_confusion(rng, n_qubits, diagonal=0.1 if kind == "signed" else 0.6)
    if kind == "signed":
        m = signed_rows(rng, c.dim, n_rows)
    else:
        m = rng.dirichlet(np.full(c.dim, 0.05 if kind == "sparse" else 5.0), size=n_rows)
    if single:
        m = m[0] if n_rows else rng.dirichlet(np.full(c.dim, 0.05))
    H = c.matrix.T @ c.matrix
    expected = [reference_active_set(H, c.matrix.T @ row) for row in m.reshape(-1, c.dim)]
    out = unfold(c, m)
    assert out.shape == m.shape and out.dtype == float
    assert out.tobytes() == np.reshape(expected, m.shape).tobytes()


def test_unfold_solves_each_visited_free_set_once(monkeypatch):
    # a row that leaves the simplex starts from its row of the batched solve,
    # never solves the full set again, and solves each other free set it
    # visits once, however often the reference's loop returns to it
    rng = np.random.default_rng(57)
    c = random_confusion(rng, 2, diagonal=0.1)
    rows = signed_rows(rng, c.dim, 8)
    full = tuple(range(c.dim))
    solved = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        solved.append((a, b.ndim))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    releases = revisits = 0
    for row in rows:
        visited = []
        expected = reference_active_set(c._gram, c.matrix.T @ row, visited)
        sets = [v for v in visited if v not in ("release", full)]
        releases += "release" in visited
        revisits += len(sets) - len(set(sets))
        solved.clear()
        assert unfold(c, row).tobytes() == expected.tobytes()
        kkt_sets = {id(kkt): key for key, kkt in c._kkts.items()}
        assert solved[0][0] is c._kkt and solved[0][1] == 3  # the batched solve
        per_row = [kkt_sets[id(a)] for a, ndim in solved[1:]]
        assert all(ndim == 1 for _, ndim in solved[1:])
        assert per_row == list(dict.fromkeys(sets))
    assert releases >= 2 and revisits > 0
    # the KKT matrices stay on the confusion matrix: a second pass builds none
    kkts = dict(c._kkts)
    unfold(c, rows)
    assert c._kkts.keys() == kkts.keys()
    assert all(c._kkts[key] is kkt for key, kkt in kkts.items())


def test_batched_unfold_reaches_the_active_set():
    # the rows of one stack take both paths: the sparse draws leave the
    # simplex in their full-support solution, the dense ones do not
    rng = np.random.default_rng(3)
    c = device_confusion()
    m = np.vstack([rng.dirichlet(np.full(4, 0.05), size=20), rng.dirichlet(np.full(4, 50.0), size=20)])
    H, b = c._gram, m @ c.matrix
    fast = [np.all(kkt_target(H, row, [0, 1, 2, 3])[0] >= 0.0) for row in b]
    assert 0 < sum(fast) < len(fast)
    assert np.array_equal(unfold(c, m), [unfold(c, row) for row in m])


def test_unfold_fast_path_is_taken_and_exact():
    # the device matrix at 5000 shots, as on a calibrated curve, plus the
    # measured vector of the uniform state, where the first step is below
    # the stationarity tolerance
    rng = np.random.default_rng(8)
    c = device_confusion()
    C = c.matrix
    inputs = [device_like_inputs(rng, c, 5000) for _ in range(400)]
    inputs.append(C @ np.full(4, 0.25))
    fast = 0
    for m in inputs:
        H, b = C.T @ C, C.T @ m
        fast += int(np.all(kkt_target(H, b, [0, 1, 2, 3])[0] >= 0.0))
        assert np.array_equal(unfold(c, m), reference_active_set(H, b))
    assert 200 <= fast < len(inputs)


def test_unfold_reuses_its_gram_matrix_bit_for_bit():
    # H = C^T C is computed once per confusion matrix; unfold returns what
    # the active set gives with a fresh C.T @ C, on either path
    rng = np.random.default_rng(21)
    c = device_confusion()
    C = c.matrix
    fast = 0
    for shots in (20, 200, 5000):
        for _ in range(100):
            m = device_like_inputs(rng, c, shots)
            H, b = C.T @ C, C.T @ m
            fast += int(np.all(kkt_target(H, b, [0, 1, 2, 3])[0] >= 0.0))
            assert np.array_equal(unfold(c, m), reference_active_set(H, b))
    assert 0 < fast < 300


def test_confusion_matrix_layout_does_not_change_unfold():
    rng = np.random.default_rng(3)
    values = random_confusion(rng, 2).matrix
    c_order = ConfusionMatrix(2, np.ascontiguousarray(values))
    f_order = ConfusionMatrix(2, np.asfortranarray(values))
    assert f_order.matrix.flags.c_contiguous
    for _ in range(300):
        m = rng.dirichlet(np.ones(4))
        assert np.array_equal(unfold(c_order, m), unfold(f_order, m))


def test_unfold_validation():
    c = ConfusionMatrix.identity(2)
    with pytest.raises(ValueError, match="length 4"):
        unfold(c, np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        unfold(c, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError, match="length 4"):
        unfold(c, np.full((1, 2, 4), 0.25))
    with pytest.raises(ValueError, match="sum to 1, got 2.0"):
        unfold(c, np.array([[0.25] * 4, [0.5] * 4]))


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_unfold_empty_stack(n_qubits):
    c = random_confusion(np.random.default_rng(n_qubits), n_qubits)
    empty = unfold(c, np.empty((0, c.dim)))
    assert empty.shape == (0, c.dim) and empty.dtype == float


def test_unfold_error_messages():
    # the first non-finite row is named as it is; of finite rows, the sum
    # farthest from 1, to 8 decimals. inf and -inf in one row are rejected
    # before any sum, so nothing warns (an error under filterwarnings = error)
    c = device_confusion()
    cases = [
        ([[0.25] * 4, [0.5, 0.25, np.nan, 0.25], [np.inf] * 4], "[0.5, 0.25, nan, 0.25]"),
        ([np.inf, -np.inf, 0.5, 0.5], "[inf, -inf, 0.5, 0.5]"),
        ([[0.25, 0.25, 0.25, 0.75], [0.05] * 4, [0.25] * 4], "0.20000000"),
        ([0.25, 0.25, 0.25, 0.25 + 2e-6], "1.00000200"),
    ]
    for m, got in cases:
        with pytest.raises(ValueError) as err:
            unfold(c, m)
        assert str(err.value) == f"measured vector must be finite and sum to 1, got {got}"
    assert unfold(c, [0.25, 0.25, 0.25, 0.25 + 5e-7]).shape == (4,)  # within 1e-6


def test_unfold_stationary_rows_are_exactly_uniform():
    # C times the uniform vector solves to within rounding of it, and its
    # first step is below the stationarity tolerance: the result is 1/d exactly,
    # alone, beside a row that takes the full step and beside one whose target
    # leaves the simplex (a pure outcome, which C's inverse sends negative)
    rng = np.random.default_rng(4)
    for c in (device_confusion(), random_confusion(rng, 1), random_confusion(rng, 3)):
        uniform = c.matrix @ np.full(c.dim, 1.0 / c.dim)
        other = c.matrix @ rng.dirichlet(np.full(c.dim, 5.0))
        pure = np.eye(c.dim)[0]
        for m in (uniform, np.vstack([other, uniform]), np.vstack([pure, uniform]),
                  np.vstack([uniform, pure, uniform])):
            out = unfold(c, m)
            assert out.reshape(-1, c.dim)[-1].tolist() == [1.0 / c.dim] * c.dim
            H = c.matrix.T @ c.matrix
            expected = [reference_active_set(H, c.matrix.T @ row) for row in m.reshape(-1, c.dim)]
            assert out.tobytes() == np.reshape(expected, m.shape).tobytes()
        assert 0.0 in unfold(c, pure).tolist()  # it ends on a bound: the active set ran


def test_unfold_row_with_a_nan_target_takes_the_active_set(monkeypatch):
    # a NaN in a row's full-support solution is no feasible target: the row
    # continues the active set, which cannot converge, and the call raises.
    # The row beside it, feasible or stationary, before or after it, is routed
    # as without the NaN; a stationary one stays exactly 1/d (a test over the
    # whole stack, NaN included, must not skip it)
    from remvqe import mitigation

    c = device_confusion()
    solve = np.linalg.solve
    for beside in ("feasible", "stationary"):
        for nan_row in (1, 0):
            other = 1 - nan_row
            m = np.vstack([c.matrix @ np.array([0.4, 0.3, 0.2, 0.1])] * 2)
            if beside == "stationary":
                m[other] = c.matrix @ np.full(4, 0.25)
            clean = unfold(c, m)

            def nan_in_row(a, b):
                sol = solve(a, b)
                if sol.ndim == 3:  # the batched solve
                    sol[nan_row, 2] = np.nan
                return sol

            continued = []
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "solve", nan_in_row)
                with pytest.raises(RuntimeError, match="failed to converge"):
                    unfold(c, m)
                patch.setattr(mitigation, "_active_set",
                              lambda c, b, first: continued.append(first) or [0.25] * 4)
                out = unfold(c, m)
            assert len(continued) == 1 and math.isnan(continued[0][2])
            assert out[other].tobytes() == clean[other].tobytes()
            if beside == "stationary":
                assert out[other].tolist() == [0.25] * 4


# --- counts helpers ----------------------------------------------------------


def test_counts_to_distribution():
    dist = counts_to_distribution(np.array([30, 0, 0, 10]))
    assert np.allclose(dist, [0.75, 0.0, 0.0, 0.25])
    with pytest.raises(ValueError, match="empty"):
        counts_to_distribution(np.zeros(4, dtype=np.int64))
    rows = counts_to_distribution(np.array([[30, 0, 0, 10], [1, 1, 1, 1]]))
    assert np.array_equal(rows[0], dist)
    assert np.allclose(rows[1], 0.25)
    with pytest.raises(ValueError, match="empty"):
        counts_to_distribution(np.array([[1, 0], [0, 0]]))


# --- calibration -------------------------------------------------------------


def test_calibrate_noiseless_backend_gives_identity():
    est = calibrate_confusion(ConfusionMatrix.identity(2), 100, 5)
    assert np.array_equal(est.matrix, np.eye(4))
    assert np.array_equal(est.uncertainty, np.zeros((4, 4)))


def test_calibrate_recovers_device_matrix():
    truth = device_confusion()
    est = calibrate_confusion(truth, shots_per_state=1000, repeats=100)
    # quoted per-entry spreads of the original calibration, as 3-sigma bands
    # with a small floor for the near-zero entries
    bound = 3.0 * np.maximum(truth.uncertainty, 2e-4)
    assert np.all(np.abs(est.matrix - truth.matrix) <= bound)
    assert np.all(est.uncertainty[truth.matrix > 0.01] > 0.0)


def test_calibrate_large_shots_law_of_large_numbers():
    truth = device_confusion()
    est = calibrate_confusion(truth, shots_per_state=10**6, repeats=1)
    assert np.max(np.abs(est.matrix - truth.matrix)) < 1e-3
    assert np.array_equal(est.uncertainty, np.zeros((4, 4)))


def test_calibrate_tiny_shots_reports_wide_uncertainty():
    truth = device_confusion()
    est = calibrate_confusion(truth, shots_per_state=10, repeats=20)
    assert np.allclose(est.matrix.sum(axis=0), 1.0, atol=1e-9)
    assert est.uncertainty.max() > 0.01


def test_calibrate_validation():
    with pytest.raises(ValueError, match="shots_per_state"):
        calibrate_confusion(ConfusionMatrix.identity(1), 0, 1)
    with pytest.raises(ValueError, match="repeats"):
        calibrate_confusion(ConfusionMatrix.identity(1), 10, 0)


def test_calibrate_seed_determinism():
    truth = device_confusion()
    a = calibrate_confusion(truth, 50, 3, seed=7)
    b = calibrate_confusion(truth, 50, 3, seed=7)
    c = calibrate_confusion(truth, 50, 3, seed=8)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)


def test_calibrate_column_draws_are_keyed_by_prepared_state():
    # each prepared state has its own generator, so changing column 1 of the
    # truth leaves the other columns of the estimate as they were
    truth = device_confusion()
    changed = truth.matrix.copy()
    changed[:, 1] = [0.25, 0.25, 0.25, 0.25]
    a = calibrate_confusion(truth, 50, 3, seed=7)
    b = calibrate_confusion(ConfusionMatrix(2, changed), 50, 3, seed=7)
    for i in (0, 2, 3):
        assert np.array_equal(a.matrix[:, i], b.matrix[:, i])
        assert np.array_equal(a.uncertainty[:, i], b.uncertainty[:, i])
    assert not np.array_equal(a.matrix[:, 1], b.matrix[:, 1])


def test_calibrate_draws_at_the_reserved_point():
    truth = device_confusion()
    est = calibrate_confusion(truth, 50, 3, seed=7)
    for i in range(4):
        runs = _stream(7, CALIBRATION_POINT, i).multinomial(50, truth.matrix[:, i], size=3)
        assert np.array_equal(est.matrix[:, i], (runs / 50).mean(axis=0))


# --- reference-state correction arithmetic -----------------------------------


def test_rem_delta_fixtures():
    assert RemReport(-1.0897, -1.1167, 0.0).delta_rem == pytest.approx(0.0270, abs=1e-12)
    assert RemReport(-7.6071, -7.8620, 0.0).delta_rem == pytest.approx(0.2549, abs=1e-12)
    assert RemReport(0.4, 0.4, 0.0).delta_rem == 0.0
    with pytest.raises(ValueError, match="finite"):
        RemReport(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        RemReport(0.0, float("inf"), 0.0)


def test_rem_apply_fixtures():
    assert RemReport(-1.0897, -1.1167, -1.1085).e_rem == pytest.approx(-1.1355, abs=1e-12)
    assert RemReport(-7.6071, -7.8620, -7.6102).e_rem == pytest.approx(-7.8651, abs=1e-12)
    for e in (1.0, 2.0, 3.0):
        assert RemReport(0.4, 0.4, e).e_rem == e


def test_rem_apply_preserves_argmin():
    # the correction of every point of a curve is the same rigid shift
    rng = np.random.default_rng(2)
    curve = rng.normal(size=40)
    reports = [RemReport(-0.679, -1.0, e) for e in curve]
    shifted = np.array([r.e_rem for r in reports])
    assert np.argmin(shifted) == np.argmin(curve)
    for e, r in zip(curve, reports):
        assert r.delta_rem == pytest.approx(0.321, abs=1e-12)
        assert e - r.e_rem == pytest.approx(r.delta_rem, abs=1e-12)


def test_error_metrics_fixtures():
    report = RemReport(-1.0897, -1.1167, -1.1085, e_exact_min=-1.1373)
    assert report.err_vqe == pytest.approx(0.0288, abs=1.5e-4)
    assert report.err_rem == pytest.approx(0.0018, abs=1.5e-4)
    report = RemReport(-2.8150, -2.8447, -2.8247, e_exact_min=-2.8542)
    assert report.err_vqe == pytest.approx(0.0294, abs=1.5e-4)
    assert report.err_rem == pytest.approx(-0.0002, abs=1.5e-4)
    # a correction hitting the error exactly leaves zero residual
    report = RemReport(-0.9, -1.1, -1.0, e_exact_min=-1.2)
    assert (report.err_vqe, report.err_rem) == (pytest.approx(0.2), pytest.approx(0.0))


def test_rem_report_identities():
    report = RemReport(-2.8150, -2.8447, -2.8247, e_exact_min=-2.8542)
    assert report.delta_rem == pytest.approx(report.e_vqe_ref - report.e_exact_ref, abs=1e-15)
    assert report.e_rem == pytest.approx(report.e_vqe_min - report.delta_rem, abs=1e-15)
    # noise raised the reference energy, so the shift lowers the minimum,
    # here past the exact value; the overshoot must come through unclamped
    assert report.delta_rem > 0
    assert report.e_rem < report.e_vqe_min
    assert report.e_rem < report.e_exact_min
    assert report.err_rem == pytest.approx(-0.0002, abs=1.5e-4)
    assert report.err_rem < 0


energy = st.floats(-1e6, 1e6)
reference = energy | st.sampled_from([float("nan"), float("inf"), -float("inf")])


@settings(max_examples=200, deadline=None)
@given(reference, reference, energy, st.none() | energy)
def test_rem_report_derives_its_outputs(e_vqe_ref, e_exact_ref, e_vqe_min, e_exact_min):
    # only the four inputs are stored; every output is computed from them
    assert [f.name for f in dataclasses.fields(RemReport)] == [
        "e_vqe_ref", "e_exact_ref", "e_vqe_min", "e_exact_min"
    ]
    if not (math.isfinite(e_vqe_ref) and math.isfinite(e_exact_ref)):
        with pytest.raises(ValueError, match="reference energies must be finite"):
            RemReport(e_vqe_ref, e_exact_ref, e_vqe_min, e_exact_min)
        return
    report = RemReport(e_vqe_ref, e_exact_ref, e_vqe_min, e_exact_min)
    delta = e_vqe_ref - e_exact_ref
    assert report.delta_rem == delta
    assert report.e_rem == e_vqe_min - delta
    if e_exact_min is None:
        assert report.err_vqe is None and report.err_rem is None
    else:
        assert report.err_vqe == e_vqe_min - e_exact_min
        assert report.err_rem == (e_vqe_min - delta) - e_exact_min


def test_rem_report_without_oracle():
    report = RemReport(-1.0, -1.1, -1.3)
    assert report.e_exact_min is None
    assert report.err_vqe is None
    assert report.err_rem is None


# --- CSV serialization -------------------------------------------------------


def test_confusion_csv_roundtrip():
    c = device_confusion()
    back = parse_confusion_csv(format_confusion_csv(c))
    assert back.n_qubits == 2
    assert np.allclose(back.matrix, c.matrix, atol=1e-7)
    assert np.allclose(back.uncertainty, c.uncertainty, atol=1e-8)


def test_confusion_csv_without_uncertainty():
    c = ConfusionMatrix.identity(1)
    text = format_confusion_csv(c)
    assert text.startswith("# confusion n=1\n")
    assert parse_confusion_csv(text).uncertainty is None


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.001"])
def test_confusion_csv_rejects_bad_uncertainty(bad):
    text = format_confusion_csv(device_confusion())
    lines = text.splitlines()
    at = lines.index("# uncertainty") + 2
    lines[at] = ",".join([bad] + lines[at].split(",")[1:])
    with pytest.raises(ValueError, match="uncertainty entries must be finite and non-negative"):
        parse_confusion_csv("\n".join(lines))


def test_confusion_csv_files(tmp_path):
    path = tmp_path / "confusion.csv"
    path.write_text(format_confusion_csv(device_confusion()))
    back = read_confusion_csv(path)
    assert np.allclose(back.matrix, device_confusion().matrix, atol=1e-7)


def test_confusion_csv_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_confusion_csv("1.0,0.0\n0.0,1.0\n")
    with pytest.raises(ValueError, match="expected 4 matrix rows"):
        parse_confusion_csv("# confusion n=2\n1.0,0.0,0.0,0.0\n")
    # a column is renormalized by its sum, which must be positive
    with pytest.raises(ValueError, match=r"column sums \[1.0, 0.0\] are not all positive"):
        parse_confusion_csv("# confusion n=1\n0.9,0.0\n0.1,0.0\n")
