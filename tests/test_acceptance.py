"""End-to-end acceptance gate.

Each test covers one headline requirement at its stated tolerance and runtime
budget, so a verbose run reads as a one-line pass/fail checklist. The fixture
tables below are the benchmark energies recorded from the original
superconducting-hardware demonstration of reference-state mitigation
(hartree, rounded to four decimals); starred quantities from those runs are
the readout-corrected pipeline and appear here as the *_RO columns.
"""
import itertools
import time
from functools import reduce

import numpy as np
import pytest

from remvqe import (
    EnergyEvaluator,
    NoiseModel,
    RemReport,
    ansatz_circuit,
    builtin,
    circuit_stats,
    device_confusion,
    evaluate,
    ground_state_energy,
    h2_compact_spec,
    minimize,
    reference_exact_energy,
    run_density,
    run_statevector,
    sweep_and_fit,
    uccsd_spec,
    unfold,
)
from remvqe.experiments import DEVICE_P2, RunConfig, cmd_noise_sweep, cmd_single_point
from remvqe.pauli import basis_energy
from remvqe.vqe import REFERENCE_INDEX
from helpers import four_pipelines

# Column layout of the benchmark rows: geometry, then exact / uncorrected /
# readout-corrected reference energies, the three minimum energies, the two
# corrected minima, and the four published deviations from the exact minimum.
(R, REF_EXACT, REF_RAW, REF_RO, MIN_EXACT, MIN_RAW, MIN_RO,
 REM_RAW, REM_RO, DV_RAW, DV_RO, DR_RAW, DR_RO) = range(13)

H2_ROWS = (
    (0.45, -0.9875, -0.8524, -0.9446, -0.9984, -0.8604, -0.9546, -0.9955, -0.9975, 0.1380, 0.0438, 0.0029, 0.0010),
    (0.55, -1.0791, -0.9649, -1.0426, -1.0926, -0.9749, -1.0550, -1.0890, -1.0914, 0.1178, 0.0376, 0.0036, 0.0012),
    (0.65, -1.1130, -1.0162, -1.0820, -1.1299, -1.0287, -1.0974, -1.1254, -1.1284, 0.1013, 0.0325, 0.0045, 0.0015),
    (0.70, -1.1173, -1.0281, -1.0886, -1.1362, -1.0419, -1.1058, -1.1312, -1.1345, 0.0943, 0.0304, 0.0050, 0.0017),
    (0.7414, -1.1167, -1.0331, -1.0897, -1.1373, -1.0482, -1.1085, -1.1318, -1.1355, 0.0891, 0.0288, 0.0055, 0.0018),
    (0.80, -1.1109, -1.0345, -1.0861, -1.1341, -1.0516, -1.1073, -1.1280, -1.1321, 0.0825, 0.0268, 0.0062, 0.0020),
    (0.85, -1.1025, -1.0317, -1.0794, -1.1284, -1.0507, -1.1030, -1.1215, -1.1261, 0.0776, 0.0253, 0.0068, 0.0023),
    (1.00, -1.0661, -1.0093, -1.0473, -1.1012, -1.0352, -1.0793, -1.0919, -1.0981, 0.0660, 0.0219, 0.0092, 0.0030),
    (1.15, -1.0210, -0.9752, -1.0054, -1.0679, -1.0099, -1.0483, -1.0557, -1.0639, 0.0580, 0.0196, 0.0122, 0.0040),
    (1.35, -0.9572, -0.9227, -0.9449, -1.0251, -0.9733, -1.0072, -1.0078, -1.0195, 0.0517, 0.0179, 0.0172, 0.0056),
    (1.50, -0.9109, -0.8830, -0.9005, -0.9981, -0.9486, -0.9808, -0.9765, -0.9912, 0.0495, 0.0173, 0.0216, 0.0070),
    (1.65, -0.8678, -0.8452, -0.8590, -0.9771, -0.9283, -0.9599, -0.9508, -0.9688, 0.0489, 0.0172, 0.0263, 0.0084),
)

HEH_ROWS = (
    (0.65, -2.7964, -2.7580, -2.7604, -2.8062, -2.7673, -2.7703, -2.8057, -2.8063, 0.0389, 0.0359, 0.0005, -0.0001),
    (0.7899, -2.8447, -2.8110, -2.8150, -2.8542, -2.8203, -2.8247, -2.8540, -2.8544, 0.0338, 0.0294, 0.0002, -0.0002),
    (0.85, -2.8517, -2.8195, -2.8225, -2.8608, -2.8278, -2.8305, -2.8600, -2.8597, 0.0330, 0.0302, 0.0008, 0.0010),
    (0.90, -2.8540, -2.8244, -2.8261, -2.8626, -2.8326, -2.8359, -2.8622, -2.8638, 0.0300, 0.0267, 0.0004, -0.0012),
    (0.95, -2.8542, -2.8253, -2.8267, -2.8622, -2.8324, -2.8353, -2.8614, -2.8629, 0.0298, 0.0269, 0.0008, -0.0007),
    (1.00, -2.8529, -2.8252, -2.8270, -2.8602, -2.8315, -2.8339, -2.8592, -2.8598, 0.0287, 0.0263, 0.0010, 0.0004),
    (1.15, -2.8445, -2.8181, -2.8206, -2.8495, -2.8233, -2.8261, -2.8497, -2.8500, 0.0262, 0.0235, -0.0002, -0.0004),
    (1.35, -2.8314, -2.8076, -2.8093, -2.8339, -2.8095, -2.8120, -2.8333, -2.8341, 0.0243, 0.0219, 0.0005, -0.0003),
    (1.5, -2.8234, -2.8008, -2.8013, -2.8247, -2.8017, -2.8029, -2.8244, -2.8251, 0.0230, 0.0218, 0.0003, -0.0004),
)

LIH_ROW = (1.5949, -7.8620, -7.6064, -7.6071, -7.8787, -7.6071, -7.6102, -7.8627, -7.8651, 0.2717, 0.2686, 0.0160, 0.0136)

# Headline summary rows: (exact minimum, measured minimum, corrected minimum,
# published deviations). The two deep-circuit rows come from runs whose
# reference energies were not published, so only their deviations are checked.
SUMMARY = {
    "h2": (-1.1373, -1.1085, -1.1355, 0.0288, 0.0018),
    "heh+": (-2.8542, -2.8247, -2.8544, 0.0294, -0.0002),
    "lih": (-7.8787, -7.6071, -7.8651, 0.2686, 0.0136),
    "lih-deep": (-7.8811, -7.3599, -7.8705, 0.5213, 0.0106),
    "beh2-deep": (-15.5895, -13.9873, -15.5632, 1.6021, 0.0263),
}

TOL_TABLE = 1.5e-4  # four-decimal tables: two roundings plus slack


def table_rows():
    yield from (("h2", row) for row in H2_ROWS)
    yield from (("heh+", row) for row in HEH_ROWS)
    yield ("lih", LIH_ROW)


def test_criterion_1_exact_diagonalization_matches_benchmarks():
    start = time.perf_counter()
    for name, row in table_rows():
        g = builtin(name).geometry(row[R])
        ground = ground_state_energy(g.hamiltonian)[0]
        if name == "lih":
            # the 4-qubit problem's full ground state lies below the
            # 2-parameter subspace minimum the benchmark table reports
            assert ground == pytest.approx(-7.8811, abs=5e-4)
            assert g.e_exact_min == row[MIN_EXACT]
        else:
            assert ground == pytest.approx(row[MIN_EXACT], abs=5e-4)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_reference_state_energies_match_benchmarks():
    start = time.perf_counter()
    for name, row in table_rows():
        ds = builtin(name)
        hf = basis_energy(ds.geometry(row[R]).hamiltonian, ds.hf_bitstring)
        assert hf == pytest.approx(row[REF_EXACT], abs=5e-4)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_correction_arithmetic_reproduces_benchmarks():
    start = time.perf_counter()
    for _, row in table_rows():
        for ref, emin, erem, dv, dr in (
            (row[REF_RAW], row[MIN_RAW], row[REM_RAW], row[DV_RAW], row[DR_RAW]),
            (row[REF_RO], row[MIN_RO], row[REM_RO], row[DV_RO], row[DR_RO]),
        ):
            delta = ref - row[REF_EXACT]
            assert emin - delta == pytest.approx(erem, abs=TOL_TABLE)
            assert emin - row[MIN_EXACT] == pytest.approx(dv, abs=TOL_TABLE)
            assert erem - row[MIN_EXACT] == pytest.approx(dr, abs=TOL_TABLE)
    for name, (e_exact, e_vqe, e_rem, dv, dr) in SUMMARY.items():
        if name in ("h2", "heh+", "lih"):
            row = {"h2": H2_ROWS[4], "heh+": HEH_ROWS[1], "lih": LIH_ROW}[name]
            # the lih headline quotes the uncorrected minimum yet derives its
            # deviations from the readout-corrected pipeline
            expected_vqe = row[MIN_RAW] if name == "lih" else row[MIN_RO]
            assert (e_exact, e_vqe, e_rem) == (row[MIN_EXACT], expected_vqe, row[REM_RO])
            assert dv == pytest.approx(row[MIN_RO] - row[MIN_EXACT], abs=TOL_TABLE)
            assert dr == pytest.approx(row[REM_RO] - row[MIN_EXACT], abs=TOL_TABLE)
        else:
            assert e_vqe - e_exact == pytest.approx(dv, abs=TOL_TABLE)
            assert e_rem - e_exact == pytest.approx(dr, abs=TOL_TABLE)
    assert time.perf_counter() - start < 1.0


def test_criterion_4_noiseless_vqe_recovers_exact_minima():
    start = time.perf_counter()
    heh = builtin("heh+")
    out = minimize(EnergyEvaluator(heh.geometry(0.7899).hamiltonian, uccsd_spec(2)))
    assert out.converged
    assert min(e for _, e in out.trace) == pytest.approx(-2.8542, abs=1e-4)
    for g in builtin("h2").geometries:
        fit = sweep_and_fit(EnergyEvaluator(g.hamiltonian, h2_compact_spec()))
        assert fit.e_min == pytest.approx(ground_state_energy(g.hamiltonian)[0], abs=1e-6)
    lih = builtin("lih").geometries[0]
    out = minimize(EnergyEvaluator(lih.hamiltonian, uccsd_spec(4)))
    assert min(e for _, e in out.trace) == pytest.approx(-7.8811, abs=1e-3)
    assert time.perf_counter() - start < 60.0


def test_criterion_5_shot_noise_runs_beat_raw_pipeline_tenfold():
    start = time.perf_counter()
    errs_vqe, errs_rem = [], []
    for seed in range(10):
        p = four_pipelines(
            RunConfig(
                molecule="h2",
                backend="noisy",
                p2=1.8e-2,
                p1=1.8e-3,
                shots=5000,
                seed=seed,
                confusion="figure-s2",
                mitigation="readout+rem",
            )
        )
        errs_vqe.append(abs(p.e_vqe - p.e_exact))
        errs_rem.append(abs(p.e_readout_rem - p.e_exact))
    mean_vqe = float(np.mean(errs_vqe))
    mean_rem = float(np.mean(errs_rem))
    assert mean_rem <= 2e-3
    assert mean_vqe / mean_rem >= 10.0
    assert time.perf_counter() - start < 120.0


def test_criterion_6_correction_tracks_rising_depolarization():
    start = time.perf_counter()
    res = cmd_noise_sweep(RunConfig(molecule="h2"), p2_grid=(1e-4, 1e-3, 1e-2, 5e-2))
    assert all(b > a for a, b in zip(res.err_vqe, res.err_vqe[1:]))
    assert all(err < 1.6e-3 for err in res.err_rem)
    assert time.perf_counter() - start < 60.0


def test_criterion_7_deep_circuit_correction_survives_gate_noise():
    start = time.perf_counter()
    stats = circuit_stats(ansatz_circuit(uccsd_spec(4)))
    assert abs(stats[1] - 172) <= 0.15 * 172
    res = cmd_single_point(
        RunConfig(molecule="lih", backend="noisy", p2=4e-3, mitigation="rem")
    )
    assert abs(res.report.err_rem) < abs(res.report.err_vqe)
    assert time.perf_counter() - start < 300.0


def test_criterion_8_unfolding_inverts_known_distributions():
    start = time.perf_counter()
    c = device_confusion()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        x = rng.dirichlet(np.ones(4))
        recovered = unfold(c, c.matrix @ x)
        worst = max(worst, float(np.max(np.abs(recovered - x))))
        assert recovered.min() >= 0.0
        assert abs(recovered.sum() - 1.0) < 1e-9
    assert worst < 1e-6
    assert time.perf_counter() - start < 10.0


def density_matrix(r: np.ndarray) -> np.ndarray:
    """Oracle of rho = sum_P r_P P / 2^n from explicit Kronecker products; the
    lowest base-4 digit of P's position (I, X, Y, Z = 0-3) is qubit 0, the
    last factor."""
    letters = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
               np.diag([1, -1])]
    n = (len(r).bit_length() - 1) // 2
    strings = itertools.product(letters, repeat=n)
    return sum(c * reduce(np.kron, factors, np.eye(1)) for c, factors in zip(r, strings)) / (1 << n)


def test_criterion_9_structural_invariants():
    start = time.perf_counter()
    h = builtin("h2").geometry(0.7414).hamiltonian
    spec = h2_compact_spec()

    # the correction is an affine shift: it may never move the argmin
    noisy = EnergyEvaluator(
        h, spec, noise=NoiseModel(DEVICE_P2, 1.8e-3), shots=2000, seed=5
    )
    fit = sweep_and_fit(noisy)
    e_vqe_ref = evaluate(noisy, np.zeros(1), index=REFERENCE_INDEX)
    reports = [
        RemReport(e_vqe_ref, reference_exact_energy(noisy), e) for e in fit.energies
    ]
    assert np.argmin(fit.energies) == np.argmin([r.e_rem for r in reports])
    for e, r in zip(fit.energies, reports):
        assert e - r.e_rem == pytest.approx(r.delta_rem, abs=1e-12)

    # zero-noise channels must reproduce the pure-state pipeline exactly
    circuit = ansatz_circuit(spec)
    bindings = {"t0": 0.37}
    psi = run_statevector(circuit, bindings).data
    rho = density_matrix(run_density(circuit, bindings, NoiseModel(0.0, 0.0)).pauli)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-12
    silent = EnergyEvaluator(h, spec, noise=NoiseModel(0.0, 0.0))
    assert evaluate(silent, [0.37]) == pytest.approx(
        evaluate(EnergyEvaluator(h, spec), [0.37]), abs=1e-12
    )

    # noisy density matrices stay physical
    rho = density_matrix(run_density(circuit, bindings, NoiseModel(0.05, 0.01)).pauli)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9

    # a fixed master seed reproduces a full sampled experiment bit for bit
    cfg = RunConfig(
        molecule="h2", backend="noisy", shots=500, seed=9,
        confusion="figure-s2", mitigation="readout+rem",
    )
    a, b = four_pipelines(cfg), four_pipelines(cfg)
    assert (a.e_vqe, a.e_vqe_readout, a.e_rem, a.e_readout_rem) == (
        b.e_vqe, b.e_vqe_readout, b.e_rem, b.e_readout_rem
    )
    c = four_pipelines(RunConfig(**{**cfg.__dict__, "seed": 10}))
    assert a.e_vqe != c.e_vqe
    assert time.perf_counter() - start < 120.0
