"""
Walkthrough of reference-state error mitigation on the H2 molecule.

The correction needs no extra quantum resources: read the energy of the
Hartree-Fock state (whose exact energy is classically known) off the measured
curve, call the difference delta, and subtract delta from the optimized energy.
"""
import numpy as np

from remvqe import (
    EnergyEvaluator,
    NoiseModel,
    builtin,
    ground_state_energy,
    h2_compact_spec,
    reference_exact_energy,
    rem_report,
    sweep_and_fit,
)


def main():
    # --- 1. The problem: H2 at its equilibrium bond length ---
    h2 = builtin("h2")
    geometry = h2.geometry(h2.equilibrium_r)
    h = geometry.hamiltonian
    print(f"H2 at r = {geometry.r} angstrom, {h.n_terms} Pauli terms")

    e_exact, _ = ground_state_energy(h)
    print(f"exact ground energy:     {e_exact:+.6f}")

    # --- 2. A noisy evaluator: depolarizing gates plus finite shots ---
    noise = NoiseModel(p2=1.8e-2, p1=1.8e-3)
    ev = EnergyEvaluator(h, h2_compact_spec(), noise=noise, shots=5000, seed=7)

    # --- 3. Optimize ---
    # The single-parameter ansatz traces a cosine, so a grid sweep plus a
    # least-squares fit replaces iterative optimization outright.
    fit = sweep_and_fit(ev)
    print(f"noisy minimum:           {fit.e_min:+.6f}")

    # --- 4. Correct with the reference state ---
    # All parameters at zero prepare the Hartree-Fock state |01>, so the
    # fitted curve already holds its measured energy: no extra measurement.
    e_vqe_ref = fit.value_at(0.0)
    report = rem_report(e_vqe_ref, reference_exact_energy(ev), fit.e_min, e_exact)
    print(f"reference, exact:        {report.e_exact_ref:+.6f}")
    print(f"reference, measured:     {report.e_vqe_ref:+.6f}")
    print(f"delta:                   {report.delta_rem:+.6f}")
    print(f"corrected minimum:       {report.e_rem:+.6f}")

    # --- 5. The correction is a rigid shift ---
    corrected = [
        rem_report(e_vqe_ref, report.e_exact_ref, e).e_rem for e in fit.energies
    ]
    shift = np.array(fit.energies) - np.array(corrected)
    print(f"curve shift (constant):  {shift.min():+.6f} .. {shift.max():+.6f}")
    print(f"error before:            {abs(report.err_vqe):.6f}")
    print(f"error after:             {abs(report.err_rem):.6f}")


if __name__ == "__main__":
    main()
