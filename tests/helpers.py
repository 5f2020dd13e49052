"""Reference helpers the tests share, which no pipeline of the package calls."""
from pathlib import Path

import numpy as np

from remvqe import AnsatzSpec, MoleculeDataset, PauliHamiltonian, QuantumState
from remvqe.experiments import PointResult, RunConfig, _run_point, resolve
from remvqe.vqe import _nelder_mead


def hardware_efficient_spec(n_qubits: int = 4, hf_bitstring: str | None = None) -> AnsatzSpec:
    return AnsatzSpec("hardware-efficient", n_qubits, hf_bitstring or "0" * n_qubits)


def hf_state(n_qubits: int, bitstring: str) -> QuantumState:
    """Computational basis state |bitstring> (leftmost char = qubit n-1)."""
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise ValueError(f"bad basis bitstring {bitstring!r} for {n_qubits} qubits")
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[int(bitstring, 2)] = 1.0
    return QuantumState(psi)


def format_hamiltonian(h: PauliHamiltonian) -> str:
    """The text format chemdata.load reads, each float written as its repr."""
    lines = [f"qubits={h.n_qubits}", f"offset={h.offset!r}"]
    lines += [f"{label} {coeff!r}" for label, coeff in h.terms]
    return "\n".join(lines) + "\n"


def dump(ds: MoleculeDataset, directory) -> tuple[Path, ...]:
    """Write each geometry to `<name>_r<r>.txt`, '+' spelled 'p'; chemdata.load reads them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for g in ds.geometries:
        path = directory / f"{ds.name.replace('+', 'p')}_r{g.r:g}.txt"
        path.write_text(f"# {ds.name} r={g.r:g} angstrom\n" + format_hamiltonian(g.hamiltonian) + "\n")
        written.append(path)
    return tuple(written)


def is_compatible(term: str, basis: str) -> bool:
    """True when every non-identity letter of label `term` matches `basis`."""
    return all(ch in ("I", b) for ch, b in zip(term, basis, strict=True))


def four_pipelines(cfg: RunConfig) -> PointResult:
    """All four pipeline energies at one geometry (--r, default equilibrium)."""
    problem = resolve(cfg, every_pipeline=True)
    return _run_point(problem, problem.hamiltonian, 0)


def plateau_nelder_mead(n: int) -> str:
    """The repr of a Nelder-Mead run on a bowl rounded to 0.1, where vertex
    energies tie from the first simplex on, so the sort's tie order sets the
    trace."""
    trace: list = []

    def f(x: np.ndarray) -> float:
        trace.append((tuple(x.tolist()), round(float(np.sum((x - 0.3) ** 2)), 1)))
        return trace[-1][1]

    return repr(_nelder_mead(f, np.zeros(n), 400, trace))
