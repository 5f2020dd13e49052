"""Embedded molecular datasets: self-consistency, fixtures, file round trips."""
import hashlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from remvqe import (
    Geometry,
    MoleculeDataset,
    PauliHamiltonian,
    audit,
    builtin,
    ground_state_energy,
    load,
    parse_hamiltonian,
)
from remvqe.chemdata import BUILTIN_NAMES
from remvqe.pauli import basis_energy
from helpers import dump, format_hamiltonian, hardware_efficient_spec

ALL_NAMES = ("h2", "heh+", "lih")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_embedded_data_is_self_consistent(name):
    # every recorded reference/minimum energy must be reproducible from the
    # embedded coefficients by direct diagonalization
    assert audit(builtin(name)) == []


# sha256 of each builtin dataset's bytes (dataset_digest), pinned when lih
# was still stored as loose constants; audit checks only to 5e-4
DATASET_DIGESTS = {
    "h2": "0506a9d5a9c57078f8c41d46f65bb9bfe3a189f8b1448d15d36778c64e186c2f",
    "heh+": "399a663959ade55f9cb855feebd7ff09f6c4061e9676cf0e9da111d9d5f79c64",
    "lih": "864f0bccef40882a676c6f249f213066323332a2b24f095e182691b9c35aacf9",
}


def dataset_digest(ds: MoleculeDataset) -> str:
    """The name, qubit count, reference and equilibrium r, then per geometry
    r, the labels, and the IEEE bytes of every coefficient, of the offset
    and of each recorded energy, None written as b"None"."""
    def pack(x):
        return b"None" if x is None else struct.pack("<d", x)

    digest = hashlib.sha256(repr((ds.name, ds.n_qubits, ds.hf_bitstring)).encode())
    digest.update(pack(ds.equilibrium_r))
    for g in ds.geometries:
        h = g.hamiltonian
        digest.update(pack(g.r) + repr(tuple(label for label, _ in h.terms)).encode())
        for _, coeff in h.terms:
            digest.update(pack(coeff))
        for x in (h.offset, g.e_exact_ref, g.e_exact_min, g.e_exact_ground):
            digest.update(pack(x))
    return digest.hexdigest()


def test_builtin_datasets_are_pinned_byte_for_byte():
    assert BUILTIN_NAMES == ALL_NAMES
    assert {name: dataset_digest(builtin(name)) for name in ALL_NAMES} == DATASET_DIGESTS


def test_builtin_shares_one_dataset_per_name(monkeypatch):
    # one frozen dataset per normalized name: a second operation's lookups in
    # the caches keyed by its Hamiltonian find the first's entries by
    # identity and compare no Hamiltonians by value
    from remvqe import EnergyEvaluator, NoiseModel, evaluate, sim, vqe

    assert builtin("lih") is builtin(" LiH")
    assert builtin("h2") is builtin("H2") and builtin("heh+") is builtin("HeH+ ")
    caches = (sim._term_vectors, vqe._plan)
    for cache in caches:
        cache.cache_clear()

    def operation():  # an exact and a shot evaluation
        h = builtin("lih").geometry(1.5949).hamiltonian
        spec, noise = hardware_efficient_spec(4), NoiseModel(p2=4e-3)
        return [evaluate(EnergyEvaluator(h, spec, noise=noise, shots=shots, seed=5),
                         np.full(spec.n_params, 0.1), index=3) for shots in (None, 8192)]

    energy = operation()
    hits = [cache.cache_info().hits for cache in caches]

    def refuse(*_args):
        raise AssertionError("a cache lookup compared Hamiltonians by value")

    monkeypatch.setattr(PauliHamiltonian, "__eq__", refuse)
    assert operation() == energy
    assert all(cache.cache_info().hits > n for cache, n in zip(caches, hits))


def test_dataset_shapes():
    assert len(builtin("h2").geometries) == 12
    assert len(builtin("heh+").geometries) == 10
    assert len(builtin("lih").geometries) == 1
    assert builtin("h2").equilibrium_r == 0.7414
    assert builtin("heh+").equilibrium_r == 0.7899
    assert builtin("lih").equilibrium_r == 1.5949
    assert builtin("h2").hf_bitstring == "01"
    assert builtin("lih").hf_bitstring == "0011"


def test_coefficient_spot_checks():
    g = builtin("h2").geometry(0.45)
    assert g.hamiltonian.coefficient("II") == pytest.approx(-0.908, abs=5e-4)
    assert g.hamiltonian.offset == pytest.approx(1.1759, abs=1e-9)
    g = builtin("heh+").geometry(0.65)
    assert g.hamiltonian.coefficient("XX") == pytest.approx(0.157, abs=5e-4)
    assert g.hamiltonian.offset == pytest.approx(1.6282, abs=1e-9)
    assert builtin("lih").geometries[0].hamiltonian.offset == pytest.approx(
        -6.80295276, abs=1e-9
    )


def test_geometry_lookup():
    ds = builtin("h2")
    assert ds.geometry(0.7414).r == 0.7414
    with pytest.raises(ValueError, match=r"has no geometry r=0\.5 \(available:"):
        ds.geometry(0.5)


def test_dataset_validation():
    h = builtin("h2").geometry(0.45).hamiltonian
    geoms = (Geometry(1.0, h), Geometry(0.5, h))
    with pytest.raises(ValueError, match="strictly increasing"):
        MoleculeDataset("x", 2, "01", geoms, 1.0)
    with pytest.raises(ValueError, match="hf_bitstring width"):
        MoleculeDataset("x", 2, "011", (Geometry(1.0, h),), 1.0)
    with pytest.raises(ValueError, match="dataset declares"):
        MoleculeDataset("x", 3, "011", (Geometry(1.0, h),), 1.0)


def test_reference_energy_fixtures():
    for name, r, recorded in (
        ("h2", 1.65, (-0.8678, -0.9771)),
        ("heh+", 1.35, (-2.8314, -2.8339)),
        ("lih", 1.5949, (-7.8620, -7.8787)),
    ):
        g = builtin(name).geometry(r)
        assert (g.e_exact_ref, g.e_exact_min) == recorded


def test_reference_energy_missing_row():
    # the stretched tail geometry carries coefficients but no recorded energies
    heh = builtin("heh+")
    assert heh.geometries[-1].r == 1.65
    assert heh.geometry(1.65).e_exact_ref is None
    assert heh.geometry(1.65).e_exact_min is None


def test_unknown_molecule_message_points_to_file_loading():
    with pytest.raises(ValueError, match="load"):
        builtin("beh2")


def test_hartree_fock_energy_lih():
    g = builtin("lih").geometries[0]
    assert basis_energy(g.hamiltonian, "0011") == pytest.approx(-7.8620, abs=5e-4)
    # no other determinant reproduces the recorded reference energy
    matches = [
        b
        for b in (format(i, "04b") for i in range(16))
        if abs(basis_energy(g.hamiltonian, b) + 7.8620) < 5e-4
    ]
    assert matches == ["0011"]


def test_ground_reference_fallback():
    h = builtin("h2").geometry(0.45).hamiltonian
    assert Geometry(1.0, h, e_exact_min=-1.0).ground_reference == -1.0
    assert Geometry(1.0, h, e_exact_min=-1.0, e_exact_ground=-1.5).ground_reference == -1.5
    assert Geometry(1.0, h).ground_reference is None


def test_lih_recorded_ground_below_compact_minimum():
    g = builtin("lih").geometries[0]
    # the full ground energy sits below the subspace minimum recorded as e_exact_min
    assert g.e_exact_ground == pytest.approx(-7.8811, abs=5e-5)
    assert g.e_exact_ground < g.e_exact_min
    ground, _ = ground_state_energy(g.hamiltonian)
    assert ground == pytest.approx(g.e_exact_ground, abs=5e-4)


def test_dump_load_roundtrip(tmp_path):
    # the file format writes each float's repr, so every geometry reads back
    # exactly: same labels in the same order, same coefficients and offset
    for name in ALL_NAMES:
        ds = builtin(name)
        paths = dump(ds, tmp_path / "out")
        assert len(paths) == len(ds.geometries)
        for path, g in zip(paths, ds.geometries):
            assert load(path) == g.hamiltonian, path.name


def test_file_hamiltonian_format_parse_roundtrip():
    h = load(Path(__file__).parent / "golden" / "heisenberg3.ham")
    assert h.n_qubits == 3 and h.n_terms == 9
    assert parse_hamiltonian(format_hamiltonian(h)) == h


@pytest.mark.parametrize(
    "text,message",
    [
        ("qubits=2\nXX 1\nqubits=3\nXXX 1\n", "line 3: duplicate header 'qubits'"),
        ("qubits=2\noffset=0.5\nZZ 1\noffset=-1\n", "line 4: duplicate header 'offset'"),
    ],
    ids=["qubits", "offset"],
)
def test_load_rejects_a_second_header(tmp_path, text, message):
    path = tmp_path / "twice.ham"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load(path)


def test_dump_sanitizes_plus_sign(tmp_path):
    paths = dump(builtin("heh+"), tmp_path)
    assert all("+" not in p.name for p in paths)
    assert paths[0].name.startswith("hehp_r")


def test_load_error_includes_path(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("qubits=2\nZZ not_a_number\n")
    with pytest.raises(ValueError) as exc:
        load(path)
    assert "bad.txt" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_load_merges_duplicate_terms(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("qubits=2\nZZ 0.25\nXX 1.0\nZZ 0.5\n")
    h = load(path)
    assert h.coefficient("ZZ") == pytest.approx(0.75)
    assert h.n_terms == 2


def test_loaded_hamiltonian_is_usable(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("# toy\nqubits=1\noffset=0.5\nZ -1.0\n")
    h = load(path)
    assert isinstance(h, PauliHamiltonian)
    ground, state = ground_state_energy(h)
    assert ground == pytest.approx(-0.5)
    assert np.argmax(np.abs(state)) == 0
