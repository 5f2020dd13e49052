"""Pauli-string algebra: dense oracles, expectation values, grouping, text format."""
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remvqe import (
    PauliHamiltonian,
    QuantumState,
    builtin,
    expectation,
    format_hamiltonian,
    ground_state_energy,
    group_terms,
    parse_hamiltonian,
    to_dense_matrix,
)
from remvqe.chemdata import BUILTIN_NAMES
from remvqe.pauli import _action, _parity, _support_mask, basis_energy, sign_table
from helpers import hf_state, is_compatible

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
GOLDEN = Path(__file__).resolve().parent / "golden"


def kron_pauli(label: str) -> np.ndarray:
    """Independent dense oracle: leftmost label char is the most significant bit."""
    mat = np.eye(1, dtype=complex)
    for ch in label:
        mat = np.kron(mat, SINGLE[ch])
    return mat


def pauli_vector(rho: np.ndarray) -> np.ndarray:
    """Dense oracle of r_P = Tr(P rho) in Pauli-vector order: the last label
    letter, qubit 0, is the lowest base-4 digit. rho is Hermitian, so r is
    real up to rounding, which a state refuses: the real part is returned."""
    n = len(rho).bit_length() - 1
    labels = ("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
    r = np.array([np.trace(kron_pauli(label) @ rho) for label in labels])
    assert np.abs(r.imag).max() < 1e-12
    return r.real


def dense_oracle(h: PauliHamiltonian) -> np.ndarray:
    dim = 1 << h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for label, coeff in h.terms:
        mat += coeff * kron_pauli(label)
    return mat + h.offset * np.eye(dim)


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return psi / np.linalg.norm(psi)


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    labels = draw(
        st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=k, max_size=k)
    )
    coeffs = draw(
        st.lists(
            st.floats(-2, 2, allow_nan=False, allow_infinity=False), min_size=k, max_size=k
        )
    )
    offset = draw(st.floats(-1, 1, allow_nan=False, allow_infinity=False))
    return PauliHamiltonian(n, tuple(zip(labels, coeffs)), offset)


# --- Pauli labels -----------------------------------------------------------


def test_label_convention():
    # the rightmost letter acts on qubit 0; the support mask sets its bits
    assert _support_mask("IZ") == 0b01
    assert _support_mask("ZI") == 0b10
    assert _support_mask("III") == 0


def test_support_ascending():
    # the support of XIZY is qubits 0, 1 and 3, read from the mask's bits in ascending order
    mask = _support_mask("XIZY")
    assert mask == 0b1011
    assert tuple(q for q in range(4) if mask >> q & 1) == (0, 1, 3)


def assert_label_rejected(label, error, message):
    """PauliHamiltonian refuses the label with `message`; the text format, where
    it can hold the label, refuses it with the same message after its line."""
    with pytest.raises(error, match=f"^{message}$"):
        PauliHamiltonian(2, (("ZZ", 1.0), (label, 1.0)))
    if isinstance(label, str) and label:
        with pytest.raises(error, match=f"^line 3: {message}$"):
            parse_hamiltonian(f"qubits=2\nZZ 1.0\n{label} 1.0")


def test_invalid_characters_rejected():
    assert_label_rejected("AB", ValueError, r"invalid Pauli character\(s\) \['A', 'B'\] in label 'AB'")
    assert_label_rejected("zZ", ValueError, r"invalid Pauli character\(s\) \['z'\] in label 'zZ'")
    assert_label_rejected("", ValueError, "empty Pauli label")
    assert_label_rejected(7, TypeError, "Pauli label must be a str, got 7")
    assert_label_rejected(("X", "X"), TypeError, r"Pauli label must be a str, got \('X', 'X'\)")


def test_label_width_check():
    assert_label_rejected("XXX", ValueError, "term 'XXX' has 3 qubits, Hamiltonian declares 2")
    assert_label_rejected("X", ValueError, "term 'X' has 1 qubits, Hamiltonian declares 2")


# --- PauliHamiltonian construction ------------------------------------------


def test_duplicate_terms_merge():
    h = PauliHamiltonian(2, (("ZZ", 0.5), ("XX", 1.0), ("ZZ", 0.25)))
    assert h.n_terms == 2
    assert h.coefficient("ZZ") == pytest.approx(0.75, abs=1e-15)
    assert h.coefficient("XX") == 1.0
    assert h.coefficient("IZ") == 0.0


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_hamiltonian_equality_matches_term_by_term(data):
    # == and hash compare a key of labels and floats; they must agree with a
    # term-by-term comparison when one coefficient, the term order, the
    # offset or the qubit count differs
    n = data.draw(st.integers(1, 3))
    labels = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6, unique=True))
    coeffs = data.draw(st.lists(st.floats(-2, 2), min_size=len(labels), max_size=len(labels)))
    offset = data.draw(st.floats(-2, 2))
    terms = list(zip(labels, coeffs))
    n2, terms2, offset2 = n, list(terms), offset
    change = data.draw(st.sampled_from(["none", "coefficient", "order", "offset", "qubits"]))
    if change == "coefficient":
        k = data.draw(st.integers(0, len(terms) - 1))
        terms2[k] = (labels[k], data.draw(st.floats(-2, 2)))
    elif change == "order":
        terms2 = data.draw(st.permutations(terms))
    elif change == "offset":
        offset2 = data.draw(st.floats(-2, 2))
    elif change == "qubits":
        n2, terms2 = n + 1, [("I" + label, c) for label, c in terms]
    a = PauliHamiltonian(n, tuple(terms), offset)
    b = PauliHamiltonian(n2, tuple(terms2), offset2)
    same = (
        a.n_qubits == b.n_qubits and a.offset == b.offset and len(a.terms) == len(b.terms)
        and all(p == q and c == d for (p, c), (q, d) in zip(a.terms, b.terms))
    )
    assert (a == b) is same and (b == a) is same and (a != b) is not same
    if same:
        assert hash(a) == hash(b)
    copy = PauliHamiltonian(n, tuple(terms), offset)
    assert a == copy and hash(a) == hash(copy)
    assert a != labels[0]


def test_parity_and_sign_tables_match_bit_counts():
    # the one parity table, and the sign tables gathered from it, against
    # Python's own bit count
    for bits in range(11):
        assert _parity(bits).tolist() == [bin(i).count("1") & 1 for i in range(1 << bits)]
    for n in range(1, 5):
        for mask in range(1 << n):
            expected = [(-1.0) ** bin(i & mask).count("1") for i in range(1 << n)]
            assert sign_table(n, mask).tolist() == expected


def test_terms_are_label_float_pairs():
    h = PauliHamiltonian(1, (("Z", 1), ("X", np.float64(0.5))))
    assert h.terms == (("Z", 1.0), ("X", 0.5))
    assert all(type(label) is str and type(c) is float for label, c in h.terms)


@pytest.mark.parametrize(
    "terms,offset,fragment",
    [
        ((("ZI", float("nan")),), 0.0, "coefficient of term 'ZI' must be finite, got nan"),
        ((("ZI", 1.0), ("IZ", float("inf"))), 0.0, "term 'IZ' must be finite, got inf"),
        # merged first: inf - inf is nan
        ((("ZZ", float("inf")), ("ZZ", float("-inf"))), 0.0, "term 'ZZ' must be finite"),
        ((("ZI", 1.0),), float("inf"), "offset must be finite, got inf"),
        ((("ZI", 1.0),), float("nan"), "offset must be finite, got nan"),
    ],
    ids=["nan-term", "inf-term", "merged-inf-minus-inf", "inf-offset", "nan-offset"],
)
def test_non_finite_hamiltonian_rejected(terms, offset, fragment):
    with pytest.raises(ValueError, match=fragment):
        PauliHamiltonian(2, terms, offset)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError, match="declares"):
        PauliHamiltonian(2, (("ZZZ", 1.0),))
    with pytest.raises(ValueError, match="positive"):
        PauliHamiltonian(0, ())


# --- dense matrix and ground state ------------------------------------------


def test_dense_single_z():
    h = PauliHamiltonian(1, (("Z", 1.0),))
    assert np.allclose(to_dense_matrix(h), np.diag([1.0, -1.0]))


def test_dense_xx_antidiagonal():
    h = PauliHamiltonian(2, (("XX", 1.0),))
    assert np.allclose(to_dense_matrix(h), np.fliplr(np.eye(4)))


def test_dense_offset_on_diagonal():
    h = PauliHamiltonian(1, (("X", 0.5),), offset=2.0)
    assert np.allclose(to_dense_matrix(h), 0.5 * SINGLE["X"] + 2.0 * np.eye(2))


@settings(deadline=None, max_examples=40)
@given(hamiltonians())
def test_dense_matches_kron_oracle(h):
    assert np.allclose(to_dense_matrix(h), dense_oracle(h), atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(hamiltonians())
def test_dense_decomposition_roundtrip(h):
    # projecting the dense matrix back onto the Pauli basis recovers every
    # coefficient; the offset folds into the identity-string slot
    mat = to_dense_matrix(h)
    dim = 1 << h.n_qubits
    for label, coeff in h.terms:
        recovered = np.trace(kron_pauli(label).conj().T @ mat).real / dim
        expect = coeff + (h.offset if label == "I" * h.n_qubits else 0.0)
        assert abs(recovered - expect) < 1e-12


def per_term_dense(h: PauliHamiltonian) -> np.ndarray:
    """Reference build: each term added into its own permuted entries, in term order."""
    dim = 1 << h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for label, coeff in h.terms:
        flip, phases = _action(label)
        mat[idx ^ flip, idx] += coeff * phases
    mat[idx, idx] += h.offset
    return mat


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def shared_flip_hamiltonians(draw):
    """Up to 6 qubits, terms drawn over a few flip masks, so masks repeat;
    coefficients and the offset may be 0.0 or -0.0."""
    n = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(1, 12))):
        mask = draw(st.sampled_from(masks))
        # qubit q is the label's letter n-1-q: X or Y where the mask flips it, else I or Z
        letters = [draw(st.sampled_from("XY" if mask >> q & 1 else "IZ")) for q in range(n)]
        coeff = draw(SIGNED_ZEROS | st.floats(-2, 2, allow_nan=False))
        terms.append(("".join(reversed(letters)), coeff))
    offset = draw(SIGNED_ZEROS | st.floats(-1, 1, allow_nan=False))
    return PauliHamiltonian(n, tuple(terms), offset)


def test_dense_build_is_the_per_term_sum_on_every_builtin():
    hamiltonians = [g.hamiltonian for name in BUILTIN_NAMES for g in builtin(name).geometries]
    hamiltonians.append(parse_hamiltonian((GOLDEN / "heisenberg3.ham").read_text()))
    for h in hamiltonians:
        assert to_dense_matrix(h).tobytes() == per_term_dense(h).tobytes()


@settings(deadline=None, max_examples=300)
@given(shared_flip_hamiltonians())
def test_dense_build_is_the_per_term_sum(h):
    assert to_dense_matrix(h).tobytes() == per_term_dense(h).tobytes()


def test_dense_qubit_limit():
    with pytest.raises(ValueError, match="limited to 12"):
        to_dense_matrix(PauliHamiltonian(13, (("Z" * 13, 1.0),)))


def test_ground_state_is_eigenpair():
    rng = np.random.default_rng(7)
    for _ in range(5):
        labels = ["".join(rng.choice(list("IXYZ"), size=2)) for _ in range(4)]
        h = PauliHamiltonian(2, tuple((l, rng.normal()) for l in labels), rng.normal())
        energy, vec = ground_state_energy(h)
        mat = dense_oracle(h)
        assert np.allclose(mat @ vec, energy * vec, atol=1e-10)
        assert energy == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-12)


def test_variational_bound():
    rng = np.random.default_rng(11)
    h = builtin("h2").geometry(0.7414).hamiltonian
    ground, _ = ground_state_energy(h)
    for _ in range(50):
        assert ground <= expectation(h, random_state(2, rng)) + 1e-12


def test_ground_state_fixtures():
    assert ground_state_energy(builtin("h2").geometry(0.7414).hamiltonian)[0] == pytest.approx(
        -1.1373, abs=5e-4
    )
    assert ground_state_energy(builtin("heh+").geometry(0.95).hamiltonian)[0] == pytest.approx(
        -2.8622, abs=5e-4
    )
    assert ground_state_energy(builtin("lih").geometry(1.5949).hamiltonian)[0] == pytest.approx(
        -7.8811, abs=1e-3
    )


# --- expectation -------------------------------------------------------------


def test_expectation_identity_only():
    h = PauliHamiltonian(2, (("II", 1.5),), offset=0.25)
    rng = np.random.default_rng(3)
    assert expectation(h, random_state(2, rng)) == pytest.approx(1.75, abs=1e-12)


def test_expectation_hf_fixtures():
    psi = np.zeros(4)
    psi[0b01] = 1.0
    assert expectation(builtin("h2").geometry(0.7414).hamiltonian, psi) == pytest.approx(
        -1.1167, abs=5e-4
    )
    assert expectation(builtin("heh+").geometry(0.7899).hamiltonian, psi) == pytest.approx(
        -2.8447, abs=5e-4
    )


@pytest.mark.parametrize("name", ("h2", "heh+", "lih"))
def test_basis_energy_equals_expectation_on_builtin_data(name):
    # bit for bit, every geometry and every basis state
    ds = builtin(name)
    for g in ds.geometries:
        h = g.hamiltonian
        for i in range(1 << h.n_qubits):
            bits = format(i, f"0{h.n_qubits}b")
            assert basis_energy(h, bits) == expectation(h, hf_state(h.n_qubits, bits))


@settings(deadline=None, max_examples=60)
@given(hamiltonians(), st.data())
def test_basis_energy_equals_expectation_random(h, data):
    # X/Y terms have no diagonal and must drop out exactly
    bits = data.draw(st.text(alphabet="01", min_size=h.n_qubits, max_size=h.n_qubits))
    assert basis_energy(h, bits) == expectation(h, hf_state(h.n_qubits, bits))


def test_expectation_vs_dense_oracle():
    rng = np.random.default_rng(5)
    for name, r in (("h2", 0.7414), ("heh+", 1.0), ("lih", 1.5949)):
        h = builtin(name).geometry(r).hamiltonian
        mat = dense_oracle(h)
        for _ in range(5):
            psi = random_state(h.n_qubits, rng)
            oracle = float(np.real(np.conj(psi) @ mat @ psi))
            assert expectation(h, psi) == pytest.approx(oracle, abs=1e-10)


def test_expectation_density_equals_statevector():
    rng = np.random.default_rng(9)
    h = builtin("heh+").geometry(0.65).hamiltonian
    for _ in range(10):
        psi = random_state(2, rng)
        rho = QuantumState(pauli=pauli_vector(np.outer(psi, np.conj(psi))))
        assert expectation(h, rho) == pytest.approx(expectation(h, psi), abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(hamiltonians(), st.integers(0, 2**32 - 1))
def test_expectation_density_vs_dense_oracle(h, seed):
    # a mixed state, against trace(H rho) from the kron-built terms
    rng = np.random.default_rng(seed)
    dim = 1 << h.n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    oracle = float(np.real(np.trace(dense_oracle(h) @ rho)))
    assert expectation(h, QuantumState(pauli=pauli_vector(rho))) == pytest.approx(oracle, abs=1e-12)


def test_expectation_rejects_density_matrix():
    # a density matrix is passed as the QuantumState of its Pauli vector; a
    # raw array is checked as a ket, and an unnormalized ket fails
    h = PauliHamiltonian(1, (("X", 1.0),))
    plus = np.full((2, 2), 0.5)
    for rho in (plus, np.array([[0.5, 0.3j], [0.3j, 0.5]])):
        with pytest.raises(ValueError, match="pass rho as pauli=r"):
            expectation(h, rho)
    with pytest.raises(ValueError, match="not normalized"):
        expectation(h, np.array([1.0, 1.0]))
    assert expectation(h, QuantumState(pauli=pauli_vector(plus))) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    h = PauliHamiltonian(2, (("ZZ", 1.0),))
    with pytest.raises(ValueError, match="does not match"):
        expectation(h, np.array([1.0, 0.0]))


# --- measurement grouping ----------------------------------------------------


def test_group_terms_h2():
    h = builtin("h2").geometry(0.7414).hamiltonian
    assert group_terms(h) == [("ZZ", (0, 1, 2, 3)), ("XX", (4,))]


def test_group_terms_heh():
    h = builtin("heh+").geometry(0.7899).hamiltonian
    groups = group_terms(h)
    assert len(groups) == 4
    assert {basis for basis, _ in groups} == {"ZZ", "ZX", "XZ", "XX"}


def test_single_term_single_group():
    assert group_terms(PauliHamiltonian(2, (("XY", 1.0),))) == [("XY", (0,))]


@settings(deadline=None, max_examples=50)
@given(hamiltonians())
def test_grouping_partition_property(h):
    groups = group_terms(h)
    seen = [t for _, members in groups for t in members]
    assert sorted(seen) == list(range(h.n_terms))
    assert len(set(seen)) == len(seen)
    labels = [basis for basis, _ in groups]
    assert len(set(labels)) == len(labels)
    for basis, members in groups:
        assert set(basis) <= set("XYZ")
        for t in members:
            assert is_compatible(h.terms[t][0], basis)


def test_group_partial_sums_match_expectation():
    # summing exact per-basis partial energies over the groups reproduces the
    # full expectation value for every embedded Hamiltonian
    from remvqe.sim import QuantumState, _basis_probabilities

    rng = np.random.default_rng(21)
    for name in ("h2", "heh+", "lih"):
        ds = builtin(name)
        for g in ds.geometries:
            h = g.hamiltonian
            psi = random_state(h.n_qubits, rng)
            state = QuantumState(psi)
            total = h.offset
            for basis, members in group_terms(h):
                dist = _basis_probabilities(state, (basis,))[0]
                for t in members:
                    label, coeff = h.terms[t]
                    acc = 0.0
                    for idx, p in enumerate(dist):
                        sign = 1.0
                        for q, ch in enumerate(reversed(label)):
                            if ch != "I" and (idx >> q) & 1:
                                sign = -sign
                        acc += sign * p
                    total += coeff * acc
            assert total == pytest.approx(expectation(h, psi), abs=1e-10)


def test_is_compatible():
    assert is_compatible("IZ", "ZZ")
    assert is_compatible("II", "XY")
    assert not is_compatible("XZ", "ZZ")


# --- text format -------------------------------------------------------------


def test_format_parse_roundtrip():
    for name in ("h2", "heh+", "lih"):
        h = builtin(name).geometries[0].hamiltonian
        back = parse_hamiltonian(format_hamiltonian(h))
        assert back.n_qubits == h.n_qubits
        assert back.offset == h.offset
        assert back.terms == h.terms


def test_parse_comments_and_duplicates():
    text = """
    # comment line
    qubits=2
    offset=0.5  # trailing comment
    ZZ 1.0
    ZZ 0.25
    XX -1.0
    """
    h = parse_hamiltonian(text)
    assert h.n_qubits == 2
    assert h.offset == 0.5
    assert h.coefficient("ZZ") == pytest.approx(1.25, abs=1e-15)
    assert h.coefficient("XX") == -1.0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("qubits=two\nZZ 1.0", "line 1"),
        ("qubits=0\nZZ 1.0", "line 1"),
        ("qubits=2\noffset=x", "line 2"),
        ("qubits=2\nshots=5", "unknown header"),
        ("ZZ 1.0", "before qubits="),
        ("qubits=2\nZZ", "expected"),
        ("qubits=2\nZZ abc", "bad coefficient"),
        ("qubits=2\nZZZ 1.0", "line 2"),
        ("qubits=2\nAB 1.0", "invalid Pauli"),
        ("qubits=2\n# only comments", "no Pauli terms"),
        ("", "missing qubits="),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_hamiltonian(text)
