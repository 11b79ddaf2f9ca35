import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from conftest import apply_gate
from homsim import statevector as sv
from homsim.beamsplitter import Interaction, exact_unitary, interaction
from homsim.circuit import Circuit, Gate, synthesize, trotter_sequence
from homsim.gray import FockEncoding
from homsim.pauli import PauliOp, PauliTerm
from homsim.statevector import (
    Histogram,
    StateVector,
    apply_circuit,
    apply_dense,
    apply_rotations,
    circuit_unitary,
    fidelity,
    init_basis,
    probabilities,
    sample,
)
SQ2 = 1 / math.sqrt(2)

_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * SQ2,
}


def _1q_matrix(g):
    if g.kind in _1Q:
        return _1Q[g.kind]
    c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
    if g.kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return np.diag([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])


def kron_unitary(c):
    """Independent dense oracle: expand every gate by explicit Kronecker products."""
    dim = 2 ** c.n_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        if g.kind == "CNOT":
            p0 = np.diag([1.0, 0.0]).astype(complex)
            p1 = np.diag([0.0, 1.0]).astype(complex)
            idle = [np.eye(2, dtype=complex)] * c.n_qubits
            fire = [np.eye(2, dtype=complex)] * c.n_qubits
            idle[g.control] = p0
            fire[g.control] = p1
            fire[g.target] = _1Q["X"]
            full = reduce(np.kron, idle) + reduce(np.kron, fire)
        else:
            mats = [np.eye(2, dtype=complex)] * c.n_qubits
            mats[g.target] = _1q_matrix(g)
            full = reduce(np.kron, mats)
        u = full @ u
    return u


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["H", "RX", "RZ", "CNOT"])
        if kind == "CNOT" and n_qubits > 1:
            control, target = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate("CNOT", target=int(target), control=int(control)))
        elif kind in ("RX", "RZ"):
            gates.append(Gate(kind, int(rng.integers(n_qubits)),
                              angle=float(rng.uniform(-math.pi, math.pi))))
        elif kind != "CNOT":
            gates.append(Gate(kind, int(rng.integers(n_qubits))))
    return Circuit(n_qubits, tuple(gates))


class TestNormCheck:
    @pytest.mark.parametrize("amplitudes", [[math.nan, 0, 0, 0], [1, 1, 0, 0]],
                             ids=["nan", "drifted"])
    def test_off_sphere_state_rejected(self, amplitudes):
        with pytest.raises(sv.NormDriftError):
            StateVector(2, np.array(amplitudes, dtype=complex))


class TestInitBasis:
    def test_amplitude_at_label_index(self):
        s = init_basis(4, "0101")
        assert s.amplitudes[int("0101", 2)] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_vacuum(self):
        s = init_basis(4, "0000")
        assert s.amplitudes[0] == 1.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            init_basis(4, "010")

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            init_basis(2, "0a")


class TestApplyGate:
    def test_h_superposes(self):
        s = apply_gate(init_basis(1, "0"), Gate("H", 0))
        np.testing.assert_allclose(s.amplitudes, [SQ2, SQ2])

    def test_cnot_fires_on_set_control(self):
        s = apply_gate(init_basis(2, "10"), Gate("CNOT", target=1, control=0))
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1])

    def test_cnot_idle_on_clear_control(self):
        s = apply_gate(init_basis(2, "01"), Gate("CNOT", target=1, control=0))
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(init_basis(1, "0"), Gate("H", 1))

    def test_norm_preserved_under_long_random_circuits(self, rng):
        for n_qubits in (2, 5, 8):
            c = random_circuit(rng, n_qubits, 200)
            s = apply_circuit(init_basis(n_qubits, "0" * n_qubits), c)
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-10

    def test_gate_path_matches_kronecker_built_unitary(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = random_circuit(rng, n, 20)
            u = kron_unitary(c)
            for label_idx in range(2 ** n):
                label = format(label_idx, f"0{n}b")
                s = apply_circuit(init_basis(n, label), c)
                f = abs(np.vdot(u[:, label_idx], s.amplitudes)) ** 2
                assert f >= 1 - 1e-10
            np.testing.assert_allclose(
                circuit_unitary(c), u, atol=1e-10
            )


class TestApplyDense:
    def test_identity(self):
        s = init_basis(2, "01")
        out = apply_dense(s, np.eye(4))
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_hom_unitary_splits_evenly(self):
        u = exact_unitary(math.pi / 4, interaction(FockEncoding(2)))
        out = apply_dense(init_basis(4, "0101"), u)
        p = probabilities(out)
        assert p[int("0011", 2)] == pytest.approx(0.5, abs=1e-12)
        assert p[int("1100", 2)] == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_dense(init_basis(2, "00"), np.eye(8))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_dense(init_basis(2, "00"), 2 * np.eye(4))

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            apply_dense(init_basis(2, "00"), np.full((4, 4), math.nan))


class TestProbabilitiesAndSampling:
    def test_basis_state_probabilities(self):
        p = probabilities(init_basis(4, "0101"))
        assert p[int("0101", 2)] == 1.0
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_same_seed_reproduces_histogram(self):
        s = apply_gate(init_basis(1, "0"), Gate("H", 0))
        assert sample(s, 500, seed=7) == sample(s, 500, seed=7)

    def test_counts_sum_to_shots(self):
        s = apply_gate(init_basis(1, "0"), Gate("H", 0))
        h = sample(s, 1234, seed=3)
        assert sum(h.counts.values()) == 1234 == h.shots

    def test_hom_shot_statistics(self):
        u = exact_unitary(math.pi / 4, interaction(FockEncoding(2)))
        out = apply_dense(init_basis(4, "0101"), u)
        h = sample(out, 10_000, seed=99)
        assert h.counts.get("0101", 0) == 0
        # 3 sigma around 5000 with sigma = 50
        assert 4850 <= h.counts["0011"] <= 5150
        assert 4850 <= h.counts["1100"] <= 5150

    def test_chi_square_goodness_of_fit(self):
        u = exact_unitary(math.pi / 4, interaction(FockEncoding(2)))
        out = apply_dense(init_basis(4, "0101"), u)
        h = sample(out, 10_000, seed=5)
        observed = [h.counts.get("0011", 0), h.counts.get("1100", 0)]
        _, pvalue = stats.chisquare(observed, [5000, 5000])
        assert pvalue > 0.001

    def test_histogram_invariant(self):
        with pytest.raises(ValueError):
            Histogram(counts={"0": 3}, shots=4)


class TestFidelity:
    def test_self_fidelity(self):
        s = init_basis(2, "10")
        assert fidelity(s, s) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(init_basis(2, "10"), init_basis(2, "01")) == 0.0

    def test_global_phase_invariance(self):
        s = init_basis(2, "11")
        shifted = StateVector(2, np.exp(0.7j) * s.amplitudes)
        assert fidelity(s, shifted) == pytest.approx(1.0, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(init_basis(1, "0"), init_basis(2, "00"))


@st.composite
def hermitian_runs(draw):
    """A real-weighted Pauli sum of 1-5 qubits, θ, 1-3 steps and a random unit state."""
    width = draw(st.integers(1, 5))
    label = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    weight = st.floats(-2.0, 2.0, allow_nan=False)
    terms = draw(st.lists(st.builds(PauliTerm.from_label, weight, label), max_size=6))
    op = PauliOp(terms, width=width)
    theta = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    steps = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    start = StateVector(width, psi / np.linalg.norm(psi))
    return Interaction(op=op), theta, steps, start


class TestApplyRotations:
    @given(hermitian_runs())
    def test_matches_gate_path(self, run):
        # RZ(2α) and RX(2α) are exactly exp(-iαZ) and exp(-iαX): no phase to remove.
        inter, theta, steps, start = run
        fast = apply_rotations(start, trotter_sequence(inter, theta, steps), steps)
        gates = apply_circuit(start, synthesize(inter, theta, steps))
        np.testing.assert_allclose(fast.amplitudes, gates.amplitudes, rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        term = PauliTerm.from_label(1.0, "XYZ")
        with pytest.raises(ValueError, match="does not fit a register of 2"):
            apply_rotations(init_basis(2, "00"), [(term, 0.1)])

    def test_repeat_below_one_rejected(self):
        step = [(PauliTerm.from_label(1.0, "XY"), 0.1)]
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            apply_rotations(init_basis(2, "00"), step, 0)

    def test_width_cap_matches_gate_path(self, monkeypatch):
        monkeypatch.setattr(sv, "MAX_GATE_QUBITS", 3)
        s = init_basis(4, "0000")
        with pytest.raises(ValueError, match="capped at 3 qubits") as fast:
            apply_rotations(s, [(PauliTerm.from_label(1.0, "XIII"), 0.1)])
        with pytest.raises(ValueError) as gates:
            apply_circuit(s, Circuit(4, (Gate("H", 0),)))
        assert str(fast.value) == str(gates.value)

    def test_memory_does_not_grow_with_string_count(self):
        # 2,048 strings at 4 qubits per mode share 16 x masks and at most 256 z masks;
        # one gather per string would peak above 13 MB.
        inter = interaction(FockEncoding(4))
        sequence = trotter_sequence(inter, math.pi / 4, 1)
        start = init_basis(8, "00010001")
        tracemalloc.start()
        try:
            apply_rotations(start, sequence)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
