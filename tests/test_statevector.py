import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from conftest import apply_gate, walked_sample
from homsim import statevector as sv
from homsim.beamsplitter import Interaction, exact_unitary, interaction
from homsim.circuit import Circuit, Gate, bind_angles, step_terms, synthesize, trotter_sequence
from homsim.experiments import ExperimentConfig, compile_step
from homsim.gray import FockEncoding
from homsim.pauli import PauliOp, PauliTerm
from homsim.statevector import (
    Histogram,
    StateVector,
    apply_circuit,
    apply_dense,
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sample_is_the_all_outcome_walk(self, n):
        # Random states, and a sparse one whose few outcomes leave most labels undrawn.
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        sparse = np.zeros(2**n, dtype=complex)
        sparse[rng.choice(2**n, size=min(3, 2**n), replace=False)] = 1
        for amps in (psi, sparse):
            s = StateVector(n, amps / np.linalg.norm(amps))
            for shots, seed in [(1, 0), (37, 1), (10_000, 2)]:
                got = sample(s, shots, seed)
                want = walked_sample(s, shots, seed)
                assert got == want
                assert list(got.counts) == list(want.counts)

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


def plain_evolve(s, tables, angles, repeat=1):
    """Reference rotation pass: one fresh vector expression per string, Python-scalar weights."""
    weights = [
        (math.cos(a), math.sin(a) * phase)
        for a, (_, _, phase) in zip(angles, tables.actions, strict=True)
    ]
    psi = s.amplitudes
    for _ in range(repeat):
        for (gather, sign, _), (cos, sin_phase) in zip(tables.actions, weights):
            psi = cos * psi + sin_phase * (sign * psi)[gather]
    return psi


@st.composite
def batched_runs(draw):
    """A hermitian run's H and start, with 1-6 rows of their own θ and 1-5 repeats."""
    inter, _, _, start = draw(hermitian_runs())
    theta = st.floats(-math.pi, math.pi, allow_nan=False)
    rows = draw(st.lists(st.tuples(theta, st.integers(1, 5)), min_size=1, max_size=6))
    return inter, rows, start


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, psi / np.linalg.norm(psi))


class TestRotationPass:
    @given(hermitian_runs())
    def test_bit_for_bit_the_plain_expression(self, run):
        # The in-place pass keeps every operand and its order: equal bytes,
        # signed zero angles included.
        inter, theta, steps, start = run
        for angle in (theta, 0.0, -0.0):
            step = trotter_sequence(inter, angle, steps)
            tables = sv.rotation_tables(start.n_qubits, [term for term, _ in step])
            angles = [a for _, a in step]
            fast = sv.evolve(start, tables, [(angles, steps)])[0].amplitudes
            assert fast.tobytes() == plain_evolve(start, tables, angles, steps).tobytes()

    @given(batched_runs())
    def test_batch_rows_bit_for_bit_the_plain_expression(self, run):
        # Rows of mixed repeats leave the batch at their own repeats; each is
        # the plain expression's bytes and its lone run's, and the start is kept.
        inter, rows, start = run
        step = step_terms(inter)
        tables = sv.rotation_tables(start.n_qubits, [term for term, _ in step])
        runs = [(bind_angles(step, theta, repeat), repeat) for theta, repeat in rows]
        before = start.amplitudes.tobytes()
        batch = sv.evolve(start, tables, runs)
        assert start.amplitudes.tobytes() == before
        assert len(batch) == len(runs)
        for (angles, repeat), state in zip(runs, batch):
            plain = plain_evolve(start, tables, angles, repeat).tobytes()
            assert state.amplitudes.tobytes() == plain
            assert sv.evolve(start, tables, [(angles, repeat)])[0].amplitudes.tobytes() == plain

    def test_no_runs_evolve_to_no_states(self):
        tables = sv.rotation_tables(2, [PauliTerm.from_label(1.0, "XY")])
        assert sv.evolve(init_basis(2, "00"), tables, []) == []

    def test_every_row_needs_one_angle_per_string(self):
        tables = sv.rotation_tables(2, [PauliTerm.from_label(1.0, "XY")] * 2)
        with pytest.raises(ValueError):
            sv.evolve(init_basis(2, "00"), tables, [([0.1, 0.2], 2), ([0.1], 1)])

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [1, 2, 3, 4])
    def test_compiled_step_bit_for_bit_the_plain_expression(self, qpm, reduced):
        compiled = compile_step(ExperimentConfig(qubits_per_mode=qpm, reduced=reduced))
        n = 2 * qpm
        starts = [random_state(n, qpm), init_basis(n, compiled.labels[compiled.sector.start])]
        for theta, steps in [(0.7, 1), (-1.3, 2), (0.0, 1), (-0.0, 2), (math.pi / 4, 3)]:
            angles = bind_angles(compiled.terms, theta, steps)
            for start in starts:
                fast = sv.evolve(start, compiled.tables, [(angles, steps)])[0].amplitudes
                slow = plain_evolve(start, compiled.tables, angles, steps)
                assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("strings", [0, 1, 32])
    def test_leaves_the_start_alone(self, strings):
        # The pass works in place on its own copy: the start keeps its bytes,
        # shares no memory with the result, and a second run from it agrees.
        compiled = compile_step(ExperimentConfig())
        tables = sv.rotation_tables(4, [term for term, _ in compiled.terms[:strings]])
        angles = bind_angles(compiled.terms[:strings], 0.7, 3)
        start = random_state(4, 5)
        before = start.amplitudes.tobytes()
        first = sv.evolve(start, tables, [(angles, 3)])[0].amplitudes
        assert start.amplitudes.tobytes() == before
        assert not np.shares_memory(first, start.amplitudes)
        assert sv.evolve(start, tables, [(angles, 3)])[0].amplitudes.tobytes() == first.tobytes()

    @given(hermitian_runs())
    def test_matches_gate_path(self, run):
        # RZ(2α) and RX(2α) are exactly exp(-iαZ) and exp(-iαX): no phase to remove.
        inter, theta, steps, start = run
        step = trotter_sequence(inter, theta, steps)
        tables = sv.rotation_tables(start.n_qubits, [term for term, _ in step])
        fast = sv.evolve(start, tables, [([angle for _, angle in step], steps)])[0]
        gates = apply_circuit(start, synthesize(inter, theta, steps))
        np.testing.assert_allclose(fast.amplitudes, gates.amplitudes, rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        term = PauliTerm.from_label(1.0, "XYZ")
        with pytest.raises(ValueError, match="does not fit a register of 2"):
            sv.rotation_tables(2, [term])

    def test_repeat_below_one_rejected(self):
        tables = sv.rotation_tables(2, [PauliTerm.from_label(1.0, "XY")])
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            sv.evolve(init_basis(2, "00"), tables, [([0.1], 0)])

    def test_evolve_refuses_tables_of_another_register(self):
        tables = sv.rotation_tables(3, [PauliTerm.from_label(1.0, "XYZ")])
        with pytest.raises(ValueError, match="register width mismatch"):
            sv.evolve(init_basis(2, "00"), tables, [([0.1], 1)])

    def test_evolve_needs_one_angle_per_string(self):
        tables = sv.rotation_tables(2, [PauliTerm.from_label(1.0, "XY")] * 2)
        with pytest.raises(ValueError):
            sv.evolve(init_basis(2, "00"), tables, [([0.1], 1)])

    def test_width_cap_matches_gate_path(self, monkeypatch):
        monkeypatch.setattr(sv, "MAX_GATE_QUBITS", 3)
        s = init_basis(4, "0000")
        with pytest.raises(ValueError, match="capped at 3 qubits") as fast:
            sv.rotation_tables(4, [PauliTerm.from_label(1.0, "XIII")])
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
            tables = sv.rotation_tables(8, [term for term, _ in sequence])
            sv.evolve(start, tables, [([angle for _, angle in sequence], 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
