import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from conftest import apply_gate, circuit_of, givens_product, walked_sample
from homsim import statevector as sv
from homsim.beamsplitter import Interaction, exact_unitary, interaction
from homsim.circuit import Gate, bind_angles, step_terms, synthesize, trotter_sequence
from homsim.experiments import ExperimentConfig, compile_step
from homsim.gray import FockEncoding
from homsim.pauli import PauliOp, PauliTerm, _action
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
    return circuit_of(n_qubits, gates)


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
    """Reference of both loops: one fresh vector expression per string,
    cos α·ψ + (sin α·phase·(−1)^|z&j|)·ψ[j ⊕ x] with Python-scalar weights."""
    psi = s.amplitudes
    strings = [
        (tables.gathers[x], tables.signs[z], math.cos(a), math.sin(a) * phase)
        for x, z, a, phase in zip(
            tables.x_rows, tables.z_rows, angles, tables.phases.tolist(), strict=True
        )
    ]
    for _ in range(repeat):
        for gather, sign, cos, sin_phase in strings:
            psi = cos * psi + (sin_phase * sign) * psi[gather]
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


# The real budget runs every drawn run in the three-call batch loop; a budget
# of 0 sends every run alone to the five-call 0-d loop. Each is the one
# plain expression's bytes.
BUDGETS = pytest.mark.parametrize("budget", [sv.BATCH_WEIGHTS, 0], ids=["batch", "zero-d"])


class TestRotationPass:
    @BUDGETS
    @given(run=hermitian_runs())
    def test_bit_for_bit_the_plain_expression(self, budget, run):
        # The in-place pass keeps every operand and its order: equal bytes,
        # signed zero angles included.
        inter, theta, steps, start = run
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sv, "BATCH_WEIGHTS", budget)
            for angle in (theta, 0.0, -0.0):
                step = trotter_sequence(inter, angle, steps)
                tables = sv.rotation_tables(start.n_qubits, [term for term, _ in step])
                angles = [a for _, a in step]
                fast = sv.evolve(start, tables, [(angles, steps)])[0].amplitudes
                plain = plain_evolve(start, tables, angles, steps)
                assert fast.tobytes() == plain.tobytes()

    @BUDGETS
    @given(run=batched_runs())
    def test_batch_rows_bit_for_bit_the_plain_expression(self, budget, run):
        # Rows of mixed repeats leave the batch at their own repeats; each is
        # the plain expression's bytes and its lone run's, and the start is kept.
        inter, rows, start = run
        step = step_terms(inter)
        tables = sv.rotation_tables(start.n_qubits, [term for term, _ in step])
        runs = [(bind_angles(step, theta, repeat), repeat) for theta, repeat in rows]
        before = start.amplitudes.tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sv, "BATCH_WEIGHTS", budget)
            batch = sv.evolve(start, tables, runs)
            assert start.amplitudes.tobytes() == before
            assert len(batch) == len(runs)
            for (angles, repeat), state in zip(runs, batch):
                plain = plain_evolve(start, tables, angles, repeat).tobytes()
                assert state.amplitudes.tobytes() == plain
                lone = sv.evolve(start, tables, [(angles, repeat)])[0].amplitudes
                assert lone.tobytes() == plain

    @staticmethod
    def loops_taken(monkeypatch, names=("_rotate", "_evolve_alone")) -> list[str]:
        """From here on, the name of each of ``names`` ``evolve`` enters, in order."""
        taken = []

        def spy(name, loop):
            def entered(*args):
                taken.append(name)
                return loop(*args)

            return entered

        for name in names:
            monkeypatch.setattr(sv, name, spy(name, getattr(sv, name)))
        return taken

    @pytest.mark.parametrize(
        "qpm, loop", [(1, "_rotate"), (2, "_rotate"), (3, "_rotate"), (4, "_evolve_alone")]
    )
    def test_lone_runs_to_qpm_3_take_the_batch_loop(self, monkeypatch, qpm, loop):
        # 288 strings × 64 amplitudes fit the budget at qpm 3; 2,048 × 256 at qpm 4 do not.
        compiled = compile_step(ExperimentConfig(qubits_per_mode=qpm))
        taken = self.loops_taken(monkeypatch)
        start = init_basis(2 * qpm, compiled.labels[compiled.sector.start])
        sv.evolve(start, compiled.tables, [(bind_angles(compiled.terms, 0.7, 2), 2)])
        assert taken == [loop]

    def test_the_budget_picks_the_loop(self, monkeypatch):
        # 3 strings × 4 amplitudes = 12 weights a row: at 24 one batch of both
        # rows runs a phase per repeat count, at 12–23 each row is a batch of
        # one, and below 12 each row runs alone in the 0-d loop.
        terms = [PauliTerm.from_label(1.0, label) for label in ("XY", "ZI", "YY")]
        tables = sv.rotation_tables(2, terms)
        runs = [([0.1, 0.2, 0.3], 1), ([0.4, 0.5, 0.6], 3)]
        taken = self.loops_taken(monkeypatch, ("_evolve_batch", "_rotate", "_evolve_alone"))
        monkeypatch.setattr(sv, "BATCH_WEIGHTS", 24)
        batch = sv.evolve(random_state(2, 3), tables, runs)
        assert taken == ["_evolve_batch", "_rotate", "_rotate"]
        for budget in (12, 23):
            taken.clear()
            monkeypatch.setattr(sv, "BATCH_WEIGHTS", budget)
            chunks = sv.evolve(random_state(2, 3), tables, runs)
            assert taken == ["_evolve_batch", "_rotate"] * 2
            assert [s.amplitudes.tobytes() for s in chunks] == [
                s.amplitudes.tobytes() for s in batch
            ]
        taken.clear()
        monkeypatch.setattr(sv, "BATCH_WEIGHTS", 11)
        alone = sv.evolve(random_state(2, 3), tables, runs)
        assert taken == ["_evolve_alone", "_evolve_alone"]
        assert [s.amplitudes.tobytes() for s in alone] == [s.amplitudes.tobytes() for s in batch]

    def test_loops_agree_byte_for_byte(self, monkeypatch):
        # From a basis start at qpm 3, θ = −1.3 and one step, signing ψ
        # before the gather rather than after it writes −0 for +0: a loop
        # that did would differ from the other in bytes.
        compiled = compile_step(ExperimentConfig(qubits_per_mode=3))
        start = init_basis(6, compiled.labels[compiled.sector.start])
        runs = [(bind_angles(compiled.terms, -1.3, 1), 1)]
        batch = sv.evolve(start, compiled.tables, runs)[0]
        monkeypatch.setattr(sv, "BATCH_WEIGHTS", 0)
        alone = sv.evolve(start, compiled.tables, runs)[0]
        assert alone.amplitudes.tobytes() == batch.amplitudes.tobytes()

    @given(
        label=st.integers(1, 5).flatmap(lambda w: st.text("IXYZ", min_size=w, max_size=w)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_phase_and_sign_match_the_dense_matrix(self, label, seed):
        # i·Pψ with the sign (−1)^|x&z| in the phase and (−1)^|z&j| read at j.
        width = len(label)
        term = PauliTerm.from_label(1.0, label)
        tables = sv.rotation_tables(width, [term])
        psi = random_state(width, seed).amplitudes
        gather, sign = tables.gathers[tables.x_rows[0]], tables.signs[tables.z_rows[0]]
        fast = tables.phases[0] * sign * psi[gather]
        dense = 1j * (PauliOp([term], width=width).to_matrix() @ psi)
        np.testing.assert_array_equal(fast, dense)

    @staticmethod
    def assert_gathers_permute(tables):
        # The pass gathers with "clip", which would hide an index out of range.
        dim = 2 ** tables.n_qubits
        for gather in tables.gathers:
            assert np.array_equal(np.sort(gather), np.arange(dim))
        for rows in (1, 2, 7):
            for gather in sv._batch_gathers(tables, rows):
                for k in range(1, rows + 1):
                    assert np.array_equal(np.sort(gather[:k].ravel()), np.arange(k * dim))

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [1, 2, 3, 4])
    def test_compiled_gathers_are_permutations(self, qpm, reduced):
        compiled = compile_step(ExperimentConfig(qubits_per_mode=qpm, reduced=reduced))
        self.assert_gathers_permute(compiled.tables)

    @given(hermitian_runs())
    def test_gathers_are_permutations(self, run):
        inter, _, _, start = run
        terms = [term for term, _ in step_terms(inter)]
        self.assert_gathers_permute(sv.rotation_tables(start.n_qubits, terms))

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
            apply_circuit(s, circuit_of(4, (Gate("H", 0),)))
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


class TestSectorModel:
    THETAS = (math.pi / 4, 0.37, 1.3)

    @staticmethod
    def x_major(qpm):
        """The |1,1⟩ start and H's (term, coeff) pairs sorted by x mask, then z."""
        full = compile_step(ExperimentConfig(qubits_per_mode=qpm))
        start = init_basis(2 * qpm, full.labels[full.sector.start])
        return start, sorted(full.terms, key=lambda t: _action(t[0])[:2])

    @pytest.mark.parametrize("qpm", [2, 3, 4])
    def test_x_major_step_is_the_givens_product(self, qpm):
        # Each x group's exponential in turn, all steps of a θ in one call
        # (the batch loop at qpm 2–3, the 0-d loop at 4).
        start, ordered = self.x_major(qpm)
        tables = sv.rotation_tables(2 * qpm, [term for term, _ in ordered])
        for theta in self.THETAS:
            runs = [(bind_angles(ordered, theta, steps), steps) for steps in (1, 2, 4)]
            for (_, steps), out in zip(runs, sv.evolve(start, tables, runs)):
                model = givens_product(FockEncoding(qpm), (1, 1), theta, steps)
                assert np.max(np.abs(out.amplitudes - model)) <= 1e-12

    @pytest.mark.parametrize("qpm", [2, 3, 4])
    def test_reduced_lex_is_x_major_strang_on_the_sector(self, qpm):
        # On |1,1⟩ the reduced lex step at s steps is the x-major Strang
        # product at 2^(q−2)·s steps. The Strang run takes the batch loop at
        # qpm 2–3 and the 0-d loop at 4, the reduced run the batch loop.
        start, ordered = self.x_major(qpm)
        strang = sv.rotation_tables(2 * qpm, [term for term, _ in ordered + ordered[::-1]])
        reduced = compile_step(ExperimentConfig(qubits_per_mode=qpm, reduced=True))
        for theta in self.THETAS:
            for steps in (1, 2, 4):
                effective = 2 ** (qpm - 2) * steps
                halves = bind_angles(ordered, theta, 2 * effective)
                runs = [
                    (strang, halves + halves[::-1], effective),
                    (reduced.tables, bind_angles(reduced.terms, theta, steps), steps),
                ]
                model = givens_product(FockEncoding(qpm), (1, 1), theta, effective, strang=True)
                for tables, angles, repeat in runs:
                    out = sv.evolve(start, tables, [(angles, repeat)])[0].amplitudes
                    assert np.max(np.abs(out - model)) <= 1e-12
