import hashlib
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    apply_gate,
    hand_reduced_q2,
    layered_metrics,
    pauli_exp,
    phase_fidelity,
    reference_rotation_gates,
)
from homsim import circuit
from homsim.beamsplitter import Interaction, interaction, reduced_interaction
from homsim.circuit import (
    MAX_ROTATIONS,
    Circuit,
    Gate,
    StepProfile,
    bind_angles,
    export_qasm,
    metrics,
    rotation_circuit,
    step_terms,
    synthesize,
    trotter_circuit,
    trotter_sequence,
)
from homsim.gray import FockEncoding
from homsim.pauli import PauliOp, PauliTerm
from homsim.statevector import apply_circuit, circuit_unitary, evolve, init_basis, rotation_tables

ENC = FockEncoding(2)


class TestGateValidation:
    def test_cnot_needs_distinct_control(self):
        with pytest.raises(ValueError):
            Gate("CNOT", target=1, control=1)

    def test_rotation_needs_angle(self):
        with pytest.raises(ValueError):
            Gate("RX", target=0)

    def test_gate_outside_register(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate("H", 2),))

    @pytest.mark.parametrize(
        "gate",
        [
            Gate("H", -1),
            Gate("CNOT", target=0, control=2),
            Gate("CNOT", target=-1, control=0),
            Gate("CNOT", target=1, control=-1),
        ],
        ids=["negative-target", "control-too-high", "cnot-negative-target", "negative-control"],
    )
    def test_control_or_negative_qubit_outside_register(self, gate):
        with pytest.raises(ValueError, match="outside register of 2"):
            Circuit(2, (Gate("H", 0), gate))

    # Every width but the register's is refused, identity digits or not.
    @pytest.mark.parametrize("axes", ["ZIZ", "IZZ", "ZZI", "Z"])
    def test_term_wider_than_register_rejected(self, axes):
        sequence = [(PauliTerm.from_label(1.0, axes), 0.3)]
        with pytest.raises(ValueError, match="outside register of 2"):
            trotter_circuit(sequence, 2, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("X", 0)

    def test_gate_outside_register_in_repeated_step(self):
        with pytest.raises(ValueError, match="outside register of 2"):
            Circuit(2, (Gate("H", 0), Gate("CNOT", target=2, control=1)), 5)

    def test_repeat_below_one_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            Circuit(1, (Gate("H", 0),), 0)


OFF_WIDTH = [
    (n, axes)
    for n in (2, 3, 4)
    # Width n−1 and n+1, bare and padded with identity digits.
    for axes in ("Z" * (n - 1), "X" + "I" * (n - 2), "Z" * (n + 1), "Z" * n + "I", "I" + "Z" * n)
]


@pytest.mark.parametrize("n, axes", OFF_WIDTH, ids=[f"{n}-{a}" for n, a in OFF_WIDTH])
def test_emitter_and_rotation_pass_share_the_width_rule(n, axes):
    start = init_basis(n, "1" * n)
    off = PauliTerm.from_label(1.0, axes)
    with pytest.raises(ValueError, match=f"register of {n}"):
        trotter_circuit([(off, 0.3)], n, 1)
    with pytest.raises(ValueError, match=f"register of {n}"):
        rotation_tables(n, [off])
    fits = PauliTerm.from_label(1.0, "X" + "Z" * (n - 1))
    np.testing.assert_allclose(
        evolve(start, rotation_tables(n, [fits]), [([0.3], 1)])[0].amplitudes,
        apply_circuit(start, trotter_circuit([(fits, 0.3)], n, 1)).amplitudes,
        rtol=0, atol=1e-12,
    )


@st.composite
def gates(draw, n_qubits):
    kind = draw(st.sampled_from(["H", "RX", "RZ"] + (["CNOT"] if n_qubits > 1 else [])))
    target = draw(st.integers(0, n_qubits - 1))
    if kind == "CNOT":
        control = draw(st.integers(0, n_qubits - 1).filter(lambda q: q != target))
        return Gate("CNOT", target=target, control=control)
    if kind in ("RX", "RZ"):
        return Gate(kind, target, angle=draw(st.floats(-math.pi, math.pi)))
    return Gate(kind, target)


@st.composite
def repeated_circuits(draw, max_qubits=6, max_gates=30, max_repeat=70):
    """1-6 qubits, a step of 0-30 gates, 1-70 repeats."""
    n = draw(st.integers(1, max_qubits))
    step = draw(st.lists(gates(n), max_size=max_gates))
    return Circuit(n, tuple(step), draw(st.integers(1, max_repeat)))


class TestRepeatedCircuit:
    def test_gates_write_out_every_repeat(self):
        step = (Gate("H", 0), Gate("CNOT", target=1, control=0))
        assert Circuit(2, step, 3).gates == step * 3

    def test_equal_when_the_fields_are(self):
        h = Gate("H", 0)
        assert Circuit(1, (h, h), 2) == Circuit(1, (Gate("H", 0),) * 2, 2)
        assert hash(Circuit(1, (h, h), 2)) == hash(Circuit(1, (Gate("H", 0),) * 2, 2))
        assert Circuit(1, (h, h)) != Circuit(1, (h,), 2)
        assert Circuit(1, (), 4) != Circuit(1, ())
        assert Circuit(1, (h,), 2) != Circuit(1, (h,), 3)
        assert Circuit(1, (h,)) != Circuit(2, (h,))

    @settings(deadline=None)
    @given(repeated_circuits())
    def test_metrics_match_gate_by_gate_layering(self, c):
        assert metrics(c) == layered_metrics(Circuit(c.n_qubits, c.gates))

    @pytest.mark.parametrize("qpm", [1, 2, 3])
    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 64])
    def test_synthesized_metrics_match_gate_by_gate_layering(self, qpm, reduced, steps):
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        c = synthesize(inter, 0.7, steps)
        assert c.repeat == steps
        assert metrics(c) == layered_metrics(Circuit(c.n_qubits, c.gates))

    @settings(deadline=None, max_examples=25)
    @given(repeated_circuits(max_qubits=4, max_gates=12, max_repeat=8))
    def test_gate_path_matches_written_out_gates(self, c):
        start = init_basis(c.n_qubits, "1" * c.n_qubits)
        fast = apply_circuit(start, c).amplitudes
        slow = reduce(apply_gate, c.gates, start).amplitudes
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)

    def test_qasm_repeats_the_step_text(self):
        step = (Gate("RX", 1, angle=0.25), Gate("CNOT", target=0, control=1))
        text = export_qasm(Circuit(2, step, 4))
        assert text == export_qasm(Circuit(2, step * 4))


class TestTrotterSequence:
    def test_single_term(self):
        h = Interaction(op=PauliOp.from_label("XX", 0.7))
        seq = trotter_sequence(h, theta=0.5, steps=1)
        assert seq == [(PauliTerm.from_label(0.7 + 0j, "XX"), 0.5 * 0.7)]

    @pytest.mark.parametrize("steps", [2, 5, 64])
    def test_one_step_whose_angles_scale_as_one_over_steps(self, steps):
        inter = interaction(ENC)
        one = trotter_sequence(inter, 1.0, 1)
        step = trotter_sequence(inter, 1.0, steps)
        assert [t for t, _ in step] == [t for t, _ in one]
        assert [a for _, a in step] == [t.coeff.real / steps for t, _ in one]

    @pytest.mark.parametrize("theta, steps", [(0.7, 1), (math.pi / 4, 3), (-1.4, 64)])
    def test_angles_bind_the_theta_free_step(self, theta, steps):
        inter = interaction(FockEncoding(3))
        free = step_terms(inter)
        assert [(t, c) for t, c in free] == [(t, t.coeff.real) for t in inter.op.terms]
        assert trotter_sequence(inter, theta, steps) == [
            (t, a) for (t, _), a in zip(free, bind_angles(free, theta, steps))
        ]

    @pytest.mark.parametrize("qpm", [3, 4])
    def test_overflowing_angle_names_theta_and_steps(self, qpm):
        # θ = 8e307 keeps the exact phases finite, not 2·θ·coeff at these widths.
        inter = interaction(FockEncoding(qpm))
        with pytest.raises(ValueError, match=r"^theta = 8e\+307, steps = 1: "):
            trotter_sequence(inter, 8e307, 1)
        with pytest.raises(ValueError, match=r"^theta = 8e\+307, steps = 1: "):
            synthesize(inter, 8e307, 1)

    def test_rotations_capped(self):
        step = [(PauliTerm.from_label(1.0, "XY"), 0.5)]
        assert len(bind_angles(step, 0.3, MAX_ROTATIONS)) == 1
        refused = rf"^steps = {MAX_ROTATIONS + 1} times 1 terms is more than {MAX_ROTATIONS} rotations$"
        with pytest.raises(ValueError, match=refused):
            bind_angles(step, 0.3, MAX_ROTATIONS + 1)

    @pytest.mark.parametrize("qpm, most_steps", [(2, 8192), (5, 20), (6, 3)])
    def test_most_steps_per_width(self, qpm, most_steps):
        step = step_terms(interaction(FockEncoding(qpm)))
        assert len(bind_angles(step, 0.3, most_steps)) == len(step)
        with pytest.raises(ValueError, match=rf"^steps = {most_steps + 1} times {len(step)} terms"):
            bind_angles(step, 0.3, most_steps + 1)

    def test_angle_check_fails_on_nan(self):
        step = [(PauliTerm.from_label(1.0, "XY"), 0.5)]
        with pytest.raises(ValueError, match="theta = nan"):
            bind_angles(step, math.nan, 1)

    def test_identity_terms_skipped(self):
        h = Interaction(op=PauliOp.from_label("II", 2.0) + PauliOp.from_label("ZZ", 1.0))
        seq = trotter_sequence(h, 1.0, 1)
        assert [t.axes for t, _ in seq] == ["ZZ"]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            h = Interaction(op=PauliOp.from_label("XY", 1j))
            trotter_sequence(h, 1.0, 1)

    def test_per_term_exponentials_converge(self):
        inter = interaction(ENC)
        theta = math.pi / 4
        from homsim.beamsplitter import exact_unitary

        exact = exact_unitary(theta, inter)
        errors = {}
        for steps in (4, 8):
            u_step = np.eye(16, dtype=complex)
            for term, angle in trotter_sequence(inter, theta, steps):
                u_step = pauli_exp(term.axes, -angle) @ u_step
            u = np.linalg.matrix_power(u_step, steps)
            errors[steps] = np.max(np.abs(u - exact))
        assert 0.3 < errors[8] / errors[4] < 0.7


def assert_reference_gates(axes: str, alpha: float) -> None:
    """``rotation_circuit`` equals the text-read reference, gate for gate."""
    c = rotation_circuit(axes, alpha)
    assert c.n_qubits == len(axes) and c.repeat == 1
    fields = [(g.kind, g.target, g.control, g.angle) for g in c.step]
    want = [(g.kind, g.target, g.control, g.angle) for g in reference_rotation_gates(axes, alpha)]
    assert fields == want, axes


class TestRotationCircuit:
    def test_single_x_is_one_rx(self):
        c = rotation_circuit("X", 0.3)
        assert c.gates == (Gate("RX", 0, angle=0.6),)

    def test_xy_structure(self):
        c = rotation_circuit("XY", 0.25)
        assert c.gates == (
            Gate("H", 0),
            Gate("RX", 1, angle=math.pi / 2),
            Gate("CNOT", target=1, control=0),
            Gate("RZ", 1, angle=0.5),
            Gate("CNOT", target=1, control=0),
            Gate("RX", 1, angle=-math.pi / 2),
            Gate("H", 0),
        )

    def test_identity_qubits_skipped_in_ladder(self):
        c = rotation_circuit("XIZY", 0.1)
        cnots = [(g.control, g.target) for g in c.gates if g.kind == "CNOT"]
        assert cnots == [(0, 2), (2, 3), (2, 3), (0, 2)]
        assert not any(1 in (g.control, g.target) for g in c.gates)

    def test_all_identity_rejected(self):
        with pytest.raises(ValueError):
            rotation_circuit("III", 0.1)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_every_string_matches_the_reference(self, width):
        with pytest.raises(ValueError, match="all-identity"):
            rotation_circuit("I" * width, 0.3)
        lone_x = 0
        for code in range(1, 4 ** width):
            axes = PauliTerm(1.0, code, width).axes
            assert_reference_gates(axes, 0.3)
            if axes.count("I") == width - 1 and "X" in axes:
                assert [g.kind for g in rotation_circuit(axes, 0.3).step] == ["RX"]
                lone_x += 1
        assert lone_x == width

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(alphabet="IXYZ", min_size=1, max_size=14),
        st.floats(-10, 10, allow_nan=False),
    )
    def test_drawn_strings_match_the_reference(self, axes, alpha):
        if set(axes) == {"I"}:
            for build in (rotation_circuit, reference_rotation_gates):
                with pytest.raises(ValueError, match="all-identity"):
                    build(axes, alpha)
        else:
            assert_reference_gates(axes, alpha)

    def test_random_strings_match_exponential_oracle(self, rng):
        for _ in range(50):
            width = rng.integers(1, 5)
            axes = "".join(rng.choice(list("IXYZ"), size=width))
            if set(axes) == {"I"}:
                continue
            alpha = rng.uniform(-math.pi, math.pi)
            u = circuit_unitary(rotation_circuit(axes, alpha))
            assert phase_fidelity(u, pauli_exp(axes, alpha)) >= 1 - 1e-10


class TestSynthesize:
    def test_theta_zero_gives_identity(self):
        u = circuit_unitary(synthesize(interaction(ENC), 0.0, 1))
        assert phase_fidelity(u, np.eye(16)) >= 1 - 1e-10

    def test_single_step_matches_per_term_product(self):
        theta = math.pi / 4
        inter = interaction(ENC)
        u_circ = circuit_unitary(synthesize(inter, theta, 1))
        u_ref = np.eye(16, dtype=complex)
        for term, angle in trotter_sequence(inter, theta, 1):
            u_ref = pauli_exp(term.axes, -angle) @ u_ref
        assert phase_fidelity(u_circ, u_ref) >= 1 - 1e-10

    def test_fidelity_monotone_on_doubling_ladder(self):
        from homsim.beamsplitter import exact_unitary

        theta = math.pi / 4
        inter = interaction(ENC)
        exact = exact_unitary(theta, inter)
        fids = [
            phase_fidelity(circuit_unitary(synthesize(inter, theta, n)), exact)
            for n in (1, 2, 4, 8, 16)
        ]
        assert fids == sorted(fids)

    def test_deterministic(self):
        a = synthesize(interaction(ENC), 0.7, 3)
        b = synthesize(interaction(ENC), 0.7, 3)
        assert a == b

    def test_zero_steps_rejected_by_the_circuit(self):
        step = trotter_sequence(interaction(ENC), 0.7, 3)
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            trotter_circuit(step, 4, 0)


class TestSharedGates:
    @pytest.mark.parametrize("qpm", [1, 2, 3])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_step_equals_the_rotation_circuits(self, qpm, reduced):
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        sequence = trotter_sequence(inter, 0.7, 1)
        unshared = tuple(
            g for term, angle in sequence for g in reference_rotation_gates(term.axes, -angle)
        )
        assert synthesize(inter, 0.7, 1).step == unshared

    @pytest.mark.parametrize("qpm", [3, 4, 5])
    def test_one_object_per_distinct_gate(self, qpm):
        # Gates that print alike are one object, the per-term RZ and lone-X RX
        # included; repr keeps RZ(0) and RZ(-0) apart, as the QASM text does.
        c = synthesize(interaction(FockEncoding(qpm)), 0.7, 1)
        distinct = {(g.kind, g.target, g.control, repr(g.angle)) for g in c.step}
        assert len({id(g) for g in c.step}) == len(distinct)

    @pytest.mark.parametrize("qpm", [2, 3])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_masks_read_once_per_term(self, xz_reads, qpm, reduced):
        # The emitter takes X, Y and active qubits from xz, decoding nothing itself.
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        step = trotter_sequence(inter, 0.7, 1)
        xz_reads.clear()
        trotter_circuit(step, 2 * qpm, 1)
        assert xz_reads == [term for term, _ in step]

    def test_five_qubits_per_mode_step_has_fewer_gates_than_terms(self):
        # 12,875 distinct gate objects with a fresh RZ/RX per term, 1,933 shared.
        inter = interaction(FockEncoding(5))
        c = synthesize(inter, 0.7, 1)
        assert len({id(g) for g in c.step}) < len(inter.op) == 12_800

    @pytest.mark.parametrize(
        "reduced, qpm, theta, digest",
        [
            (False, 2, 0.0, "73ba3696621be1d05beeb9156712c88c4936d5637496f2d6d835c7cf5c9f43e9"),
            (False, 2, -0.0, "79dd7ecc00ffdb1e8d8f4b4b0f7bc78f6a645400959878b71dfedfcb6f9581ad"),
            (False, 3, 0.0, "3c326bdc112992b996c287706425bb2d6d3706abaf9c7dad2acdecfd885713d2"),
            (False, 3, -0.0, "c5256b10dd0d2d2ba510cf204e99cb72778f6b560091a061622aabd1d6d5a6d5"),
            (True, 2, 0.0, "cdaf41ed1bb5203f3d32df684f3d8fb234136f365056267ef5a8a51f6fd4aaaf"),
            (True, 2, -0.0, "7e5b31273e65724c0679336dfe59b0731b7cc4753e89022616e937a2d6ec55b3"),
            (True, 3, 0.0, "af8980ef24292cb8418eedb9a53b986ead9a8ef7e8d31c755b4e628415c9f973"),
            (True, 3, -0.0, "80de90a059e22b833a0e10e01005402b4f220f8ebc8351dd0910defe3fb3765a"),
        ],
    )
    def test_signed_zero_qasm_unchanged(self, reduced, qpm, theta, digest):
        # θ = ±0 gives angles 0.0 and −0.0, printed rz(0) and rz(-0); digests
        # of the 3-step QASM emitted while each term built a fresh RZ/RX.
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        text = export_qasm(synthesize(inter, theta, 3))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_synthesis_memory(self):
        # tracemalloc peak of a 1-step qpm=4 synthesize (26,624 gates): 2.39 MB
        # with a fresh Gate per slot, 0.97 MB with a fresh RZ/RX per term and
        # the rest shared, 0.77–0.81 MB with every gate shared (Python 3.11).
        inter = interaction(FockEncoding(4))
        tracemalloc.start()
        try:
            synthesize(inter, math.pi / 4, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000

    def test_five_qubits_per_mode_metrics(self):
        m = metrics(synthesize(interaction(FockEncoding(5)), math.pi / 4, 1))
        assert (m["cx_count"], m["depth"], m["total_gates"]) == (128_000, 159_007, 192_000)


class TestMetrics:
    def test_single_gate(self):
        m = metrics(Circuit(1, (Gate("H", 0),)))
        assert m["depth"] == 1 and m["cx_count"] == 0

    def test_xy_rotation_has_two_cnots(self):
        assert metrics(rotation_circuit("XY", 0.3))["cx_count"] == 2

    def test_depth_lower_bound(self):
        c = synthesize(interaction(ENC), math.pi / 4, 1)
        m = metrics(c)
        assert m["depth"] >= math.ceil(m["total_gates"] / c.n_qubits)

    def test_full_hom_circuit_scale(self):
        m = metrics(synthesize(interaction(ENC), math.pi / 4, 1))
        assert 32 <= m["cx_count"] <= 512
        assert 60 <= m["depth"] <= 400

    def test_reduced_smaller_than_full(self):
        full = metrics(synthesize(interaction(ENC), math.pi / 4, 1))
        red = metrics(synthesize(reduced_interaction(ENC, 2), math.pi / 4, 1))
        assert red["cx_count"] < full["cx_count"]

    @pytest.mark.parametrize("qpm", [3, 4])
    def test_reduced_smaller_than_full_at_wider_modes(self, qpm):
        enc = FockEncoding(qpm)
        full = metrics(synthesize(interaction(enc), 0.7, 1))
        red = metrics(synthesize(reduced_interaction(enc, 2), 0.7, 1))
        assert red["cx_count"] < full["cx_count"]

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [1, 2, 3, 4])
    def test_step_profile_matches_the_walks(self, qpm, reduced):
        # One profile for every repeat: up to n it walks the step, past n it
        # composes the delay rows it built at n + 1; a second pass reads the
        # depths it kept.
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        n = 2 * qpm
        step = trotter_circuit(trotter_sequence(inter, 0.7, 1), n, 1).step
        profile = StepProfile(n, step)
        repeats = range(1, 2 * n + 2)
        want = [layered_metrics(Circuit(n, step * r)) for r in repeats]
        for _ in range(2):
            assert [profile.metrics(r) for r in repeats] == want

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [2, 3])
    def test_step_profile_resumes_from_the_deepest_composed_repeat(
        self, monkeypatch, qpm, reduced
    ):
        # Out of order and past n: each depth is a fresh profile's and the
        # plain walk's, whichever kept repeat it resumed from. The second
        # order walks first; its 3 resumes from the walked 2.
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        n = 2 * qpm
        step = trotter_circuit(trotter_sequence(inter, 0.7, 1), n, 1).step
        busy, walked = [0] * n, {}
        for r in range(1, 101):
            walked[r] = max(circuit._layer(step, busy))
        # Walks past building the n-walk delay rows: 64, 8, 100, 17 and 16
        # compose, 3 walks three steps; 1, 2, 4 and 3 walk 1 + 1 + 2 + 1.
        for repeats, walks in [([64, 8, 100, 3, 17, 16], 3), ([1, 2, 4, 8, 3], 5)]:
            fresh = [StepProfile(n, step).metrics(r) for r in repeats]
            calls, layers = [], []
            delays, layer = circuit._delays, circuit._layer
            monkeypatch.setattr(circuit, "_delays", lambda *a: calls.append(1) or delays(*a))
            monkeypatch.setattr(circuit, "_layer", lambda *a: layers.append(1) or layer(*a))
            profile = StepProfile(n, step)
            got = [profile.metrics(r) for r in repeats]
            monkeypatch.undo()
            assert got == fresh
            assert [m["depth"] for m in fresh] == [walked[r] for r in repeats]
            assert len(calls) == 1
            assert len(layers) == n + walks
            # The written-out oracle, where it is cheap.
            for r, m in zip(repeats, got):
                assert r > 8 or m == layered_metrics(Circuit(n, step * r))

    def test_step_profile_refuses_repeat_below_one(self):
        profile = StepProfile(2, rotation_circuit("XY", 0.3).step)
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            profile.metrics(0)

    def test_reduced_at_capacity_one_is_empty(self):
        # |1,1> has no partner in the 2-photon sector when a mode holds one photon.
        c = synthesize(reduced_interaction(FockEncoding(1), 2), 0.7, 3)
        assert c == Circuit(2, (), 3)


class TestQasmExport:
    def test_single_h(self):
        text = export_qasm(Circuit(1, (Gate("H", 0),)))
        assert text.count("h q[0];") == 1

    def test_empty_circuit_is_header_only(self):
        text = export_qasm(Circuit(3, ()))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'

    def test_line_count_matches_gate_count(self):
        c = synthesize(interaction(ENC), math.pi / 4, 1)
        text = export_qasm(c)
        assert len(text.splitlines()) == len(c.gates) + 3

    def test_byte_identical_across_runs(self):
        a = export_qasm(synthesize(interaction(ENC), 0.37, 2))
        b = export_qasm(synthesize(interaction(ENC), 0.37, 2))
        assert a == b

    def test_reduced_two_qubit_qasm_unchanged(self):
        # Digest of the 1-step π/4 QASM the hand-written operator has always emitted.
        text = export_qasm(synthesize(reduced_interaction(ENC, 2), math.pi / 4, 1))
        hand = Interaction(op=hand_reduced_q2())
        assert text == export_qasm(synthesize(hand, math.pi / 4, 1))
        assert text.count("\ncx ") == 64
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "69f73e4899b5d797b30300debd6c1aaffd6d50d73268a1e197d635f4db9dc747"
        )

    @pytest.mark.parametrize(
        "qpm, digest",
        [
            (2, "7071851c01ca66f86b4c6334d278df52bdbedf4089ed6fe0a3dcb45fec9cf936"),
            (3, "5a48ed5f20a5599cf80dcd68180c7f76a2ff3f8d3664f132657c348b089ecc42"),
            (4, "ba8e5bb994651678445ff1e20d68f0c275e1767af660fb3694c108e9c3d6ee36"),
            (5, "43ff4584a671d85e90d39ca14a54c971affb4946ffeb7f38f5fe65876f6bf85f"),
        ],
    )
    def test_full_qasm_unchanged(self, qpm, digest):
        # Digests of the 1-step π/4 QASM emitted before Pauli strings became codes
        # (qpm 2–4) and while each term's gates were read from its axes text (qpm=5).
        inter = interaction(FockEncoding(qpm))
        text = export_qasm(synthesize(inter, math.pi / 4, 1))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "qpm, digest",
        [
            (3, "a38f104792969df27880721ffa62b427d80766a64a90d07a5a24b9550c3ee663"),
            (4, "f9bf3702fd62b758573ae08694e193cc52f98c542d35f9e15e8db7d1847a6df4"),
            (5, "881d75576062e1bbd652073e31d187afbfb6d2d603f5762bdbaac7a6f358f4ab"),
        ],
    )
    def test_reduced_qasm_unchanged(self, qpm, digest):
        # Digests of the 1-step π/4 QASM emitted while each term's gates were
        # read from its axes text.
        inter = reduced_interaction(FockEncoding(qpm), 2)
        text = export_qasm(synthesize(inter, math.pi / 4, 1))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "reduced, qpm, steps, digest",
        [
            (False, 2, 8, "e563d7bad8a2475fa9d2c74fabc8540e21a146bef6c50a49769a7abbba2717bb"),
            (False, 3, 4, "a985e8e3d821bafdd76b6a6b8c6cc59db97c2aafab4e7ec8a4a3f54d00b2ff61"),
            (True, 2, 8, "8a12bddc0c4d55a30084b003a3ad20e366394d3a1f65d9d345967fd6d4c59028"),
        ],
    )
    def test_multi_step_qasm_unchanged(self, reduced, qpm, steps, digest):
        # Digests of the π/4 QASM emitted while every step was synthesized anew.
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        one_step = len(synthesize(inter, math.pi / 4, 1).gates)
        text = export_qasm(synthesize(inter, math.pi / 4, steps))
        body = text.splitlines()[3:]
        assert body == body[:one_step] * steps
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_angle_formatting(self):
        text = export_qasm(Circuit(1, (Gate("RZ", 0, angle=math.pi),)))
        assert "rz(3.14159265358979) q[0];" in text
