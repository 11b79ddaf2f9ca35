import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    dense_beamsplitter,
    exact_terms,
    hand_reduced_q2,
    number_op,
    rebuilt_sector_evolution,
    sector_projector,
    two_mode_index,
)
from homsim import beamsplitter
from homsim.beamsplitter import (
    Interaction,
    exact_unitary,
    fock_sector,
    interaction,
    reduced_interaction,
)
from homsim.gray import FockEncoding, creation_op, gray_bits
from homsim.pauli import PauliOp, PauliTerm
from homsim.statevector import apply_dense, init_basis

ENC = FockEncoding(2)


def all_pairs_interaction(enc: FockEncoding) -> PauliOp:
    """H = T + T† summed over every pair of b† terms, the cancelling ones included."""
    b_dag, width = creation_op(enc).terms, 2 * enc.qubits_per_mode
    return PauliOp(
        [
            PauliTerm(x + x.conjugate(), p.code << width | r.code, width)
            for p in b_dag
            for r in b_dag
            for x in [p.coeff * r.coeff.conjugate()]
        ],
        width=width,
    )


def encoded_two_mode_state(n_b, n_a, enc=ENC):
    vec = np.zeros(4 ** enc.qubits_per_mode, dtype=complex)
    vec[two_mode_index(enc, n_b, n_a)] = 1.0
    return vec


class TestInteraction:
    def test_hermitian(self):
        assert interaction(ENC).op.is_hermitian()

    def test_hopping_action_on_one_one(self):
        h = interaction(ENC).op.to_matrix()
        out = h @ encoded_two_mode_state(1, 1)
        expected = math.sqrt(2) * (
            encoded_two_mode_state(0, 2) + encoded_two_mode_state(2, 0)
        )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_commutes_with_total_photon_number(self):
        h = interaction(ENC).op.to_matrix()
        n_mode = number_op(ENC)
        ident = PauliOp.from_label("II")
        n_total = (n_mode.tensor(ident) + ident.tensor(n_mode)).to_matrix()
        np.testing.assert_allclose(h @ n_total - n_total @ h, 0, atol=1e-12)

    def test_summed_without_operator_algebra(self, monkeypatch, count_calls):
        # H = T + T† is summed in one pass over pairs of b† terms: no tensor
        # product, adjoint or sum (25,600-term T and T† at 5 qubits per mode).
        # b† is built beforehand, so only the work of interaction is counted.
        enc = FockEncoding(3)
        b_dag = creation_op(enc)
        monkeypatch.setattr(beamsplitter, "creation_op", lambda _: b_dag)
        calls = count_calls(*[(PauliOp, name) for name in ("tensor", "adjoint", "__add__")])
        assert len(interaction(enc).op) > 0
        assert calls == {"tensor": 0, "adjoint": 0, "__add__": 0}

    @pytest.mark.parametrize("qpm", [1, 2, 3, 5])
    def test_y_parity_read_once_per_creation_term(self, monkeypatch, xz_reads, qpm):
        # Each b† term's Y count comes from its xz masks, read once and in order.
        enc = FockEncoding(qpm)
        b_dag = creation_op(enc)
        monkeypatch.setattr(beamsplitter, "creation_op", lambda _: b_dag)
        xz_reads.clear()
        interaction(enc)
        assert xz_reads == list(b_dag.terms)

    @pytest.mark.parametrize("qpm", range(1, 7))
    def test_equals_the_sum_over_every_pair(self, qpm):
        enc = FockEncoding(qpm)
        assert exact_terms(interaction(enc).op) == exact_terms(all_pairs_interaction(enc))

    def test_build_memory(self):
        # tracemalloc peak of the qpm=5 build (12,800 terms): 5.8 MB with every
        # pair of b† terms in the dict, 3.5 MB with the cancelling half skipped.
        enc = FockEncoding(5)
        tracemalloc.start()
        try:
            interaction(enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_600_000

    def test_non_hermitian_refused_at_construction(self):
        with pytest.raises(ValueError, match="interaction must be Hermitian"):
            Interaction(op=PauliOp.from_label("XY", 1j))


class TestReducedInteraction:
    def test_hermitian(self):
        assert reduced_interaction(ENC, 2).op.is_hermitian()

    def test_fewer_terms_than_full(self):
        assert len(reduced_interaction(ENC, 2).op) < len(interaction(ENC).op)

    def test_equals_hand_written_two_qubit_operator(self):
        assert reduced_interaction(ENC, 2).op == hand_reduced_q2()

    @pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.0])
    def test_agrees_with_full_on_one_photon_input(self, theta):
        start = encoded_two_mode_state(1, 1)
        full = exact_unitary(theta, interaction(ENC)) @ start
        reduced = exact_unitary(theta, reduced_interaction(ENC, 2)) @ start
        assert abs(np.vdot(full, reduced)) ** 2 >= 1 - 1e-9

    @pytest.mark.parametrize("qpm", [1, 2, 3, 4])
    @pytest.mark.parametrize("photons", [0, 1, 2, 3])
    def test_is_full_hamiltonian_projected_onto_sector(self, qpm, photons):
        enc = FockEncoding(qpm)
        p = sector_projector(enc, photons)
        expected = p @ dense_beamsplitter(enc) @ p
        got = reduced_interaction(enc, photons).op.to_matrix()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("qpm", [1, 2, 3, 4])
    def test_one_one_dynamics_match_full_hamiltonian(self, qpm):
        enc = FockEncoding(qpm)
        w, v = np.linalg.eigh(dense_beamsplitter(enc))
        start = encoded_two_mode_state(1, 1, enc)
        for theta in (0.3, math.pi / 4, 1.1):
            full = (v * np.exp(1j * theta * w)) @ v.conj().T @ start
            reduced = exact_unitary(theta, reduced_interaction(enc, 2)) @ start
            np.testing.assert_allclose(reduced, full, atol=1e-9)

class TestExactUnitary:
    def test_theta_zero_is_identity(self):
        np.testing.assert_allclose(
            exact_unitary(0.0, interaction(ENC)), np.eye(16), atol=1e-12
        )

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 2.0])
    def test_unitarity(self, theta):
        u = exact_unitary(theta, interaction(ENC))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(16), atol=1e-12)

    def test_balanced_splitter_pairs_the_photons(self):
        u = exact_unitary(math.pi / 4, interaction(ENC))
        out = u @ encoded_two_mode_state(1, 1)
        assert abs(out[int("0101", 2)]) <= 1e-12
        assert abs(out[int("0011", 2)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(out[int("1100", 2)]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        # exp(+iθ(b†a+ba†)) produces the symmetric pair i(|0,2>+|2,0>)/√2;
        # conventions with mixed-sign mode relations give the antisymmetric
        # combination instead, but the measured probabilities are identical
        ratio = out[int("0011", 2)] / out[int("1100", 2)]
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_photon_number_conserved(self):
        n_mode = number_op(ENC)
        ident = PauliOp.from_label("II")
        n_total = (n_mode.tensor(ident) + ident.tensor(n_mode)).to_matrix()
        for theta in [0.2, 0.9, 2.5]:
            u = exact_unitary(theta, interaction(ENC))
            for n_b, n_a in [(0, 0), (1, 1), (2, 1), (3, 3)]:
                psi = u @ encoded_two_mode_state(n_b, n_a)
                assert np.vdot(psi, n_total @ psi).real == pytest.approx(
                    n_b + n_a, abs=1e-9
                )

    def test_coincidence_curve_is_cos_squared(self):
        start = encoded_two_mode_state(1, 1)
        for theta in np.linspace(0, math.pi / 2, 9):
            out = exact_unitary(theta, interaction(ENC)) @ start
            p = abs(out[int("0101", 2)]) ** 2
            assert p == pytest.approx(math.cos(2 * theta) ** 2, abs=1e-9)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            bad = Interaction(op=PauliOp.from_label("XY", 1j))
            exact_unitary(1.0, bad)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(ValueError):
            exact_unitary(math.inf, interaction(ENC))


@st.composite
def fock_runs(draw):
    """qpm 1-4, any representable (n_B, n_A), θ in [-π, π]."""
    qpm = draw(st.integers(1, 4))
    capacity = FockEncoding(qpm).capacity
    fock = (draw(st.integers(0, capacity)), draw(st.integers(0, capacity)))
    return qpm, fock, draw(st.floats(-math.pi, math.pi))


class TestSectorEvolution:
    @settings(deadline=None)
    @given(fock_runs())
    # Sectors cut at capacity 3: N = 4, 5, 6 keep k = 1..3, k = 2..3 and k = 3 only.
    @example((2, (3, 1), 0.7))
    @example((2, (3, 2), -2.0))
    @example((2, (3, 3), 1.1))
    def test_matches_dense_oracle(self, run):
        qpm, fock, theta = run
        enc = FockEncoding(qpm)
        start = init_basis(2 * qpm, "".join(gray_bits(enc, n) for n in fock))
        dense = apply_dense(start, exact_unitary(theta, interaction(enc)))
        got = fock_sector(enc, fock).amplitudes(theta)
        np.testing.assert_allclose(got, dense.amplitudes, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(-math.pi, math.pi) | st.floats(-1e300, 1e300))
    def test_bound_sector_is_the_rebuilt_evolution_bit_for_bit(self, theta):
        # Every Fock input at qpm 1-4: one compiled sector, bound at θ.
        for qpm in range(1, 5):
            enc = FockEncoding(qpm)
            for fock in np.ndindex(enc.capacity + 1, enc.capacity + 1):
                got = fock_sector(enc, fock).amplitudes(theta)
                assert got.tobytes() == rebuilt_sector_evolution(enc, fock, theta).tobytes()

    def test_start_is_the_input_row(self):
        for qpm in range(1, 5):
            enc = FockEncoding(qpm)
            for fock in np.ndindex(enc.capacity + 1, enc.capacity + 1):
                sector = fock_sector(enc, fock)
                assert sector.start == two_mode_index(enc, *fock)
                assert sector.start in sector.rows

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, 1e308])
    def test_bind_refuses_non_finite_phases(self, theta, recwarn):
        sector = fock_sector(ENC, (1, 1))
        with pytest.raises(ValueError, match=r"the phases exp\(i·theta·w\) are not finite"):
            sector.amplitudes(theta)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_two_two_balanced_splitter_closed_form(self):
        enc = FockEncoding(3)
        out = fock_sector(enc, (2, 2)).amplitudes(math.pi / 4)
        p = [abs(out[two_mode_index(enc, k, 4 - k)]) ** 2 for k in range(5)]
        np.testing.assert_allclose(p, [3 / 8, 0, 1 / 4, 0, 3 / 8], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_odd_outputs_vanish_for_equal_inputs(self, n):
        enc = FockEncoding(3)
        out = fock_sector(enc, (n, n)).amplitudes(math.pi / 4)
        for k in range(1, 2 * n, 2):
            assert abs(out[two_mode_index(enc, k, 2 * n - k)]) <= 1e-12

    @pytest.mark.parametrize("qpm", [1, 2, 3])
    @pytest.mark.parametrize("fock", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_exactly_zero_outside_the_sector(self, qpm, fock):
        enc = FockEncoding(qpm)
        out = fock_sector(enc, fock).amplitudes(1.3)
        inside = np.diag(sector_projector(enc, sum(fock))) == 1
        assert np.all(out[~inside] == 0)
        assert np.sum(np.abs(out[inside]) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("fock", [(4, 0), (0, -1)])
    def test_unrepresentable_input_rejected(self, fock):
        with pytest.raises(ValueError, match="outside"):
            fock_sector(ENC, fock).amplitudes(0.5)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(ValueError):
            fock_sector(ENC, (1, 1)).amplitudes(math.nan)

    # |1,1> has phases θ·w with w = ±2, 0; the vacuum's only w is 0.
    @pytest.mark.parametrize(
        "fock, theta",
        [((1, 1), 1e308), ((1, 1), -1e308)]
        + [(f, t) for f in [(1, 1), (0, 0)] for t in (math.inf, -math.inf, math.nan)],
    )
    def test_theta_with_non_finite_phases_rejected(self, fock, theta, recwarn):
        with pytest.raises(ValueError, match="theta"):
            fock_sector(ENC, fock).amplitudes(theta)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "fock, theta", [((1, 1), 8e307), ((1, 1), -8e307), ((1, 1), 1e300), ((0, 0), 1e308)]
    )
    def test_huge_theta_with_finite_phases_evolves(self, fock, theta):
        out = fock_sector(ENC, fock).amplitudes(theta)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)
