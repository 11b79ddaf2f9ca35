import math

import numpy as np
import pytest

from conftest import number_op
from homsim.gray import (
    FockEncoding,
    annihilation_op,
    basis_index,
    creation_op,
    gray_bits,
    hop_term,
    ladder,
    projector,
)
from homsim.pauli import PauliOp


def fock_permuted(op, encoding):
    """Dense matrix reindexed so row/column k corresponds to Fock state |k>."""
    perm = [basis_index(encoding, n) for n in range(encoding.capacity + 1)]
    return op.to_matrix()[np.ix_(perm, perm)]


class TestGrayBits:
    def test_two_qubit_table(self):
        enc = FockEncoding(2)
        assert [gray_bits(enc, n) for n in range(4)] == ["00", "01", "11", "10"]

    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_zero_maps_to_all_zeros(self, nq):
        assert gray_bits(FockEncoding(nq), 0) == "0" * nq

    def test_three_qubit_value(self):
        assert gray_bits(FockEncoding(3), 4) == "110"

    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_hamming_distance_one_chain(self, nq):
        enc = FockEncoding(nq)
        for n in range(1, enc.capacity + 1):
            prev, cur = gray_bits(enc, n - 1), gray_bits(enc, n)
            assert sum(a != b for a, b in zip(prev, cur)) == 1

    @pytest.mark.parametrize("nq", [1, 2, 3, 4])
    def test_encoding_is_injective(self, nq):
        enc = FockEncoding(nq)
        codes = {gray_bits(enc, n) for n in range(enc.capacity + 1)}
        assert len(codes) == enc.capacity + 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gray_bits(FockEncoding(2), 4)
        with pytest.raises(ValueError):
            gray_bits(FockEncoding(2), -1)

    def test_capacity_follows_width(self):
        assert FockEncoding(3).capacity == 7


class TestProjectorLadder:
    def test_projector_matrices(self):
        np.testing.assert_allclose(projector(0).to_matrix(), np.diag([1, 0]))
        np.testing.assert_allclose(projector(1).to_matrix(), np.diag([0, 1]))

    def test_ladder_one_raises(self):
        np.testing.assert_allclose(
            ladder(1).to_matrix(), np.array([[0, 0], [1, 0]])
        )

    def test_ladder_zero_lowers(self):
        np.testing.assert_allclose(
            ladder(0).to_matrix(), np.array([[0, 1], [0, 0]])
        )

    def test_ladder_nilpotent(self):
        assert len(ladder(0) * ladder(0)) == 0


class TestHopTerm:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, ("00", "01")),
            (2, ("01", "11")),
            (3, ("11", "10")),
        ],
    )
    def test_maps_exactly_one_transition(self, n, expected):
        enc = FockEncoding(2)
        src, dst = expected
        m = hop_term(enc, n).to_matrix()
        out = np.zeros((4, 4), dtype=complex)
        out[int(dst, 2), int(src, 2)] = 1.0
        np.testing.assert_allclose(m, out, atol=1e-12)

    def test_structure_matches_two_qubit_rows(self):
        enc = FockEncoding(2)
        assert hop_term(enc, 1) == projector(0).tensor(ladder(1))
        assert hop_term(enc, 2) == ladder(1).tensor(projector(1))
        assert hop_term(enc, 3) == projector(1).tensor(ladder(0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hop_term(FockEncoding(2), 0)


class TestCreationAnnihilation:
    def test_sqrt_amplitudes_in_fock_order(self):
        enc = FockEncoding(2)
        m = fock_permuted(creation_op(enc), enc)
        expected = np.zeros((4, 4), dtype=complex)
        for n in range(3):
            expected[n + 1, n] = math.sqrt(n + 1)
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_top_state_annihilated(self):
        enc = FockEncoding(2)
        top = np.zeros(4, dtype=complex)
        top[basis_index(enc, 3)] = 1.0
        np.testing.assert_allclose(creation_op(enc).to_matrix() @ top, 0, atol=1e-12)

    def test_two_qubit_expansion_matches_projector_ladder_form(self):
        enc = FockEncoding(2)
        explicit = (
            projector(0).tensor(ladder(1))
            + ladder(1).tensor(projector(1)).scale(math.sqrt(2))
            + projector(1).tensor(ladder(0)).scale(math.sqrt(3))
        )
        assert creation_op(enc) == explicit

    @pytest.mark.parametrize("nq", [1, 2, 3, 4, 5, 6])
    def test_one_pass_sum_matches_chained_sum_of_hops(self, nq):
        enc = FockEncoding(nq)
        chained = PauliOp.zero(nq)
        for n in range(1, enc.capacity + 1):
            chained = chained + hop_term(enc, n).scale(math.sqrt(n))
        terms = [(t.code, repr(t.coeff)) for t in creation_op(enc).terms]
        assert terms == [(t.code, repr(t.coeff)) for t in chained.terms]

    def test_adjoint_pair(self):
        enc = FockEncoding(2)
        np.testing.assert_allclose(
            annihilation_op(enc).to_matrix(),
            creation_op(enc).to_matrix().conj().T,
            atol=1e-12,
        )

    def test_vacuum_annihilated(self):
        enc = FockEncoding(2)
        vac = np.zeros(4, dtype=complex)
        vac[basis_index(enc, 0)] = 1.0
        np.testing.assert_allclose(
            annihilation_op(enc).to_matrix() @ vac, 0, atol=1e-12
        )


class TestNumberOp:
    def test_diagonal_in_fock_order(self):
        enc = FockEncoding(2)
        np.testing.assert_allclose(
            fock_permuted(number_op(enc), enc), np.diag([0, 1, 2, 3]), atol=1e-12
        )

    def test_trace(self):
        assert np.trace(number_op(FockEncoding(2)).to_matrix()) == pytest.approx(6)


class TestTruncatedCommutator:
    @pytest.mark.parametrize("nq", [1, 2, 3])
    def test_identity_minus_top_state_leak(self, nq):
        enc = FockEncoding(nq)
        b_dag, b = creation_op(enc), annihilation_op(enc)
        comm = (b * b_dag - b_dag * b).to_matrix()
        expected = np.eye(2 ** nq, dtype=complex)
        top = basis_index(enc, enc.capacity)
        expected[top, top] -= enc.capacity + 1
        np.testing.assert_allclose(comm, expected, atol=1e-12)
