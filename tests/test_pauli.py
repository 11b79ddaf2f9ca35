import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    exact_terms,
    kron_matrix,
    listed_adjoint,
    listed_creation,
    listed_scale,
    listed_sum,
    listed_tensor,
)
from homsim.beamsplitter import interaction
from homsim.gray import FockEncoding
from homsim.pauli import PauliOp, PauliTerm


def op(label, coeff=1.0):
    return PauliOp.from_label(label, coeff)


class TestTermMultiply:
    def test_xy_gives_iz(self):
        x, y = PauliTerm.from_label(1, "X"), PauliTerm.from_label(1, "Y")
        assert x * y == PauliTerm.from_label(1j, "Z")

    def test_two_qubit_product(self):
        a, b = PauliTerm.from_label(1, "XI"), PauliTerm.from_label(1, "XZ")
        assert a * b == PauliTerm.from_label(1 + 0j, "IZ")

    def test_y_squared_is_identity(self):
        a, b = PauliTerm.from_label(2, "Y"), PauliTerm.from_label(3, "Y")
        assert a * b == PauliTerm.from_label(6 + 0j, "I")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm.from_label(1, "X") * PauliTerm.from_label(1, "XY")

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            PauliTerm.from_label(1, "XA")


class TestOpArithmetic:
    def test_like_terms_collect(self):
        assert (op("X") + op("X")).terms == (PauliTerm.from_label(2 + 0j, "X"),)

    def test_cancellation_gives_empty(self):
        assert len(op("X") + op("X", -1.0)) == 0

    def test_nan_coefficient_kept(self):
        (term,) = op("X", math.nan).terms
        assert term.axes == "X" and math.isnan(term.coeff.real)

    def test_distinct_strings_not_collected(self):
        combined = op("XY") + op("YX")
        assert len(combined) == 2

    def test_add_width_mismatch(self):
        with pytest.raises(ValueError):
            op("X") + op("XY")

    def test_scale(self):
        assert op("Z").scale(2j).terms == (PauliTerm.from_label(2j, "Z"),)


class TestTensor:
    def test_two_singles(self):
        assert op("X").tensor(op("Z")) == op("XZ")

    def test_distributes(self):
        assert (op("X") + op("Y")).tensor(op("Z")) == op("XZ") + op("YZ")

    def test_scalar_coefficients_multiply(self):
        assert op("I", 2.0).tensor(op("I", 3.0)) == op("II", 6.0)


class TestAdjoint:
    def test_conjugates_coefficient(self):
        assert op("X", 1j).adjoint() == op("X", -1j)

    def test_hermitian_fixed_point(self):
        h = op("X", 0.5) + op("Z", -1.5)
        assert h.adjoint() == h

    def test_involution(self):
        a = op("XY", 1 + 2j) + op("ZI", -3j)
        assert a.adjoint().adjoint() == a


class TestToMatrix:
    def test_z(self):
        np.testing.assert_array_equal(op("Z").to_matrix(), np.diag([1, -1]))

    def test_projector_onto_zero(self):
        p = (op("I") + op("Z")).scale(0.5)
        np.testing.assert_array_equal(p.to_matrix(), np.diag([1, 0]))

    def test_xx_antidiagonal(self):
        np.testing.assert_array_equal(
            op("XX").to_matrix(), np.fliplr(np.eye(4))
        )

    def test_width_cap(self):
        with pytest.raises(ValueError):
            op("I" * 13).to_matrix()


class TestIsHermitian:
    def test_real_sum(self):
        assert (op("X") + op("Y")).is_hermitian()

    def test_imaginary_coefficient(self):
        assert not op("X", 1j).is_hermitian()

    @pytest.mark.parametrize("imag, hermitian", [(0.4e-12, True), (0.75e-12, False)])
    def test_tolerance_is_that_of_the_adjoint_difference(self, imag, hermitian):
        a = op("X", 1 + 1j * imag)
        assert a.is_hermitian() is hermitian
        assert (len(a - a.adjoint()) == 0) is hermitian


class TestRendering:
    def test_coefficients_at_12_digits(self):
        assert str(op("XZIY", 0.25)) == "0.25·XZIY"

    def test_empty_operator(self):
        assert str(PauliOp.zero(2)) == "0"

    def test_imaginary_coefficient(self):
        assert str(op("Y", 0.5j)) == "0.5j·Y"


coeffs = st.sampled_from([1.0, -1.0, 0.5, 2.0, 1j, -0.5j, 1 + 1j])


@st.composite
def labels(draw, width=None):
    width = draw(st.integers(1, 5)) if width is None else width
    return draw(st.text(alphabet="IXYZ", min_size=width, max_size=width))


@st.composite
def operators(draw, width):
    terms = st.builds(PauliTerm.from_label, coeffs, labels(width))
    return PauliOp(draw(st.lists(terms, max_size=6)), width=width)


@st.composite
def op_pairs(draw):
    width = draw(st.integers(1, 5))
    return draw(operators(width)), draw(operators(width))


class TestDenseCorrespondence:
    @given(op_pairs())
    def test_matches_kron_reference(self, pair):
        for a in pair:
            np.testing.assert_array_equal(a.to_matrix(), kron_matrix(a))

    @given(op_pairs())
    def test_product_homomorphism(self, pair):
        a, b = pair
        np.testing.assert_allclose(
            (a * b).to_matrix(), kron_matrix(a) @ kron_matrix(b), atol=1e-12
        )

    @given(op_pairs())
    def test_linearity(self, pair):
        a, b = pair
        np.testing.assert_allclose(
            (a + b).to_matrix(), kron_matrix(a) + kron_matrix(b), atol=1e-12
        )

    @given(op_pairs())
    def test_simplify_idempotent_and_matrix_preserving(self, pair):
        a, b = pair
        combined = PauliOp(a.terms + b.terms + a.terms, width=a.width)
        assert PauliOp(combined.terms, width=a.width) == combined
        np.testing.assert_allclose(
            combined.to_matrix(), 2 * kron_matrix(a) + kron_matrix(b), atol=1e-12
        )

    @given(op_pairs())
    def test_adjoint_is_conjugate_transpose(self, pair):
        a = pair[0] * pair[1]
        np.testing.assert_allclose(
            a.adjoint().to_matrix(), kron_matrix(a).conj().T, atol=1e-12
        )

    @given(op_pairs())
    def test_hermitian_iff_adjoint_difference_vanishes(self, pair):
        for a in (*pair, pair[0] * pair[1]):
            assert a.is_hermitian() == (len(a - a.adjoint()) == 0)

    @given(labels())
    def test_label_round_trip(self, label):
        assert PauliTerm.from_label(1.0, label).axes == label
        assert PauliOp.from_label(label).terms[0].axes == label

    @given(op_pairs())
    def test_terms_in_label_order(self, pair):
        for a in (*pair, pair[0] * pair[1], pair[0].tensor(pair[1])):
            axes = [t.axes for t in a.terms]
            assert axes == sorted(axes)


@st.composite
def cancelling_pairs(draw):
    """Two operators of one width, the second often undoing some of the first."""
    width = draw(st.integers(1, 5))
    a = draw(operators(width))
    extra = draw(operators(width))
    b = draw(
        st.sampled_from(
            [extra, a.scale(-1), PauliOp(a.scale(-1).terms[:2] + extra.terms, width=width)]
        )
    )
    return a, b


class TestDictBuiltAlgebra:
    """Each operation equals the same products listed through ``PauliOp([...])``."""

    @given(cancelling_pairs(), coeffs | st.sampled_from([-0.0, 1e-13, -1 + 0j, -0.5 - 0j]))
    def test_sum_adjoint_scale(self, pair, c):
        a, b = pair
        assert exact_terms(a + b) == exact_terms(listed_sum(a, b))
        assert exact_terms(a - b) == exact_terms(listed_sum(a, listed_scale(b, -1)))
        for x in (a, a * b, a.tensor(b)):  # products carry ±0.0 imaginary parts
            assert exact_terms(x.adjoint()) == exact_terms(listed_adjoint(x))
            assert exact_terms(x.scale(c)) == exact_terms(listed_scale(x, c))

    @given(op_pairs(), op_pairs())
    def test_tensor(self, left, right):
        for a in left:
            for b in right:
                assert exact_terms(a.tensor(b)) == exact_terms(listed_tensor(a, b))

    @given(cancelling_pairs())
    def test_tensor_sums_that_cancel(self, pair):
        a, b = pair
        ab = a.tensor(b) + b.tensor(a)
        assert exact_terms(ab) == exact_terms(
            listed_sum(listed_tensor(a, b), listed_tensor(b, a))
        )

    def test_sums_start_from_zero(self):
        # Each sum is 0 + c₁ + …, so a lone −0.0 part comes out as +0.0.
        (t,) = PauliOp([PauliTerm(complex(-1.0, -0.0), 1, 1)]).terms
        assert repr(t.coeff) == "(-1+0j)"
        assert repr(op("Y", 1j).tensor(op("Y", 1j)).adjoint().terms[0].coeff) == "(-1+0j)"

    def test_cancelled_sum_is_empty(self):
        a = op("XY", 0.5) + op("ZZ", -0.5j)
        assert (a + a.scale(-1)).terms == ()
        assert (a - a).width == 2

    @pytest.mark.parametrize("qpm", [1, 2, 3, 4, 5])
    def test_interaction(self, qpm):
        b_dag = listed_creation(FockEncoding(qpm))
        b = listed_adjoint(b_dag)
        expected = listed_sum(listed_tensor(b_dag, b), listed_tensor(b, b_dag))
        assert exact_terms(interaction(FockEncoding(qpm)).op) == exact_terms(expected)
