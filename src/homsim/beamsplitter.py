"""Two-mode beam-splitter interaction and its exact evolution.

The register holds two modes with the same encoding: mode B on qubits
0..N_q-1 (left half of every state label), mode A on qubits N_q..2N_q-1.
The interaction Hamiltonian is b†a + ba†; an ``Interaction`` refuses a
non-Hermitian operator when it is built, so nothing that takes one checks
again. H conserves total photon number, so an N-photon input only ever
explores H projected onto the N-photon sector: the reduced interaction is
that projection, built from single Gray-code hops at any encoding. A Fock
input is evolved exactly on its sector's few states, the oracle every run
is scored against: ``fock_sector`` builds the sector's eigenbasis, which
does not depend on θ, and its ``amplitudes`` binds θ.
``exact_unitary``, the dense exp(+iθH) over the whole register, is its
independent check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .gray import FockEncoding, basis_index, creation_op, hop_term
from .pauli import PauliOp


def _finite(x) -> bool:
    """``math.isfinite``, an int too large for a float counting as not finite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Interaction:
    """Hermitian two-mode hopping Hamiltonian over 2*N_q qubits."""

    op: PauliOp

    def __post_init__(self):
        if not self.op.is_hermitian():
            raise ValueError("interaction must be Hermitian")


def interaction(encoding: FockEncoding) -> Interaction:
    """Full beam-splitter Hamiltonian T + T†, T = b†a; both modes identically encoded.

    For b† = Σ c_P·P, T gives P⊗Q the coefficient x = c_P·c̄_Q and T† gives
    x̄, so H is summed in one pass over pairs of b† terms, building neither.
    Only a ladder's Y is imaginary (±i/2), so x is imaginary, and x + x̄ = 0,
    exactly when P and Q differ in the parity of their Y counts: such pairs
    are skipped.
    """
    b_dag, q = creation_op(encoding).terms, encoding.qubits_per_mode
    parity: tuple[list, list] = ([], [])
    for p in b_dag:
        x, z = p.xz  # a Y is x = z = 1
        parity[(x & z).bit_count() & 1].append(p)
    t = (
        (p.code << 2 * q | r.code, p.coeff * r.coeff.conjugate())
        for same in parity for p, r in product(same, same)
    )
    return Interaction(op=PauliOp._summed(((code, x + x.conjugate()) for code, x in t), 2 * q))


def reduced_interaction(encoding: FockEncoding, photons: int) -> Interaction:
    """P_N·H·P_N: the beam splitter restricted to the ``photons``-photon sector.

    Sum over n + m = N + 1 of √(n·m)·hop_B(n) ⊗ hop_A(m)† plus its adjoint;
    each term takes |n-1, m> to |n, m-1>, both inside the sector. Hops above
    the encoding's capacity do not exist and are skipped, so the operator
    is empty when no two sector states are joined by a hop.
    """
    op = PauliOp.zero(2 * encoding.qubits_per_mode)
    for n in range(1, photons + 1):
        m = photons + 1 - n
        if n > encoding.capacity or m > encoding.capacity:
            continue
        hop = hop_term(encoding, n).tensor(hop_term(encoding, m).adjoint())
        hop = hop.scale(math.sqrt(n * m))
        op = op + hop + hop.adjoint()
    return Interaction(op=op)


def exact_unitary(theta: float, inter: Interaction) -> np.ndarray:
    """exp(+iθH) via Hermitian eigendecomposition; unitary to 1e-12."""
    if not _finite(theta):
        raise ValueError("theta must be finite")
    h = inter.op.to_matrix()
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


@dataclass(frozen=True, eq=False)
class Sector:
    """A Fock input's photon sector in the register, θ left unbound.

    ``w`` (ascending) and ``v`` are the eigenvalues and eigenvectors of H on
    the sector, ``column`` the input's coefficients in that eigenbasis,
    ``rows`` the register index of each sector state, |k, N−k⟩ by ascending
    k, and ``start`` the input's. ``amplitudes`` binds θ.
    """

    n_qubits: int
    rows: list[int]
    start: int
    w: np.ndarray
    v: np.ndarray
    column: np.ndarray

    def amplitudes(self, theta: float) -> np.ndarray:
        """Register amplitudes of exp(+iθH) on the input; zero outside the sector.

        A θ whose phases θ·w are not finite (NaN, ±inf, an int too large
        for a float, or an overflowing product) is a ``ValueError``.
        """
        w = self.w
        # w ascends, so its ends bound every |θ·w|; a float product never warns.
        if not (_finite(theta) and math.isfinite(theta * max(-float(w[0]), float(w[-1])))):
            raise ValueError(f"theta = {theta!r}: the phases exp(i·theta·w) are not finite")
        out = np.zeros(2 ** self.n_qubits, dtype=complex)
        out[self.rows] = self.v @ (np.exp(1j * theta * w) * self.column)
        return out


def fock_sector(encoding: FockEncoding, fock: tuple[int, int]) -> Sector:
    """The ``Sector`` of the Fock input |n_B, n_A⟩: everything but θ.

    H acts on the representable states |k, N−k⟩ (k, N−k ≤ capacity) as a
    tridiagonal matrix joining k and k+1 with weight √((k+1)(N−k)): the
    SU(2) splitter of Campos, Saleh & Teich (PRA 40, 1371 (1989)), cut to
    the register. Its eigendecomposition is embedded through the Gray labels.
    """
    if not all(0 <= n <= encoding.capacity for n in fock):
        raise ValueError(f"Fock input {fock} outside [0, {encoding.capacity}] per mode")
    n_b, n_a = fock
    photons, cap, q = n_b + n_a, encoding.capacity, encoding.qubits_per_mode
    ks = np.arange(max(0, photons - cap), min(photons, cap) + 1)
    weights = np.sqrt((ks[:-1] + 1) * (photons - ks[:-1]))
    w, v = np.linalg.eigh(np.diag(weights, 1) + np.diag(weights, -1))
    rows = [basis_index(encoding, k) << q | basis_index(encoding, photons - k) for k in ks]
    return Sector(2 * q, rows, rows[n_b - ks[0]], w, v, v[n_b - ks[0]])

