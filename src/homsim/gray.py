"""Gray-code mapping of truncated Fock states to qubits.

A mode with N_q qubits holds photon numbers 0..2^N_q - 1, each Fock index
encoded as its binary-reflected Gray code (leftmost character = qubit 0).
Consecutive photon numbers then differ in exactly one bit, so the creation
operator decomposes into one single-bit-flip hop per photon-number step:
a spin ladder operator on the flipped qubit and projectors everywhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .pauli import PauliOp, PauliTerm


@dataclass(frozen=True)
class FockEncoding:
    """Qubits-per-mode plus the photon capacity they imply."""

    qubits_per_mode: int

    def __post_init__(self):
        if self.qubits_per_mode < 1:
            raise ValueError("qubits_per_mode must be >= 1")

    @property
    def capacity(self) -> int:
        """Maximum photon number per mode: 2^N_q - 1 (full Hilbert space)."""
        return 2 ** self.qubits_per_mode - 1


def gray_bits(encoding: FockEncoding, n: int) -> str:
    """Binary-reflected Gray code of Fock index ``n``, width N_q."""
    if not 0 <= n <= encoding.capacity:
        raise ValueError(
            f"Fock index {n} outside [0, {encoding.capacity}]"
        )
    return format(n ^ (n >> 1), f"0{encoding.qubits_per_mode}b")


def basis_index(encoding: FockEncoding, n: int) -> int:
    """Computational-basis index of the encoded Fock state |n>."""
    return int(gray_bits(encoding, n), 2)


def projector(bit: int) -> PauliOp:
    """(I + Z)/2 for bit 0, (I - Z)/2 for bit 1: keeps a qubit in |bit>."""
    sign = 1.0 if bit == 0 else -1.0
    return PauliOp(
        [PauliTerm.from_label(0.5, "I"), PauliTerm.from_label(0.5 * sign, "Z")]
    )


def ladder(bit: int) -> PauliOp:
    """Spin ladder flipping a qubit onto |bit>: (X + iY)/2 lowers, (X - iY)/2 raises."""
    sign = 1.0 if bit == 0 else -1.0
    return PauliOp(
        [PauliTerm.from_label(0.5, "X"), PauliTerm.from_label(0.5j * sign, "Y")]
    )


def hop_term(encoding: FockEncoding, n: int) -> PauliOp:
    """Single photon-number hop |n-1> -> |n| as a projector/ladder tensor product.

    Annihilates every encoded basis state other than |n-1>.
    """
    if not 1 <= n <= encoding.capacity:
        raise ValueError(f"hop index {n} outside [1, {encoding.capacity}]")
    src = gray_bits(encoding, n - 1)
    dst = gray_bits(encoding, n)
    ops = [
        ladder(int(d)) if s != d else projector(int(d))
        for s, d in zip(src, dst)
    ]
    out = ops[0]
    for f in ops[1:]:
        out = out.tensor(f)
    return out


def creation_op(encoding: FockEncoding) -> PauliOp:
    """Truncated creation operator: sum of sqrt(n) weighted hops |n-1> -> |n>."""
    weighted = ((math.sqrt(n), hop_term(encoding, n)) for n in range(1, encoding.capacity + 1))
    pairs = ((t.code, t.coeff * w) for w, hop in weighted for t in hop.terms)
    return PauliOp._summed(pairs, encoding.qubits_per_mode)


def annihilation_op(encoding: FockEncoding) -> PauliOp:
    """Adjoint of the truncated creation operator."""
    return creation_op(encoding).adjoint()
