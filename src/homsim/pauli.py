"""Exact algebra over complex-weighted sums of Pauli strings.

A Pauli string on n qubits is one integer ``code``: two bits per qubit,
qubit 0 in the top bits, I, X, Y, Z = 0, 1, 2, 3. "XZIY" (X on qubit 0) is
0b01_11_00_10, and sorting codes sorts labels. A digit (high, low) is the
symplectic pair x = low ^ high, z = high, with P = i^|x&z|·X^x·Z^z
(Aaronson & Gottesman, PRA 70, 052328 (2004)). ``PauliTerm.xz`` is the one
place a code's digits become these masks (qubit q at bit width−1−q, as in
an amplitude index), a table lookup per byte; the algebra, the dense
matrices, the rotation pass, the circuit emitter and the H build all read
their masks from it. A product's string is
code₁ ^ code₂, its phase i^(|x₁&z₁| + |x₂&z₂| − |x₃&z₃| + 2|z₁&x₂|), exact in
{1, i, −1, −i}. Dense matrices (qubit 0 = most significant bit) and the
statevector's Pauli rotations follow from P|j⟩ = i^|x&z|·(−1)^|z&j|·|j⊕x⟩;
the dense matrices are the verification oracle for every other module.
Text labels exist only at the edges (``from_label``, ``axes``). Sums,
tensor products, adjoints and scalings collect ``code → coeff`` in a dict
and build a ``PauliTerm`` only for each surviving string.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

AXES = "IXYZ"

# Coefficients below this magnitude are dropped during simplification.
DROP_TOL = 1e-12

# Dense path cap: 2^12 x 2^12 is the largest matrix we ever materialize.
MAX_DENSE_QUBITS = 12

_PHASE = (1, 1j, -1, -1j)

# Byte b of a code (four digits) -> its (x, z) nibbles, top digit at the top bit.
_XZ_NIBBLES = tuple(
    (
        sum(((d ^ d >> 1) & 1) << k for k, d in enumerate(digits)),
        sum((d >> 1) << k for k, d in enumerate(digits)),
    )
    for digits in ([b >> 2 * k & 3 for k in range(4)] for b in range(256))
)


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string ``coeff · P``, P given by its ``code``."""

    coeff: complex
    code: int
    width: int

    @classmethod
    def from_label(cls, coeff: complex, axes: str) -> "PauliTerm":
        if not set(axes) <= set(AXES):
            raise ValueError(f"invalid Pauli axes string {axes!r}")
        code = sum(AXES.index(a) << 2 * k for k, a in enumerate(reversed(axes)))
        return cls(coeff, code, len(axes))

    @property
    def axes(self) -> str:
        return "".join(
            AXES[self.code >> 2 * k & 3] for k in reversed(range(self.width))
        )

    @property
    def xz(self) -> tuple[int, int]:
        """Symplectic bit masks (x, z), qubit q at bit width-1-q; a lookup per byte."""
        x = z = 0
        for b in self.code.to_bytes((self.width + 3) // 4, "big"):
            bx, bz = _XZ_NIBBLES[b]
            x = x << 4 | bx
            z = z << 4 | bz
        return x, z

    def __mul__(self, other: "PauliTerm") -> "PauliTerm":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        (x1, z1), (x2, z2) = self.xz, other.xz
        x3, z3 = x1 ^ x2, z1 ^ z2
        k = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
        k += 2 * (z1 & x2).bit_count()
        coeff = self.coeff * other.coeff * _PHASE[k % 4]
        return PauliTerm(coeff, self.code ^ other.code, self.width)


class PauliOp:
    """Sum of Pauli terms over a fixed register width.

    Simplified on construction: like strings collected, negligible terms
    dropped, remaining terms in ascending code (lexicographic label) order.
    """

    __slots__ = ("width", "terms")

    def __init__(self, terms: Iterable[PauliTerm], width: int | None = None):
        terms = list(terms)
        if width is None:
            if not terms:
                raise ValueError("width required for an empty operator")
            width = terms[0].width
        for t in terms:
            if t.width != width:
                raise ValueError(
                    f"width mismatch: term {t.axes!r} in width-{width} operator"
                )
        self.width = width
        self.terms = _collect(((t.code, t.coeff) for t in terms), width)

    @classmethod
    def _summed(cls, pairs: Iterable[tuple[int, complex]], width: int) -> "PauliOp":
        """The operator Σ coeff·P(code) over ``(code, coeff)`` pairs, simplified."""
        op = cls.__new__(cls)
        op.width = width
        op.terms = _collect(pairs, width)
        return op

    @classmethod
    def from_label(cls, axes: str, coeff: complex = 1.0) -> "PauliOp":
        return cls([PauliTerm.from_label(coeff, axes)])

    @classmethod
    def zero(cls, width: int) -> "PauliOp":
        return cls([], width=width)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliOp") -> "PauliOp":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return PauliOp._summed(
            ((t.code, t.coeff) for t in self.terms + other.terms), self.width
        )

    def __sub__(self, other: "PauliOp") -> "PauliOp":
        return self + other.scale(-1)

    def scale(self, c: complex) -> "PauliOp":
        return PauliOp._summed(((t.code, t.coeff * c) for t in self.terms), self.width)

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return PauliOp(
            [a * b for a in self.terms for b in other.terms], width=self.width
        )

    def tensor(self, other: "PauliOp") -> "PauliOp":
        shift = 2 * other.width
        return PauliOp._summed(
            (
                (a.code << shift | b.code, a.coeff * b.coeff)
                for a in self.terms
                for b in other.terms
            ),
            self.width + other.width,
        )

    def adjoint(self) -> "PauliOp":
        # Pauli strings are self-adjoint; only coefficients conjugate.
        return PauliOp._summed(
            ((t.code, t.coeff.conjugate()) for t in self.terms), self.width
        )

    def is_hermitian(self) -> bool:
        # H - H† keeps 2i·Im(c) per string; the same tolerance drops it.
        return all(abs(2 * t.coeff.imag) <= DROP_TOL for t in self.terms)

    def to_matrix(self) -> np.ndarray:
        if self.width > MAX_DENSE_QUBITS:
            raise ValueError(
                f"dense path capped at {MAX_DENSE_QUBITS} qubits, got {self.width}"
            )
        j = np.arange(2 ** self.width)
        parity = _parity(self.width)
        out = np.zeros((len(j), len(j)), dtype=complex)
        for t in self.terms:
            x, z, phase = _action(t)
            out[j ^ x, j] += t.coeff * phase * parity[z & j]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOp):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __hash__(self):
        return hash((self.width, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(_fmt_coeff(t.coeff) + "·" + t.axes for t in self.terms)

    def __repr__(self) -> str:
        return f"PauliOp({self})"


def _collect(pairs: Iterable[tuple[int, complex]], width: int) -> tuple[PauliTerm, ...]:
    """Terms of Σ coeff·P(code), like codes summed in the order given.

    Sums of magnitude at most ``DROP_TOL`` are dropped and the rest come out
    in ascending code order; only the surviving terms are built.
    """
    acc: dict[int, complex] = {}
    for code, c in pairs:
        acc[code] = acc.get(code, 0) + c
    return tuple(
        PauliTerm(c, code, width) for code, c in sorted(acc.items()) if not abs(c) <= DROP_TOL
    )


def _action(t: PauliTerm) -> tuple[int, int, complex]:
    """(x, z, i^|x&z|) with P|j⟩ = i^|x&z|·(−1)^|z&j|·|j ⊕ x⟩.

    The one place the phase convention lives; (−1)^|z&j| is
    ``_parity(width)[z & j]``.
    """
    x, z = t.xz
    return x, z, _PHASE[(x & z).bit_count() % 4]


def _parity(width: int) -> np.ndarray:
    """(−1)^|j| for j < 2^width as int8, doubled one bit at a time."""
    sign = np.ones(2 ** width, dtype=np.int8)
    for b in range(width):
        sign[1 << b : 2 << b] = -sign[: 1 << b]
    return sign


def _fmt_coeff(c: complex) -> str:
    if abs(c.imag) <= DROP_TOL:
        return f"{c.real:.12g}"
    if abs(c.real) <= DROP_TOL:
        return f"{c.imag:.12g}j"
    return f"({c.real:.12g}{c.imag:+.12g}j)"
