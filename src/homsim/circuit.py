"""Lowering Hermitian Pauli sums to gate circuits.

First-order Trotterization over the canonically ordered term list, each
term exponentiated with the textbook basis-change / CNOT-ladder / RZ
construction. Rotation gates use the standard half-angle convention
(RZ(φ) = exp(-iφZ/2)), so exp(-iαP) is emitted as RZ(2α) inside the
ladder. Output is deterministic for fixed input, down to the QASM text.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .beamsplitter import Interaction
from .pauli import PauliTerm

logger = logging.getLogger(__name__)

GATE_KINDS = ("X", "H", "RX", "RZ", "CNOT")


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    control: Optional[int] = None
    angle: Optional[float] = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if self.control is None or self.control == self.target:
                raise ValueError("CNOT needs a control distinct from its target")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control")
        if self.kind in ("RX", "RZ"):
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is not None:
            return (self.control, self.target)
        return (self.target,)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in g.qubits):
                raise ValueError(f"gate {g} outside register of {self.n_qubits}")


def trotter_sequence(
    inter: Interaction, theta: float, steps: int
) -> list[tuple[PauliTerm, float]]:
    """First-order product formula: (term, θ·coeff/steps) pairs, repeated per step.

    Pure-identity terms only contribute global phase and are skipped.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not inter.op.is_hermitian():
        raise ValueError("interaction must be Hermitian")
    per_step = []
    for term in inter.op.terms:
        if term.code == 0:
            logger.info("skipping identity term (global phase only): %s", term)
            continue
        per_step.append((term, theta * term.coeff.real / steps))
    return per_step * steps


def rotation_circuit(axes: str, alpha: float) -> Circuit:
    """Circuit for exp(-i·alpha·P), P the Pauli string ``axes``.

    Basis changes map every active qubit to Z, a CNOT ladder chains the
    active qubits in ascending index (identity qubits skipped), RZ(2α)
    lands on the last active qubit, then everything mirrors back.
    """
    n = len(axes)
    active = [q for q, a in enumerate(axes) if a != "I"]
    if not active:
        raise ValueError("all-identity string has no rotation circuit")

    if len(active) == 1 and axes[active[0]] == "X":
        return Circuit(n, (Gate("RX", active[0], angle=2 * alpha),))

    pre: list[Gate] = []
    post: list[Gate] = []
    for q in active:
        a = axes[q]
        if a == "X":
            pre.append(Gate("H", q))
            post.append(Gate("H", q))
        elif a == "Y":
            pre.append(Gate("RX", q, angle=math.pi / 2))
            post.append(Gate("RX", q, angle=-math.pi / 2))

    ladder = [
        Gate("CNOT", target=b, control=a) for a, b in zip(active, active[1:])
    ]
    gates = (
        pre
        + ladder
        + [Gate("RZ", active[-1], angle=2 * alpha)]
        + ladder[::-1]
        + post[::-1]
    )
    return Circuit(n, tuple(gates))


def synthesize(inter: Interaction, theta: float, steps: int) -> Circuit:
    """Trotterized circuit whose unitary is exp(+iθH) to first order."""
    return trotter_circuit(
        trotter_sequence(inter, theta, steps), inter.op.width, steps
    )


def trotter_circuit(
    sequence: Sequence[tuple[PauliTerm, float]], n_qubits: int, steps: int
) -> Circuit:
    """Circuit of a ``trotter_sequence`` of ``steps`` identical steps.

    rotation_circuit implements exp(-iαP), so each Trotter angle flips sign
    here to realize the +iθ exponent of the beam splitter. The first step's
    gates are built once and repeated.
    """
    if steps < 1 or len(sequence) % steps:
        raise ValueError(f"{len(sequence)} rotations do not split into {steps} steps")
    step = [
        g
        for term, angle in sequence[: len(sequence) // steps]
        for g in rotation_circuit(term.axes, -angle).gates
    ]
    return Circuit(n_qubits, tuple(step) * steps)


def metrics(c: Circuit) -> dict:
    """Depth (greedy layering, disjoint qubits commute), CX count, per-kind counts."""
    busy = [0] * c.n_qubits
    kind_counts: dict[str, int] = {}
    for g in c.gates:
        layer = 1 + max((busy[q] for q in g.qubits), default=0)
        for q in g.qubits:
            busy[q] = layer
        kind_counts[g.kind] = kind_counts.get(g.kind, 0) + 1
    return {
        "depth": max(busy, default=0),
        "cx_count": kind_counts.get("CNOT", 0),
        "gate_counts": dict(sorted(kind_counts.items())),
        "total_gates": len(c.gates),
    }


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text; angles at 15 significant digits, byte-stable."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n_qubits}];",
    ]
    for g in c.gates:
        if g.kind == "X":
            lines.append(f"x q[{g.target}];")
        elif g.kind == "H":
            lines.append(f"h q[{g.target}];")
        elif g.kind == "RX":
            lines.append(f"rx({g.angle:.15g}) q[{g.target}];")
        elif g.kind == "RZ":
            lines.append(f"rz({g.angle:.15g}) q[{g.target}];")
        else:
            lines.append(f"cx q[{g.control}],q[{g.target}];")
    return "\n".join(lines) + "\n"
