"""Lowering Hermitian Pauli sums to gate circuits.

First-order Trotterization over the canonically ordered term list, each
term exponentiated with the textbook basis-change / CNOT-ladder / RZ
construction. Rotation gates use the standard half-angle convention
(RZ(φ) = exp(-iφZ/2)), so exp(-iαP) is emitted as RZ(2α) inside the
ladder. Output is deterministic for fixed input, down to the QASM text.

``trotter_sequence`` returns one Trotter step, and a ``Circuit`` is that
step's gates and a repeat count. Validation, gate counts and the QASM text
are worked out from the step once; depth composes the step's per-qubit
delays, so no metric walks the repeats.
Within one ``trotter_circuit`` call every angle-free gate (H, RX(±π/2),
CNOT) is one shared object, so a step holds one fresh gate per term plus
at most 3n + n(n−1) shared ones, and the QASM text of each distinct gate
object is formatted once.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .beamsplitter import Interaction
from .pauli import PauliTerm

logger = logging.getLogger(__name__)

GATE_KINDS = ("H", "RX", "RZ", "CNOT")


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


@dataclass(frozen=True, eq=False)
class Circuit:
    """``step`` applied ``repeat`` times in a row on a register of ``n_qubits``.

    Two circuits are equal when they run the same gate sequence, however it
    splits into step and repeats.
    """

    n_qubits: int
    step: tuple[Gate, ...]
    repeat: int = 1

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        n = self.n_qubits
        for g in self.step:
            c = g.control
            if not 0 <= g.target < n or (c is not None and not 0 <= c < n):
                raise ValueError(f"gate {g} outside register of {n}")

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The full gate sequence, every repeat written out."""
        return self.step * self.repeat

    def __eq__(self, other):
        same_register = isinstance(other, Circuit) and self.n_qubits == other.n_qubits
        return same_register and self.gates == other.gates

    def __hash__(self):
        return hash((self.n_qubits, self.gates))


def trotter_sequence(
    inter: Interaction, theta: float, steps: int
) -> list[tuple[PauliTerm, float]]:
    """One step of the first-order product formula: (term, θ·coeff/steps) pairs.

    Pure-identity terms only contribute global phase and are skipped.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    step = []
    for term in inter.op.terms:
        if term.code == 0:
            logger.info("skipping identity term (global phase only): %s", term)
            continue
        step.append((term, theta * term.coeff.real / steps))
    return step


def rotation_circuit(axes: str, alpha: float) -> Circuit:
    """Circuit for exp(-i·alpha·P), P the Pauli string ``axes``."""
    return Circuit(len(axes), tuple(_rotation_gates(axes, alpha, Gate)))


def _rotation_gates(axes: str, alpha: float, gate: Callable[..., Gate]) -> list[Gate]:
    """Gates of exp(-i·alpha·P), P the Pauli string ``axes``.

    Basis changes map every active qubit to Z, a CNOT ladder chains the
    active qubits in ascending index (identity qubits skipped), RZ(2α)
    lands on the last active qubit, then everything mirrors back. ``gate``
    builds the angle-free H, CNOT and RX(±π/2) gates from Gate's positional
    arguments; only the RZ(2α) (or lone RX(2α)) is built here.
    """
    active = [q for q, a in enumerate(axes) if a != "I"]
    if not active:
        raise ValueError("all-identity string has no rotation circuit")

    if len(active) == 1 and axes[active[0]] == "X":
        return [Gate("RX", active[0], angle=2 * alpha)]

    pre: list[Gate] = []
    post: list[Gate] = []
    for q in active:
        a = axes[q]
        if a == "X":
            pre.append(gate("H", q))
            post.append(gate("H", q))
        elif a == "Y":
            pre.append(gate("RX", q, None, math.pi / 2))
            post.append(gate("RX", q, None, -math.pi / 2))

    ladder = [gate("CNOT", b, a) for a, b in zip(active, active[1:])]
    return (
        pre
        + ladder
        + [Gate("RZ", active[-1], angle=2 * alpha)]
        + ladder[::-1]
        + post[::-1]
    )


def synthesize(inter: Interaction, theta: float, steps: int) -> Circuit:
    """Trotterized circuit whose unitary is exp(+iθH) to first order."""
    return trotter_circuit(
        trotter_sequence(inter, theta, steps), inter.op.width, steps
    )


def trotter_circuit(
    step: Sequence[tuple[PauliTerm, float]], n_qubits: int, steps: int
) -> Circuit:
    """Circuit of a ``trotter_sequence`` step, repeated ``steps`` times.

    The rotations implement exp(-iαP), so each Trotter angle flips sign
    here to realize the +iθ exponent of the beam splitter. Each angle-free
    gate is built once per call and shared by every term that uses it: at
    most 3n + n(n−1) of them (H and RX(±π/2) per qubit, CNOT per ordered
    pair).
    """
    shared: dict[tuple, Gate] = {}

    def gate(*args) -> Gate:
        g = shared.get(args)
        if g is None:
            g = shared[args] = Gate(*args)
        return g

    gates: list[Gate] = []
    for term, angle in step:
        gates += _rotation_gates(term.axes, -angle, gate)
    return Circuit(n_qubits, tuple(gates), steps)


def _layer(gates: Sequence[Gate], busy: list[int]) -> list[int]:
    """Greedy layering: each gate lands one layer above its qubits' last; in place."""
    for g in gates:
        if g.control is None:
            busy[g.target] += 1
        else:
            busy[g.target] = busy[g.control] = 1 + max(busy[g.target], busy[g.control])
    return busy


def _depth(c: Circuit) -> int:
    """Greedy-layering depth of the full sequence, from walks of one step.

    Layering is max-plus linear in the per-qubit busy vector: a step maps it
    to busy'[i] = max_j(busy[j] + delay[i][j]) over the qubits j that i
    depends on. A walk that starts qubit j above any depth one step reaches
    alone, the rest at 0, reads column j off the qubits that end that high.
    The n_qubits walks cost more than walking up to n_qubits repeats.
    """
    n = c.n_qubits
    if c.repeat <= n:
        busy = [0] * n
        for _ in range(c.repeat):
            _layer(c.step, busy)
        return max(busy, default=0)
    sentinel = len(c.step) + 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j in range(n):
        start = [0] * n
        start[j] = sentinel
        for i, b in enumerate(_layer(c.step, start)):
            if b >= sentinel:
                rows[i].append((j, b - sentinel))
    # Every qubit depends on itself, so no row is empty.
    busy = [0] * n
    for _ in range(c.repeat):
        busy = [max(busy[j] + d for j, d in row) for row in rows]
    return max(busy, default=0)


def metrics(c: Circuit) -> dict:
    """Depth (greedy layering, disjoint qubits commute), CX count, per-kind counts."""
    kind_counts = Counter(g.kind for g in c.step)
    return {
        "depth": _depth(c),
        "cx_count": kind_counts["CNOT"] * c.repeat,
        "gate_counts": {k: v * c.repeat for k, v in sorted(kind_counts.items())},
        "total_gates": len(c.step) * c.repeat,
    }


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text; angles at 15 significant digits, byte-stable.

    Each distinct gate object of the step is formatted once; a shared gate's
    text is reused for every slot it fills.
    """
    text: dict[int, str] = {}
    lines = []
    for g in c.step:
        line = text.get(id(g))
        if line is None:
            line = text[id(g)] = _qasm_line(g)
        lines.append(line)
    header = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{c.n_qubits}];\n'
    return header + "".join(lines) * c.repeat


def _qasm_line(g: Gate) -> str:
    if g.kind == "H":
        return f"h q[{g.target}];\n"
    if g.kind == "RX":
        return f"rx({g.angle:.15g}) q[{g.target}];\n"
    if g.kind == "RZ":
        return f"rz({g.angle:.15g}) q[{g.target}];\n"
    return f"cx q[{g.control}],q[{g.target}];\n"
