"""Lowering Hermitian Pauli sums to gate circuits.

First-order Trotterization over the canonically ordered term list, each
term exponentiated with the textbook basis-change / CNOT-ladder / RZ
construction. Rotation gates use the standard half-angle convention
(RZ(φ) = exp(-iφZ/2)), so exp(-iαP) is emitted as RZ(2α) inside the
ladder. Output is deterministic for fixed input, down to the QASM text.

A Trotter step depends on θ only through its angles and on the step count
only through its repeat. ``step_terms`` is the θ-free step, each term with
its real coefficient; ``bind_angles`` turns it into the angles θ·coeff/steps
and is the one place they are computed, so an overflowing θ and more
than ``MAX_ROTATIONS`` rotations are refused there. ``trotter_sequence``
pairs the two into one step. A ``Circuit`` is that step's distinct gates,
one index per slot naming the gate that fills it, and a repeat count; the
register check, the gate counts and the QASM text read the distinct gates
and the index, and only the depth walk reads the written-out step. The
circuit's ``metrics(repeat)`` is the one metrics path, for any repeat: it
walks the step for up to n repeats and past that composes the step's
per-qubit max-plus delays; each part is built on first need and kept on
the circuit.
``trotter_circuit`` reads each term's X, Y and active qubits from its
``PauliTerm.xz`` masks, never from axes text or the code's digits. Within
one call the CNOT ladder and last qubit of each active mask and the basis
changes of each (X, Y) mask pair are built once and shared by every term
with those masks, and every gate, each term's RZ (or RX) included, is one
entry of the gate table per distinct kind, qubits and angle, a signed zero
angle keeping its sign. That table is the circuit's distinct gates and
the slots the emitter fills are its index, so the 192,000 slots of the
1-step circuit at 5 qubits per mode are checked, counted and printed as
1,933 gates. ``rotation_circuit`` is the one-term case of the same path.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .beamsplitter import Interaction
from .pauli import PauliTerm

logger = logging.getLogger(__name__)

GATE_KINDS = ("H", "RX", "RZ", "CNOT")

# Most rotations (steps × terms) one bind may ask for: 8,192 steps at 2 qubits
# per mode, 20 at 5 (about 61 MB of QASM), 3 at 6; each run takes seconds.
MAX_ROTATIONS = 2 ** 18


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


@dataclass(frozen=True, eq=False)
class Circuit:
    """A step of gates applied ``repeat`` times in a row on a register of ``n_qubits``.

    The step is held as its ``distinct`` gates and its ``index``, one integer
    per slot naming the gate that fills it; ``trotter_circuit`` emits both,
    and ``Circuit(n, gates, range(len(gates)))`` gives each slot its own
    entry. The register check, the counts and the QASM text read only these;
    ``step`` is the written-out view, built from the index on first need and
    kept. Equal, and hashed, by ``n_qubits``, ``step`` and ``repeat``, so
    another step/repeat split is another circuit and equal gates in separate
    objects index apart yet compare alike. ``metrics(repeat)`` profiles the
    step at any repeat, the circuit's own or not.
    """

    n_qubits: int
    distinct: tuple[Gate, ...]
    index: Sequence[int]
    repeat: int = 1

    def __post_init__(self):
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        n = self.n_qubits
        for g in self.distinct:
            c = g.control
            if not 0 <= g.target < n or (c is not None and not 0 <= c < n):
                raise ValueError(f"gate {g} outside register of {n}")

    @cached_property
    def step(self) -> tuple[Gate, ...]:
        """One repeat's gate sequence, written out."""
        return _gather(self.distinct, self.index)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The full gate sequence, every repeat written out."""
        return self.step * self.repeat

    @cached_property
    def kinds(self) -> Counter:
        """Gates of each kind in one step: each distinct gate's kind by its slot count."""
        uses = np.bincount(
            np.fromiter(self.index, np.intp, len(self.index)), minlength=len(self.distinct)
        )
        kinds: Counter = Counter()
        for g, k in zip(self.distinct, uses.tolist()):
            kinds[g.kind] += k
        return kinds

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _delays(self.step, self.n_qubits)

    @cached_property
    def _busy(self) -> dict[int, list[int]]:
        return {}

    def metrics(self, repeat: int) -> dict:
        """Depth, CX count, per-kind and total gate counts of ``repeat`` steps.

        Depth is greedy layering, disjoint qubits commuting; the counts are
        ``kinds``. A repeat resumes from the deepest busy vector kept below
        it: up to ``n_qubits`` it walks the written-out step from there, past
        that it composes the delay rows, which take ``n_qubits`` walks to
        build. The circuit's own repeat is not read.
        """
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        kept = self._busy
        busy = kept.get(repeat)
        if busy is None:
            done = max((r for r in kept if r < repeat), default=0)
            busy = kept.get(done, [0] * self.n_qubits)[:]
            for _ in range(repeat - done):
                if repeat <= self.n_qubits:
                    _layer(self.step, busy)
                else:
                    busy = [max(busy[j] + d for j, d in row) for row in self._rows]
            kept[repeat] = busy
        kinds = self.kinds
        return {
            "depth": max(busy, default=0),
            "cx_count": kinds["CNOT"] * repeat,
            "gate_counts": {k: v * repeat for k, v in sorted(kinds.items())},
            "total_gates": sum(kinds.values()) * repeat,
        }

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.n_qubits, self.repeat, self.step) == (other.n_qubits, other.repeat, other.step)

    def __hash__(self):
        return hash((self.n_qubits, self.step, self.repeat))


def _gather(table: Sequence, index: Sequence[int]) -> tuple:
    """``table[i]`` for each ``i`` of ``index``, as a tuple."""
    if len(index) < 2:
        return tuple(table[i] for i in index)
    return itemgetter(*index)(table)


def step_terms(inter: Interaction) -> list[tuple[PauliTerm, float]]:
    """The θ-free Trotter step: each term of H with its real coefficient.

    A pure-identity term only contributes global phase and is skipped; codes
    ascend, so it can only come first.
    """
    terms = inter.op.terms
    if terms and terms[0].code == 0:
        logger.info("skipping identity term (global phase only): %s", terms[0])
    return [(term, term.coeff.real) for term in terms if term.code]


def bind_angles(
    step: Sequence[tuple[PauliTerm, float]], theta: float, steps: int
) -> list[float]:
    """θ·coeff/steps for each (term, coeff) of ``step_terms``: the one place
    circuit angles are computed.

    Refuses more than ``MAX_ROTATIONS`` rotations in all, naming steps, the
    term count and the cap, and an angle whose RZ(−2·angle) is not finite,
    naming θ and steps.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps * len(step) > MAX_ROTATIONS:
        raise ValueError(
            f"steps = {steps} times {len(step)} terms is more than {MAX_ROTATIONS} rotations"
        )
    angles = [theta * coeff / steps for _, coeff in step]
    if not all(math.isfinite(2 * a) for a in angles):
        raise ValueError(
            f"theta = {theta!r}, steps = {steps}: "
            "a circuit angle 2·theta·coeff/steps is not finite"
        )
    return angles


def trotter_sequence(
    inter: Interaction, theta: float, steps: int
) -> list[tuple[PauliTerm, float]]:
    """One step of the first-order product formula: (term, θ·coeff/steps) pairs."""
    step = step_terms(inter)
    return list(zip([term for term, _ in step], bind_angles(step, theta, steps)))


def rotation_circuit(axes: str, alpha: float) -> Circuit:
    """Circuit for exp(-i·alpha·P), P the Pauli string ``axes``."""
    return trotter_circuit([(PauliTerm.from_label(1.0, axes), -alpha)], len(axes), 1)


def synthesize(inter: Interaction, theta: float, steps: int) -> Circuit:
    """Trotterized circuit whose unitary is exp(+iθH) to first order."""
    return trotter_circuit(
        trotter_sequence(inter, theta, steps), inter.op.width, steps
    )


def trotter_circuit(
    step: Sequence[tuple[PauliTerm, float]], n_qubits: int, steps: int
) -> Circuit:
    """Circuit of a ``trotter_sequence`` step, repeated ``steps`` times.

    Every term must be ``n_qubits`` wide, as ``statevector.rotation_tables``
    requires. Identity terms are outside that shared rule:
    ``trotter_sequence`` never emits one, this emitter refuses one, and
    ``statevector.evolve`` applies one as a global phase.

    Each (P, angle) becomes exp(+i·angle·P), the sign flip realizing the
    beam splitter's +iθ: basis changes map every active qubit to Z, a CNOT
    ladder chains the active qubits in ascending index, RZ(−2·angle) lands
    on the last active qubit, then everything mirrors back; a lone X is one
    RX(−2·angle). The masks (x, z) = ``term.xz`` give active = x | z and
    Y = x & z; X = x & ~z is the rest of x. The ladder pair and last qubit
    are kept per active mask and the basis-change pair per (x, Y), as
    indices into one table of gates, one per distinct gate, so a term adds
    at most its RZ (or RX). The table and the slot indices are the circuit.
    """
    n = n_qubits
    bits = [(q, 1 << n - 1 - q) for q in range(n)]
    table: list[Gate] = []
    shared: dict[tuple, int] = {}

    def gate(kind: str, target: int, control=None, angle=None) -> int:
        # 0.0 == -0.0 as keys, yet they print as 0 and -0: the sign is keyed too.
        key = (kind, target, control, angle, angle is not None and math.copysign(1, angle) < 0)
        i = shared.get(key)
        if i is None:
            i = shared[key] = len(table)
            table.append(Gate(kind, target, control, angle))
        return i

    ladders: dict[int, tuple[list[int], list[int], int]] = {}
    bases: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    index: list[int] = []
    for term, angle in step:
        if term.width != n:
            raise ValueError(f"term {term.axes} outside register of {n}")
        x, z = term.xz
        active = x | z
        ladder = ladders.get(active)
        if ladder is None:
            if not active:
                raise ValueError("all-identity string has no rotation circuit")
            qs = [q for q, b in bits if active & b]
            run = [gate("CNOT", t, c) for c, t in zip(qs, qs[1:])]
            ladder = ladders[active] = (run, run[::-1], qs[-1])
        run, back, last = ladder
        if not z and not run:  # a lone X
            index.append(gate("RX", last, None, -2 * angle))
            continue
        y = x & z
        basis = bases.get((x, y))
        if basis is None:
            xy = [(q, y & b) for q, b in bits if x & b]
            pre = [gate("RX", q, None, math.pi / 2) if is_y else gate("H", q) for q, is_y in xy]
            post = [
                gate("RX", q, None, -math.pi / 2) if is_y else gate("H", q) for q, is_y in xy[::-1]
            ]
            basis = bases[x, y] = (pre, post)
        index += basis[0]
        index += run
        index.append(gate("RZ", last, None, -2 * angle))
        index += back
        index += basis[1]
    return Circuit(n, tuple(table), index, steps)


def _layer(gates: Sequence[Gate], busy: list[int]) -> list[int]:
    """Greedy layering: each gate lands one layer above its qubits' last; in place."""
    for g in gates:
        t, c = g.target, g.control
        if c is None:
            busy[t] += 1
        else:
            bt, bc = busy[t], busy[c]
            busy[t] = busy[c] = 1 + (bt if bt > bc else bc)
    return busy


def _delays(step: Sequence[Gate], n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Max-plus delay rows of a step: row i lists (j, delay) for each qubit j i depends on.

    Layering is max-plus linear in the per-qubit busy vector: a step maps it
    to busy'[i] = max_j(busy[j] + delay[i][j]). A walk that starts qubit j
    above any depth one step reaches alone, the rest at 0, reads column j off
    the qubits that end that high. Every qubit depends on itself, so no row
    is empty.
    """
    sentinel = len(step) + 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j in range(n):
        start = [0] * n
        start[j] = sentinel
        for i, b in enumerate(_layer(step, start)):
            if b >= sentinel:
                rows[i].append((j, b - sentinel))
    return tuple(tuple(row) for row in rows)


def metrics(c: Circuit) -> dict:
    """Depth (greedy layering, disjoint qubits commute), CX count, per-kind counts."""
    return c.metrics(c.repeat)


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text; angles at 15 significant digits, byte-stable.

    Each distinct gate is formatted once and the step's text joined from
    those lines through the index.
    """
    lines = _gather([_qasm_line(g) for g in c.distinct], c.index)
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
