"""Dense statevector execution, test-oracle matrix application, and seeded sampling.

Two ways to evolve a state by a Trotterized Hamiltonian. The rotation pass
applies each exp(+iαP) of one Trotter step as cos α·ψ + i sin α·Pψ, a few
vector operations per term, and repeats the step: ``rotation_tables``
builds each string's gather index, sign vector and phase, none of which
depend on the angles, and ``evolve`` binds runs to them, each a set of
angles and a repeat count, so a sweep builds the tables once. It runs
them as one batch of rows in place, five numpy calls per rotation for all
rows still running and no vector per string; a lone run is a batch of
one on a 1-D vector, and every row is bit for bit its lone run.
``apply_circuit`` runs the synthesized circuit gate by gate and is the
reference the rotations are tested against. ``apply_dense`` applies a
full unitary such as ``beamsplitter.exact_unitary``; runs do not take it,
the tests compare against it.

Label convention everywhere: the leftmost character of a bitstring label is
qubit 0 and the highest-order bit of the amplitude index j, so qubit q is
bit n−1−q. Gates and Pauli rotations alike index amplitudes by arithmetic
on j; the gate path takes nothing from ``pauli``, so it stays an
independent check of the rotations. Sampling uses
numpy's PCG64 generator; the algorithm name is surfaced in reports so
histograms are reproducible across platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate
from .pauli import PauliTerm, _action, _parity

NORM_TOL = 1e-10
MAX_GATE_QUBITS = 24

RNG_ALGORITHM = "numpy-pcg64"


class NormDriftError(RuntimeError):
    """Statevector norm left the unit sphere beyond tolerance."""


@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (2 ** self.n_qubits,):
            raise ValueError("amplitude count must be 2^n_qubits")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NormDriftError(f"norm^2 = {norm} drifted beyond {NORM_TOL}")


@dataclass(frozen=True)
class Histogram:
    counts: dict[str, int] = field(default_factory=dict)
    shots: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to shots")


def init_basis(n_qubits: int, label: str) -> StateVector:
    """Unit amplitude on one computational basis state, by bitstring label."""
    if len(label) != n_qubits or any(c not in "01" for c in label):
        raise ValueError(f"malformed basis label {label!r} for {n_qubits} qubits")
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[int(label, 2)] = 1.0
    return StateVector(n_qubits, amps)


def _gate_matrix(kind: str, angle: float | None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if kind == "RX":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RZ":
        return np.array(
            [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]],
            dtype=complex,
        )
    raise ValueError(f"no dense 1q matrix for {kind}")


def _apply_gate_raw(psi: np.ndarray, g: Gate, j: np.ndarray, n: int) -> np.ndarray:
    # j = arange(2**n); qubit q is bit n-1-q of the amplitude index.
    t = n - 1 - g.target
    if g.kind == "CNOT":
        return psi[j ^ ((j >> (n - 1 - g.control) & 1) << t)]
    m = _gate_matrix(g.kind, g.angle)
    b = j >> t & 1
    return m[b, 0] * psi[j & ~(1 << t)] + m[b, 1] * psi[j | 1 << t]


def _check_width(n: int) -> None:
    if n > MAX_GATE_QUBITS:
        raise ValueError(f"gate path capped at {MAX_GATE_QUBITS} qubits")


def apply_circuit(s: StateVector, c: Circuit) -> StateVector:
    """Gate by gate; ``Circuit`` has already checked every gate against its register."""
    if c.n_qubits != s.n_qubits:
        raise ValueError("register width mismatch")
    _check_width(c.n_qubits)
    j = np.arange(2 ** c.n_qubits)
    psi = s.amplitudes
    for _ in range(c.repeat):
        for g in c.step:
            psi = _apply_gate_raw(psi, g, j, c.n_qubits)
    return StateVector(s.n_qubits, psi)


@dataclass(frozen=True, eq=False)
class RotationTables:
    """What the rotation pass needs of one step's Pauli strings, none of it
    dependent on the angles: per string, in step order, its gather index
    j ⊕ x, its int8 sign vector (−1)^|z&·| and the constant i·i^|x&z|.

    Strings that share an x mask share one gather array, and strings that
    share a z mask one sign array, so memory grows with the distinct masks
    (q² x masks for the beam splitter at q qubits per mode), not with the
    number of strings.
    """

    n_qubits: int
    actions: tuple[tuple[np.ndarray, np.ndarray, complex], ...]


def rotation_tables(n_qubits: int, terms: Sequence[PauliTerm]) -> RotationTables:
    """The ``RotationTables`` of ``terms`` on a register of ``n_qubits``."""
    n = n_qubits
    _check_width(n)
    j = np.arange(2 ** n)
    parity = _parity(n)
    rows: dict[int, np.ndarray] = {}
    signs: dict[int, np.ndarray] = {}
    actions = []
    for term in terms:
        if term.width != n:
            raise ValueError(f"term {term.axes!r} does not fit a register of {n}")
        x, z, phase = _action(term)
        if x not in rows:
            rows[x] = j ^ x
        if z not in signs:
            signs[z] = parity[z & j]
        actions.append((rows[x], signs[z], 1j * phase))
    return RotationTables(n, tuple(actions))


def evolve(
    s: StateVector, tables: RotationTables, runs: Sequence[tuple[Sequence[float], int]]
) -> list[StateVector]:
    """What each (angles, repeat) of ``runs`` makes of ``s``: exp(+i·angle·P)
    for each string of ``tables`` and its angle in order, ``repeat`` times.
    ``s`` is left as it was.

    Since P² = I, exp(iαP)ψ = cos α·ψ + i sin α·Pψ, and (Pψ)[j] =
    i^|x&z|·((−1)^|z&·|·ψ)[j ⊕ x]. The runs evolve as one (m × 2^n) batch
    of rows, longest repeat first, and each string is five numpy calls in
    place through two scratch batches for all rows still running. A row
    leaves after its own repeats; the last one left, a lone run's only row,
    runs on a 1-D vector with 0-d weights (numpy would promote a Python
    scalar on every call). Each product has a factor that is purely real or
    purely imaginary (cos α, sin α·i·i^|x&z|, ±1), so however numpy loops
    over a batch, every row is bit for bit that formula's operands in its
    order, as its lone run is. A batch writes out strings × m × 2^n
    weights, so its caller bounds m.
    """
    if tables.n_qubits != s.n_qubits:
        raise ValueError("register width mismatch")
    if any(repeat < 1 for _, repeat in runs):
        raise ValueError("repeat must be >= 1")
    order = sorted(range(len(runs)), key=lambda i: runs[i][1], reverse=True)
    m, dim = len(order), 2 ** s.n_qubits
    psi = np.empty((m, dim), dtype=complex)
    psi[:] = s.amplitudes
    signed = np.empty_like(psi)
    kept = np.empty_like(psi)
    if m > 1:
        # Every operand of a batch call has the batch's shape, so numpy takes
        # its same-shape loop (a broadcast operand costs about a microsecond
        # more a call): per string the rows' weights written out along each
        # row, per z mask the signs as complex rows, per x mask one flat
        # gather index with each row's offset.
        weights = [
            [
                (math.cos(a), math.sin(a) * phase)
                for a, (_, _, phase) in zip(runs[i][0], tables.actions, strict=True)
            ]
            for i in order
        ]
        columns = np.array(weights, dtype=complex).reshape(m, len(tables.actions), 2)
        columns = np.repeat(columns.transpose(1, 2, 0)[..., None], dim, axis=-1)
        offsets = np.arange(0, m * dim, dim)[:, None]
        batched = {}
        for gather, sign, _ in tables.actions:
            if id(gather) not in batched:
                batched[id(gather)] = offsets + gather
            if id(sign) not in batched:
                batched[id(sign)] = np.repeat(sign[None].astype(complex), m, axis=0)
    out: list = [None] * m
    done = 0
    while order:
        k = len(order)
        if k == 1:
            # The batch's weights for this row, each bound straight to a 0-d
            # array: a list of a lone run's weights first cost 2% at qpm 5.
            rows = (psi[0], signed[0], kept[0])
            step = [
                (
                    gather,
                    sign,
                    np.array(math.cos(a), dtype=complex),
                    np.array(math.sin(a) * phase, dtype=complex),
                )
                for a, (gather, sign, phase) in zip(runs[order[0]][0], tables.actions, strict=True)
            ]
        else:
            rows = (psi[:k], signed[:k], kept[:k])
            running = {key: table[:k] for key, table in batched.items()}
            step = [
                (running[id(gather)], running[id(sign)], cos, sin_phase)
                for (gather, sign, _), cos, sin_phase in zip(
                    tables.actions, columns[:, 0, :k], columns[:, 1, :k]
                )
            ]
        repeat = runs[order[-1]][1]
        _rotate(*rows, step, repeat - done)
        done = repeat
        while order and runs[order[-1]][1] == done:
            out[order[-1]] = StateVector(s.n_qubits, psi[len(order) - 1].copy())
            order.pop()
    return out


def _rotate(psi, signed, kept, step, repeat: int) -> None:
    """``repeat`` times, each string (gather, sign, cos, sin_phase) of
    ``step`` on ``psi`` in place, through the scratch ``signed`` and ``kept``."""
    gathered = signed.reshape(-1)
    multiply, add = np.multiply, np.add
    for _ in range(repeat):
        for gather, sign, cos, sin_phase in step:
            multiply(sign, psi, signed)
            moved = gathered[gather]
            multiply(sin_phase, moved, moved)
            multiply(cos, psi, kept)
            add(kept, moved, psi)


def apply_dense(s: StateVector, m: np.ndarray) -> StateVector:
    """Apply a unitary matrix directly (the dense test oracle)."""
    dim = 2 ** s.n_qubits
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match {dim}-dim state")
    if not np.max(np.abs(m @ m.conj().T - np.eye(dim))) <= NORM_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    return StateVector(s.n_qubits, m @ s.amplitudes)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit, column by column through the gate path."""
    dim = 2 ** c.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        label = format(j, f"0{c.n_qubits}b")
        out[:, j] = apply_circuit(init_basis(c.n_qubits, label), c).amplitudes
    return out


def probabilities(s: StateVector) -> np.ndarray:
    return np.abs(s.amplitudes) ** 2


def sample(s: StateVector, shots: int, seed: int) -> Histogram:
    """Seeded i.i.d. measurement shots, aggregated into a label histogram.

    Only the outcomes drawn are labelled, in ascending label order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = probabilities(s)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p)
    drawn = np.flatnonzero(draws)
    counts = {
        format(i, f"0{s.n_qubits}b"): k
        for i, k in zip(drawn.tolist(), draws[drawn].tolist())
    }
    return Histogram(counts=counts, shots=shots)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register width mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
