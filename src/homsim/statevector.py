"""Dense statevector execution, test-oracle matrix application, and seeded sampling.

Two ways to evolve a state by a Trotterized Hamiltonian. The rotation pass
applies each exp(+iαP) of one Trotter step as cos α·ψ + i sin α·Pψ, a few
vector operations per term, and repeats the step: ``rotation_tables``
builds each string's gather index, sign vector and phase, none of which
depend on the angles, and ``evolve`` binds one set of angles and runs the
step, so a sweep builds the tables once and binds each row's angles to
them; it runs the step in place on a copy of the start, five numpy calls
per rotation and no vector per string. ``apply_circuit`` runs the
synthesized circuit gate by gate and is the reference the rotations are
tested against. ``apply_dense`` applies a full unitary such as
``beamsplitter.exact_unitary``; runs do not take it, the tests compare
against it.

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
    s: StateVector, tables: RotationTables, angles: Sequence[float], repeat: int = 1
) -> StateVector:
    """exp(+i·angle·P) for each string of ``tables`` and its angle in order,
    ``repeat`` times.

    Since P² = I, exp(iαP)ψ = cos α·ψ + i sin α·Pψ, and (Pψ)[j] =
    i^|x&z|·((−1)^|z&·|·ψ)[j ⊕ x]. Once per run, each string's cos α and
    sin α·i·i^|x&z| are bound as 0-d complex128 arrays (numpy would promote
    a Python scalar on every call), the start is copied and two scratch
    vectors are made. Each repeat runs every string in place through them
    with that formula's operands in its order, so the amplitudes are bit
    for bit the formula's; ``s`` is left as it was.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if tables.n_qubits != s.n_qubits:
        raise ValueError("register width mismatch")
    weights = [
        (np.array(math.cos(a), dtype=complex), np.array(math.sin(a) * phase, dtype=complex))
        for a, (_, _, phase) in zip(angles, tables.actions, strict=True)
    ]
    psi = s.amplitudes.astype(complex)
    signed = np.empty_like(psi)
    kept = np.empty_like(psi)
    multiply, add = np.multiply, np.add
    for _ in range(repeat):
        for (gather, sign, _), (cos, sin_phase) in zip(tables.actions, weights):
            multiply(sign, psi, signed)
            moved = signed[gather]
            multiply(sin_phase, moved, moved)
            multiply(cos, psi, kept)
            add(kept, moved, psi)
    return StateVector(s.n_qubits, psi)


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
