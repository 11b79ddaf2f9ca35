"""Dense statevector execution, test-oracle matrix application, and seeded sampling.

Two ways to evolve a state by a Trotterized Hamiltonian. The rotation pass
applies each exp(+iαP) of one Trotter step as cos α·ψ + i sin α·Pψ, a few
vector operations per term, and repeats the step: ``rotation_tables``
builds one gather index per x mask, one sign vector per z mask and each
string's phase, none of which depend on the angles, and ``evolve`` binds
runs to them, each a set of angles and a repeat count, so a sweep builds
the tables once. When one row fits ``batch_rows``, the one reading of the
``BATCH_WEIGHTS`` budget, it runs them in batches of that many rows in
place, three numpy calls per rotation for all rows still running; a lone
run is a batch of one. Otherwise each run takes a loop of five calls with
0-d weights. Both loops compute one formula from one binding of the
weights, so every row is bit for bit its lone run in either loop.
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

# The most weights one batch of rows writes out: strings × rows × 2^n
# amplitudes, 32 bytes each (cos and sin); with its gathers and sign rows a
# full batch at 3 qubits per mode peaked at 4.7 MB. ``batch_rows`` is the
# one reading of it; when not even one row fits, each run takes the 0-d
# loop alone. Batch of m one-step rows against m lone 0-d runs (median of
# 7–41, shared 2-core host, one BLAS thread, two passes): 2 qubits per
# mode, m = 1 took 0.81–0.98×, 2 0.48–0.50×, 7 0.23–0.24×, 16 0.30–0.31×;
# 3 qubits, m = 1 0.78–0.85×, 2 0.49–0.55×, 4 0.39–0.40×, 7 0.31–0.33×,
# 14 0.28×; 4 qubits, m = 1 1.36–1.42×, 2 1.20–1.26×, 4 1.13–1.30×. So a
# sweep's batch holds 256 rows at 2 qubits per mode and 7 at 3, and from 4
# up every run takes the 0-d loop; doubling the budget would gain a tenth
# a row at 3 qubits per mode for twice the memory.
BATCH_WEIGHTS = 2 ** 17


def batch_rows(strings: int, n_qubits: int) -> int:
    """The most rows of ``strings`` rotations on ``n_qubits`` whose weights,
    written out, fit ``BATCH_WEIGHTS``; 0 when not even one row fits."""
    return BATCH_WEIGHTS // max(1, strings << n_qubits)


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
    dependent on the angles: each string's gather index j ⊕ x, its int8
    sign vector (−1)^|z&·| and its phase, each held once.

    Strings that share an x mask share one row of ``gathers``, and strings
    that share a z mask one row of ``signs`` (``x_rows`` and ``z_rows`` name
    each string's rows, in step order), so memory grows with the distinct
    masks (q² x masks for the beam splitter at q qubits per mode), not with
    the number of strings. ``phases`` holds each string's i·i^|x&z|·(−1)^|x&z|,
    the factor of sin α once the sign is read at j rather than at j ⊕ x.
    """

    n_qubits: int
    gathers: np.ndarray
    signs: np.ndarray
    x_rows: tuple[int, ...]
    z_rows: tuple[int, ...]
    phases: np.ndarray


def rotation_tables(n_qubits: int, terms: Sequence[PauliTerm]) -> RotationTables:
    """The ``RotationTables`` of ``terms`` on a register of ``n_qubits``."""
    n = n_qubits
    _check_width(n)
    xs: dict[int, int] = {}
    zs: dict[int, int] = {}
    strings = []
    for term in terms:
        if term.width != n:
            raise ValueError(f"term {term.axes!r} does not fit a register of {n}")
        x, z, phase = _action(term)
        phase *= 1j * (-1) ** (x & z).bit_count()
        strings.append((xs.setdefault(x, len(xs)), zs.setdefault(z, len(zs)), phase))
    j = np.arange(2 ** n)
    parity = _parity(n)
    gathers = np.empty((len(xs), 2 ** n), dtype=int)
    signs = np.empty((len(zs), 2 ** n), dtype=np.int8)
    for row, x in zip(gathers, xs):
        np.bitwise_xor(j, x, row)
    for row, z in zip(signs, zs):
        parity.take(z & j, None, row)
    x_rows, z_rows, phases = zip(*strings) if strings else ((), (), ())
    return RotationTables(n, gathers, signs, x_rows, z_rows, np.array(phases, dtype=complex))


def evolve(
    s: StateVector, tables: RotationTables, runs: Sequence[tuple[Sequence[float], int]]
) -> list[StateVector]:
    """What each (angles, repeat) of ``runs`` makes of ``s``: exp(+i·angle·P)
    for each string of ``tables`` and its angle in order, ``repeat`` times.
    ``s`` is left as it was.

    Since P² = I, exp(iαP)ψ = cos α·ψ + i sin α·Pψ, and (Pψ)[j] =
    i^|x&z|·(−1)^|x&z|·(−1)^|z&j|·ψ[j ⊕ x]: each string's sign is read at j,
    after the gather, from its own row of ``signs``. When one row's weights,
    written out, fit ``BATCH_WEIGHTS`` (``batch_rows``), the runs evolve in
    batches of that many rows, three numpy calls per string for all rows
    still running; otherwise each run evolves alone with 0-d weights, five
    numpy calls per string. Both loops bind cos α and sin α·phase through
    ``_weights`` and each product has a factor that is purely real or purely
    imaginary (cos α, sin α·phase, ±1), so however numpy loops over its
    operands, every row is bit for bit one formula, whichever loop runs it.
    """
    if tables.n_qubits != s.n_qubits:
        raise ValueError("register width mismatch")
    strings = len(tables.x_rows)
    if any(len(angles) != strings for angles, _ in runs):
        raise ValueError("every run needs one angle per string")
    if any(repeat < 1 for _, repeat in runs):
        raise ValueError("repeat must be >= 1")
    rows = batch_rows(strings, s.n_qubits)
    if not rows:
        return [_evolve_alone(s, tables, angles, repeat) for angles, repeat in runs]
    chunks = [runs[i : i + rows] for i in range(0, len(runs), rows)]
    return [state for chunk in chunks for state in _evolve_batch(s, tables, chunk)]


def _weights(tables: RotationTables, angles) -> np.ndarray:
    """One run's (2, strings) weights: each string's cos α and sin α·phase, complex."""
    weights = np.empty((2, len(tables.x_rows)), dtype=complex)
    weights[0] = list(map(math.cos, angles))
    np.multiply(list(map(math.sin, angles)), tables.phases, weights[1])
    return weights


def _evolve_batch(s: StateVector, tables: RotationTables, runs) -> list[StateVector]:
    """One batch of ``runs`` in place, longest repeat first; a row leaves after its repeats."""
    order = sorted(range(len(runs)), key=lambda i: runs[i][1], reverse=True)
    m, dim, strings = len(order), 2 ** s.n_qubits, len(tables.x_rows)
    # Every operand of a call has the running rows' shape and is contiguous,
    # so numpy takes its same-shape loop (a broadcast or strided operand
    # costs up to twice as much a call): the gathers of all rows, of which a
    # phase takes its running rows' prefix, and per string the rows' cos α
    # and sin α·phase·(−1)^|z&j| written out along each row.
    gathers = _batch_gathers(tables, m)
    signs = tables.signs[list(tables.z_rows)]
    columns = np.array([_weights(tables, runs[i][0]) for i in order]).transpose(2, 1, 0)
    state = s.amplitudes[None]
    out: list = [None] * m
    done = 0
    while order:
        k = len(order)
        # The running rows' state and weights, each one contiguous copy.
        buf = np.empty((2, k, dim), dtype=complex)
        buf[0] = state[:k]
        weights = np.empty((strings, 2, k, dim), dtype=complex)
        weights[:, 0] = columns[:, 0, :k, None]
        np.multiply(columns[:, 1, :k, None], signs[:, None], weights[:, 1])
        gather_rows = list(gathers[:, :k])
        step = list(zip([gather_rows[x] for x in tables.x_rows], weights))
        repeat = runs[order[-1]][1]
        _rotate(buf, step, repeat - done)
        state = buf[0]
        done = repeat
        while order and runs[order[-1]][1] == done:
            out[order[-1]] = StateVector(s.n_qubits, state[len(order) - 1].copy())
            order.pop()
    return out


def _batch_gathers(tables: RotationTables, m: int) -> np.ndarray:
    """For a batch of ``m`` rows, per x mask each row's gather into the
    flattened batch: row r's gather index offset by r·2^n, so any prefix
    of k rows gathers among them."""
    dim = 2 ** tables.n_qubits
    return tables.gathers[:, None] + np.arange(0, m * dim, dim)[:, None]


def _rotate(buf, step, repeat: int) -> None:
    """``repeat`` times, each string (gather, weight) of ``step`` on the
    state ``buf[0]`` in place in three calls: gather into the moved half
    ``buf[1]``, multiply the buffer by ``weight`` (cos α over the state, the
    signed sin α·phase over the moved half), add the moved half."""
    psi, moved = buf
    take = psi.reshape(-1).take
    multiply, add = np.multiply, np.add
    for _ in range(repeat):
        for gather, weight in step:
            take(gather, None, moved, "clip")
            multiply(weight, buf, buf)
            add(psi, moved, psi)


def _evolve_alone(s: StateVector, tables: RotationTables, angles, repeat: int) -> StateVector:
    """One run on its own copy of the state with each weight bound to a 0-d
    view (numpy would promote a Python scalar on every call) of the run's
    ``_weights``, five numpy calls per string in place through two scratch
    vectors: gather into ``moved``, the sign times sin α·phase into ``row``,
    ``row`` into ``moved``, cos α into the state, add ``moved``."""
    psi = s.amplitudes.copy()
    moved = np.empty_like(psi)
    row = np.empty_like(psi)
    gather_rows, sign_rows = list(tables.gathers), list(tables.signs)
    cos, sin_phase = _weights(tables, angles)
    step = [
        (gather_rows[x], sign_rows[z], cos[i, ...], sin_phase[i, ...])
        for i, (x, z) in enumerate(zip(tables.x_rows, tables.z_rows))
    ]
    take, multiply, add = psi.take, np.multiply, np.add
    for _ in range(repeat):
        for gather, sign, cos, sin_phase in step:
            take(gather, None, moved, "clip")
            multiply(sign, sin_phase, row)
            multiply(row, moved, moved)
            multiply(cos, psi, psi)
            add(psi, moved, psi)
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
