"""Dense statevector execution, test-oracle matrix application, and seeded sampling.

Two ways to evolve a state by a Trotterized Hamiltonian, both from one
step's (term, coeff) pairs. ``rotation_tables`` builds what neither binds
to θ: one gather index per x mask, one sign vector per z mask, each
string's phase, and the step's runs, maximal blocks of consecutive strings
with one x mask that commute pairwise, each one exponential exp(iαG) with
a coupling h along j. ``evolve`` binds rows to them, each a θ and a step
count, so a sweep builds the tables once. When one row's weights fit
``batch_rows``, read off the run count, the rows run in batches of that
many in place, three numpy calls per run for all rows still running,
cos(α|h|)·ψ + i sin(α|h|)·(h/|h|)·ψ[j ⊕ x]; a lone run is a batch of one,
and every row is bit for bit its lone run. Otherwise (the full step from 4
qubits per mode, the reduced one at 6) each row takes the per-string pass,
five calls per string with 0-d weights, cos α·ψ + i sin α·Pψ. That pass
is also the oracle the runs are tested against: they agree to rounding.
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
from functools import cached_property
from typing import Sequence

import numpy as np

from .circuit import Circuit, Gate, bind_angles
from .pauli import PauliTerm, _action, _parity

NORM_TOL = 1e-10
MAX_GATE_QUBITS = 24

RNG_ALGORITHM = "numpy-pcg64"

# The most weights one batch of rows writes out: runs × rows × 2^n
# amplitudes, 32 bytes each (cos α|h| and i·sin α|h|·h/|h|); a full batch
# at 3 qubits per mode peaked at 4.7–4.9 MB. ``batch_rows`` reads it
# against the run count of the rotation tables; when not even one row
# fits, each row takes the per-string 0-d loop. Batch of m one-step rows
# against the 0-d loop on the same rows (best of 3–7, shared 2-core host,
# one BLAS thread, two passes): 2 qubits per mode, m = 1 took 0.50–0.53×,
# 7 0.18–0.19×, 64 0.14×; 3 qubits, m = 1 0.33–0.36×, 13 0.16–0.17×, 26
# 0.16–0.20×; the reduced step at 4 and 5 qubits 0.03–0.06×. So a batch
# holds 431 rows at 2 qubits per mode, 13 at 3 and 7 of the reduced step
# at 5. Past the budget, one row of the full step at 4 qubits per mode
# (7.5 MB of weights) took 0.70–0.80× and one of the reduced step at 6
# (4.3 MB) 0.03×; both run in the 0-d loop.
BATCH_WEIGHTS = 2 ** 17


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
class RunTable:
    """The θ-free half of the batch loop's weights, one row along j per run
    of a step: the run's coupling h, i·h/|h| (0 where h is 0), and |h| as
    an ``index`` into its distinct values ``levels``, ascending, so a row
    takes cos and sin once per level."""

    couplings: np.ndarray
    unit: np.ndarray
    levels: np.ndarray
    index: np.ndarray


@dataclass(frozen=True, eq=False)
class RotationTables:
    """What the rotation pass needs of one step's (term, coeff) pairs, none
    of it dependent on the angles: each string's gather index j ⊕ x, its
    int8 sign vector (−1)^|z&·| and its phase, each held once, and the
    step's runs.

    Strings that share an x mask share one row of ``gathers``, and strings
    that share a z mask one row of ``signs`` (``x_rows`` and ``z_rows`` name
    each string's rows, in step order), so memory grows with the distinct
    masks (q² x masks for the beam splitter at q qubits per mode), not with
    the number of strings. ``phases`` holds each string's i·i^|x&z|·(−1)^|x&z|,
    the factor of sin α once the sign is read at j rather than at j ⊕ x.

    A run is a maximal block of consecutive strings with one x mask and one
    parity of |x&z|. Two such strings commute (their symplectic product is
    |x&z₁| + |x&z₂|), so a run's rotations are one exponential exp(iαG),
    (Gψ)[j] = h(j)·ψ[j ⊕ x]. ``run_starts`` names each run's first string,
    whose x mask is the run's, and ``runs`` is their ``RunTable``.
    """

    n_qubits: int
    step: tuple[tuple[PauliTerm, float], ...]
    gathers: np.ndarray
    signs: np.ndarray
    x_rows: tuple[int, ...]
    z_rows: tuple[int, ...]
    phases: np.ndarray
    run_starts: tuple[int, ...]

    @cached_property
    def runs(self) -> RunTable:
        """The step's ``RunTable``, built on first need. Each run's h(j) =
        Σ_k c_k·(phase_k/i)·(−1)^|z_k&j| over its strings k is the
        Walsh–Hadamard transform of the c_k·phase_k/i placed at their z
        masks. G is Hermitian, so h(j ⊕ x) is the conjugate of h(j) and
        G² = |h|²."""
        dim, strings = self.gathers.shape[1], len(self.x_rows)
        h = np.zeros((len(self.run_starts), dim), dtype=complex)
        run = np.repeat(np.arange(len(h)), np.diff(self.run_starts + (strings,)))
        z = [term.xz[1] for term, _ in self.step]
        coeffs = np.array([coeff for _, coeff in self.step], dtype=float)
        np.add.at(h, (run, z), -1j * self.phases * coeffs)
        half = 1
        while half < dim:
            pairs = h.reshape(len(h), dim // (2 * half), 2, half)
            low, high = pairs[:, :, 0], pairs[:, :, 1]
            difference = low - high
            low += high
            high[...] = difference
            half *= 2
        magnitude = np.abs(h)
        levels, index = np.unique(magnitude, return_inverse=True)
        unit = np.divide(1j * h, magnitude, out=np.zeros_like(h), where=magnitude > 0)
        return RunTable(h, unit, levels, index.reshape(h.shape))


def rotation_tables(n_qubits: int, step: Sequence[tuple[PauliTerm, float]]) -> RotationTables:
    """The ``RotationTables`` of ``step``'s (term, coeff) pairs on a register of ``n_qubits``."""
    n = n_qubits
    _check_width(n)
    xs: dict[int, int] = {}
    zs: dict[int, int] = {}
    strings, keys = [], []
    for term, _ in step:
        if term.width != n:
            raise ValueError(f"term {term.axes!r} does not fit a register of {n}")
        x, z, phase = _action(term)
        parity = (x & z).bit_count() % 2
        phase *= 1j * (-1) ** parity
        strings.append((xs.setdefault(x, len(xs)), zs.setdefault(z, len(zs)), phase))
        keys.append((x, parity))
    run_starts = [i for i, key in enumerate(keys) if i == 0 or key != keys[i - 1]]
    j = np.arange(2 ** n)
    parity = _parity(n)
    gathers = np.empty((len(xs), 2 ** n), dtype=int)
    signs = np.empty((len(zs), 2 ** n), dtype=np.int8)
    for row, x in zip(gathers, xs):
        np.bitwise_xor(j, x, row)
    for row, z in zip(signs, zs):
        parity.take(z & j, None, row)
    x_rows, z_rows, phases = zip(*strings) if strings else ((), (), ())
    return RotationTables(
        n, tuple(step), gathers, signs, x_rows, z_rows, np.array(phases, dtype=complex),
        tuple(run_starts),
    )


def batch_rows(tables: RotationTables) -> int:
    """The most rows whose weights, one per run and amplitude of ``tables``,
    fit ``BATCH_WEIGHTS`` written out; 0 when not even one row fits."""
    return BATCH_WEIGHTS // max(1, len(tables.run_starts) * tables.gathers.shape[1])


def evolve(
    s: StateVector, tables: RotationTables, rows: Sequence[tuple[float, int]]
) -> list[StateVector]:
    """What each (θ, steps) of ``rows`` makes of ``s``: ``steps`` repeats of
    the step of ``tables``, exp(+i·θ·c·P/steps) for each string P and its
    coefficient c in order. ``s`` is left as it was.

    When one row's weights, written out, fit ``BATCH_WEIGHTS``
    (``batch_rows``), the rows evolve in batches of that many, three numpy
    calls per run of the step for all rows still running: with α = θ/steps,
    exp(iαG)ψ = cos(α|h|)·ψ + i·sin(α|h|)·(h/|h|)·ψ[j ⊕ x]. Each row's
    weights are bound alone, in one shape, so every row is bit for bit its
    lone run; a row whose α·|h| is not finite is refused, naming θ and
    steps. Otherwise each row evolves alone in the per-string pass, five
    numpy calls per string with 0-d weights: since P² = I, exp(iaP)ψ =
    cos a·ψ + i sin a·Pψ at the angle a = θ·c/steps of
    ``circuit.bind_angles``, and (Pψ)[j] = i^|x&z|·(−1)^|x&z|·(−1)^|z&j|·
    ψ[j ⊕ x], each string's sign read at j, after the gather, from its own
    row of ``signs``. That pass is bit for bit one plain expression per
    string; the runs agree with it to rounding, about 1e−14.
    """
    if tables.n_qubits != s.n_qubits:
        raise ValueError("register width mismatch")
    if any(steps < 1 for _, steps in rows):
        raise ValueError("steps must be >= 1")
    size = batch_rows(tables)
    if not size:
        return [
            _evolve_alone(s, tables, bind_angles(tables.step, theta, steps), steps)
            for theta, steps in rows
        ]
    runs = tables.runs
    largest = float(runs.levels.max(initial=0.0))
    for theta, steps in rows:
        if not math.isfinite(theta / steps * largest):
            raise ValueError(
                f"theta = {theta!r}, steps = {steps}: a run angle theta·|h|/steps is not finite"
            )
    chunks = [rows[i : i + size] for i in range(0, len(rows), size)]
    return [state for chunk in chunks for state in _evolve_batch(s, tables, chunk)]


def _weights(tables: RotationTables, angles) -> np.ndarray:
    """One row's (2, strings) weights: each string's cos α and sin α·phase, complex."""
    weights = np.empty((2, len(tables.x_rows)), dtype=complex)
    weights[0] = list(map(math.cos, angles))
    np.multiply(list(map(math.sin, angles)), tables.phases, weights[1])
    return weights


def _bind(runs: RunTable, theta: float, steps: int) -> np.ndarray:
    """One row's (runs, 2, amplitudes) weights: each run's cos α|h| and
    i·sin α|h|·h/|h| along j, α = θ/steps."""
    angle = runs.levels * (theta / steps)
    weights = np.empty((len(runs.unit), 2, runs.unit.shape[1]), dtype=complex)
    weights[:, 0] = np.cos(angle)[runs.index]
    weights[:, 1] = np.sin(angle)[runs.index] * runs.unit
    return weights


def _evolve_batch(s: StateVector, tables: RotationTables, rows) -> list[StateVector]:
    """One batch of ``rows`` in place, longest repeat first; a row leaves after its repeats."""
    order = sorted(range(len(rows)), key=lambda i: rows[i][1], reverse=True)
    dim = tables.gathers.shape[1]
    # Every operand of a multiply or add has the running rows' shape and is
    # contiguous, so numpy takes its same-shape loop (a broadcast or strided
    # operand costs up to twice as much a call): per run the rows' weights
    # written out along each row. Each run gathers every row by its x mask's
    # row of the tables, one view per mask.
    gather_rows = list(tables.gathers)
    gathers = [gather_rows[tables.x_rows[start]] for start in tables.run_starts]
    weights = np.empty((len(gathers), 2, len(rows), dim), dtype=complex)
    for i, row in enumerate(order):
        weights[:, :, i] = _bind(tables.runs, *rows[row])
    state = s.amplitudes[None]
    out: list = [None] * len(rows)
    done = 0
    while order:
        k = len(order)
        # The running rows' state and weights, each one contiguous copy.
        buf = np.empty((2, k, dim), dtype=complex)
        buf[0] = state[:k]
        if weights.shape[2] > k:
            weights = weights[:, :, :k].copy()
        repeat = rows[order[-1]][1]
        _rotate(buf, list(zip(gathers, weights)), repeat - done)
        state = buf[0]
        done = repeat
        while order and rows[order[-1]][1] == done:
            out[order[-1]] = StateVector(s.n_qubits, state[len(order) - 1].copy())
            order.pop()
    return out


def _rotate(buf, step, repeat: int) -> None:
    """``repeat`` times, each run (gather, weight) of ``step`` on the rows
    of ``buf[0]`` in place in three calls: gather each row along its own
    axis into the moved half ``buf[1]``, multiply the buffer by ``weight``
    (cos α|h| over the state, i·sin α|h|·h/|h| over the moved half), add
    the moved half."""
    psi, moved = buf
    take = psi.take
    multiply, add = np.multiply, np.add
    for _ in range(repeat):
        for gather, weight in step:
            take(gather, 1, moved, "clip")
            multiply(weight, buf, buf)
            add(psi, moved, psi)


def _evolve_alone(s: StateVector, tables: RotationTables, angles, repeat: int) -> StateVector:
    """One row on its own copy of the state with each weight bound to a 0-d
    view (numpy would promote a Python scalar on every call) of the row's
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
