import math

import numpy as np
import pytest

from homsim import experiments
from homsim.circuit import Circuit, Gate
from homsim.gray import (
    FockEncoding,
    annihilation_op,
    basis_index,
    creation_op,
    gray_bits,
    ladder,
    projector,
)
from homsim.pauli import PauliOp, PauliTerm
from homsim.statevector import Histogram, StateVector, apply_circuit, probabilities

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(op: PauliOp) -> np.ndarray:
    """Independent dense oracle: one Kronecker product per term, from its label."""
    out = np.zeros((2 ** op.width, 2 ** op.width), dtype=complex)
    for t in op.terms:
        m = np.eye(1, dtype=complex)
        for a in t.axes:
            m = np.kron(m, _SINGLE[a])
        out += t.coeff * m
    return out


# Pauli-sum algebra written out term by term through the public PauliOp
# constructor: every product is a PauliTerm, collected and simplified once.
# The oracle for the operators' own tensor, +, adjoint and scale.


def listed_tensor(a: PauliOp, b: PauliOp) -> PauliOp:
    width = a.width + b.width
    return PauliOp(
        [
            PauliTerm(s.coeff * t.coeff, s.code << 2 * b.width | t.code, width)
            for s in a.terms
            for t in b.terms
        ],
        width=width,
    )


def listed_sum(a: PauliOp, b: PauliOp) -> PauliOp:
    return PauliOp(a.terms + b.terms, width=a.width)


def listed_adjoint(a: PauliOp) -> PauliOp:
    return PauliOp(
        [PauliTerm(t.coeff.conjugate(), t.code, t.width) for t in a.terms], width=a.width
    )


def listed_scale(a: PauliOp, c: complex) -> PauliOp:
    return PauliOp([PauliTerm(t.coeff * c, t.code, t.width) for t in a.terms], width=a.width)


def listed_creation(enc: FockEncoding) -> PauliOp:
    """Σ √n·hop(n) with each hop the tensor of its Gray-bit ladders and projectors."""
    out = PauliOp.zero(enc.qubits_per_mode)
    for n in range(1, enc.capacity + 1):
        src, dst = gray_bits(enc, n - 1), gray_bits(enc, n)
        ops = [
            ladder(int(d)) if s != d else projector(int(d)) for s, d in zip(src, dst)
        ]
        hop = ops[0]
        for f in ops[1:]:
            hop = listed_tensor(hop, f)
        out = listed_sum(out, listed_scale(hop, math.sqrt(n)))
    return out


def digit_xz(code: int, width: int) -> tuple[int, int]:
    """Reference ``PauliTerm.xz``: each digit (high, low) decoded on its own.

    x = low ^ high and z = high, digit k (qubit width-1-k) at bit k.
    """
    digits = [code >> 2 * k & 3 for k in range(width)]
    x = sum(((d >> 1) ^ (d & 1)) << k for k, d in enumerate(digits))
    return x, sum((d >> 1) << k for k, d in enumerate(digits))


def exact_terms(op: PauliOp) -> str:
    """Width, codes and coefficient reprs: a −0.0 or a dropped term shows."""
    return repr((op.width, [(t.code, repr(t.coeff), t.width) for t in op.terms]))


def pauli_exp(axes: str, alpha: float) -> np.ndarray:
    """Independent dense oracle for exp(-i*alpha*P) via eigendecomposition."""
    p = PauliOp.from_label(axes).to_matrix()
    w, v = np.linalg.eigh(p)
    return (v * np.exp(-1j * alpha * w)) @ v.conj().T


def reference_rotation_gates(axes: str, alpha: float) -> list[Gate]:
    """Reference gates of exp(-i·alpha·P), read character by character from ``axes``.

    Basis changes map every active qubit to Z, a CNOT ladder chains the
    active qubits in ascending index (identity qubits skipped), RZ(2α)
    lands on the last active qubit, then everything mirrors back; a lone X
    is one RX(2α). Every gate is built fresh, none shared.
    """
    active = [q for q, a in enumerate(axes) if a != "I"]
    if not active:
        raise ValueError("all-identity string has no rotation circuit")
    if len(active) == 1 and axes[active[0]] == "X":
        return [Gate("RX", active[0], angle=2 * alpha)]
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in active:
        if axes[q] == "X":
            pre.append(Gate("H", q))
            post.append(Gate("H", q))
        elif axes[q] == "Y":
            pre.append(Gate("RX", q, angle=math.pi / 2))
            post.append(Gate("RX", q, angle=-math.pi / 2))
    ladder = [Gate("CNOT", target=b, control=a) for a, b in zip(active, active[1:])]
    return pre + ladder + [Gate("RZ", active[-1], angle=2 * alpha)] + ladder[::-1] + post[::-1]


def phase_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U† V)| / dim: 1 iff U and V agree up to global phase."""
    return abs(np.trace(u.conj().T @ v)) / u.shape[0]


@pytest.fixture
def xz_reads(monkeypatch):
    """The terms whose ``xz`` masks are read from here on, in order."""
    reads: list[PauliTerm] = []
    decode = PauliTerm.xz.fget

    def counted(term):
        reads.append(term)
        return decode(term)

    monkeypatch.setattr(PauliTerm, "xz", property(counted))
    return reads


@pytest.fixture(autouse=True)
def clear_step():
    """Drops the step ``compile_step`` keeps, so each test compiles its own;
    a test that asks for it gets the clear to call again."""
    experiments._last_step.cache_clear()
    return experiments._last_step.cache_clear


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls((owner, name), ...)`` counts each named function's calls
    from here on, in one dict by name that it returns."""
    calls: dict[str, int] = {}

    def install(*targets):
        for owner, name in targets:
            def counted(*args, _name=name, _fn=getattr(owner, name)):
                calls[_name] += 1
                return _fn(*args)

            calls[name] = 0
            monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def hand_reduced_q2() -> PauliOp:
    """Hand-derived reduced HOM Hamiltonian at 2 qubits per mode (reference).

    Keeps only the two hops the |1,1> input explores, each with weight √2:
    t1 moves B 0->1 while A goes 2->1, t2 moves B 1->2 while A goes 1->0.
    """
    p0, p1 = projector(0), projector(1)
    q0, q1 = ladder(0), ladder(1)

    def prod4(a, b, c, d):
        return a.tensor(b).tensor(c).tensor(d)

    t1 = prod4(p0, q1, q0, p1)
    t2 = prod4(q1, p1, p0, q0)
    return (t1 + t1.adjoint() + t2 + t2.adjoint()).scale(math.sqrt(2))


def number_op(encoding: FockEncoding) -> PauliOp:
    """Photon-number operator b†b, diag(0..N) on the encoded Fock basis."""
    return creation_op(encoding) * annihilation_op(encoding)


def dense_creation(enc: FockEncoding) -> np.ndarray:
    """b† written straight onto Gray-coded basis indices, no Pauli algebra."""
    dim = 2 ** enc.qubits_per_mode
    out = np.zeros((dim, dim))
    for n in range(1, enc.capacity + 1):
        out[basis_index(enc, n), basis_index(enc, n - 1)] = math.sqrt(n)
    return out


def dense_beamsplitter(enc: FockEncoding) -> np.ndarray:
    """Independent dense oracle for the full b†a + ba†."""
    c = dense_creation(enc)
    return np.kron(c, c.T) + np.kron(c.T, c)


def two_mode_index(enc: FockEncoding, n_b: int, n_a: int) -> int:
    return (basis_index(enc, n_b) << enc.qubits_per_mode) | basis_index(enc, n_a)


def sector_projector(enc: FockEncoding, photons: int) -> np.ndarray:
    """Diagonal projector P_N onto encoded states |n_B, n_A> with n_B + n_A = N."""
    diag = np.zeros(4 ** enc.qubits_per_mode)
    for n_b in range(enc.capacity + 1):
        n_a = photons - n_b
        if 0 <= n_a <= enc.capacity:
            diag[two_mode_index(enc, n_b, n_a)] = 1.0
    return np.diag(diag)


def rebuilt_sector_evolution(
    enc: FockEncoding, fock: tuple[int, int], theta: float
) -> np.ndarray:
    """Reference sector evolution: matrix, ``eigh`` and rows rebuilt on every call.

    The float operations the compiled sector must keep, in the same order.
    """
    if not all(0 <= n <= enc.capacity for n in fock):
        raise ValueError(f"Fock input {fock} outside [0, {enc.capacity}] per mode")
    n_b, n_a = fock
    photons, cap, q = n_b + n_a, enc.capacity, enc.qubits_per_mode
    ks = np.arange(max(0, photons - cap), min(photons, cap) + 1)
    weights = np.sqrt((ks[:-1] + 1) * (photons - ks[:-1]))
    w, v = np.linalg.eigh(np.diag(weights, 1) + np.diag(weights, -1))
    if not math.isfinite(theta * max(-float(w[0]), float(w[-1]))):
        raise ValueError(f"theta = {theta!r}: the phases exp(i·theta·w) are not finite")
    rows = [basis_index(enc, k) << q | basis_index(enc, photons - k) for k in ks]
    out = np.zeros(4 ** q, dtype=complex)
    out[rows] = v @ (np.exp(1j * theta * w) * v[n_b - ks[0]])
    return out


def givens_product(
    enc: FockEncoding, fock: tuple[int, int], theta: float, steps: int, strang: bool = False
) -> np.ndarray:
    """Sector model of an x-major product formula on the input ``fock``.

    A step of H's x-mask groups acts on the N-photon sector as one Givens
    rotation exp(iα·w_k·X) per hop k → k+1, w_k = √((k+1)(N−k)) and α =
    θ/steps, the hops taken by their register x mask rows[k] ^ rows[k+1]
    ascending; ``strang`` halves α and takes the hops again descending.
    Register amplitudes, zero outside the sector; nothing of ``pauli`` or
    ``statevector`` is used.
    """
    n_b, n_a = fock
    photons, q = n_b + n_a, enc.qubits_per_mode
    ks = range(max(0, photons - enc.capacity), min(photons, enc.capacity) + 1)
    rows = [basis_index(enc, k) << q | basis_index(enc, photons - k) for k in ks]
    hops = sorted(
        (rows[i] ^ rows[i + 1], i, math.sqrt((k + 1) * (photons - k)))
        for i, k in enumerate(ks[:-1])
    )
    alpha = theta / steps / (2 if strang else 1)
    v = np.zeros(len(ks), dtype=complex)
    v[n_b - ks[0]] = 1
    for _ in range(steps):
        for _, i, w in hops + hops[::-1] if strang else hops:
            c, s = math.cos(alpha * w), 1j * math.sin(alpha * w)
            v[i], v[i + 1] = c * v[i] + s * v[i + 1], s * v[i] + c * v[i + 1]
    out = np.zeros(4 ** q, dtype=complex)
    out[rows] = v
    return out


def walked_sample(s: StateVector, shots: int, seed: int) -> Histogram:
    """Reference ``sample``: every outcome's label formatted, the drawn kept, then sorted."""
    p = probabilities(s)
    draws = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    counts = {
        format(i, f"0{s.n_qubits}b"): int(k) for i, k in enumerate(draws) if k > 0
    }
    return Histogram(counts=dict(sorted(counts.items())), shots=shots)


def circuit_of(n_qubits: int, gates, repeat: int = 1) -> Circuit:
    """``gates`` repeated ``repeat`` times, every slot its own entry of the gate table."""
    return Circuit(n_qubits, tuple(gates), range(len(gates)), repeat)


def apply_gate(s: StateVector, g: Gate) -> StateVector:
    """One gate on a state; its one-gate circuit checks it against the register."""
    return apply_circuit(s, circuit_of(s.n_qubits, (g,)))


def layered_metrics(n_qubits: int, gates) -> dict:
    """Reference ``metrics``: greedy layering gate by gate over a written-out sequence."""
    busy = [0] * n_qubits
    kind_counts: dict[str, int] = {}
    for g in gates:
        qubits = (g.target,) if g.control is None else (g.control, g.target)
        layer = 1 + max(busy[q] for q in qubits)
        for q in qubits:
            busy[q] = layer
        kind_counts[g.kind] = kind_counts.get(g.kind, 0) + 1
    return {
        "depth": max(busy, default=0),
        "cx_count": kind_counts.get("CNOT", 0),
        "gate_counts": dict(sorted(kind_counts.items())),
        "total_gates": len(gates),
    }
