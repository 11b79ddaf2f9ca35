"""Acceptance suite: one test per end-to-end criterion, with a pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail report.
"""
import math

import numpy as np
import pytest

from homsim.beamsplitter import exact_unitary, interaction, reduced_interaction
from homsim.circuit import metrics, rotation_circuit, synthesize
from homsim.experiments import ExperimentConfig, run_hom, sweep_theta, theta_grid
from homsim.gray import (
    FockEncoding,
    annihilation_op,
    basis_index,
    creation_op,
    gray_bits,
    ladder,
    projector,
)
from homsim.statevector import (
    apply_dense,
    circuit_unitary,
    fidelity,
    init_basis,
    sample,
)

from conftest import pauli_exp, phase_fidelity

ENC = FockEncoding(2)
THETA = math.pi / 4


def report(name):
    print(f"  [PASS] {name}")


def test_criterion_1_hom_exact_result():
    out = run_hom(ExperimentConfig(exact=True, theta=0.7853981634))
    assert out.probabilities["0101"] <= 1e-9
    assert abs(out.probabilities["0011"] - 0.5) <= 1e-9
    assert abs(out.probabilities["1100"] - 0.5) <= 1e-9
    report("1. balanced-splitter coincidence suppression (exact path)")


def test_criterion_2_operator_mapping():
    perm = [basis_index(ENC, n) for n in range(4)]
    m = creation_op(ENC).to_matrix()[np.ix_(perm, perm)]
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 0], expected[2, 1], expected[3, 2] = 1, math.sqrt(2), math.sqrt(3)
    np.testing.assert_allclose(m, expected, atol=1e-12)
    explicit = (
        projector(0).tensor(ladder(1))
        + ladder(1).tensor(projector(1)).scale(math.sqrt(2))
        + projector(1).tensor(ladder(0)).scale(math.sqrt(3))
    )
    assert creation_op(ENC) == explicit
    report("2. creation operator: sqrt(n+1) ladder + explicit 2-qubit Pauli sum")


def test_criterion_3_truncated_commutator():
    b_dag, b = creation_op(ENC), annihilation_op(ENC)
    comm = (b * b_dag - b_dag * b).to_matrix()
    perm = [basis_index(ENC, n) for n in range(4)]
    np.testing.assert_allclose(
        comm[np.ix_(perm, perm)], np.diag([1, 1, 1, -3]), atol=1e-12
    )
    report("3. truncated commutator diag(1,1,1,-3)")


def test_criterion_4_gray_code_property():
    for nq in (1, 2, 3, 4):
        enc = FockEncoding(nq)
        for n in range(1, enc.capacity + 1):
            prev, cur = gray_bits(enc, n - 1), gray_bits(enc, n)
            assert sum(a != b for a, b in zip(prev, cur)) == 1
    assert [gray_bits(ENC, n) for n in range(4)] == ["00", "01", "11", "10"]
    report("4. Hamming-1 chains for 1-4 qubit encodings + 2-qubit table")


def test_criterion_5_synthesis_exactness():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        width = int(rng.integers(1, 5))
        axes = "".join(rng.choice(list("IXYZ"), size=width))
        if set(axes) == {"I"}:
            continue
        alpha = float(rng.uniform(-math.pi, math.pi))
        u = circuit_unitary(rotation_circuit(axes, alpha))
        assert phase_fidelity(u, pauli_exp(axes, alpha)) >= 1 - 1e-10
        checked += 1
    report("5. 200 random Pauli rotations match the dense exponential oracle")


def test_criterion_6_trotter_convergence():
    inter = interaction(ENC)
    exact = exact_unitary(THETA, inter)

    def err(steps):
        u = circuit_unitary(synthesize(inter, THETA, steps))
        phase = np.trace(exact.conj().T @ u)
        phase /= abs(phase)
        return np.max(np.abs(u / phase - exact))

    errors = {n: err(n) for n in (1, 2, 4, 8, 16)}
    for n in (2, 4, 8):
        assert 0.4 <= errors[2 * n] / errors[n] <= 0.6
    p1 = run_hom(ExperimentConfig(trotter_steps=1)).probabilities["0101"]
    p16 = run_hom(ExperimentConfig(trotter_steps=16)).probabilities["0101"]
    assert p16 < p1
    report("6. first-order Trotter error halves with doubled steps; dip deepens")


def test_criterion_7_reduction_soundness():
    start = init_basis(4, "0101")
    for theta in (0.1, math.pi / 4, 1.0):
        full = apply_dense(start, exact_unitary(theta, interaction(ENC)))
        red = apply_dense(start, exact_unitary(theta, reduced_interaction(ENC, 2)))
        assert fidelity(full, red) >= 1 - 1e-9
    # circuit path at equal, well-converged step count; an N-step circuit is
    # the 1-step circuit repeated, so power its unitary instead of replaying
    # half a million gates
    steps = 4096
    u_full = np.linalg.matrix_power(
        circuit_unitary(synthesize(interaction(ENC), THETA / steps, 1)), steps
    )
    u_red = np.linalg.matrix_power(
        circuit_unitary(synthesize(reduced_interaction(ENC, 2), THETA / steps, 1)), steps
    )
    assert fidelity(apply_dense(start, u_full), apply_dense(start, u_red)) >= 1 - 1e-6
    full_cx = metrics(synthesize(interaction(ENC), THETA, 1))["cx_count"]
    red_cx = metrics(synthesize(reduced_interaction(ENC, 2), THETA, 1))["cx_count"]
    assert red_cx < full_cx
    report("7. pruned interaction reproduces the full dynamics with fewer CX")


def test_criterion_8_circuit_scale_anchor():
    # order-of-magnitude bands: the reference depth/CX figures came from an
    # unspecified transpiler configuration
    m = metrics(synthesize(interaction(ENC), THETA, 1))
    assert 32 <= m["cx_count"] <= 512
    assert 60 <= m["depth"] <= 400
    report(f"8. 1-step circuit scale: {m['cx_count']} CX, depth {m['depth']}")


def test_criterion_9_sampling_reproduction():
    out = apply_dense(
        init_basis(4, "0101"), exact_unitary(THETA, interaction(ENC))
    )
    h = sample(out, 10_000, seed=1234)
    assert h.counts.get("0101", 0) == 0
    assert 4850 <= h.counts["0011"] <= 5150
    assert 4850 <= h.counts["1100"] <= 5150
    assert sample(out, 10_000, seed=1234) == h
    report("9. seeded 10,000-shot histogram within 3 sigma and reproducible")


def test_criterion_10_theta_dip_curve():
    rows = sweep_theta(ExperimentConfig(), theta_grid(17))
    for row in rows:
        assert abs(row["p_0101"] - math.cos(2 * row["theta"]) ** 2) <= 1e-9
    report("10. 17-point coincidence curve matches cos^2(2*theta)")
