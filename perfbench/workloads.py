"""The three benchmark workloads: their ops, input draws, output checks and circuit quality.

Every reference an output is checked against comes from here, not from the
package under test: the closed-form beam-splitter evolution of |1,1>, a
Gray decoder of basis labels, and the Pauli decomposition sizes.

The package is passed in as ``hs`` and every call goes through a module
attribute (``hs.circuit.synthesize``), so a tracing wrapper installed on the
module is the function that runs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tracing import replace_everywhere, restore

WARMUP_THETA = math.pi / 4
PHOTONS = 2  # the |1,1> input: one photon per mode
THETA_RANGE = (math.pi / 16, math.pi / 2)
STOP_RANGE = (math.pi / 2, math.pi)
SEED_LIMIT = 2**31
TROTTER_STEPS = (1, 2, 4, 8, 16, 32, 64)
THETA_POINTS = 17
SHOTS = 10_000

# Size of the unique Pauli decomposition of b†a + ba† at 2..5 qubits per mode.
EXPECTED_TERMS = {2: 32, 3: 288, 4: 2048, 5: 12800}
QASM_HEADER_LINES = 3

PROB_SUM_TOL = 1e-9
EXACT_P11_TOL = 1e-9
EXACT_LEAK_TOL = 1e-12
QUALITY_TOL = 1e-9
FIDELITY_FLOOR = 0.99  # of the 64-step row, for every drawn θ
# Fidelity F bounds every probability error by sqrt(1 - F) (trace distance).
P11_FLOOR_TOL = math.sqrt(1 - FIDELITY_FLOOR)


# --- independent references -------------------------------------------------


def gray_encode(n: int, qpm: int) -> str:
    return format(n ^ (n >> 1), f"0{qpm}b")


def gray_decode(bits: str) -> int:
    g = int(bits, 2)
    n = 0
    while g:
        n ^= g
        g >>= 1
    return n


def fock_of_label(label: str, qpm: int) -> tuple[int, int]:
    """(n_B, n_A) of a register label: mode B on the left qubits, mode A on the right."""
    return gray_decode(label[:qpm]), gray_decode(label[qpm:])


def in_sector(label: str, qpm: int) -> bool:
    return sum(fock_of_label(label, qpm)) == PHOTONS


def sector_leakage(probabilities: dict, qpm: int) -> float:
    """Probability outside the input's 2-photon sector."""
    return float(sum(p for label, p in probabilities.items() if not in_sector(label, qpm)))


def coincidence_label(qpm: int) -> str:
    return gray_encode(1, qpm) * 2


def coincidence_exact(theta: float) -> float:
    """P(1,1) after exp(+iθ(b†a + ba†)) on |1,1>."""
    return math.cos(2 * theta) ** 2


def exact_state(qpm: int, theta: float) -> np.ndarray:
    """exp(+iθ(b†a + ba†))|1,1> = cos2θ|1,1> + i·sin2θ(|2,0> + |0,2>)/√2."""
    psi = np.zeros(4**qpm, dtype=complex)
    side = 1j * math.sin(2 * theta) / math.sqrt(2)
    for (n_b, n_a), amp in (((1, 1), math.cos(2 * theta)), ((2, 0), side), ((0, 2), side)):
        psi[int(gray_encode(n_b, qpm) + gray_encode(n_a, qpm), 2)] = amp
    return psi


# --- observing reports ------------------------------------------------------


class ReportCapture:
    """Keeps every report ``experiments.run_hom`` returns while installed.

    Sweep rows carry three probabilities at most; the full probability map and
    histogram a row came from are checked through the reports.
    """

    def __init__(self, hs):
        self.reports: list = []
        original = hs.experiments.run_hom

        @functools.wraps(original)
        def run_hom(*args, **kwargs):
            report = original(*args, **kwargs)
            self.reports.append(report)
            return report

        self._undo = replace_everywhere(hs.__name__, original, run_hom)

    def restore(self) -> None:
        restore(self._undo)


def check_reports(reports: list, qpm: int, exact: bool) -> list[str]:
    problems = []
    for r in reports:
        d = r.to_dict()
        total = sum(d["probabilities"].values())
        if abs(total - 1) > PROB_SUM_TOL:
            problems.append(f"probabilities sum to {total!r}")
        if sum(d["counts"].values()) != d["shots"] or d["shots"] != d["config"]["shots"]:
            problems.append("histogram counts do not sum to the shots")
        if exact:
            leak = sector_leakage(d["probabilities"], qpm)
            if leak > EXACT_LEAK_TOL:
                problems.append(f"exact-path sector leakage {leak!r}")
    return problems


def row_leakage(row: dict, qpm: int) -> float:
    """Leakage of a sweep row from its p_<label> columns, which must cover the sector."""
    sector = {k[2:]: v for k, v in row.items() if k.startswith("p_") and in_sector(k[2:], qpm)}
    if len(sector) != PHOTONS + 1:
        raise ValueError(f"row covers {len(sector)} of {PHOTONS + 1} sector states")
    return 1.0 - sum(sector.values())


# --- quality probe ----------------------------------------------------------


def probe(hs, qpm: int, circuit=None) -> dict:
    """Quality of the 1-step circuit at θ = π/4 on |1,1>, against the closed form."""
    if circuit is None:
        inter = hs.beamsplitter.interaction(hs.gray.FockEncoding(qpm))
        circuit = hs.circuit.synthesize(inter, WARMUP_THETA, 1)
    m = hs.circuit.metrics(circuit)
    start = hs.statevector.init_basis(2 * qpm, coincidence_label(qpm))
    psi = hs.statevector.apply_circuit(start, circuit).amplitudes
    probs = {format(i, f"0{2 * qpm}b"): float(abs(a) ** 2) for i, a in enumerate(psi)}
    return {
        "cx_count": m["cx_count"],
        "depth": m["depth"],
        "fidelity": float(abs(np.vdot(exact_state(qpm, WARMUP_THETA), psi)) ** 2),
        "sector_leakage": sector_leakage(probs, qpm),
    }


# --- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    warmup: dict
    draw: Callable  # rng -> op parameters
    op: Callable  # (hs, params) -> output; the timed part
    check: Callable  # (output, params, reports, warm-up quality) -> problems
    quality: Callable  # (hs, warm output) -> (quality dict, problems)
    # Calibration loop whose speed tracks the host's speed for this kind of work.
    calibration: str = "spin"


def _compile_op(hs, p):
    inter = hs.beamsplitter.interaction(hs.gray.FockEncoding(5))
    c = hs.circuit.synthesize(inter, p["theta"], 1)
    return {
        "terms": len(inter.op),
        "gates": len(c.gates),
        "metrics": hs.circuit.metrics(c),
        "qasm": hs.circuit.export_qasm(c),
        "circuit": c,
    }


def _compile_check(out, p, reports, quality) -> list[str]:
    problems = []
    m, text = out["metrics"], out["qasm"]
    if out["terms"] != EXPECTED_TERMS[5]:
        problems.append(f"H has {out['terms']} terms, want {EXPECTED_TERMS[5]}")
    if not text.startswith("OPENQASM 2.0;\n") or not text.endswith("\n"):
        problems.append("malformed QASM text")
    gate_lines = text.count("\n") - QASM_HEADER_LINES
    if not gate_lines == m["total_gates"] == out["gates"]:
        problems.append(f"{gate_lines} QASM gate lines, total_gates {m['total_gates']}")
    if text.count("\ncx ") != m["cx_count"]:
        problems.append("QASM cx lines differ from cx_count")
    if quality is not None and (m["cx_count"], m["depth"]) != (
        quality["cx_count"],
        quality["depth"],
    ):
        problems.append("circuit structure changed with θ")
    return problems


def _compile_quality(hs, warm):
    return probe(hs, 5, warm["circuit"]), []


def _trotter_op(hs, p):
    config = hs.experiments.ExperimentConfig(
        theta=p["theta"], shots=SHOTS, seed=p["seed"], qubits_per_mode=2
    )
    return hs.experiments.sweep_trotter(config, list(TROTTER_STEPS))


def _trotter_check(rows, p, reports, quality) -> list[str]:
    if [r["steps"] for r in rows] != list(TROTTER_STEPS):
        return [f"rows for steps {[r['steps'] for r in rows]}"]
    problems = check_reports(reports, 2, exact=False)
    if reports and len(reports) != len(rows):
        problems.append(f"{len(reports)} reports for {len(rows)} rows")
    for r in rows:
        if any(not 0 <= v <= 1 + PROB_SUM_TOL for k, v in r.items() if k.startswith("p_")):
            problems.append(f"probability outside [0, 1] at {r['steps']} steps")
        if row_leakage(r, 2) < -PROB_SUM_TOL:
            problems.append(f"sector probabilities exceed 1 at {r['steps']} steps")
        if r["cx_count"] != r["steps"] * rows[0]["cx_count"]:
            problems.append(f"cx_count not linear in steps at {r['steps']} steps")
    last = rows[-1]
    if last["fidelity"] < FIDELITY_FLOOR:
        problems.append(f"64-step fidelity {last['fidelity']!r} < {FIDELITY_FLOOR}")
    p11 = last[f"p_{coincidence_label(2)}"]
    if abs(p11 - coincidence_exact(p["theta"])) > P11_FLOOR_TOL:
        problems.append(f"64-step P(1,1) {p11!r} far from cos²(2θ)")
    return problems


def _trotter_quality(hs, rows):
    first = rows[0]
    quality = {
        "cx_count": first["cx_count"],
        "depth": first["depth"],
        "fidelity": min(r["fidelity"] for r in rows),
        "sector_leakage": max(row_leakage(r, 2) for r in rows),
    }
    # The 1-step row is the worst at θ = π/4; the closed-form probe must agree.
    problems = [
        f"{k}: sweep {quality[k]!r}, closed-form probe {v!r}"
        for k, v in probe(hs, 2).items()
        if abs(quality[k] - v) > QUALITY_TOL
    ]
    return quality, problems


def _theta_op(hs, p):
    grid = hs.experiments.theta_grid(THETA_POINTS, p["stop"])
    config = hs.experiments.ExperimentConfig(
        shots=SHOTS, seed=p["seed"], exact=True, qubits_per_mode=3
    )
    return hs.experiments.sweep_theta(config, grid)


def _theta_check(rows, p, reports, quality) -> list[str]:
    grid = np.linspace(0.0, p["stop"], THETA_POINTS)
    if len(rows) != THETA_POINTS or any(
        abs(r["theta"] - t) > 1e-12 for r, t in zip(rows, grid)
    ):
        return ["rows do not follow the θ grid"]
    problems = check_reports(reports, 3, exact=True)
    if reports and len(reports) != len(rows):
        problems.append(f"{len(reports)} reports for {len(rows)} rows")
    key = f"p_{coincidence_label(3)}"
    for r in rows:
        err = abs(r[key] - coincidence_exact(r["theta"]))
        if err > EXACT_P11_TOL:
            problems.append(f"P(1,1) off cos²(2θ) by {err!r} at θ={r['theta']!r}")
    return problems


def _theta_quality(hs, rows):
    return probe(hs, 3), []


def _draw_theta(rng) -> dict:
    return {"theta": float(rng.uniform(*THETA_RANGE))}


def _draw_theta_seed(rng) -> dict:
    return {"theta": float(rng.uniform(*THETA_RANGE)), "seed": int(rng.integers(SEED_LIMIT))}


def _draw_stop_seed(rng) -> dict:
    return {"stop": float(rng.uniform(*STOP_RANGE)), "seed": int(rng.integers(SEED_LIMIT))}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compile-q5",
            warmup={"theta": WARMUP_THETA},
            draw=_draw_theta,
            op=_compile_op,
            check=_compile_check,
            quality=_compile_quality,
            # Building 192,000 gate objects is allocation-bound: over 8 runs the
            # spread of op medians scaled by the allocation loop was a third of
            # that scaled by the arithmetic loop.
            calibration="alloc",
        ),
        Workload(
            name="trotter-sweep-q2",
            warmup={"theta": WARMUP_THETA, "seed": 1234},
            draw=_draw_theta_seed,
            op=_trotter_op,
            check=_trotter_check,
            quality=_trotter_quality,
        ),
        Workload(
            name="theta-sweep-q3",
            # The default grid [0, π/2] has θ = π/4 at its midpoint.
            warmup={"stop": math.pi / 2, "seed": 1234},
            draw=_draw_stop_seed,
            op=_theta_op,
            check=_theta_check,
            quality=_theta_quality,
        ),
    )
}
