"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest perfbench -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stats
import tracing
from homsim import beamsplitter, experiments, gray
from homsim.gray import FockEncoding, gray_bits
from homsim.pauli import PauliOp
from workloads import (
    EXPECTED_TERMS,
    exact_state,
    fock_of_label,
    gray_decode,
    gray_encode,
    sector_leakage,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("qpm", [1, 2, 3, 4, 5])
def test_gray_decoder_inverts_gray_bits(qpm):
    enc = FockEncoding(qpm)
    for n in range(enc.capacity + 1):
        assert gray_encode(n, qpm) == gray_bits(enc, n)
        assert gray_decode(gray_bits(enc, n)) == n
    for n_b in range(enc.capacity + 1):
        label = gray_bits(enc, n_b) + gray_bits(enc, enc.capacity - n_b)
        assert fock_of_label(label, qpm) == (n_b, enc.capacity - n_b)


def test_leakage_counts_only_states_outside_two_photons():
    # 2 qubits per mode: |1,1> = 0101, |2,0> = 1100, |1,0> = 0100, |3,1> = 1001.
    probs = {"0101": 0.5, "1100": 0.2, "0100": 0.1, "1001": 0.2}
    assert sector_leakage(probs, 2) == pytest.approx(0.3)


@pytest.mark.parametrize("qpm", [2, 3])
def test_closed_form_state_is_normalized(qpm):
    psi = exact_state(qpm, 0.3)
    assert sum(abs(a) ** 2 for a in psi) == pytest.approx(1.0)


@pytest.mark.parametrize("qpm", [2, 3, 4])
def test_term_count_table_matches_the_hamiltonian(qpm):
    # compile-q5 checks the 5-qubit entry on every op; the sweeps build the others.
    assert len(beamsplitter.interaction(FockEncoding(qpm)).op) == EXPECTED_TERMS[qpm]


def test_tail_is_maximum_with_ten_or_fewer_samples():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert stats.tail_percentile(list(range(1, 11))) == (10, 100, 10)


@pytest.mark.parametrize(
    "n, percentile, value",
    [(11, 9, 1), (20, 50, 10), (30, 66, 20), (100, 90, 90), (101, 90, 91), (1000, 99, 990)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, value):
    samples = list(range(n, 0, -1))  # order must not matter
    assert stats.tail_percentile(samples) == (value, percentile, n)
    assert sum(s > value for s in samples) >= stats.TAIL_BEYOND
    next_rank = math.ceil((percentile + 1) * n / 100)
    assert n - next_rank < stats.TAIL_BEYOND


def test_self_times_subtract_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    own = tracing.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == spans[0][2] - spans[0][1]


def test_tracer_spans_nest_and_restore_originals():
    originals = (beamsplitter.interaction, gray.creation_op, experiments.interaction)
    to_matrix = PauliOp.to_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert beamsplitter.interaction is experiments.interaction  # one wrapper everywhere
        assert beamsplitter.interaction is not originals[0]
        with tracer.op_span(0):
            inter = beamsplitter.interaction(FockEncoding(2))
            inter.op.to_matrix()
    finally:
        tracer.restore()
    assert (beamsplitter.interaction, gray.creation_op, experiments.interaction) == originals
    assert PauliOp.to_matrix is to_matrix

    m = tracer.per_op()[0]
    assert m["beamsplitter.interaction.calls"] == 1
    assert m["gray.creation_op.calls"] == 2  # b† directly, b through its adjoint
    assert m["beamsplitter.interaction.terms"] == 32
    assert m["pauli.to_matrix.terms"] == 32
    own = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert own == pytest.approx(m["op.span_s"], rel=1e-9)
    # Each span ends inside its parent.
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start <= end <= p[2]


def run_bench(cwd: Path, workload: str, trace: int, seconds: str = "0.01"):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] != 0, m["name"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "trotter-sweep-q2", 0)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_file_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])
