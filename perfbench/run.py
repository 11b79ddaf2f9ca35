"""homsim benchmark: one workload, one closed-loop client, one process, one BLAS thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. The workload seed drives a PCG64 generator from which every timed
op draws its inputs. Set-up (import, input generation, one untimed warm-up
op at θ = π/4) is timed in this process and in fresh processes that only set
up; ``setup_s`` is their median.

Times are reported in seconds at reference speed. A fixed calibration loop
that does not touch the package is timed between ops and after every set-up;
an op's raw time is multiplied by the loop's reference time over the mean
loop time on either side of it, a set-up's by the reference time over the
median of three loop times after it. On a shared 2-core machine the host's
speed drifts by ±15% or more between runs a few minutes apart, and scaling
takes out most of that drift. Raw times and loop times are kept in the run
record.

``--trace 0`` measures untraced ops for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json. ``--trace 1`` alternates untraced and
traced ops for ``--seconds``, reports the per-layer metrics, and writes the
spans to ``.perfbench_out/``.

The second-to-last line of stdout is the run's record (environment, tail
percentile, quality, failures); the last line is
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 if any
output check failed and 2 if the package source or BENCHMARK.json is missing.
"""
import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # this process plus four that only set up
SETUP_TIMEOUT_S = 120
SELF_SUM_TOL = 1e-9
SETUP_CALIBRATIONS = 3
MAX_FAILURES_SHOWN = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- environment record -----------------------------------------------------


def blas_threads(np):
    """Threads the OpenBLAS bundled with numpy will use, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "homsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- timing -----------------------------------------------------------------


def spin_loop() -> None:
    """Interpreter arithmetic without allocation."""
    x = 0
    for i in range(300_000):
        x += i * i


def alloc_loop() -> None:
    """Short-lived small objects: a list of tuples and a dict, built and freed."""
    pairs = [(i, i + 1) for i in range(150_000)]
    table = {i: i for i in range(50_000)}
    del pairs, table


# Loop -> its time in seconds on the 2-core x86_64 machine (Python 3.11.7) the
# baseline was recorded on; it only fixes the unit of the scaled times.
CALIBRATION = {"spin": (spin_loop, 0.025), "alloc": (alloc_loop, 0.035)}


def calibrate(loop) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def scaled_setup(raw: float, calibration: str) -> float:
    loop, ref = CALIBRATION[calibration]
    return raw * ref / statistics.median(calibrate(loop) for _ in range(SETUP_CALIBRATIONS))


# --- set-up and the closed loop ---------------------------------------------


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_ops(hs, wl, rng, capture, quality, seconds, tracer=None, first_id=0) -> dict:
    """Closed loop: calibrate, draw inputs, run one op, check it; until ``seconds`` pass.

    An op's speed factor comes from the mean of the calibrations just before
    and just after it. ``times`` are raw op seconds, ``scaled`` the same ops at
    reference speed, ``busy`` the scaled time of every draw, op and check.
    """
    loop, ref = CALIBRATION[wl.calibration]
    cals, ops, failures = [], [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        cals.append(calibrate(loop))
        c0 = time.perf_counter()
        params = wl.draw(rng)
        op_id = first_id + len(ops)
        capture.reports.clear()
        span = tracer.op_span(op_id) if tracer else contextlib.nullcontext()
        op_time = None
        try:
            t0 = time.perf_counter()
            with span:
                out = wl.op(hs, params)
            op_time = time.perf_counter() - t0
            problems = wl.check(out, params, capture.reports, quality)
        except Exception as exc:  # a failing op is counted, not fatal
            problems = [f"raised {exc!r}"]
        out = None
        if problems:
            failures.append({"op": op_id, "params": params, "problems": problems})
        ops.append((op_time, time.perf_counter() - c0))
    cals.append(calibrate(loop))
    speeds = [2 * ref / (a + b) for a, b in zip(cals, cals[1:])]
    done = [(t, v) for (t, _), v in zip(ops, speeds) if t is not None]
    return {
        "times": [t for t, _ in done],
        "scaled": [t * v for t, v in done],
        "cal_s": cals,
        "busy": sum(cycle * v for (_, cycle), v in zip(ops, speeds)),
        "attempted": len(ops),
        "failures": failures,
    }


def merge(loops: list) -> dict:
    """One ``run_ops`` result from several."""
    return {
        key: sum((part[key] for part in loops), [] if isinstance(loops[0][key], list) else 0)
        for key in loops[0]
    }


def end_to_end(loop, setups, quality) -> tuple[dict, dict]:
    tail, pct, n = stats.tail_percentile(loop["scaled"])
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(loop["scaled"]),
        "op_tail_s": tail,
        "ops_per_s": len(loop["scaled"]) / loop["busy"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - len(loop["failures"]) / loop["attempted"],
        **quality,
    }
    return values, {"op_tail_percentile": pct, "op_samples": n}


def per_layer(tracer, pairs) -> tuple[dict, list]:
    """Per-layer metrics; ``pairs`` are (untraced, traced) times of adjacent ops."""
    ops = tracer.per_op()
    problems = []
    for op_id, m in ops.items():
        own = sum(v for k, v in m.items() if k.endswith(".self_s"))
        if abs(own - m["op.span_s"]) > SELF_SUM_TOL * max(1.0, m["op.span_s"]):
            problems.append(f"op {op_id}: self times sum to {own!r}, op took {m['op.span_s']!r}")
    keys = set().union(*ops.values())
    # A layer an op never entered reads 0.
    values = defaultdict(float)
    values.update({k: statistics.median(m.get(k, 0.0) for m in ops.values()) for k in keys})
    applied = sum(m.get("statevector.gates_applied", 0) for m in ops.values())
    busy = sum(m.get("statevector.apply_circuit.span_s", 0.0) for m in ops.values())
    values["statevector.gates_per_s"] = applied / busy if busy else 0.0
    values["trace.overhead_frac"] = statistics.median(t / u for u, t in pairs) - 1
    values["trace.unattributed_frac"] = sum(m["op.self_s"] for m in ops.values()) / sum(
        m["op.span_s"] for m in ops.values()
    )
    return values, problems


def write_spans(tracer, path: Path) -> None:
    with path.open("w") as f:
        for name, start, end, parent, op in tracer.spans:
            f.write(json.dumps([name, start, end, parent, op]) + "\n")
        counts = {f"{op}:{key}": v for (op, key), v in tracer.counts.items()}
        f.write(json.dumps({"counts": counts}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is imported
        os.environ[var] = "1"
    if not (SRC / "homsim" / "__init__.py").is_file():
        print("perfbench: no package source under src/homsim", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        print("perfbench: no BENCHMARK.json at the checkout root", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np

    import homsim as hs
    from workloads import WORKLOADS, ReportCapture

    if Path(hs.__file__).resolve().parent != SRC / "homsim":
        print(f"perfbench: imported homsim from {hs.__file__}, not src/", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    rng = np.random.Generator(np.random.PCG64(args.seed))
    capture = ReportCapture(hs)
    warm = wl.op(hs, wl.warmup)
    problems = wl.check(warm, wl.warmup, capture.reports, None)
    setup_raw = time.perf_counter() - _T0
    setups = [scaled_setup(setup_raw, wl.calibration)]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0], "raw_s": setup_raw}))
        return 0
    quality, quality_problems = wl.quality(hs, warm)
    problems += quality_problems
    warm = None
    if not args.trace:
        setups += [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    record = {"environment": environment(np, args), "calibration": wl.calibration,
              "setup_samples_s": setups, "setup_raw_s": setup_raw}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_quality, _ = wl.quality(hs, wl.op(hs, wl.warmup))
        finally:
            tracer.restore()
        if traced_quality != quality:
            problems.append(f"traced quality {traced_quality} differs from untraced {quality}")
        # Untraced and traced ops alternate, so both see the same host speed.
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < args.seconds:
            plain.append(run_ops(hs, wl, rng, capture, quality, 0))
            tracer.install()
            try:
                traced.append(run_ops(hs, wl, rng, capture, quality, 0, tracer, len(traced)))
            finally:
                tracer.restore()
        pairs = [(u["scaled"][0], t["scaled"][0]) for u, t in zip(plain, traced)
                 if u["scaled"] and t["scaled"]]
        loop, traced = merge(plain), merge(traced)
        failures = loop["failures"] + traced["failures"]
        attempted = loop["attempted"] + traced["attempted"]
        metrics, layer_problems = per_layer(tracer, pairs)
        problems += layer_problems
        OUT_DIR.mkdir(exist_ok=True)
        write_spans(tracer, OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
        wanted = spec["per_layer"]
        record.update(traced_op_times_s=traced["times"], traced_cal_s=traced["cal_s"])
    else:
        loop = run_ops(hs, wl, rng, capture, quality, args.seconds)
        failures, attempted = loop["failures"], loop["attempted"]
        metrics, extra = end_to_end(loop, setups, quality)
        record.update(extra)
        wanted = spec["end_to_end"]
    capture.restore()

    record.update(
        op_times_s=loop["times"],
        cal_s=loop["cal_s"],
        quality=quality,
        error_rate=len(failures) / attempted,
        problems=problems,
        failures=failures[:MAX_FAILURES_SHOWN],
        metrics=metrics,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    correct = not problems and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
