"""Run every workload once and print its metrics, one row per workload.

    python3 perfbench/table.py [--seconds 30] [--seed 1] [--trace] [--out FILE]

Each workload runs in its own process through run.py. The untraced run gives
the end-to-end metrics, each headed by its unit and which direction is
better. With --trace a second, traced run per workload gives the per-layer
metrics; a self time is also shown as its share of the traced op time.
--out writes every result and run record as JSON. Exits 1 if any run failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: exit {out.returncode}, no result\n{out.stderr}")
    return {"exit": out.returncode, "record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_rows(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    runs = {w: {"untraced": run(w, args.seed, seconds, 0)} for w in names}
    header = ["workload"] + [f"{m['name']} ({m['unit']}, {m['better']})" for m in spec["end_to_end"]]
    header += ["error_rate", "tail pct/n", "exit"]
    rows = []
    for w in names:
        r = runs[w]["untraced"]
        metrics, record = r["result"]["metrics"], r["record"]
        rows.append(
            [w] + [fmt(metrics[m["name"]]["value"]) for m in spec["end_to_end"]]
            + [fmt(record["error_rate"]),
               f"p{record['op_tail_percentile']}/{record['op_samples']}", str(r["exit"])]
        )
    print_rows(header, rows)

    if args.trace:
        for w in names:
            runs[w]["traced"] = run(w, args.seed, seconds, 1)
        print()
        header = ["per-layer metric (unit, better)"] + names
        rows = []
        for m in spec["per_layer"]:
            row = [f"{m['name']} ({m['unit']}, {m['better']})"]
            for w in names:
                t = runs[w]["traced"]
                value = t["result"]["metrics"][m["name"]]["value"]
                cell = fmt(value)
                if m["name"].endswith(".self_s"):
                    op_time = t["record"]["metrics"]["op.span_s"]
                    cell += f" ({100 * value / op_time:.1f}%)"
                row.append(cell)
            rows.append(row)
        rows.append(["exit"] + [str(runs[w]["traced"]["exit"]) for w in names])
        print_rows(header, rows)

    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    failed = any(r["exit"] != 0 for per_w in runs.values() for r in per_w.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
