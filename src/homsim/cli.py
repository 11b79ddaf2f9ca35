"""Command-line front end.

Subcommands: run, sweep-trotter, sweep-theta, circuit-report. Each takes
only the config options it reads; the ExperimentConfig fields it does not
take keep their defaults. Results go to stdout unless --out is given; a
directory --out gets an auto-generated filename embedding the config hash
and, for a sweep, its rows (--steps-list, --points).
Exit codes: 0 success, 2 invalid config or usage (an option the command
does not take included) or an output that cannot be written, 3 internal
invariant violation.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import sys
from pathlib import Path

import click

from .experiments import (
    ExperimentConfig,
    circuit_report,
    run_hom,
    sweep_theta,
    sweep_trotter,
    theta_grid,
)
from .statevector import NormDriftError

EXIT_INVALID_CONFIG = 2
EXIT_INTERNAL = 3


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID_CONFIG)
        except NormDriftError as exc:
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)

    return wrapper


_DEFAULT = ExperimentConfig()

_CONFIG_OPTIONS = {
    "theta": click.option("--theta", type=float, default=_DEFAULT.theta, show_default=True),
    "steps": click.option("--steps", "trotter_steps", type=int,
                          default=_DEFAULT.trotter_steps, show_default=True),
    "shots": click.option("--shots", type=int, default=_DEFAULT.shots, show_default=True),
    "seed": click.option("--seed", type=int, default=_DEFAULT.seed, show_default=True),
    "reduced": click.option("--reduced", is_flag=True,
                            help="Compile H projected onto the input's 2-photon sector."),
    "exact": click.option("--exact", is_flag=True, help="Bypass the circuit; evolve exactly."),
    "qubits-per-mode": click.option("--qubits-per-mode", type=int,
                                    default=_DEFAULT.qubits_per_mode, show_default=True),
}


def _config_options(*names):
    """The named ExperimentConfig options; the fields left out keep their defaults."""
    def decorate(f):
        for name in reversed(names):
            f = _CONFIG_OPTIONS[name](f)
        return f

    return decorate


def _write(text: str, out: str | None, default_name: str) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    path = Path(out)
    if path.is_dir():
        path = path / default_name
    path.write_text(text)
    click.echo(f"wrote {path}", err=True)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _rows_out(rows: list[dict], fmt: str, out: str | None, stem: str) -> None:
    if fmt == "csv":
        _write(_rows_to_csv(rows), out, f"{stem}.csv")
    else:
        _write(json.dumps(rows, indent=2) + "\n", out, f"{stem}.json")


@click.group()
def main():
    """Beam-splitter compilation and two-photon interference runs."""


@main.command("run")
@_config_options(*_CONFIG_OPTIONS)
@click.option("--out", type=click.Path(), default=None)
@_guarded
def run_cmd(out, **kwargs):
    """Single interference run; JSON report."""
    config = ExperimentConfig(**kwargs)
    report = run_hom(config)
    _write(report.to_json(), out, f"hom-run-{config.hash()}.json")


@main.command("sweep-trotter")
@_config_options("theta", "reduced", "qubits-per-mode")
@click.option("--steps-list", default="1,2,4,8,16", show_default=True,
              help="Comma-separated Trotter step counts.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@_guarded
def sweep_trotter_cmd(steps_list, out, fmt, **kwargs):
    """Coincidence suppression vs Trotter step count."""
    config = ExperimentConfig(**kwargs)
    steps = [int(s) for s in steps_list.split(",") if s.strip()]
    rows = sweep_trotter(config, steps)
    stem = f"hom-sweep-trotter-{config.hash()}-steps-{'-'.join(map(str, steps))}"
    _rows_out(rows, fmt, out, stem)


@main.command("sweep-theta")
@_config_options("steps", "reduced", "qubits-per-mode")
@click.option("--points", type=int, default=17, show_default=True)
@click.option("--circuit", "use_circuit", is_flag=True,
              help="Use the Trotterized circuit instead of the exact oracle.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@_guarded
def sweep_theta_cmd(points, use_circuit, out, fmt, **kwargs):
    """Coincidence probability across splitter angles.

    --steps and --reduced shape the circuit, so they need --circuit.
    """
    config = ExperimentConfig(exact=not use_circuit, **kwargs)
    rows = sweep_theta(config, theta_grid(points), use_circuit=use_circuit)
    _rows_out(rows, fmt, out, f"hom-sweep-theta-{config.hash()}-points-{points}")


@main.command("circuit-report")
@_config_options("theta", "steps", "qubits-per-mode")
@click.option("--out", type=click.Path(), default=None)
@click.option("--qasm-out", type=click.Path(), default=None,
              help="Directory for full/reduced QASM dumps.")
@_guarded
def circuit_report_cmd(out, qasm_out, **kwargs):
    """Full vs reduced circuit metrics, plus QASM export."""
    config = ExperimentConfig(**kwargs)
    report = circuit_report(config)
    qasm: dict[Path, str] = {}
    if qasm_out is not None:
        # Directory first, files after --out: a failure at either leaves neither.
        qdir = Path(qasm_out)
        qdir.mkdir(parents=True, exist_ok=True)
        for name in ("full", "reduced"):
            path = qdir / f"hom-{name}-{config.hash()}.qasm"
            qasm[path] = report[name].pop("qasm")
            report[name]["qasm_path"] = str(path)
    _write(
        json.dumps(report, indent=2) + "\n",
        out,
        f"hom-circuit-report-{config.hash()}.json",
    )
    for path, text in qasm.items():
        path.write_text(text)


if __name__ == "__main__":
    main()
