"""The `hom` options: each one read, none silently ignored, the README in step."""
import json
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest
from click.testing import CliRunner

from homsim import cli
from homsim.cli import main
from homsim.experiments import MAX_POINTS, ExperimentConfig
from homsim.statevector import NormDriftError

README = Path(__file__).resolve().parents[1] / "README.md"

# Where the output goes, not what is computed.
OUTPUT_OPTIONS = {"out", "qasm_out", "fmt"}

NON_DEFAULT = {
    "--theta": "0.3",
    "--steps": "3",
    "--shots": "100",
    "--seed": "7",
    "--qubits-per-mode": "1",
    "--steps-list": "1,3",
    "--points": "5",
}

# sweep-theta reads the step count and the reduced flag on its circuit path only.
BASE_ARGS = {
    ("sweep-theta", "--steps"): ["--circuit"],
    ("sweep-theta", "--reduced"): ["--circuit"],
}

REMOVED = [
    ("sweep-trotter", "--steps", "3"),
    ("sweep-trotter", "--exact"),
    ("sweep-trotter", "--shots", "100"),
    ("sweep-trotter", "--seed", "3"),
    ("sweep-theta", "--theta", "0.3"),
    ("sweep-theta", "--exact"),
    ("sweep-theta", "--shots", "100"),
    ("sweep-theta", "--seed", "3"),
    ("circuit-report", "--shots", "100"),
    ("circuit-report", "--seed", "3"),
    ("circuit-report", "--reduced"),
    ("circuit-report", "--exact"),
]


def computed(args: list[str]):
    """The command's JSON output without its config echo."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    if isinstance(out, dict):
        del out["config"]
    return out


@pytest.mark.parametrize(
    "command, param",
    [
        pytest.param(name, p, id=f"{name}{p.opts[0]}")
        for name, cmd in main.commands.items()
        for p in cmd.params
        if p.name not in OUTPUT_OPTIONS
    ],
)
def test_every_option_changes_the_output(command, param):
    flag = param.opts[0]
    base = [command, *BASE_ARGS.get((command, flag), [])]
    setting = [flag] if param.is_flag else [flag, NON_DEFAULT[flag]]
    assert computed(base + setting) != computed(base)


@pytest.mark.parametrize("args", REMOVED, ids=[" ".join(a[:2]) for a in REMOVED])
def test_removed_option_is_a_usage_error(args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 2
    assert "No such option" in result.output and args[1] in result.output


CIRCUIT_ONLY = "steps and reduced shape the circuit; an exact run takes neither"


@pytest.mark.parametrize("args", [["--steps", "3"], ["--reduced"]], ids=" ".join)
def test_sweep_theta_circuit_option_needs_circuit(args):
    result = CliRunner().invoke(main, ["sweep-theta", *args])
    assert result.exit_code == 2
    assert CIRCUIT_ONLY in result.output


@pytest.mark.parametrize("args", [["--steps", "8"], ["--reduced"]], ids=" ".join)
def test_exact_run_refuses_circuit_options(args):
    result = CliRunner().invoke(main, ["run", "--exact", *args])
    assert result.exit_code == 2
    assert CIRCUIT_ONLY in result.output


def test_run_defaults_are_the_config_defaults():
    result = CliRunner().invoke(main, ["run"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["config"] == asdict(ExperimentConfig())


@pytest.mark.parametrize("args", [["--exact"], []], ids=["exact", "circuit"])
def test_overflowing_theta_is_a_usage_error(args, recwarn):
    # θ·w overflows at θ = 1e308: the exact oracle cannot evolve the input.
    result = CliRunner().invoke(main, ["run", *args, "--theta", "1e308"])
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
        "error: theta = 1e+308: the phases exp(i·theta·w) are not finite"
    ]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("qpm", ["3", "4"])
def test_overflowing_circuit_angle_is_a_usage_error(qpm):
    # θ = 8e307 keeps the exact phases finite; 2·θ·coeff overflows at these widths.
    result = CliRunner().invoke(main, ["run", "--qubits-per-mode", qpm, "--theta", "8e307"])
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
        "error: theta = 8e+307, steps = 1: a circuit angle 2·theta·coeff/steps is not finite"
    ]
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, error",
    [
        (
            ["run", "--steps", str(10**20)],
            f"error: steps = {10**20} times 32 terms is more than 262144 rotations",
        ),
        (
            ["circuit-report", "--qubits-per-mode", "5", "--steps", "1000"],
            "error: steps = 1000 times 12800 terms is more than 262144 rotations",
        ),
        (
            ["run", "--exact", "--shots", str(10**20)],
            f"error: shots must be in [1, {2**63 - 1}]",
        ),
        (
            ["sweep-theta", "--points", str(MAX_POINTS + 1)],
            f"error: points must be in [1, {MAX_POINTS}]",
        ),
    ],
    ids=["run-steps", "circuit-report-steps", "exact-shots", "theta-points"],
)
def test_unbounded_work_is_a_usage_error(args, error):
    # Each would run for hours, build gigabytes of QASM or overflow numpy's draw.
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert [line for line in result.output.splitlines() if line.startswith("error:")] == [error]
    assert "Traceback" not in result.output


def test_theta_sweep_runs_at_the_points_cap():
    result = CliRunner().invoke(
        main, ["sweep-theta", "--points", str(MAX_POINTS), "--qubits-per-mode", "1"]
    )
    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)) == MAX_POINTS


def test_broken_invariant_is_an_internal_error(monkeypatch):
    def drift(config):
        raise NormDriftError("norm^2 = nan, off by nan")

    monkeypatch.setattr(cli, "run_hom", drift)
    result = CliRunner().invoke(main, ["run"])
    assert result.exit_code == 3
    assert "internal error: norm^2 = nan" in result.output


SWEEP_PAIRS = {
    "theta-exact-vs-circuit": (["sweep-theta", "--points", "3"],
                               ["sweep-theta", "--points", "3", "--circuit"]),
    "theta-points": (["sweep-theta", "--points", "3"], ["sweep-theta", "--points", "4"]),
    "trotter-steps-list": (["sweep-trotter", "--steps-list", "1"],
                           ["sweep-trotter", "--steps-list", "1,2"]),
}


@pytest.mark.parametrize("first, second", SWEEP_PAIRS.values(), ids=SWEEP_PAIRS)
def test_sweeps_into_one_directory_keep_both_files(tmp_path, first, second):
    for args in (first, second):
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
    assert len(list(tmp_path.iterdir())) == 2


def readme_commands() -> list[list[str]]:
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hom ")]


def test_readme_cli_block_found():
    assert len(readme_commands()) >= 5


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_runs(args):
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
