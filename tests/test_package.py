"""`import homsim` loads the six modules and re-exports none of their names."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ["beamsplitter", "circuit", "experiments", "gray", "pauli", "statevector"]

# What perfbench reaches as hs.<module>.<name> after a bare `import homsim`.
REACHED = [
    "beamsplitter.interaction",
    "circuit.export_qasm",
    "circuit.metrics",
    "circuit.synthesize",
    "experiments.ExperimentConfig",
    "experiments.run_hom",
    "experiments.sweep_theta",
    "experiments.sweep_trotter",
    "experiments.theta_grid",
    "gray.FockEncoding",
    "statevector.apply_circuit",
    "statevector.init_basis",
]

PROBE = """
import functools, json, sys
import homsim as hs
print(json.dumps({
    "public": sorted(n for n in vars(hs) if not n.startswith("_")),
    "reached": [p for p in sys.argv[1:] if callable(functools.reduce(getattr, p.split("."), hs))],
}))
"""


def test_package_exposes_its_modules_only():
    # A fresh interpreter: this one has already imported the modules.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", PROBE, *REACHED], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout)
    assert probe["public"] == MODULES
    assert probe["reached"] == REACHED
