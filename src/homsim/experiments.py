"""End-to-end interference experiment runs and sweeps.

Each run prepares one photon per mode (|1,1>), evolves it through either
the Trotterized circuit or exactly, and reports probabilities, a seeded
shot histogram, circuit metrics, and fidelity to the exact evolution. The
exact evolution is computed on the input's photon sector
(``beamsplitter.fock_sector``), a matrix of at most N+1 rows, so no run
builds a dense operator. A circuit run evolves the state by the product of
Pauli rotations the circuit compiles (``statevector.evolve``), and the
tests cross-check it against running the circuit gate by gate.

What a run keeps follows one rule: a ``CompiledStep`` is its key (qubits
per mode, full/reduced H), and each part that depends on neither θ nor the
step count is built from the key on first need and kept. Exact or circuit
is the run's path, not part of the key: an exact run and a full circuit
run at one width share one step, its sector and its labels. Runs of one
key share the last step compiled, so a sweep or a repeated run builds each
part once and the process holds one step at a time; the circuit report
emits from one step per H. A sweep calls ``run_hom`` once per row, the one
place a report is built, but evolves its circuit rows in batches of one
rotation pass each, as many rows as ``statevector.batch_rows`` of the
step's rotation tables lets the pass run in its batch loop, one
exponential per run of commuting strings (431 rows at 2 qubits per mode,
13 at 3, one for the full step from 4 up, which takes the per-string
pass; the reduced step's 2^(q−1) + 1 runs, q ≥ 2, batch up to 5), so only
the tables size a batch; each row's exact and evolved states go from its
batch to its ``run_hom`` as an argument, and the step keeps no per-row
state.
Start states and sweep columns are labels of sector rows.
The circuit is compiled from the full beam-splitter H, or with ``reduced``
from H projected onto the input's 2-photon sector; the step count and
``reduced`` only shape the circuit, so an exact config refuses them. A
config checks itself when built (a sweep row's ``replace`` too), and a
sweep refuses a row value the config would not take. Reports are output
only: nothing reads one back. Defaults reproduce the reference setup: 2
qubits per mode, a 1:1 splitter (θ = π/4), 10,000 shots.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from . import circuit as circ
from . import statevector as sv
from .beamsplitter import Sector, _finite, fock_sector, interaction, reduced_interaction
from .gray import FockEncoding
from .pauli import PauliTerm

# Photons in (mode B, mode A) of the interference input |1,1>.
INPUT_FOCK = (1, 1)

# The widest register whose circuit run is measured: a 1-step run_hom takes
# 2.6–2.8 s and 119 MB peak RSS in its own process, imports included, on a
# shared 2-core host (one BLAS thread).
MAX_QUBITS_PER_MODE = 6

# Declared config field type (a string under postponed annotations) ->
# accepted values. bool is refused for the numeric fields although Python
# makes it an int.
_ACCEPTED = {"float": (int, float), "int": int, "bool": bool}

# The most shots numpy's multinomial draws: its count is a C long.
MAX_SHOTS = 2 ** 63 - 1

# The most angles one theta grid holds: at 6 qubits per mode an exact sweep over
# them takes 2.2 s, a circuit sweep 2.1 s a row (one BLAS thread, 2-core host).
MAX_POINTS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    theta: float = math.pi / 4
    trotter_steps: int = 1
    shots: int = 10_000
    seed: int = 1234
    reduced: bool = False
    exact: bool = False
    qubits_per_mode: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            numeric_bool = isinstance(value, bool) and f.type != "bool"
            if numeric_bool or not isinstance(value, _ACCEPTED[f.type]):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if self.trotter_steps < 1:
            raise ValueError("trotter_steps must be >= 1")
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 1 <= self.qubits_per_mode <= MAX_QUBITS_PER_MODE:
            raise ValueError(f"qubits_per_mode must be in [1, {MAX_QUBITS_PER_MODE}]")
        if not _finite(self.theta):
            raise ValueError("theta must be finite")
        if self.exact and (self.reduced or self.trotter_steps != 1):
            raise ValueError("steps and reduced shape the circuit; an exact run takes neither")

    def hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    probabilities: dict[str, float]
    counts: sv.Histogram
    metrics: Optional[dict]
    fidelity: float

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "probabilities": self.probabilities,
            "counts": dict(self.counts.counts),
            "shots": self.counts.shots,
            "metrics": self.metrics,
            "fidelity": self.fidelity,
            "rng": {"algorithm": sv.RNG_ALGORITHM, "seed": self.config.seed},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class CompiledStep:
    """A config's runs with θ and the step count left unbound: its key,
    qubits per mode and full/reduced H. Exact and circuit runs of one width
    and H share it; a run's path is its config's.

    Each θ-free part is built from the key on first need and kept: the
    input's ``Sector``, the register's bitstring labels in index order, the
    step's terms with their real coefficients, the rotation pass's tables
    built from those pairs (their runs' couplings on the batch loop's
    first need) and the step's circuit as its metrics ``profile``. So an
    exact run never builds H, a circuit report never builds the sector,
    and a run whose angles are refused builds neither tables nor gates.
    ``compile_step`` keeps the last step it compiled, so the runs of one
    key share it: each binds its θ/steps to it, ``evolve`` binds those of
    a batch of configs and evolves them in one rotation pass, and
    ``circuit`` binds them and emits. A step holds its key and θ-free
    parts and no run's state.
    """

    qubits_per_mode: int
    reduced: bool

    @cached_property
    def sector(self) -> Sector:
        return fock_sector(FockEncoding(self.qubits_per_mode), INPUT_FOCK)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        n = 2 * self.qubits_per_mode
        return tuple(format(i, f"0{n}b") for i in range(2 ** n))

    @cached_property
    def terms(self) -> tuple[tuple[PauliTerm, float], ...]:
        enc = FockEncoding(self.qubits_per_mode)
        inter = reduced_interaction(enc, sum(INPUT_FOCK)) if self.reduced else interaction(enc)
        return tuple(circ.step_terms(inter))

    @cached_property
    def tables(self) -> sv.RotationTables:
        return sv.rotation_tables(2 * self.qubits_per_mode, self.terms)

    @cached_property
    def profile(self) -> circ.Circuit:
        # At θ = 1 and one step each angle is its coefficient; metrics read no angle.
        return self.circuit(1.0, 1)

    def evolve(
        self, configs: Sequence[ExperimentConfig]
    ) -> list[tuple[sv.StateVector, sv.StateVector]]:
        """Each circuit config's exact state and its evolved state.

        Every config is checked first, in a lone run's order (exact phases,
        then circuit angles), so a refused row names what its lone run
        would; then one rotation pass evolves them all, refusing a row whose
        run angle θ·|h|/steps is not finite.
        """
        n = 2 * self.qubits_per_mode
        exact = []
        for c in configs:
            exact.append(sv.StateVector(n, self.sector.amplitudes(c.theta)))
            circ.bind_angles(self.terms, c.theta, c.trotter_steps)
        rows = [(c.theta, c.trotter_steps) for c in configs]
        start = sv.init_basis(n, self.labels[self.sector.start])
        return list(zip(exact, sv.evolve(start, self.tables, rows)))

    def circuit(self, theta: float, steps: int) -> circ.Circuit:
        """The step's gates at θ, repeated ``steps`` times."""
        bound = zip([term for term, _ in self.terms], circ.bind_angles(self.terms, theta, steps))
        return circ.trotter_circuit(list(bound), 2 * self.qubits_per_mode, steps)


# The last step compiled, kept for the next run of its key.
_last_step = lru_cache(maxsize=1)(CompiledStep)


def compile_step(config: ExperimentConfig) -> CompiledStep:
    """The ``CompiledStep`` of ``config``'s qubits per mode and full/reduced
    choice: the last one compiled when the key is the same, else a new one
    that replaces it."""
    return _last_step(config.qubits_per_mode, config.reduced)


def run_hom(
    config: ExperimentConfig, states: Optional[tuple[sv.StateVector, sv.StateVector]] = None
) -> ExperimentReport:
    """One interference run on ``config``'s step: prep, evolve, measure statistics.

    A circuit run given ``states``, its exact and evolved states from a
    sweep's batch, reports on them; without them it evolves alone.
    """
    compiled = compile_step(config)
    metrics_out: Optional[dict] = None
    if config.exact:
        n = 2 * config.qubits_per_mode
        exact_state = out = sv.StateVector(n, compiled.sector.amplitudes(config.theta))
    else:
        exact_state, out = states or compiled.evolve([config])[0]
        metrics_out = compiled.profile.metrics(config.trotter_steps)

    probs = sv.probabilities(out)
    histogram = sv.sample(out, config.shots, config.seed)
    return ExperimentReport(
        config=config,
        probabilities=dict(zip(compiled.labels, probs.tolist())),
        counts=histogram,
        metrics=metrics_out,
        fidelity=sv.fidelity(exact_state, out),
    )


def _row_values(values: Sequence, name: str, integral: bool = False) -> list:
    """A sweep's row values as ints (``integral``) or floats, refusing an
    empty sweep, a bool, a non-number, a fractional step count and an angle
    that is not finite."""
    if len(values) == 0:
        raise ValueError(f"{name} must be non-empty")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or (integral and v % 1 != 0):
            raise ValueError(f"{name} takes {'whole ' if integral else ''}numbers, got {v!r}")
        if not (integral or _finite(v)):
            raise ValueError(f"{name} takes finite numbers, got {v!r}")
    return [int(v) if integral else float(v) for v in values]


def _reports(config: ExperimentConfig, name: str, values: list) -> Iterator[ExperimentReport]:
    """``run_hom`` of ``config`` with field ``name`` set to each of ``values``
    and row i seeded ``seed + i``, in order, one report at a time.

    Circuit rows are evolved in batches of ``statevector.batch_rows`` of the
    step's tables (at least one row), and each row's run is passed its own
    states. The row with the most steps is checked first as its lone run
    would be, phases then angles, so a row over the rotation cap is refused
    before the tables are built or any row runs.
    """
    configs = [replace(config, **{name: v}, seed=config.seed + i) for i, v in enumerate(values)]
    if config.exact:
        yield from map(run_hom, configs)
        return
    compiled = compile_step(config)
    longest = max(configs, key=lambda c: c.trotter_steps)
    compiled.sector.amplitudes(longest.theta)
    circ.bind_angles(compiled.terms, longest.theta, longest.trotter_steps)
    size = max(1, sv.batch_rows(compiled.tables))
    for i in range(0, len(configs), size):
        batch = configs[i : i + size]
        yield from map(run_hom, batch, compiled.evolve(batch))


def sweep_trotter(
    config: ExperimentConfig, steps_list: Sequence[int]
) -> list[dict]:
    """One row per Trotter step count; row seeds derive from the base seed.

    The rows compare circuits, so a config on the exact path is refused.
    """
    steps_list = _row_values(steps_list, "steps_list", integral=True)
    if config.exact:
        raise ValueError("Trotter sweep requires the circuit path")
    compiled = compile_step(config)
    # The input first, then the other sector states |k, N-k> by ascending k.
    sector = compiled.sector
    labels = [compiled.labels[r] for r in sorted(sector.rows, key=lambda r: r != sector.start)]
    return [
        {
            "steps": report.config.trotter_steps,
            **{f"p_{label}": report.probabilities[label] for label in labels},
            "fidelity": report.fidelity,
            "depth": report.metrics["depth"],
            "cx_count": report.metrics["cx_count"],
        }
        for report in _reports(config, "trotter_steps", steps_list)
    ]


def sweep_theta(
    config: ExperimentConfig,
    theta_grid: Sequence[float],
    use_circuit: bool = False,
) -> list[dict]:
    """Coincidence probability across splitter angles; row seeds derive from
    the base seed.

    Evolves exactly on the input's photon sector unless ``use_circuit``
    requests the Trotterized circuit path.
    """
    theta_grid = _row_values(theta_grid, "theta_grid")
    config = replace(config, exact=not use_circuit)
    compiled = compile_step(config)
    coincidence = compiled.labels[compiled.sector.start]
    return [
        {"theta": report.config.theta, f"p_{coincidence}": report.probabilities[coincidence]}
        for report in _reports(config, "theta", theta_grid)
    ]


def circuit_report(config: ExperimentConfig) -> dict:
    """Metrics and QASM of the full and reduced circuits, each emitted from its step."""
    if config.exact:
        raise ValueError("circuit report requires the circuit path")
    out: dict = {"config": asdict(config)}
    for name, reduced in (("full", False), ("reduced", True)):
        compiled = compile_step(replace(config, reduced=reduced))
        c = compiled.circuit(config.theta, config.trotter_steps)
        out[name] = {"metrics": circ.metrics(c), "qasm": circ.export_qasm(c)}
    return out


def theta_grid(points: int, stop: float = math.pi / 2) -> list[float]:
    """``points`` evenly spaced splitter angles over [0, stop], at most ``MAX_POINTS``."""
    if isinstance(points, bool) or not isinstance(points, int):
        raise ValueError(f"points must be int, got {points!r}")
    if not 1 <= points <= MAX_POINTS:
        raise ValueError(f"points must be in [1, {MAX_POINTS}]")
    if not _finite(stop):
        raise ValueError("stop must be finite")
    return [float(t) for t in np.linspace(0.0, stop, points)]
