import gc
import hashlib
import json
import math
import time
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from click.testing import CliRunner

from homsim import circuit, experiments, statevector as sv
from homsim.beamsplitter import exact_unitary, interaction, reduced_interaction
from homsim.circuit import bind_angles, synthesize, trotter_sequence
from homsim.cli import main
from homsim.experiments import (
    MAX_POINTS,
    MAX_QUBITS_PER_MODE,
    MAX_SHOTS,
    ExperimentConfig,
    circuit_report,
    compile_step,
    run_hom,
    sweep_theta,
    sweep_trotter,
    theta_grid,
)
from homsim.gray import FockEncoding, gray_bits
from homsim.pauli import PauliOp


class TestRunHom:
    def test_exact_balanced_splitter(self):
        report = run_hom(ExperimentConfig(exact=True))
        assert report.probabilities["0101"] <= 1e-9
        assert report.probabilities["0011"] == pytest.approx(0.5, abs=1e-9)
        assert report.probabilities["1100"] == pytest.approx(0.5, abs=1e-9)
        assert report.metrics is None

    def test_theta_zero_identity(self):
        report = run_hom(ExperimentConfig(theta=0.0, exact=True))
        assert report.probabilities["0101"] == pytest.approx(1.0, abs=1e-12)

    def test_ten_step_circuit_regression(self):
        # bounds frozen from a dense-oracle run of this configuration
        report = run_hom(ExperimentConfig(trotter_steps=10))
        assert report.fidelity >= 0.978
        assert report.probabilities["0101"] <= 1e-4

    def test_probabilities_sum_to_one(self):
        report = run_hom(ExperimentConfig(trotter_steps=3))
        assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_reduced_runs_at_every_width(self, qpm):
        config = ExperimentConfig(reduced=True, qubits_per_mode=qpm)
        report = run_hom(config)
        assert sum(report.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
        expected = circuit_report(config)["reduced"]["metrics"]
        assert report.metrics == expected

    def test_reduced_at_capacity_one_is_exact(self):
        # |1,1> is stationary when each mode holds at most one photon.
        report = run_hom(ExperimentConfig(reduced=True, qubits_per_mode=1))
        assert report.metrics["total_gates"] == 0
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert report.probabilities["11"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_circuit_run_matches_gate_path(self, qpm, reduced):
        config = ExperimentConfig(
            theta=0.6, trotter_steps=3, shots=10, reduced=reduced, qubits_per_mode=qpm
        )
        report = run_hom(config)
        enc = FockEncoding(qpm)
        full = interaction(enc)
        inter = reduced_interaction(enc, 2) if reduced else full
        start = sv.init_basis(2 * qpm, gray_bits(enc, 1) * 2)
        gates = sv.apply_circuit(start, synthesize(inter, 0.6, 3))
        exact = sv.apply_dense(start, exact_unitary(0.6, full))
        np.testing.assert_allclose(
            list(report.probabilities.values()), sv.probabilities(gates), rtol=0, atol=1e-12
        )
        assert report.fidelity == pytest.approx(sv.fidelity(exact, gates), abs=1e-12)

    @pytest.mark.parametrize(
        "config, hermitian_checks, full_builds",
        [
            (ExperimentConfig(exact=True, qubits_per_mode=3), 0, 0),
            (ExperimentConfig(trotter_steps=4), 1, 1),
            (ExperimentConfig(trotter_steps=4, reduced=True), 1, 0),
        ],
        ids=["exact", "circuit", "reduced"],
    )
    def test_operator_work_per_run(self, count_calls, config, hermitian_checks, full_builds):
        # The exact state comes from the photon sector: no dense matrix, and
        # the full H only for the circuit compiled from it, checked once.
        calls = count_calls(
            (PauliOp, "is_hermitian"), (PauliOp, "to_matrix"), (experiments, "interaction")
        )
        run_hom(config)
        assert calls == {
            "is_hermitian": hermitian_checks,
            "to_matrix": 0,
            "interaction": full_builds,
        }

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            run_hom(ExperimentConfig(trotter_steps=0))

    @pytest.mark.parametrize(
        "config",
        [ExperimentConfig(exact=True, shots=10), ExperimentConfig(trotter_steps=2, shots=10)],
        ids=["exact", "circuit"],
    )
    def test_report_json_is_its_dict(self, config):
        report = run_hom(config)
        d = json.loads(report.to_json())
        assert d == report.to_dict()
        assert set(d) == {
            "config", "probabilities", "counts", "shots", "metrics", "fidelity", "rng"
        }
        assert (d["metrics"] is None) == config.exact

    # What the writer puts in each report field, as JSON gives it back.
    @staticmethod
    def _is_label(label, config):
        return len(label) == 2 * config.qubits_per_mode and set(label) <= {"0", "1"}

    WRITTEN_FIELDS = {
        "probabilities": lambda v, c: (
            len(v) == 4 ** c.qubits_per_mode
            and all(TestRunHom._is_label(k, c) for k in v)
            and all(type(p) is float and 0.0 <= p <= 1.0 + 1e-12 for p in v.values())
            and math.isclose(sum(v.values()), 1.0, abs_tol=1e-9)
        ),
        "counts": lambda v, c: (
            all(TestRunHom._is_label(k, c) for k in v)
            and all(type(n) is int and n > 0 for n in v.values())
            and sum(v.values()) == c.shots
        ),
        "shots": lambda v, c: type(v) is int and v == c.shots,
        "fidelity": lambda v, c: type(v) is float and 0.0 <= v <= 1.0 + 1e-12,
        "rng": lambda v, c: v == {"algorithm": sv.RNG_ALGORITHM, "seed": c.seed},
        "metrics": lambda v, c: (
            v is None if c.exact
            else type(v["depth"]) is int and type(v["cx_count"]) is int
        ),
    }

    @pytest.mark.parametrize("field", WRITTEN_FIELDS)
    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(exact=True, shots=10, seed=7, qubits_per_mode=3),
            ExperimentConfig(trotter_steps=2, shots=10, seed=7),
        ],
        ids=["exact", "circuit"],
    )
    def test_report_field_written(self, config, field):
        d = json.loads(run_hom(config).to_json())
        assert self.WRITTEN_FIELDS[field](d[field], config), d[field]

    def test_fixed_seed_gives_identical_report_text(self):
        a = run_hom(ExperimentConfig(trotter_steps=2)).to_json()
        b = run_hom(ExperimentConfig(trotter_steps=2)).to_json()
        assert a == b

    @pytest.mark.parametrize(
        "bad",
        [
            {"trotter_steps": 2.5},
            {"trotter_steps": True},
            {"seed": 1.5},
            {"seed": -1},
            {"shots": 10.5},
            {"qubits_per_mode": 2.0},
            {"qubits_per_mode": 7},
            {"theta": "0.5"},
            {"theta": False},
            {"reduced": 1},
            {"exact": None},
            {"trotter_steps": 2},
            {"reduced": True},
            {"trotter_steps": 0},
            {"shots": 0},
            {"shots": MAX_SHOTS + 1},
        ],
    )
    def test_mistyped_config_rejected(self, bad):
        # Refused where the config is built: by a constructor or a sweep
        # row's replace.
        valid = ExperimentConfig(exact=True, shots=10)
        with pytest.raises(ValueError):
            ExperimentConfig(**{**asdict(valid), **bad})
        with pytest.raises(ValueError):
            replace(valid, **bad)

    def test_most_shots_numpy_draws(self):
        # multinomial counts in a C long: 2**63 - 1 shots draw, 2**63 overflow.
        report = run_hom(ExperimentConfig(exact=True, shots=MAX_SHOTS))
        assert sum(report.counts.counts.values()) == MAX_SHOTS == 2**63 - 1

    def test_rng_algorithm_recorded(self):
        report = run_hom(ExperimentConfig(exact=True, seed=5))
        assert report.to_dict()["rng"] == {"algorithm": "numpy-pcg64", "seed": 5}


class TestCompiledStep:
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_evolution_is_the_rotation_pass(self, qpm, reduced):
        # Bit for bit against the per-call tables, to 1e-12 against the gates.
        compiled = compile_step(ExperimentConfig(qubits_per_mode=qpm, reduced=reduced))
        enc = FockEncoding(qpm)
        inter = reduced_interaction(enc, 2) if reduced else interaction(enc)
        n = 2 * qpm
        rng = np.random.default_rng(qpm)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        start = sv.StateVector(n, psi / np.linalg.norm(psi))
        for theta, steps in [(0.7, 1), (math.pi / 4, 3), (1.4, 5)]:
            angles = bind_angles(compiled.terms, theta, steps)
            fast = sv.evolve(start, compiled.tables, [(angles, steps)])[0].amplitudes
            step = trotter_sequence(inter, theta, steps)
            tables = sv.rotation_tables(n, [term for term, _ in step])
            rotations = sv.evolve(start, tables, [([angle for _, angle in step], steps)])[0]
            gates = sv.apply_circuit(start, synthesize(inter, theta, steps))
            assert fast.tobytes() == rotations.amplitudes.tobytes()
            np.testing.assert_allclose(fast, gates.amplitudes, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(theta=0.9, trotter_steps=6, reduced=True, qubits_per_mode=3),
            ExperimentConfig(theta=0.9),
            ExperimentConfig(theta=0.9, exact=True),
        ],
        ids=["reduced-qpm-3", "full", "exact"],
    )
    def test_one_step_per_key(self, config):
        # θ, steps, shots and seed are outside the key: every run of it shares one step.
        step = compile_step(config)
        changes = [{"theta": 0.1}, {"shots": 7}, {"seed": 9}]
        if not config.exact:
            changes += [{"trotter_steps": 3}, {"theta": 0.1, "trotter_steps": 3, "shots": 7}]
        for change in changes:
            assert compile_step(replace(config, **change)) is step

    @pytest.mark.parametrize(
        "first, then",
        [
            (ExperimentConfig(), ExperimentConfig(qubits_per_mode=3)),
            (ExperimentConfig(qubits_per_mode=3), ExperimentConfig()),
            (ExperimentConfig(), ExperimentConfig(reduced=True)),
            (ExperimentConfig(reduced=True), ExperimentConfig()),
            (ExperimentConfig(exact=True), ExperimentConfig(exact=True, qubits_per_mode=3)),
            (ExperimentConfig(exact=True), ExperimentConfig()),
            (ExperimentConfig(exact=True), ExperimentConfig(reduced=True)),
        ],
        ids=["qpm-2-then-3", "qpm-3-then-2", "full-then-reduced", "reduced-then-full",
             "exact-qpm-2-then-3", "exact-then-full", "exact-then-reduced"],
    )
    def test_another_key_replaces_the_step(self, first, then):
        # A step differing in any key field is another, unequal object, and
        # once it is compiled the first step, its parts built by a run, is
        # gone: one step is kept.
        step = compile_step(first)
        run_hom(first)
        other = compile_step(then)
        assert other is not step and other != step
        kept = weakref.ref(step)
        del step
        gc.collect()
        assert kept() is None

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize(
        "earlier",
        [
            lambda config: run_hom(replace(config, theta=0.1, seed=3)),
            lambda config: run_hom(replace(config, trotter_steps=64)),
            circuit_report,
            lambda config: run_hom(replace(config, qubits_per_mode=3)),
        ],
        ids=["other-theta", "64-step-run", "circuit-report", "other-key"],
    )
    def test_used_step_reports_as_a_fresh_one(self, clear_step, earlier, reduced):
        # The 64-step run leaves the profile's depths of 64 repeats on the
        # step; the circuit report leaves its reduced step, the one a reduced
        # run then shares.
        config = ExperimentConfig(theta=0.9, trotter_steps=5, shots=100, reduced=reduced)
        fresh = run_hom(config).to_json()
        clear_step()
        earlier(config)
        assert run_hom(config).to_json() == fresh

    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_exact_and_circuit_runs_back_to_back(self, clear_step, qpm):
        exact = ExperimentConfig(theta=0.9, exact=True, qubits_per_mode=qpm, seed=7)
        circuit_run = replace(exact, exact=False, trotter_steps=3)
        fresh = {}
        for config in (exact, circuit_run):
            clear_step()
            fresh[config] = run_hom(config).to_json()
        clear_step()
        runs = [exact, exact, circuit_run, circuit_run, exact]
        assert [run_hom(config).to_json() for config in runs] == [fresh[c] for c in runs]

    def test_refused_bind_builds_no_tables_or_gates(self, monkeypatch):
        # The cap is checked once the terms exist, before the step is built.
        calls = []
        for module, fn in [(sv, "rotation_tables"), (circuit, "trotter_circuit")]:
            original = getattr(module, fn)
            monkeypatch.setattr(
                module, fn, lambda *a, _fn=fn, _o=original: calls.append(_fn) or _o(*a)
            )
        with pytest.raises(ValueError, match=r"^steps = 10000 times 32 terms is more than"):
            run_hom(ExperimentConfig(trotter_steps=10_000))
        assert calls == []
        run_hom(ExperimentConfig(trotter_steps=2))
        assert sorted(calls) == ["rotation_tables", "trotter_circuit"]

    @pytest.mark.parametrize("qpm", [3, 4])
    def test_overflowing_circuit_angle_names_theta(self, qpm):
        # 8e307 passes the exact oracle (its phases stay finite) but not the
        # circuit: 2·θ·coeff overflows once a coefficient passes 1.1.
        config = ExperimentConfig(theta=8e307, qubits_per_mode=qpm)
        with pytest.raises(ValueError, match=r"^theta = 8e\+307, steps = 1: "):
            run_hom(config)

    SWEEPS = {
        "trotter": (
            lambda: sweep_trotter(ExperimentConfig(theta=0.7), [1, 2, 4, 8, 16, 32, 64]), 7, 1
        ),
        "theta-circuit": (
            lambda: sweep_theta(
                ExperimentConfig(trotter_steps=3), theta_grid(9), use_circuit=True
            ),
            9,
            1,
        ),
        "theta-exact": (
            lambda: sweep_theta(ExperimentConfig(qubits_per_mode=3), theta_grid(17)), 17, 0
        ),
    }

    @pytest.mark.parametrize("name", SWEEPS)
    def test_one_compile_per_sweep(self, count_calls, name):
        # The sector's eigenbasis, and on the circuit path H and the step's
        # gates, are built once; run_hom still runs per row.
        calls = count_calls(
            (experiments, "interaction"), (experiments, "reduced_interaction"),
            (circuit, "trotter_circuit"), (experiments, "fock_sector"), (np.linalg, "eigh"),
            (experiments, "run_hom"),
        )
        sweep, rows, circuits = self.SWEEPS[name]
        sweep()
        # An exact sweep builds no H.
        assert calls == {
            "interaction": circuits,
            "reduced_interaction": 0,
            "trotter_circuit": circuits,
            "fock_sector": 1,
            "eigh": 1,
            "run_hom": rows,
        }

    @pytest.mark.parametrize(
        "run, builds, walks",
        [
            (lambda: run_hom(ExperimentConfig(trotter_steps=1)), 0, 1),
            (lambda: run_hom(ExperimentConfig(trotter_steps=4)), 0, 4),
            (lambda: run_hom(ExperimentConfig(trotter_steps=5)), 1, 4),
            (lambda: sweep_trotter(ExperimentConfig(), [1, 2, 4, 8, 16, 32, 64]), 1, 8),
        ],
        ids=["lone-1", "lone-2qpm", "lone-2qpm+1", "sweep"],
    )
    def test_delay_rows_built_only_past_n_repeats(self, monkeypatch, run, builds, walks):
        # Up to n = 2·qpm repeats the depth walks the step; the n walks of the
        # delay rows are made once, when a run first asks for more. The sweep
        # walks 1, 2 and 4 from the repeat kept below each (1 + 1 + 2), then
        # the 4 walks of the delay rows.
        calls, layers = [], []
        delays, layer = circuit._delays, circuit._layer
        monkeypatch.setattr(circuit, "_delays", lambda *a: calls.append(1) or delays(*a))
        monkeypatch.setattr(circuit, "_layer", lambda *a: layers.append(1) or layer(*a))
        run()
        assert len(calls) == builds
        assert len(layers) == walks

    def test_circuit_theta_sweep_walks_its_step_once_per_repeat(self, monkeypatch):
        # Every row asks for the depth of the same 3 repeats: walked once, not per row.
        calls = []
        layer = circuit._layer
        monkeypatch.setattr(circuit, "_layer", lambda *a: calls.append(1) or layer(*a))
        sweep_theta(ExperimentConfig(trotter_steps=3), theta_grid(9), use_circuit=True)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "sweep, digest",
        [
            (
                lambda: sweep_trotter(ExperimentConfig(theta=0.7), [1, 2, 4, 8, 16, 32, 64]),
                "e1a582f19fc2343203b759822f8cc6fe334301347bd440079ea7da99f84d4b99",
            ),
            (
                lambda: sweep_trotter(
                    ExperimentConfig(theta=0.7, qubits_per_mode=3), [1, 2, 4, 8]
                ),
                "6b7dc615d03a220748bd692139e977fee73d48ea6e9ac945895adffd22e21009",
            ),
            (
                lambda: sweep_trotter(
                    ExperimentConfig(theta=0.7, qubits_per_mode=3, reduced=True), [1, 3, 5]
                ),
                "88aaf1c097b2a2cd44b8ccd9830acc437a35670684fa95b84461972d9e0b0445",
            ),
            (
                lambda: sweep_theta(
                    ExperimentConfig(trotter_steps=3), theta_grid(9), use_circuit=True
                ),
                "fcbb9c7a496cc0bfdca0e8cb5ed6691b1ae598419577a5c18a7c4e73eb63a5c5",
            ),
            (
                lambda: sweep_theta(ExperimentConfig(), theta_grid(17)),
                "de79e6c2c54547f4e8f813f16b9038f86627cf1f3552423193e272bc78f01030",
            ),
            (
                lambda: sweep_theta(ExperimentConfig(qubits_per_mode=3), theta_grid(17)),
                "595ed1abf34926940419f3af9a0580c294cb0b64673ee727d3d01e325bc45ea6",
            ),
        ],
        ids=["trotter-q2", "trotter-q3", "trotter-q3-reduced", "theta-circuit-q2",
             "theta-exact-q2", "theta-exact-q3"],
    )
    def test_sweep_rows_unchanged(self, sweep, digest):
        # Digests of the rows computed while every row rebuilt H and its step,
        # and on the exact path the sector's eigenbasis and the register labels.
        assert hashlib.sha256(json.dumps(sweep()).encode()).hexdigest() == digest

    def test_exact_sweep_reports_unchanged(self, monkeypatch):
        # Every row's full report at qpm 3, as a lone run at the row's seed
        # wrote it when each run rebuilt its sector and formatted every label.
        reports = []
        original = experiments.run_hom

        def kept(*args):
            report = original(*args)
            reports.append(report.to_json())
            return report

        monkeypatch.setattr(experiments, "run_hom", kept)
        sweep_theta(ExperimentConfig(qubits_per_mode=3), theta_grid(17))
        monkeypatch.undo()
        lone = [
            run_hom(ExperimentConfig(theta=t, seed=1234 + i, exact=True, qubits_per_mode=3))
            .to_json()
            for i, t in enumerate(theta_grid(17))
        ]
        assert reports == lone
        digest = hashlib.sha256("".join(reports).encode()).hexdigest()
        assert digest == "fc62f4e3fa0c354862963d4bb30faba2baa43e5df2a438cb08a8ce22c4500794"


@pytest.fixture
def row_reports(monkeypatch):
    """Every report ``experiments.run_hom`` returns from here on, in order."""
    reports = []

    def kept(config):
        reports.append(run_hom(config))
        return reports[-1]

    monkeypatch.setattr(experiments, "run_hom", kept)
    return reports


def _fail_on_second_row(monkeypatch):
    """From here on the second ``experiments.run_hom`` call raises."""
    runs = []

    def second_fails(config):
        runs.append(config)
        if len(runs) == 2:
            raise RuntimeError("second row")
        return run_hom(config)

    monkeypatch.setattr(experiments, "run_hom", second_fails)


class TestSweepBatch:
    # Unsorted, a count repeated, counts past the 2n + 1 repeats below the
    # profile's delay rows (n = 2·qpm) and more than 2n + 1 rows.
    STEPS = {
        1: [3, 1, 3, 6, 2, 7],
        2: [3, 1, 3, 12, 2, 9, 1, 4, 10, 5],
        3: [3, 1, 3, 14, 2, 7, 1, 20, 5, 4, 6, 9, 11, 13, 2],
    }
    GRID = [0.3, 1.2, 0.3, -0.4, 0.0, 2.0, 0.7, 1.5, -1.1, 0.9, 0.3]

    @staticmethod
    def cap_rows(monkeypatch, config, rows):
        """Caps a batch of ``config``'s key at ``rows`` rows."""
        weights = max(1, len(compile_step(config).terms)) * 4**config.qubits_per_mode
        monkeypatch.setattr(experiments, "BATCH_WEIGHTS", rows * weights)

    @staticmethod
    def lone(clear_step, reports) -> list[str]:
        """Each report's config run alone on a freshly compiled step."""
        texts = []
        for report in reports:
            clear_step()
            texts.append(run_hom(report.config).to_json())
        return texts

    @pytest.mark.parametrize("rows_per_batch", [None, 2], ids=["cap", "two-row-batches"])
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_trotter_rows_are_their_lone_runs(
        self, monkeypatch, row_reports, clear_step, qpm, reduced, rows_per_batch
    ):
        config = ExperimentConfig(theta=0.9, shots=100, seed=5, reduced=reduced, qubits_per_mode=qpm)
        if rows_per_batch:
            self.cap_rows(monkeypatch, config, rows_per_batch)
        steps = self.STEPS[qpm]
        rows = sweep_trotter(config, steps)
        assert [r.config for r in row_reports] == [
            replace(config, trotter_steps=k, seed=5 + i) for i, k in enumerate(steps)
        ]
        assert [row["steps"] for row in rows] == steps
        for row, report in zip(rows, row_reports):
            assert row["fidelity"] == report.fidelity
            assert all(row[k] == report.probabilities[k[2:]] for k in row if k.startswith("p_"))
        assert [r.to_json() for r in row_reports] == self.lone(clear_step, row_reports)

    @pytest.mark.parametrize("rows_per_batch", [None, 2], ids=["cap", "two-row-batches"])
    @pytest.mark.parametrize("qpm", [1, 2, 3])
    def test_circuit_theta_rows_are_their_lone_runs(
        self, monkeypatch, row_reports, clear_step, qpm, rows_per_batch
    ):
        config = ExperimentConfig(trotter_steps=3, shots=100, qubits_per_mode=qpm)
        if rows_per_batch:
            self.cap_rows(monkeypatch, config, rows_per_batch)
        rows = sweep_theta(config, self.GRID, use_circuit=True)
        assert [r.config for r in row_reports] == [
            replace(config, theta=t, seed=1234 + i) for i, t in enumerate(self.GRID)
        ]
        assert [row["theta"] for row in rows] == self.GRID
        assert [r.to_json() for r in row_reports] == self.lone(clear_step, row_reports)

    def test_rows_of_a_batch_evolve_in_one_pass(self, count_calls):
        # The 7 rows of a qpm=2 sweep fit one batch; a lone run is a batch of one.
        calls = count_calls((sv, "evolve"), (experiments, "run_hom"))
        sweep_trotter(ExperimentConfig(), [1, 2, 4, 8, 16, 32, 64])
        assert calls == {"evolve": 1, "run_hom": 7}
        run_hom(ExperimentConfig(trotter_steps=3))
        assert calls == {"evolve": 2, "run_hom": 7}

    @pytest.mark.parametrize(
        "config, steps, error",
        [
            (ExperimentConfig(), [1, 2, 8193], "steps = 8193 times 32 terms"),
            (ExperimentConfig(qubits_per_mode=6), [1, 2, 4], "steps = 4 times 73728 terms"),
        ],
        ids=["qpm-2", "qpm-6"],
    )
    def test_row_over_the_rotation_cap_refused_before_any_row_runs(
        self, count_calls, config, steps, error
    ):
        calls = count_calls((experiments, "run_hom"), (sv, "evolve"))
        with pytest.raises(ValueError, match=rf"^{error} is more than 262144 rotations$"):
            sweep_trotter(config, steps)
        assert calls == {"run_hom": 0, "evolve": 0}
        assert compile_step(config).pending == {}

    @pytest.mark.parametrize(
        "sweep, row",
        [
            (
                lambda: sweep_trotter(ExperimentConfig(theta=1e308), [1, 2]),
                ExperimentConfig(theta=1e308),
            ),
            (
                lambda: sweep_theta(
                    ExperimentConfig(qubits_per_mode=3), [0.1, 1e308], use_circuit=True
                ),
                ExperimentConfig(theta=1e308, seed=1235, qubits_per_mode=3),
            ),
            (
                lambda: sweep_theta(
                    ExperimentConfig(qubits_per_mode=3), [0.1, 8e307], use_circuit=True
                ),
                ExperimentConfig(theta=8e307, seed=1235, qubits_per_mode=3),
            ),
        ],
        ids=["trotter-phases", "theta-phases", "theta-circuit-angle"],
    )
    def test_refusal_is_the_failing_rows_own(self, sweep, row):
        # A batch checks each row as its lone run does, exact phases first:
        # at 1e308 both the phases and the circuit angles overflow.
        with pytest.raises(ValueError) as lone:
            run_hom(row)
        with pytest.raises(ValueError) as swept:
            sweep()
        assert str(swept.value) == str(lone.value)
        phases = row.theta == 1e308
        assert str(lone.value).endswith("phases exp(i·theta·w) are not finite") == phases

    @pytest.mark.parametrize(
        "sweep, refusal",
        [
            (lambda c, mp: sweep_trotter(c, [3, 1, 2, 3]), None),
            (lambda c, mp: sweep_theta(c, theta_grid(40), use_circuit=True), None),
            (lambda c, mp: sweep_theta(c, [0.1, 0.2, 1.7e308], use_circuit=True), ValueError),
            (lambda c, mp: sweep_trotter(c, [1, 1000]), ValueError),
            (lambda c, mp: sweep_trotter(c, [1, 0]), ValueError),
            (
                lambda c, mp: _fail_on_second_row(mp) or sweep_trotter(c, [1, 2, 3]),
                RuntimeError,
            ),
        ],
        ids=["trotter", "theta-circuit", "theta-overflow", "rotation-cap", "zero-steps",
             "run-fails"],
    )
    def test_no_state_left_pending(self, monkeypatch, sweep, refusal):
        config = ExperimentConfig(trotter_steps=2, qubits_per_mode=3)
        step = compile_step(config)
        if refusal is None:
            sweep(config, monkeypatch)
        else:
            with pytest.raises(refusal):
                sweep(config, monkeypatch)
        assert compile_step(config) is step
        assert step.pending == {}

    def test_batch_cap_bounds_a_sweeps_memory(self, monkeypatch):
        # 288 strings × 64 amplitudes a row at qpm 3: the cap runs 7 rows to a
        # batch, and tracemalloc peaked at 4.8 MB for 7, 64 and 256 rows. All
        # 64 rows in one batch wrote out 38 MB of weights and peaked at 43 MB.
        config = ExperimentConfig(qubits_per_mode=3)

        def peak(points: int) -> int:
            sweep_theta(config, [0.1], use_circuit=True)  # the step's θ-free parts
            tracemalloc.start()
            try:
                sweep_theta(config, theta_grid(points), use_circuit=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(256) < 6_000_000
        monkeypatch.setattr(experiments, "BATCH_WEIGHTS", 10**12)
        assert peak(64) > 30_000_000


class TestSweepTrotter:
    def test_coincidence_suppression_trend(self):
        rows = sweep_trotter(ExperimentConfig(), [1, 2, 4, 8, 16])
        assert rows[-1]["p_0101"] < rows[0]["p_0101"]

    def test_pair_probabilities_equalize(self):
        rows = sweep_trotter(ExperimentConfig(), [16])
        assert abs(rows[0]["p_0011"] - rows[0]["p_1100"]) <= 0.01

    def test_fidelity_strictly_increases_on_doubling_ladder(self):
        rows = sweep_trotter(ExperimentConfig(), [1, 2, 4, 8, 16])
        fids = [r["fidelity"] for r in rows]
        assert all(a < b for a, b in zip(fids, fids[1:]))

    def test_empty_steps_rejected(self):
        with pytest.raises(ValueError):
            sweep_trotter(ExperimentConfig(), [])
        with pytest.raises(ValueError, match="^steps_list must be non-empty$"):
            sweep_trotter(ExperimentConfig(), np.array([], dtype=int))

    @pytest.mark.parametrize("bad", [2.5, True, "2", None, math.nan, np.float64(1.5)])
    def test_step_count_the_config_refuses_rejected(self, monkeypatch, bad):
        # Refused before any row runs, not truncated or coerced by int().
        monkeypatch.setattr(experiments, "run_hom", lambda *a: pytest.fail("row ran"))
        with pytest.raises(ValueError, match="^steps_list takes whole numbers, got "):
            sweep_trotter(ExperimentConfig(), [1, bad])

    def test_integral_step_counts_run_as_ints(self):
        # A numpy array and integral floats give the rows of the plain int list.
        want = sweep_trotter(ExperimentConfig(), [1, 2, 4])
        assert sweep_trotter(ExperimentConfig(), np.array([1, 2, 4])) == want
        assert sweep_trotter(ExperimentConfig(), [1.0, np.int64(2), 4]) == want
        assert json.dumps(want) == json.dumps(sweep_trotter(ExperimentConfig(), (1.0, 2.0, 4.0)))

    def test_exact_config_rejected(self):
        with pytest.raises(ValueError, match="circuit path"):
            sweep_trotter(ExperimentConfig(exact=True), [1])


class TestSweepTheta:
    def test_exact_path_matches_cos_squared(self):
        grid = theta_grid(17)
        rows = sweep_theta(ExperimentConfig(), grid)
        for row in rows:
            expected = math.cos(2 * row["theta"]) ** 2
            assert row["p_0101"] == pytest.approx(expected, abs=1e-9)

    def test_endpoints(self):
        rows = sweep_theta(ExperimentConfig(), [0.0, math.pi / 4, math.pi / 8])
        assert rows[0]["p_0101"] == pytest.approx(1.0, abs=1e-9)
        assert rows[1]["p_0101"] == pytest.approx(0.0, abs=1e-9)
        assert rows[2]["p_0101"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("use_circuit", [False, True], ids=["exact", "circuit"])
    def test_row_seeds_derive_from_the_base_seed(self, monkeypatch, use_circuit):
        reports = []
        original = experiments.run_hom

        def kept(*args):
            reports.append(original(*args))
            return reports[-1]

        monkeypatch.setattr(experiments, "run_hom", kept)
        sweep_theta(ExperimentConfig(seed=40), theta_grid(17), use_circuit=use_circuit)
        assert [r.to_dict()["rng"]["seed"] for r in reports] == list(range(40, 57))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_theta(ExperimentConfig(), [])
        with pytest.raises(ValueError, match="^theta_grid must be non-empty$"):
            sweep_theta(ExperimentConfig(), np.array([]))

    @pytest.mark.parametrize("bad", [True, "0.5", None, 1j])
    def test_angle_the_config_refuses_rejected(self, monkeypatch, bad):
        monkeypatch.setattr(experiments, "run_hom", lambda *a: pytest.fail("row ran"))
        with pytest.raises(ValueError, match="^theta_grid takes numbers, got "):
            sweep_theta(ExperimentConfig(), [0.5, bad])

    def test_numeric_angles_run_as_floats(self):
        want = sweep_theta(ExperimentConfig(), [0.0, 0.5, 1.0])
        assert sweep_theta(ExperimentConfig(), np.array([0, 0.5, 1])) == want
        assert json.dumps(sweep_theta(ExperimentConfig(), [0, 0.5, 1])) == json.dumps(want)

    @pytest.mark.parametrize(
        "points, stop",
        [(2.0, 1.0), (True, 1.0), ("3", 1.0), (3, math.inf), (3, -math.inf), (3, math.nan)],
    )
    def test_grid_of_bad_inputs_refused_before_it_is_built(self, monkeypatch, points, stop):
        monkeypatch.setattr(np, "linspace", lambda *a: pytest.fail("grid built"))
        with pytest.raises(ValueError, match="^(points must be int, got |stop must be finite$)"):
            theta_grid(points, stop)

    @pytest.mark.parametrize("points", [0, MAX_POINTS + 1, 10**9])
    def test_grid_outside_the_cap_refused_before_it_is_built(self, monkeypatch, points):
        monkeypatch.setattr(np, "linspace", lambda *a: pytest.fail("grid built"))
        with pytest.raises(ValueError, match=rf"^points must be in \[1, {MAX_POINTS}\]$"):
            theta_grid(points)

    def test_circuit_path_matches_circuit_runs(self):
        config = ExperimentConfig(trotter_steps=2)
        grid = theta_grid(5)
        rows = sweep_theta(config, grid, use_circuit=True)
        for row, theta in zip(rows, grid):
            report = run_hom(ExperimentConfig(theta=theta, trotter_steps=2))
            assert report.metrics is not None
            assert row["p_0101"] == report.probabilities["0101"]
        exact = sweep_theta(ExperimentConfig(), grid)
        assert max(abs(a["p_0101"] - b["p_0101"]) for a, b in zip(rows, exact)) > 0.01


class TestCircuitReport:
    def test_reduced_has_fewer_cx(self):
        report = circuit_report(ExperimentConfig())
        assert (
            report["reduced"]["metrics"]["cx_count"]
            < report["full"]["metrics"]["cx_count"]
        )

    def test_full_cx_in_expected_band(self):
        report = circuit_report(ExperimentConfig())
        assert 32 <= report["full"]["metrics"]["cx_count"] <= 512

    def test_deterministic(self):
        a = circuit_report(ExperimentConfig())
        b = circuit_report(ExperimentConfig())
        assert a == b

    def test_exact_config_rejected(self):
        with pytest.raises(ValueError):
            circuit_report(ExperimentConfig(exact=True))

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                ExperimentConfig(qubits_per_mode=1),
                "cbf20d8a918e55ce47d569e26b8376c0b37f69cdd3ceae400367482a85323e0a",
            ),
            (
                ExperimentConfig(),
                "d180c5faafea7f576cf1d6529a463eb0cd119487b045b71e55169fe6fbe0f540",
            ),
            (
                ExperimentConfig(qubits_per_mode=3),
                "59b367ca189fb75746056cf457e56811f8e833d145e0144512103819084f3cfd",
            ),
            (
                ExperimentConfig(theta=0.37, trotter_steps=3),
                "c9e48e5bb1b27fc2e2610b42f46bc1aab649b5293348231df36d68daa563ccfa",
            ),
            (
                ExperimentConfig(theta=0.0),
                "8bb95667998318f2855f4a7f69e7648d8893c7c570c055c8e1bea5e3e53ac366",
            ),
        ],
        ids=["q1", "q2", "q3", "q2-steps-3", "q2-theta-0"],
    )
    def test_report_unchanged(self, config, digest):
        # Digests of the reports written when each H went through synthesize.
        text = json.dumps(circuit_report(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        if config.theta == 0:
            assert "rz(-0) " in text and "rz(0) " in text

    def test_each_h_compiled_once(self, count_calls):
        calls = count_calls(
            (experiments, "interaction"), (experiments, "reduced_interaction"),
            (circuit, "trotter_circuit"), (circuit, "synthesize"), (experiments, "fock_sector"),
        )
        circuit_report(ExperimentConfig(trotter_steps=3))
        # The report reads no sector.
        assert calls == {
            "interaction": 1, "reduced_interaction": 1, "trotter_circuit": 2, "synthesize": 0,
            "fock_sector": 0,
        }


class TestCli:
    def test_run_exact(self):
        result = CliRunner().invoke(
            main, ["run", "--exact", "--theta", "0.7853981634"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["probabilities"]["0101"] <= 1e-9
        assert report["rng"]["algorithm"] == "numpy-pcg64"

    def test_run_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        result = CliRunner().invoke(main, ["run", "--exact", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["config"]["exact"] is True

    def test_unwritable_out_exit_code(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = CliRunner().invoke(main, ["run", "--exact", "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and str(out) in result.output

    def test_qasm_out_onto_a_file_exit_code(self, tmp_path):
        existing = tmp_path / "qasm"
        existing.write_text("")
        out = tmp_path / "report.json"
        result = CliRunner().invoke(
            main, ["circuit-report", "--qasm-out", str(existing), "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.output.startswith("error: ") and str(existing) in result.output
        assert not out.exists()

    def test_unwritable_out_leaves_no_qasm(self, tmp_path):
        qdir = tmp_path / "qasm"
        out = tmp_path / "missing" / "report.json"
        result = CliRunner().invoke(
            main, ["circuit-report", "--qasm-out", str(qdir), "--out", str(out)]
        )
        assert result.exit_code == 2
        assert list(qdir.glob("*.qasm")) == []

    def test_invalid_config_exit_code(self):
        result = CliRunner().invoke(main, ["run", "--steps", "0"])
        assert result.exit_code == 2

    def test_qubits_per_mode_capped(self):
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["run", "--exact", "--qubits-per-mode", "7"])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert f"[1, {MAX_QUBITS_PER_MODE}]" in result.output
        result = CliRunner().invoke(
            main, ["run", "--exact", "--qubits-per-mode", str(MAX_QUBITS_PER_MODE)]
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(result.output)["probabilities"]) == 4**MAX_QUBITS_PER_MODE

    def test_reduced_run_at_three_qubits_per_mode(self):
        result = CliRunner().invoke(
            main, ["run", "--reduced", "--qubits-per-mode", "3"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["config"]["reduced"] is True
        assert report["metrics"]["cx_count"] == 384

    def test_circuit_report_at_three_qubits_per_mode(self):
        result = CliRunner().invoke(main, ["circuit-report", "--qubits-per-mode", "3"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["reduced"]["metrics"]["cx_count"] == 384
        assert report["full"]["metrics"]["cx_count"] == 1728

    def test_sweep_trotter_csv(self):
        result = CliRunner().invoke(
            main,
            ["sweep-trotter", "--steps-list", "1,2", "--format", "csv"],
        )
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert header == "steps,p_0101,p_0011,p_1100,fidelity,depth,cx_count"

    @pytest.mark.parametrize(
        "qpm, columns",
        [(1, ["p_11"]), (2, ["p_0101", "p_0011", "p_1100"])],
    )
    def test_sweep_trotter_at_narrow_modes(self, qpm, columns):
        result = CliRunner().invoke(
            main,
            ["sweep-trotter", "--steps-list", "1,2", "--qubits-per-mode", str(qpm)],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)
        assert [k for k in rows[0] if k.startswith("p_")] == columns

    def test_sweep_theta_json(self):
        result = CliRunner().invoke(main, ["sweep-theta", "--points", "3"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [r["theta"] for r in rows] == pytest.approx(
            [0.0, math.pi / 4, math.pi / 2]
        )

    def test_sweep_theta_circuit(self):
        exact = CliRunner().invoke(main, ["sweep-theta", "--points", "5"])
        circuit = CliRunner().invoke(main, ["sweep-theta", "--points", "5", "--circuit"])
        assert circuit.exit_code == 0, circuit.output
        rows = json.loads(circuit.output)
        assert rows == sweep_theta(ExperimentConfig(), theta_grid(5), use_circuit=True)
        assert rows != json.loads(exact.output)

    def test_circuit_report_with_qasm_files(self, tmp_path):
        result = CliRunner().invoke(
            main, ["circuit-report", "--qasm-out", str(tmp_path)]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        qasm = (tmp_path / report["full"]["qasm_path"].split("/")[-1]).read_text()
        assert qasm.startswith("OPENQASM 2.0;")
