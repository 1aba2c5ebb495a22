import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import magicarp.cli as cli
from magicarp.cli import (
    EXIT_INVALID,
    EXIT_NOT_OPTIMAL,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    config_to_yaml,
    main,
    normalize_config,
    parse_matrix_literal,
)
from magicarp.propagation import (
    PulseSchedule,
    bloch_from_csv,
    read_schedule_csv,
    write_schedule_csv,
)
from magicarp.qudit import AdjointMatrix, nearest_neighbor_control_set
from magicarp.shooting import pulses_from_adjoint

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

FAST_MAGICARP = {"n_steps": 16, "max_iters": 80, "convergence_tol": 1e-7}


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def at(path, value):
    """A config that sets one dotted path."""
    *sections, key = path.split(".")
    cfg = {key: value}
    for section in reversed(sections):
        cfg = {section: cfg}
    return cfg


# Every config key -> two values it rejects: a wrong type (list items included), then a bad value.
BAD_VALUES = {
    "dim": (True, 1),
    "target": (3, "bogus"),
    "controls": (1, "all_to_all"),
    "omega_max": ("fast", 0),
    "magicarp.mode": (1, "bolza"),
    "magicarp.n_steps": (True, 0),
    "magicarp.max_iters": (1.5, 0),
    "magicarp.convergence_tol": ("tight", 0),
    "magicarp.stall_tol": (False, -1.0),
    "magicarp.init": (1, "fourier"),
    "magicarp.init_sigma": ("wide", 0),
    "magicarp.init_coeffs": ("x", ["a"]),
    "magicarp.seed": ("x", 2**64),
    "grape.n_steps": ("x", 0),
    "grape.max_iters": (None, 0),
    "grape.convergence_tol": ("x", -1e-7),
    "grape.penalty_weight": ("x", -0.5),
    "grape.stall_tol": ("x", 0),
    "grape.init": (1, "fourier"),
    "grape.init_sigma": ("x", -1),
    "grape.init_schedule": (5, [[1.0, "a"]]),
    "grape.seed": (1.0, -1),
    "benchmark.dims": (["a"], []),
    "benchmark.runs_per_dim": (True, 0),
    "benchmark.target": (1, "custom"),
    "benchmark.base_seed": ("x", -1),
    "benchmark.threshold": ("x", 0),
}

BAD_CONFIGS = [(path, at(path, value)) for path, values in BAD_VALUES.items() for value in values] + [
    ("omega_max", {"omega_max": float("inf")}),
    ("custom_target", {"custom_target": "x"}),
    ("custom_target", {"target": "custom", "custom_target": [[1, 2]]}),
    ("magicarp.init_coeffs", at("magicarp.init", "explicit")),
    ("magicarp.init_coeffs", {"dim": 2, "magicarp": {"init": "explicit", "init_coeffs": [0.1, 0.2]}}),
    ("grape.init_schedule", at("grape.init", "explicit")),
    ("grape.init_schedule", {"grape": {"n_steps": 2, "init": "explicit", "init_schedule": [[0.1, 0.2], [0.3]]}}),
] + [  # non-finite numbers are bad input too, not a runtime failure
    ("magicarp.init_coeffs", {"magicarp": {"init": "explicit", "init_coeffs": [float("nan"), 0.0, 0.0]}}),
    ("magicarp.init_coeffs", {"magicarp": {"init": "explicit", "init_coeffs": [0.0, float("-inf"), 0.0]}}),
] + [
    (path, at(path, value))
    for path in ("magicarp.init_sigma", "magicarp.convergence_tol", "magicarp.stall_tol")
    + ("grape.init_sigma", "grape.convergence_tol", "grape.stall_tol")
    for value in (float("inf"), float("nan"))
]


class TestConfig:
    def test_defaults_validate(self):
        cfg = normalize_config({})
        assert cfg["dim"] == 2
        assert cfg["target"] == "identity"

    def test_round_trip_is_identity(self):
        cfg = normalize_config({"dim": 3, "magicarp": {"seed": 7}})
        again = normalize_config(yaml.safe_load(config_to_yaml(cfg)))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            normalize_config({"dims": [2]})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="magicarp"):
            normalize_config({"magicarp": {"stepsize": 0.1}})

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError, match="dim"):
            normalize_config({"dim": "two"})
        with pytest.raises(ConfigError, match="magicarp.n_steps"):
            normalize_config({"magicarp": {"n_steps": 0}})
        with pytest.raises(ConfigError, match="grape.penalty_weight"):
            normalize_config({"grape": {"penalty_weight": -0.5}})

    @pytest.mark.parametrize("path,cfg", BAD_CONFIGS, ids=[f"{p}={c}" for p, c in BAD_CONFIGS])
    def test_bad_type_or_value_exits_2_naming_path(self, tmp_path, capsys, path, cfg):
        command = {"grape": "grape", "benchmark": "benchmark"}.get(path.split(".")[0], "optimize")
        config = write_config(tmp_path, cfg)
        rc = main([command, "--config", config, "--out", str(tmp_path / "out"), "--workers", "1"])
        assert rc == EXIT_INVALID
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grad_step_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, at("magicarp.grad_step", 1e-6))
        assert main(["optimize", "--config", config, "--out", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "unknown config key" in err and "grad_step" in err

    def test_custom_target_requires_matrix(self):
        with pytest.raises(ConfigError, match="custom_target"):
            normalize_config({"target": "custom"})

    def test_matrix_literal_parsing(self):
        rows = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        np.testing.assert_array_equal(parse_matrix_literal(rows), SX)

    def test_matrix_literal_rejects_ragged(self):
        with pytest.raises(ConfigError):
            parse_matrix_literal([[[0, 0]], [[1, 0], [0, 0]]])


class TestOptimizeCommand:
    def test_default_config_identity_converges(self, tmp_path, capsys):
        rc = main(["optimize", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("infidelity=")
        assert "duration_qsl=" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        schedule = read_schedule_csv(tmp_path / "schedule.csv")
        assert schedule.n_controls == 2

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("magicarp: {n_steps: -5}", encoding="utf-8")
        assert main(["optimize", "--config", str(path)]) == EXIT_INVALID

    def test_missing_config_exits_2(self):
        assert main(["optimize", "--config", "/nonexistent.yaml"]) == EXIT_INVALID

    def test_unparseable_yaml_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("magicarp: [unclosed", encoding="utf-8")
        assert main(["optimize", "--config", str(path)]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "command,runner", [("optimize", "optimize"), ("grape", "grape_optimize"), ("benchmark", "run_campaign")]
    )
    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch, command, runner):
        def singular(*args):
            raise np.linalg.LinAlgError("synthetic singular matrix")

        monkeypatch.setattr(cli, runner, singular)
        rc = main([command, "--out", str(tmp_path), "--workers", "1"])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: synthetic singular matrix")

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path, {"target": "qft", "magicarp": {**FAST_MAGICARP, "seed": 5}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rc1 = main(["optimize", "--config", cfg, "--out", str(out1)])
        rc2 = main(["optimize", "--config", cfg, "--out", str(out2)])
        assert rc1 == rc2
        for name in ("report.json", "schedule.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestGrapeCommand:
    def test_converged_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"target": "qft", "grape": {"n_steps": 16, "max_iters": 300, "seed": 3}},
        )
        rc = main(["grape", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final_g"] is None
        assert report["infidelity"] <= 1e-7

    def test_zero_steps_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"grape": {"n_steps": 0}})
        assert main(["grape", "--config", cfg]) == EXIT_INVALID


class TestBenchmarkCommand:
    def test_small_campaign_outputs(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "magicarp": FAST_MAGICARP,
                "benchmark": {"dims": [2], "runs_per_dim": 5, "base_seed": 4},
            },
        )
        out = tmp_path / "bench"
        rc = main(["benchmark", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert rc == EXIT_OK
        rows = (out / "records.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 records
        from magicarp.bench import read_records_csv

        records = read_records_csv(out / "records.csv")
        assert len(records) == 5 and all(r.dim == 2 for r in records)
        summary = json.loads((out / "summary.json").read_text())
        assert "2" in summary
        assert (
            summary["2"]["minimal_duration_qsl"] is None
            or summary["2"]["minimal_duration_qsl"] > 0
        )
        scatter = (out / "scatter_d2.dat").read_text().splitlines()
        assert scatter[0].startswith("#")
        assert len(scatter) == 6

    def test_init_coeffs_must_fit_every_dim(self, tmp_path, capsys, monkeypatch):
        def no_cells(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_campaign", no_cells)
        cfg = {"magicarp": {"init": "explicit", "init_coeffs": [0.1, 0.2, 0.3]}, "benchmark": {"dims": [2, 3]}}
        out = tmp_path / "bench"
        rc = main(["benchmark", "--config", write_config(tmp_path, cfg), "--out", str(out), "--workers", "1"])
        assert rc == EXIT_INVALID
        assert "error: magicarp.init_coeffs: expected 8 coefficients for d = 3, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_across_workers(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "magicarp": FAST_MAGICARP,
                "benchmark": {"dims": [2], "runs_per_dim": 4, "base_seed": 8},
            },
        )
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["benchmark", "--config", cfg, "--out", str(out1), "--workers", "1"]) == EXIT_OK
        assert main(["benchmark", "--config", cfg, "--out", str(out2), "--workers", "2"]) == EXIT_OK
        for name in ("records.csv", "summary.json", "scatter_d2.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCertifyCommand:
    def test_structured_schedule_certifies(self, tmp_path, capsys):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix.from_matrix(1.1 * SX + 0.4 * SY)
        schedule, _ = pulses_from_adjoint(g, ctrl, 32, "time_optimal_renormalized")
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, schedule)
        rc = main(["certify", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "residual=" in out and "g_fit=" in out
        fit = json.loads((tmp_path / "out" / "g_fit.json").read_text())
        assert fit["basis"] == "gell-mann"

    def test_random_schedule_exits_3(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "random.csv"
        write_schedule_csv(path, PulseSchedule.from_amplitudes(2.0 * rng.standard_normal((16, 2))))
        assert main(["certify", str(path), "--out", str(tmp_path)]) == EXIT_NOT_OPTIMAL

    def test_empty_schedule_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["certify", str(path)]) == EXIT_INVALID

    def test_missing_schedule_exits_2(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.csv")]) == EXIT_INVALID


class TestBlochCommand:
    def test_zero_schedule_stays_north(self, tmp_path):
        path = tmp_path / "zero.csv"
        write_schedule_csv(path, PulseSchedule.from_amplitudes(np.zeros((8, 2))))
        out = tmp_path / "out"
        assert main(["bloch", str(path), "--out", str(out)]) == EXIT_OK
        traj = bloch_from_csv((out / "bloch.csv").read_text())
        assert np.allclose(traj[:, 1:], np.tile([0, 0, 1.0], (9, 1)), atol=1e-14)

    def test_unit_norm_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "s.csv"
        write_schedule_csv(path, PulseSchedule.from_amplitudes(rng.standard_normal((12, 2))))
        out = tmp_path / "out"
        assert main(["bloch", str(path), "--out", str(out)]) == EXIT_OK
        traj = bloch_from_csv((out / "bloch.csv").read_text())
        assert np.max(np.abs(np.sum(traj[:, 1:] ** 2, axis=1) - 1)) <= 1e-10

    def test_non_qubit_dim_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"dim": 3})
        path = tmp_path / "s.csv"
        write_schedule_csv(path, PulseSchedule.from_amplitudes(np.zeros((4, 4))))
        assert main(["bloch", str(path), "--config", cfg]) == EXIT_INVALID


class TestSeedOverrides:
    def test_env_var_overrides_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"target": "qft", "magicarp": {**FAST_MAGICARP, "seed": 1}})
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("MAGICARP_SEED", "99")
        assert main(["optimize", "--config", cfg, "--out", str(out_env)]) == EXIT_OK
        monkeypatch.delenv("MAGICARP_SEED")
        assert main(["optimize", "--config", cfg, "--seed", "99", "--out", str(out_flag)]) == EXIT_OK
        assert (out_env / "report.json").read_bytes() == (out_flag / "report.json").read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"target": "qft", "magicarp": {**FAST_MAGICARP, "seed": 1}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("MAGICARP_SEED", "123456")
        assert main(["optimize", "--config", cfg, "--seed", "7", "--out", str(out_a)]) == EXIT_OK
        monkeypatch.delenv("MAGICARP_SEED")
        assert main(["optimize", "--config", cfg, "--seed", "7", "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAGICARP_SEED", "not-a-number")
        assert main(["optimize", "--out", str(tmp_path)]) == EXIT_INVALID


class TestEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "magicarp", "optimize", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.startswith("infidelity=")
