import builtins
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import magicarp
import magicarp.cli as cli
from magicarp.bench import BenchmarkSpec
from magicarp.cli import (
    EXIT_INVALID,
    EXIT_NOT_OPTIMAL,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    load_config,
    main,
    normalize_config,
    parse_matrix_literal,
)
from magicarp.grape import GrapeConfig, grape_objective, grape_optimize
from magicarp.propagation import PulseSchedule, propagate, schedule_from_csv, schedule_to_csv
from magicarp.qudit import AdjointMatrix, nearest_neighbor_control_set, target_gate
from magicarp.shooting import MagicarpConfig, ShootingContext, batch_objective, pulses_from_adjoint

from conftest import gellmann_coeffs

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FAST_MAGICARP = {"n_steps": 16, "max_iters": 80, "convergence_tol": 1e-7}


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def read_bloch_csv(path):
    """The (t, x, y, z) rows of a bloch.csv, below its header."""
    return np.loadtxt(path, delimiter=",", skiprows=1)


# root reads a file whatever its mode bits, so there only an ``open`` that
# refuses the path makes it unreadable
LOCKS = ["open"] if os.geteuid() == 0 else ["chmod", "open"]


def lock(path, how, monkeypatch):
    """Make the file at ``path`` unreadable: by its mode bits, or by an ``open`` that refuses it."""
    if how == "chmod":
        path.chmod(0)
        return
    real_open = builtins.open

    def refusing_open(file, *args, **kwargs):
        if str(file) == str(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing_open)


def at(path, value):
    """A config that sets one dotted path."""
    *sections, key = path.split(".")
    cfg = {key: value}
    for section in reversed(sections):
        cfg = {section: cfg}
    return cfg


# Every config key -> values it rejects: a wrong type (list items included), then bad values.
BAD_VALUES = {
    "dim": (True, 1),
    "target": (3, "bogus"),
    "omega_max": ("fast", 0),
    "magicarp.mode": (1, "bolza"),
    "magicarp.n_steps": (True, 0),
    "magicarp.max_iters": (1.5, 0),
    "magicarp.convergence_tol": ("tight", 0),
    "magicarp.init_sigma": ("wide", 0),
    "magicarp.init_coeffs": ("x", ["a"]),
    "magicarp.seed": ("x", 2**64),
    "grape.n_steps": ("x", 0),
    "grape.max_iters": (None, 0),
    "grape.convergence_tol": ("x", -1e-7),
    "grape.penalty_weight": ("x", -0.5),
    "grape.init_sigma": ("x", -1),
    "grape.init_schedule": (5, [[1.0, "a"]]),
    "grape.seed": (1.0, -1),
    "benchmark.dims": (["a"], [], [2, 2]),
    "benchmark.runs_per_dim": (True, 0),
    "benchmark.target": (1, "custom"),
    "benchmark.base_seed": ("x", -1),
    "benchmark.threshold": ("x", 0),  # the type in the CLI, the value in BenchmarkSpec
}

BAD_CONFIGS = [(path, at(path, value)) for path, values in BAD_VALUES.items() for value in values] + [
    ("omega_max", {"omega_max": float("inf")}),
    ("custom_target", {"custom_target": "x"}),
    ("custom_target", {"target": "custom", "custom_target": [[1, 2]]}),
    # an explicit start of the wrong shape, or empty
    ("magicarp.init_coeffs", {"dim": 2, "magicarp": {"init_coeffs": [0.1, 0.2]}}),
    ("magicarp.init_coeffs", at("magicarp.init_coeffs", [])),
    ("grape.init_schedule", {"grape": {"n_steps": 2, "init_schedule": [[0.1, 0.2], [0.3]]}}),
    ("grape.init_schedule", {"grape": {"n_steps": 3, "init_schedule": [[0.1, 0.2], [0.3, 0.4]]}}),
] + [  # non-finite numbers are bad input too, not a runtime failure
    ("magicarp.init_coeffs", at("magicarp.init_coeffs", [float("nan"), 0.0, 0.0])),
    ("magicarp.init_coeffs", at("magicarp.init_coeffs", [0.0, float("-inf"), 0.0])),
    ("grape.init_schedule", {"grape": {"n_steps": 1, "init_schedule": [[float("inf"), 0.0]]}}),
] + [
    (path, at(path, value))
    for path in ("magicarp.init_sigma", "magicarp.convergence_tol")
    + ("grape.init_sigma", "grape.convergence_tol", "benchmark.threshold")
    for value in (float("inf"), float("nan"))
]


def workers_flag(command):
    """``--workers 1`` for the one command that takes it."""
    return ["--workers", "1"] if command == "benchmark" else []


class TestConfig:
    def test_defaults_validate(self):
        cfg = normalize_config({})
        assert cfg["dim"] == 2
        assert cfg["target"] == "identity"

    def test_round_trip_is_identity(self):
        cfg = normalize_config({"dim": 3, "magicarp": {"seed": 7}})
        again = normalize_config(yaml.safe_load(yaml.safe_dump(cfg, sort_keys=False)))
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
        rc = main([command, "--config", config, "--out", str(tmp_path / "out"), *workers_flag(command)])
        assert rc == EXIT_INVALID
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "grape"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_flag_exits_2_naming_the_flag(self, tmp_path, capsys, command, seed):
        rc = main([command, "--seed", str(seed), "--out", str(tmp_path / "out")])
        assert rc == EXIT_INVALID
        assert capsys.readouterr().err == f"error: --seed: expected a 64-bit unsigned integer, got {seed}\n"
        assert not (tmp_path / "out").exists()

    def test_controls_is_an_unknown_key(self, tmp_path, capsys):
        # every command drives the adjacent-level controls; the key that named them is gone
        config = write_config(tmp_path, {"controls": "nearest_neighbor"})
        assert main(["optimize", "--config", config, "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: unknown config key 'controls'")

    @pytest.mark.parametrize("path", ["magicarp.init", "grape.init", "magicarp.stall_tol", "grape.stall_tol"])
    def test_removed_run_keys_are_unknown(self, tmp_path, capsys, path):
        # an explicit start is used exactly when one is given, and the stall
        # tolerance is a constant of the optimizer
        section, key = path.split(".")
        command = {"magicarp": "optimize", "grape": "grape"}[section]
        config = write_config(tmp_path, at(path, "random_normal" if key == "init" else 1e-12))
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: unknown config key {section}.{key!r}")
        assert not (tmp_path / "out").exists()

    def test_grad_step_is_an_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, at("magicarp.grad_step", 1e-6))
        assert main(["optimize", "--config", config, "--out", str(tmp_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "unknown config key" in err and "grad_step" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("- 1\n- 2\n", "config root: expected a mapping, got list"),
            ("magicarp: 5\n", "magicarp: expected a mapping, got 5"),
            ("target: custom\ncustom_target: [[[1, 0], [0, 0]]]\n", "custom_target: expected a square matrix"),
            ("target: custom\ncustom_target: [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]\n", "target: matrix is not unitary"),
            # an entry of three numbers, or of two bools, would read as 1+0j
            ("target: custom\ncustom_target: [[[1, 0, 99], [0, 0]], [[0, 0], [1, 0]]]\n", "custom_target: entries must be"),
            ("target: custom\ncustom_target: [[[true, false], [0, 0]], [[0, 0], [1, 0]]]\n", "custom_target: entries must be"),
            # a matrix the run would ignore
            (
                "target: qft\ncustom_target: [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]\n",
                "custom_target: given, but target is 'qft', not 'custom'",
            ),
        ],
    )
    def test_bad_config_file_exits_2_with_the_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,key,line,first",
        [
            ("magicarp:\n  n_steps: 8\ndim: 2\nmagicarp:\n  n_steps: 128\n", "magicarp", 4, 1),
            ("magicarp:\n  n_steps: 8\n  max_iters: 3\n  n_steps: 128\n", "n_steps", 4, 2),
        ],
        ids=["top-level", "in-a-section"],
    )
    def test_repeated_key_exits_2_naming_it_and_its_line(self, tmp_path, capsys, text, key, line, first):
        # plain YAML keeps the last value, so the first n_steps: 8 would run as 128
        path = tmp_path / "repeated.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        message = f"config file {path}: key {key!r} repeated on line {line}, first on line {first}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_merge_key_override_is_not_a_repeat(self, tmp_path):
        path = tmp_path / "merged.yaml"
        path.write_text("magicarp: &run\n  n_steps: 8\n  seed: 1\ngrape:\n  <<: *run\n  seed: 2\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert (cfg["grape"]["n_steps"], cfg["grape"]["seed"]) == (8, 2)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        assert load_config(str(path))["dim"] >= 2

    def test_readme_defaults_block_is_the_defaults(self):
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"All\s+defaults,\s+in\s+YAML\s+form:\n\n```yaml\n(.*?)```", readme, re.S)
        assert yaml.safe_load(block) == normalize_config({})

    def test_readme_library_section_has_one_line_per_export(self):
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        (section,) = re.findall(r"^## Library\n(.*?)^## ", readme, re.S | re.M)
        assert sorted(re.findall(r"^\* `(\w+)`: ", section, re.M)) == sorted(magicarp.__all__)

    def test_custom_target_requires_matrix(self):
        with pytest.raises(ConfigError, match="custom_target"):
            normalize_config({"target": "custom"})

    def test_matrix_literal_parsing(self):
        rows = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        np.testing.assert_array_equal(parse_matrix_literal(rows), SX)

    def test_matrix_literal_rejects_ragged(self):
        with pytest.raises(ConfigError):
            parse_matrix_literal([[[0, 0]], [[1, 0], [0, 0]]])


def library_message(build) -> str:
    with pytest.raises(ValueError) as exc:
        build()
    return str(exc.value)


def no_cells(*args):
    raise AssertionError("a cell ran")


SCHEDULE_COMMANDS = ("certify", "bloch")


def run_on_config(tmp_path, command, cfg) -> int:
    """The exit code of ``command`` on a config, given a d = 2 schedule if it takes one."""
    schedule = tmp_path / "d2.csv"
    schedule.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.full((4, 2), 0.5))), encoding="utf-8")
    argv = [command, *([str(schedule)] if command in SCHEDULE_COMMANDS else []), "--config", write_config(tmp_path, cfg)]
    return main([*argv, "--out", str(tmp_path / "out"), *workers_flag(command)])


# a top-level key's rule -> (the library call that breaks it, a config that breaks it,
# the command run on that config, the prefix the CLI gives the library's message)
LIBRARY_RULES = {
    "dim": (lambda: nearest_neighbor_control_set(1), {"dim": 1}, "optimize", ""),
    "target": (lambda: target_gate("foo", 2), {"target": "foo"}, "optimize", "target: "),
    "target-case": (lambda: target_gate("QFT", 2), {"target": "QFT"}, "grape", "target: "),
    "omega_max": (lambda: BenchmarkSpec(omega_max=0), {"omega_max": 0}, "benchmark", ""),
    "schedule": (
        lambda: propagate(nearest_neighbor_control_set(3), PulseSchedule.from_amplitudes(np.zeros((4, 2)))),
        {"dim": 3},
        "certify",
        "",
    ),
}


class TestLibraryRules:
    """Every top-level key is checked by the library's one rule for it, whose message the CLI prints."""

    @pytest.mark.parametrize("rule", LIBRARY_RULES)
    def test_cli_prints_the_librarys_message(self, tmp_path, capsys, monkeypatch, rule):
        build, cfg, command, prefix = LIBRARY_RULES[rule]
        message = library_message(build)
        monkeypatch.setattr(cli, "run_campaign", no_cells)
        assert run_on_config(tmp_path, command, cfg) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["benchmark", *SCHEDULE_COMMANDS])
    def test_non_unitary_custom_target_exits_2_under_commands_that_never_drive_it(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "run_campaign", no_cells)
        cfg = {"target": "custom", "custom_target": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}
        assert run_on_config(tmp_path, command, cfg) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: target: matrix is not unitary")
        assert not (tmp_path / "out").exists()


class TestOptimizeCommand:
    def test_default_config_identity_converges(self, tmp_path, capsys):
        rc = main(["optimize", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("infidelity=")
        assert "duration_qsl=" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        schedule = schedule_from_csv((tmp_path / "schedule.csv").read_text(encoding="utf-8"))
        assert schedule.n_controls == 2

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("magicarp: {n_steps: -5}", encoding="utf-8")
        assert main(["optimize", "--config", str(path)]) == EXIT_INVALID

    def test_missing_config_exits_2(self):
        assert main(["optimize", "--config", "/nonexistent.yaml"]) == EXIT_INVALID

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"\xff\xfe dim: 2\n")
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    def test_unparseable_yaml_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("magicarp: [unclosed", encoding="utf-8")
        assert main(["optimize", "--config", str(path)]) == EXIT_INVALID

    def test_config_directory_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: config file {tmp_path} cannot be read: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", LOCKS)
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, how):
        path = tmp_path / "locked.yaml"
        path.write_text("dim: 2\n", encoding="utf-8")
        lock(path, how, monkeypatch)
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: config file {path} cannot be read: ")

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        # only input errors exit 2: an --out that is a file fails on the output side
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        config = tmp_path / "grape.yaml"
        config.write_text("dim: 2\ngrape: {n_steps: 2, max_iters: 5}\n", encoding="utf-8")
        assert main(["grape", "--config", str(config), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: ")

    @pytest.mark.parametrize("out", ["a file", ""])
    @pytest.mark.parametrize(
        "command,runner", [("optimize", "optimize"), ("grape", "grape_optimize"), ("benchmark", "run_campaign")]
    )
    def test_unusable_out_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch, command, runner, out):
        # --out is made once the input is checked, before the optimizer or campaign runs
        calls = []
        monkeypatch.setattr(cli, runner, lambda *args: calls.append(args))
        if out:
            out = tmp_path / "taken"
            out.write_text("", encoding="utf-8")
        assert main([command, "--out", str(out), *workers_flag(command)]) == EXIT_RUNTIME
        assert calls == []
        assert capsys.readouterr().err.startswith("runtime error: ")

    @pytest.mark.parametrize("command,section", [("optimize", "magicarp"), ("grape", "grape")])
    def test_non_converged_run_says_why(self, tmp_path, capsys, command, section):
        cfg = write_config(tmp_path, {"dim": 3, "target": "qft", section: {"n_steps": 8, "max_iters": 5}})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out.startswith("infidelity=")
        assert err == "not converged: stopped on max_iters after 5 iterations\n"
        assert json.loads((tmp_path / "out" / "report.json").read_text())["converged"] is False

    @pytest.mark.parametrize(
        "command,runner", [("optimize", "optimize"), ("grape", "grape_optimize"), ("benchmark", "run_campaign")]
    )
    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch, command, runner):
        def singular(*args):
            raise np.linalg.LinAlgError("synthetic singular matrix")

        monkeypatch.setattr(cli, runner, singular)
        rc = main([command, "--out", str(tmp_path), *workers_flag(command)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: synthetic singular matrix")

    def test_init_coeffs_alone_start_the_run(self, tmp_path):
        # no switch: the given coefficients are the start, whatever the seed
        coeffs = [0.1, -0.2, 0.05]
        cfg = write_config(tmp_path, {"target": "hadamard", "magicarp": {"n_steps": 8, "max_iters": 5, "init_coeffs": coeffs}})
        for seed in ("1", "2"):
            assert main(["optimize", "--config", cfg, "--seed", seed, "--out", str(tmp_path / seed)]) in (EXIT_OK, EXIT_RUNTIME)
        report = json.loads((tmp_path / "1" / "report.json").read_text())
        context = ShootingContext(
            controls=nearest_neighbor_control_set(2),
            target=target_gate("hadamard", 2),
            config=MagicarpConfig(n_steps=8),
        )
        assert report["cost_trace"][0] == batch_objective(np.array([coeffs]), context)[0]
        assert (tmp_path / "1" / "schedule.csv").read_bytes() == (tmp_path / "2" / "schedule.csv").read_bytes()

    @pytest.mark.parametrize("command", ["optimize", "grape", "certify", "bloch"])
    def test_workers_is_a_benchmark_flag(self, tmp_path, capsys, command):
        schedule = [str(tmp_path / "s.csv")] if command in ("certify", "bloch") else []
        with pytest.raises(SystemExit) as exit_:
            main([command, *schedule, "--out", str(tmp_path / "out"), "--workers", "5"])
        assert exit_.value.code == EXIT_INVALID
        assert "unrecognized arguments: --workers 5" in capsys.readouterr().err

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

    def test_explicit_start(self, tmp_path):
        # init_schedule alone starts the run from that pulse
        rows = ((0.5, 0.1), (0.2, 0.9))
        target, controls = target_gate("hadamard", 2), nearest_neighbor_control_set(2)
        report = grape_optimize(target, controls, GrapeConfig(n_steps=2, init_schedule=rows))
        grape = {"n_steps": 2, "init_schedule": [list(row) for row in rows]}
        cfg = write_config(tmp_path, {"target": "hadamard", "grape": grape})
        assert main(["grape", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        assert written["cost_trace"][0] == grape_objective(PulseSchedule.from_amplitudes(np.array(rows)), target, controls)
        assert written["cost_trace"] == list(report.cost_trace)

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
        cfg = {"magicarp": {"init_coeffs": [0.1, 0.2, 0.3]}, "benchmark": {"dims": [2, 3]}}
        out = tmp_path / "bench"
        rc = main(["benchmark", "--config", write_config(tmp_path, cfg), "--out", str(out), "--workers", "1"])
        assert rc == EXIT_INVALID
        assert "error: magicarp.init_coeffs: expected shape (8,), got shape (3,) for d = 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        def no_cells(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_campaign", no_cells)
        rc = main(["benchmark", "--out", str(tmp_path / "bench"), "--workers", workers])
        assert rc == EXIT_INVALID
        assert "error: --workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_workers_are_the_cpus_the_process_may_run_on(self, tmp_path, monkeypatch, affinity):
        # pinned to one of two CPUs, a campaign starts one process, not two;
        # without an affinity mask the CPU count decides
        used = []

        def serial(spec, workers):
            used.append(workers)
            return real_campaign(spec, 1)

        real_campaign = cli.run_campaign
        monkeypatch.setattr(cli, "run_campaign", serial)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        cfg = write_config(tmp_path, {"magicarp": FAST_MAGICARP, "benchmark": {"dims": [2], "runs_per_dim": 2}})
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "bench")]) == EXIT_OK
        assert used == [1 if affinity else 2]

    def test_best_row_replays_with_optimize(self, tmp_path):
        # the Hadamard recipe: a campaign, then `optimize --seed` on the seed of
        # its minimal-duration converged row reproduces that row bit for bit
        from magicarp.bench import read_records_csv

        magicarp = dict(FAST_MAGICARP, mode="time_optimal_renormalized")
        bench = {"dims": [2], "runs_per_dim": 4, "target": "hadamard", "base_seed": 11}
        cfg = write_config(tmp_path, {"dim": 2, "target": "hadamard", "magicarp": magicarp, "benchmark": bench})
        assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "bench"), "--workers", "1"]) == EXIT_OK
        converged = [r for r in read_records_csv(tmp_path / "bench" / "records.csv") if r.converged]
        best = min(converged, key=lambda r: r.duration_qsl)
        out = tmp_path / "replay"
        assert main(["optimize", "--config", cfg, "--seed", str(best.seed), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert (report["duration"], report["infidelity"], report["iterations"]) == (
            best.duration_omega,
            best.infidelity,
            best.iterations,
        )

    def test_deterministic_across_workers(self, tmp_path):
        # 16 runs are two lockstep groups, so --workers 2 runs them in a pool
        cfg = write_config(
            tmp_path,
            {
                "magicarp": FAST_MAGICARP,
                "benchmark": {"dims": [2], "runs_per_dim": 16, "base_seed": 8},
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
        g = AdjointMatrix(2, gellmann_coeffs(1.1 * SX + 0.4 * SY))
        schedule, _ = pulses_from_adjoint(g, ctrl, 32, "time_optimal_renormalized")
        path = tmp_path / "schedule.csv"
        path.write_text(schedule_to_csv(schedule), encoding="utf-8")
        rc = main(["certify", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "residual=" in out and "g_fit=" in out
        fit = json.loads((tmp_path / "out" / "g_fit.json").read_text())
        assert fit["basis"] == "gell-mann"

    def test_random_schedule_exits_3(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "random.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(2.0 * rng.standard_normal((16, 2)))), encoding="utf-8")
        assert main(["certify", str(path), "--out", str(tmp_path)]) == EXIT_NOT_OPTIMAL

    @pytest.mark.parametrize(
        "dim,rows,excluded,counts",
        [
            (2, ["0,0,1,0,1"], 0, "2 equations for 3 unknowns"),
            (2, ["0,0,0,0,0", "1,0.5,1,0,1"], 1, "2 equations for 3 unknowns"),  # a zero step is not an equation
            (3, ["0,0,1,0,0,0,1"], 0, "4 equations for 8 unknowns"),
        ],
    )
    def test_undetermined_fit_exits_3(self, tmp_path, capsys, dim, rows, excluded, counts):
        # fewer equations, K per kept step, than the d^2-1 unknowns of g: every
        # pulse fits, so a residual of 0 certifies nothing
        path = tmp_path / "short.csv"
        header = ",".join(["step", "t"] + [f"u_{k}" for k in range(2 * (dim - 1))] + ["envelope"])
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["certify", str(path), "--config", write_config(tmp_path, {"dim": dim}), "--out", str(out)]
        assert main(argv) == EXIT_NOT_OPTIMAL
        printed = capsys.readouterr()
        assert printed.out.startswith("g_fit=[") and printed.out.endswith(f" excluded_steps={excluded}\n")
        assert printed.err == f"not certified: {counts}, so any pulse fits\n"
        assert len(json.loads((out / "g_fit.json").read_text())["coeffs"]) == dim**2 - 1

    def test_zero_pulse_exits_1_with_the_reason(self, tmp_path, capsys):
        # the file is valid input; the certificate of a pulse that never drives is undefined
        path = tmp_path / "zero.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.zeros((8, 2)))), encoding="utf-8")
        assert main(["certify", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime error: schedule envelope is zero everywhere; nothing to certify\n"

    def test_empty_schedule_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["certify", str(path)]) == EXIT_INVALID

    def test_missing_schedule_exits_2(self, tmp_path):
        assert main(["certify", str(tmp_path / "nope.csv")]) == EXIT_INVALID

    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_schedule_directory_exits_2_naming_it(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: schedule file {tmp_path} cannot be read: ")

    @pytest.mark.parametrize("how", LOCKS)
    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_unreadable_schedule_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, command, how):
        path = tmp_path / "locked.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.ones((4, 2)))), encoding="utf-8")
        lock(path, how, monkeypatch)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: schedule file {path} cannot be read: ")

    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_header_only_schedule_exits_2_with_the_reason(self, tmp_path, capsys, command):
        path = tmp_path / "header.csv"
        path.write_text("step,t,u_0,u_1,envelope\n", encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert "error: schedule has no rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("0,abc,1.0,2.0,xyz", "row 0 has a non-numeric field"),
            ("0,7,0.5,0.5,0.70710678118654757", "row 0 has t 7.0"),
            ("0,0,0.5,0.5,99", "row 0 has envelope 99.0"),
        ],
    )
    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_bad_t_or_envelope_exits_2_with_the_reason(self, tmp_path, capsys, command, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"step,t,u_0,u_1,envelope\n{row}\n", encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert f"error: schedule {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_overflowing_schedule_exits_2(self, tmp_path, capsys, command):
        # finite amplitudes whose envelope overflows, with an envelope column
        # that passes its check against inf
        path = tmp_path / "huge.csv"
        row = "1e300,1e300,1.4142135623730951e300"
        path.write_text(f"step,t,u_0,u_1,envelope\n0,0,{row}\n1,0.5,{row}\n", encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: amplitudes must be finite, with a finite sum of squares")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["certify", "bloch"])
    def test_wrong_control_count_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "four.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.full((4, 4), 0.5))), encoding="utf-8")
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: schedule has 4 controls")
        assert not (tmp_path / "out").exists()


class TestBlochCommand:
    def test_zero_schedule_stays_north(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.zeros((8, 2)))), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["bloch", str(path), "--out", str(out)]) == EXIT_OK
        traj = read_bloch_csv(out / "bloch.csv")
        assert np.allclose(traj[:, 1:], np.tile([0, 0, 1.0], (9, 1)), atol=1e-14)

    def test_unit_norm_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "s.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(rng.standard_normal((12, 2)))), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["bloch", str(path), "--out", str(out)]) == EXIT_OK
        traj = read_bloch_csv(out / "bloch.csv")
        assert np.max(np.abs(np.sum(traj[:, 1:] ** 2, axis=1) - 1)) <= 1e-10

    def test_non_qubit_dim_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"dim": 3})
        path = tmp_path / "s.csv"
        path.write_text(schedule_to_csv(PulseSchedule.from_amplitudes(np.zeros((4, 4)))), encoding="utf-8")
        assert main(["bloch", str(path), "--config", cfg]) == EXIT_INVALID


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

    def test_fresh_import_loads_yaml_argparse_and_the_pool_on_first_use(self, tmp_path):
        # in a fresh interpreter, as a test in this process may have loaded them already;
        # 16 runs of one dimension make two lockstep groups, so --workers 2 starts a pool
        config = write_config(
            tmp_path,
            {"magicarp": {"n_steps": 8, "max_iters": 20}, "benchmark": {"dims": [2], "runs_per_dim": 16}},
        )
        script = (
            "import contextlib, io, json, sys\n"
            "import magicarp, magicarp.bench, magicarp.cli\n"
            "lazy = ['yaml', 'argparse', 'multiprocessing', 'concurrent.futures.process']\n"
            "loaded = [[m for m in lazy if m in sys.modules]]\n"
            "for workers in ('1', '2'):\n"
            "    argv = ['benchmark', '--config', sys.argv[1], '--out', sys.argv[2] + workers, '--workers', workers]\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert magicarp.cli.main(argv) == 0\n"
            "    loaded.append([m for m in lazy if m in sys.modules])\n"
            "print(json.dumps(loaded))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script, config, str(tmp_path / "w")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # after the imports, after a serial campaign read from a file, after a pooled one
        assert json.loads(proc.stdout) == [
            [],
            ["yaml", "argparse"],
            ["yaml", "argparse", "multiprocessing", "concurrent.futures.process"],
        ]
        for name in ("records.csv", "summary.json"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()
