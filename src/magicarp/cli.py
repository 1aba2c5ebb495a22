"""Command-line entry point.

Subcommands: optimize | grape | benchmark | certify | bloch. A YAML config
file is the file of record for an experiment; flags override file values,
and --seed overrides all three config seeds once the file's own are
checked. A run has one boundary, ``main``: a command reads and checks all
of its input, then ``main`` makes the --out directory, then the command's
work runs and writes each output file through one writer. Exit codes:
0 success, 1 runtime failure (any exception but a ConfigError, including an
unusable --out; a run that does not converge says why on stderr), 2 invalid
input (a ConfigError: the config, a flag or a schedule CSV), 3
certification negative or undetermined.

The magicarp, grape and benchmark config sections are the fields of
MagicarpConfig, GrapeConfig and BenchmarkSpec, which alone hold their
defaults and value checks. The CLI checks the YAML type of every value and
owns the top-level keys' defaults; their values are checked by the library
when the CLI builds the problem from them, for every command, as the
sections are by their dataclasses. Every command drives the adjacent-level
controls of the config's dimension (``nearest_neighbor_control_set``).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import json
import os
import sys
import types
import typing

import numpy as np

from .bench import BenchmarkSpec, campaign_summary, records_to_csv, run_campaign, scatter_to_dat
from .grape import GrapeConfig, grape_optimize
from .propagation import (
    FLOAT_FMT,
    bloch_to_csv,
    bloch_trajectory,
    propagate,
    schedule_from_csv,
    schedule_to_csv,
)
from .qudit import nearest_neighbor_control_set, target_gate, tau_qsl
from .shooting import (
    MagicarpConfig,
    ShootingContext,
    adjoint_to_dict,
    optimality_certificate,
    optimize,
    report_to_dict,
)

# yaml and argparse are imported where they are first used (load_config,
# build_parser), so that importing this module costs no more than the library
if typing.TYPE_CHECKING:
    import argparse

CERT_THRESHOLD = 1e-4

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INVALID = 2
EXIT_NOT_OPTIMAL = 3


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


# The keys no library dataclass owns: key -> (default, type); ``_build_problem`` checks their values.
_CLI_KEYS = {"dim": (2, int), "target": ("identity", str), "custom_target": (None, list | None), "omega_max": (1.0, float)}

# The sections a library dataclass owns, with the field a seed override sets.
# The CLI fills BenchmarkSpec's magicarp and omega_max from other keys.
_SECTIONS = {"magicarp": MagicarpConfig, "grape": GrapeConfig, "benchmark": BenchmarkSpec}
_SEEDS = {"magicarp": "seed", "grape": "seed", "benchmark": "base_seed"}
_FROM_OTHER_KEYS = ("magicarp", "omega_max")

_YAML_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _fields(section: str) -> dict:
    """Key -> (default, type) of a section, from its dataclass."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    return {f.name: (f.default, hints[f.name]) for f in dataclasses.fields(cls) if f.name not in _FROM_OTHER_KEYS}


def _typed(path: str, value, hint):
    """A config value checked against a field type, in YAML form: bools are not
    integers, an integer passes as a float, and a list stands for a tuple
    (a tuple default becomes a list), item by item."""
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (h for h in typing.get_args(hint) if h is not type(None))
    if typing.get_origin(hint) is tuple and type(value) in (list, tuple):
        return [_typed(path, item, typing.get_args(hint)[0]) for item in value]
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{path}: expected {_YAML_TYPES.get(hint, 'a list')}, got {value!r}")
    return value


def _build(section: str, cfg: dict, start: tuple[int, ...] | None = None, **others):
    """The dataclass of a config section; building it runs the section's value checks,
    and with ``start``, the shape of a run's initial point, checks the explicit start.
    A message about a field filled from ``others`` names its own config path."""
    values = {key: _frozen(cfg[section][key]) for key in _fields(section)}
    try:
        config = _SECTIONS[section](**values, **others)
        if start is not None:
            config.check_start(start)
        return config
    except ValueError as exc:
        field = str(exc).split(":")[0].split(".")[0]
        raise ConfigError(str(exc) if field in others else f"{section}.{exc}") from None


def _frozen(value):
    """A YAML value as a dataclass field value: lists become tuples."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def normalize_config(user: dict | None, seed: int | None = None) -> dict:
    """Merge a raw config dict over the defaults and validate every field.

    A ``seed`` overrides all three seeds once the config's own are checked."""
    cfg = {key: default for key, (default, _) in _CLI_KEYS.items()}
    for section in _SECTIONS:
        cfg[section] = {key: default for key, (default, _) in _fields(section).items()}
    user = user or {}
    if not isinstance(user, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(user).__name__}")
    for key, value in user.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: expected a mapping, got {value!r}")
            for sub, subval in value.items():
                if sub not in cfg[key]:
                    raise ConfigError(f"unknown config key {key}.{sub!r}")
                cfg[key][sub] = subval
        else:
            cfg[key] = value
    for key, (_, hint) in _CLI_KEYS.items():
        cfg[key] = _typed(key, cfg[key], hint)
    for section in _SECTIONS:
        for key, (_, hint) in _fields(section).items():
            cfg[section][key] = _typed(f"{section}.{key}", cfg[section][key], hint)
        _build(section, cfg)
    if cfg["target"] == "custom" and cfg["custom_target"] is None:
        raise ConfigError("custom_target: required when target is 'custom'")
    if cfg["target"] != "custom" and cfg["custom_target"] is not None:
        raise ConfigError(f"custom_target: given, but target is {cfg['target']!r}, not 'custom'")
    _build_problem(cfg)
    if seed is not None:
        for section, key in _SEEDS.items():
            cfg[section][key] = seed
            try:
                _build(section, cfg)
            except ConfigError as exc:  # the message names the flag, not a field the config never set
                raise ConfigError(str(exc).replace(f"{section}.{key}", "--seed", 1)) from None
    return cfg


def _unique_key_loader(path: str):
    """A safe YAML loader that rejects a key repeated in one mapping, which
    ``yaml.SafeLoader`` would resolve silently to its last value."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            first = {}
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":  # a << merge, whose keys an explicit key may override
                    continue
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if not isinstance(key, collections.abc.Hashable):  # SafeLoader rejects it itself
                    continue
                if key in first:
                    raise ConfigError(f"config file {path}: key {key!r} repeated on line {line}, first on line {first[key]}")
                first[key] = line
            return super().construct_mapping(node, deep)

    return UniqueKeyLoader


def load_config(path: str | None, seed: int | None = None) -> dict:
    if path is None:
        return normalize_config({}, seed)
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, _unique_key_loader(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, an unreadable file
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    except ConfigError:
        raise
    except ValueError as exc:  # a file that is not UTF-8, a date YAML cannot build
        raise ConfigError(str(exc)) from None
    return normalize_config(raw, seed)


def _entry(pair) -> complex:
    """re + i im of an [re, im] pair of numbers; a bool is not a number here."""
    if len(pair) != 2 or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pair):
        raise ValueError(pair)
    return complex(*pair)


def parse_matrix_literal(rows: list) -> np.ndarray:
    """Row-major list of [re, im] pairs -> complex matrix."""
    try:
        mat = np.array([[_entry(e) for e in row] for row in rows])
    except (TypeError, ValueError):
        raise ConfigError("custom_target: entries must be [re, im] pairs") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"custom_target: expected a square matrix, got shape {mat.shape}")
    return mat


def _build_problem(cfg: dict):
    """The controls and target of the top-level keys, which the library checks as it builds them."""
    try:
        controls = nearest_neighbor_control_set(cfg["dim"], cfg["omega_max"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    custom = parse_matrix_literal(cfg["custom_target"]) if cfg["target"] == "custom" else None
    try:
        return controls, target_gate(cfg["target"], cfg["dim"], custom)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from None


def _write(out_dir: str, name: str, content: str | dict) -> str:
    """Write one output file, UTF-8 with Unix newlines, and return its path;
    a dict is written as JSON with indent 2 and a final newline."""
    if isinstance(content, dict):
        content = json.dumps(content, indent=2) + "\n"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
    return path


def _write_run(report, cfg: dict, out_dir: str) -> int:
    """Write an optimizer run's report.json and schedule.csv and print its
    summary line; the exit code says whether it converged, and stderr why not."""
    _write(out_dir, "report.json", report_to_dict(report))
    _write(out_dir, "schedule.csv", schedule_to_csv(report.final_schedule))
    ratio = report.duration / tau_qsl(cfg["dim"], cfg["omega_max"])
    print(
        f"infidelity={FLOAT_FMT % report.infidelity} "
        f"duration={FLOAT_FMT % report.duration} "
        f"duration_qsl={FLOAT_FMT % ratio}"
    )
    if report.converged:
        return EXIT_OK
    print(f"not converged: stopped on {report.stop_reason} after {report.iterations} iterations", file=sys.stderr)
    return EXIT_RUNTIME


def _load_schedule(path: str, cfg: dict):
    """A schedule CSV and the control set of the config's dimension, which must drive it."""
    controls, _ = _build_problem(cfg)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            schedule = schedule_from_csv(fh.read())
        controls.check_schedule(schedule.n_controls)
    except OSError as exc:  # a missing or unreadable file, a directory
        raise ConfigError(f"schedule file {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # a malformed file, one that is not UTF-8, or one the controls cannot drive
        raise ConfigError(str(exc)) from None
    return schedule, controls


# A command reads and checks its input, raising ConfigError, and returns its
# work: a callable that ``main`` runs once --out exists, and whose result is
# the exit code.


def cmd_optimize(cfg: dict, args: argparse.Namespace) -> typing.Callable[[], int]:
    controls, target = _build_problem(cfg)
    config = _build("magicarp", cfg, start=(controls.dim**2 - 1,))
    context = ShootingContext(controls=controls, target=target, config=config)
    return lambda: _write_run(optimize(context), cfg, args.out)


def cmd_grape(cfg: dict, args: argparse.Namespace) -> typing.Callable[[], int]:
    controls, target = _build_problem(cfg)
    config = _build("grape", cfg, start=(cfg["grape"]["n_steps"], controls.n_controls))
    return lambda: _write_run(grape_optimize(target, controls, config), cfg, args.out)


def _default_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (a process pinned by ``taskset`` sees its own share), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_benchmark(cfg: dict, args: argparse.Namespace) -> typing.Callable[[], int]:
    workers = _default_workers() if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError("--workers must be >= 1")
    magicarp = _build("magicarp", cfg)
    spec = _build("benchmark", cfg, magicarp=magicarp, omega_max=cfg["omega_max"])

    def run() -> int:
        records = run_campaign(spec, workers)
        _write(args.out, "records.csv", records_to_csv(records))
        summary = campaign_summary(records, spec.threshold)
        _write(args.out, "summary.json", summary)
        for d in spec.dims:
            _write(args.out, f"scatter_d{d}.dat", scatter_to_dat(records, d))
        for d in spec.dims:
            print(f"dim={d} runs={summary[str(d)]['runs']} converged={summary[str(d)]['converged']}")
        return EXIT_OK

    return run


def cmd_certify(cfg: dict, args: argparse.Namespace) -> typing.Callable[[], int]:
    schedule, controls = _load_schedule(args.schedule, cfg)

    def run() -> int:
        cert = optimality_certificate(schedule, controls)
        _write(args.out, "g_fit.json", adjoint_to_dict(cert.g_fit))
        coeffs = " ".join(FLOAT_FMT % c for c in cert.g_fit.coeffs)
        print(f"g_fit=[{coeffs}]")
        print(f"residual={FLOAT_FMT % cert.residual} excluded_steps={cert.n_excluded}")
        equations, unknowns = (schedule.n_steps - cert.n_excluded) * schedule.n_controls, controls.dim**2 - 1
        if equations < unknowns:
            print(f"not certified: {equations} equations for {unknowns} unknowns, so any pulse fits", file=sys.stderr)
            return EXIT_NOT_OPTIMAL
        return EXIT_OK if cert.residual <= CERT_THRESHOLD else EXIT_NOT_OPTIMAL

    return run


def cmd_bloch(cfg: dict, args: argparse.Namespace) -> typing.Callable[[], int]:
    if cfg["dim"] != 2:
        raise ConfigError(f"bloch: only d=2 is supported, got dim={cfg['dim']}")
    schedule, controls = _load_schedule(args.schedule, cfg)

    def run() -> int:
        trajectory = bloch_trajectory(propagate(controls, schedule), schedule.dt)
        print(f"wrote {_write(args.out, 'bloch.csv', bloch_to_csv(trajectory))}")
        return EXIT_OK

    return run


# command -> (function, help, help of its schedule CSV argument if it takes one).
# A command's work looks its runner up when it runs, so a rebinding of ``optimize``,
# ``grape_optimize`` or ``run_campaign`` in this module takes effect.
_COMMANDS = {
    "optimize": (cmd_optimize, "run the shooting optimizer", None),
    "grape": (cmd_grape, "run the GRAPE baseline", None),
    "benchmark": (cmd_benchmark, "run a random-restart campaign", None),
    "certify": (cmd_certify, "test a schedule for the constant-adjoint structure", "schedule CSV to certify"),
    "bloch": (cmd_bloch, "export the Bloch trajectory of a d=2 schedule", "schedule CSV to propagate"),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog="magicarp", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file")
    common.add_argument("--seed", type=int, help="override all config seeds")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, schedule_help) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text)
        if schedule_help is not None:
            command.add_argument("schedule", help=schedule_help)
    sub.choices["benchmark"].add_argument("--workers", type=int, help="worker processes (default: the CPUs this process may run on)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        work = _COMMANDS[args.command][0](cfg, args)
        os.makedirs(args.out, exist_ok=True)
        return work()
    except ConfigError as exc:  # a rejected config, flag or schedule CSV
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
