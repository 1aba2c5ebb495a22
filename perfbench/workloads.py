"""The benchmark's workloads, driven through the public magicarp API only.

Each workload has three steps:

* ``setup()`` builds the problem (control sets, targets, basis, context);
* ``execute(seed)`` runs one unit of work on inputs derived from ``seed``
  and times the library calls;
* ``check(execution)`` checks every output of that unit and summarizes it.

Only ``execute`` is traced or timed, so the output checks never count as
library work.

``probe(seed, between)`` runs the workload's optimizer on a small problem
from many starts derived from ``seed``, calling ``between()`` after each,
and says how many iterations a start needs to reach the gate, which no
throughput figure shows. The campaign needs no separate probe: its own
cells at the largest dimension are the starts (``cell_probe(units)``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import magicarp
import magicarp.bench
import magicarp.cli
from magicarp.qudit import UNITARY_TOL, unitarity_defect

GATE_TOL = 1e-7  # infidelity at which a run counts as having reached the gate
RECHECK_TOL = 1e-12  # re-propagated infidelity vs the reported one
SHOOTING_PROBE_STARTS = 40
SHOOTING_PROBE_MAX_ITERS = 150  # bounds what a stalled start costs
GRAPE_PROBE_STARTS = 80
PROBE_TRIM = 0.2  # share of starts dropped at each end before iters_to_gate averages them


def sub_seed(*parts) -> int:
    """Stable 32-bit seed for a tuple of parts; independent of the library's own mixing."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclasses.dataclass
class Run:
    """One optimize run as the benchmark saw it."""

    iterations: int
    infidelity: float
    converged: bool
    duration_qsl: float
    time_s: float | None = None  # wall of the optimize call, where observable
    failure: str | None = None
    dim: int | None = None  # set where a unit mixes dimensions


def cpu_seconds() -> float:
    """CPU time of this process plus every child process it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Timed:
    """Wall and CPU time of a block. Pool workers count once they are joined."""

    wall_s = cpu_s = 0.0

    def __enter__(self) -> "Timed":
        self._wall, self._cpu = perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._wall
        self.cpu_s = cpu_seconds() - self._cpu


@dataclasses.dataclass
class Execution:
    timed: Timed
    raw: object


@dataclasses.dataclass
class Unit:
    timed: Timed
    runs: list[Run]
    digest: str  # sha256 of the unit's cost traces or campaign records
    best_duration_qsl: float | None  # at the workload's largest dimension
    check_failures: list[str]

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.runs)


def trace_digest(traces) -> str:
    h = hashlib.sha256()
    for trace in traces:
        h.update(",".join(float(v).hex() for v in trace).encode())
        h.update(b";")
    return h.hexdigest()


def schedule_failure(controls, target, schedule, reported: float) -> str | None:
    """Re-propagate a final schedule and compare with the reported infidelity."""
    if not math.isfinite(reported):
        return f"non-finite infidelity {reported!r}"
    u = magicarp.propagate(controls, schedule).final
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        return f"U(1) is not unitary: defect {defect:.3e}"
    infidelity = magicarp.normalized_infidelity(target, u)
    if not abs(infidelity - reported) <= RECHECK_TOL:
        return f"re-propagated infidelity {infidelity!r} != reported {reported!r}"
    return None


def report_run(report, controls, target, tau: float, time_s: float | None) -> Run:
    return Run(
        iterations=report.iterations,
        infidelity=report.infidelity,
        converged=report.infidelity <= GATE_TOL,
        duration_qsl=report.duration / tau,
        time_s=time_s,
        failure=schedule_failure(controls, target, report.final_schedule, report.infidelity),
    )


def best_converged(runs: list[Run]) -> float | None:
    durations = [r.duration_qsl for r in runs if r.converged and r.failure is None]
    return min(durations) if durations else None


@dataclasses.dataclass
class Probe:
    """The probe's runs and the iteration budget each had."""

    runs: list[Run]
    max_iters: int

    @property
    def iters_to_gate(self) -> float:
        """Trimmed mean of the iterations each start took to reach the gate.

        A start that missed the gate counts as the whole budget. The lowest and
        highest PROBE_TRIM of the starts are dropped first, so that one start
        more or less stalling in a local minimum does not swing the mean, while
        stalls in more than that share of starts raise it.
        """
        iterations = sorted(
            r.iterations if r.converged and r.failure is None else self.max_iters for r in self.runs
        )
        if not iterations:
            return float(self.max_iters)
        k = int(len(iterations) * PROBE_TRIM)
        return float(statistics.mean(iterations[k:len(iterations) - k]))


def probe_seeds(seed: int, count: int) -> list[int]:
    return [sub_seed("probe", seed, i) for i in range(count)]


def shooting_probe(seed: int, smoke: bool, between) -> Probe:
    """Energy-optimal shooting on QFT(3) over 32 steps."""
    dim, max_iters = 3, 5 if smoke else SHOOTING_PROBE_MAX_ITERS
    controls = magicarp.nearest_neighbor_control_set(dim)
    target = magicarp.target_gate("qft", dim)
    runs = []
    for start in probe_seeds(seed, 1 if smoke else SHOOTING_PROBE_STARTS):
        config = magicarp.MagicarpConfig(
            mode="energy_optimal", n_steps=8 if smoke else 32, max_iters=max_iters, seed=start
        )
        report = magicarp.optimize(magicarp.ShootingContext(controls=controls, target=target, config=config))
        runs.append(report_run(report, controls, target, magicarp.tau_qsl(dim), None))
        between()
    return Probe(runs, max_iters)


def grape_probe(seed: int, smoke: bool, between) -> Probe:
    """GRAPE on QFT(3) over 16 steps."""
    dim, max_iters = 3, 5 if smoke else 2000
    controls = magicarp.nearest_neighbor_control_set(dim)
    target = magicarp.target_gate("qft", dim)
    runs = []
    for start in probe_seeds(seed, 1 if smoke else GRAPE_PROBE_STARTS):
        config = magicarp.GrapeConfig(n_steps=4 if smoke else 16, max_iters=max_iters, seed=start)
        report = magicarp.grape_optimize(target, controls, config)
        runs.append(report_run(report, controls, target, magicarp.tau_qsl(dim), None))
        between()
    return Probe(runs, max_iters)


class Workload:
    name = ""
    workers = 1
    n_steps = 0
    runs_per_unit = 1

    def __init__(self, smoke: bool, work_dir: Path):
        self.smoke = smoke
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, seed: int) -> Execution:
        raise NotImplementedError

    def check(self, execution: Execution) -> Unit:
        raise NotImplementedError

    def probe(self, seed: int, between) -> Probe | None:
        return shooting_probe(seed, self.smoke, between)

    def attempt(self, seed: int, tracing=None) -> Unit:
        """Execute one unit, inside ``tracing`` if given, and check it outside.

        If the library raises, every run of the unit failed.
        """
        try:
            with tracing or contextlib.nullcontext():
                execution = self.execute(seed)
            return self.check(execution)
        except Exception as exc:  # noqa: BLE001 - a raising run is a result to report
            traceback.print_exc()
            reason = f"raised {type(exc).__name__}: {exc}"
            runs = [Run(0, math.inf, False, math.inf, failure=reason) for _ in range(self.runs_per_unit)]
            return Unit(Timed(), runs, "", None, [])


class ShootQftD4(Workload):
    """One energy-optimal shooting run on QFT(4), then the certificate fit of its pulse."""

    name = "shoot-qft-d4"
    dim = 4

    def setup(self) -> None:
        self.n_steps = 8 if self.smoke else 128
        self.controls = magicarp.nearest_neighbor_control_set(self.dim)
        self.target = magicarp.target_gate("qft", self.dim)
        config = magicarp.MagicarpConfig(
            mode="energy_optimal", n_steps=self.n_steps, max_iters=5 if self.smoke else 500
        )
        self.context = magicarp.ShootingContext(controls=self.controls, target=self.target, config=config)
        self.tau = magicarp.tau_qsl(self.dim)

    def execute(self, seed: int) -> Execution:
        context = dataclasses.replace(
            self.context, config=dataclasses.replace(self.context.config, seed=seed)
        )
        with Timed() as timed:
            t0 = perf_counter()
            report = magicarp.optimize(context)
            optimize_s = perf_counter() - t0
            certificate = magicarp.optimality_certificate(report.final_schedule, self.controls)
        return Execution(timed, (report, optimize_s, certificate))

    def check(self, execution: Execution) -> Unit:
        report, optimize_s, certificate = execution.raw
        runs = [report_run(report, self.controls, self.target, self.tau, optimize_s)]
        failures = []
        if not math.isfinite(certificate.residual):
            failures.append(f"certificate residual is {certificate.residual!r}")
        return Unit(execution.timed, runs, trace_digest([report.cost_trace]), best_converged(runs), failures)


class GrapeQftD5(Workload):
    """One GRAPE run on QFT(5) over 64 steps (512 amplitudes) per unit."""

    name = "grape-qft-d5"
    dim = 5

    def setup(self) -> None:
        self.n_steps = 4 if self.smoke else 64
        self.controls = magicarp.nearest_neighbor_control_set(self.dim)
        self.target = magicarp.target_gate("qft", self.dim)
        self.config = magicarp.GrapeConfig(n_steps=self.n_steps, max_iters=5 if self.smoke else 2000)
        self.tau = magicarp.tau_qsl(self.dim)

    def execute(self, seed: int) -> Execution:
        config = dataclasses.replace(self.config, seed=seed)
        with Timed() as timed:
            report = magicarp.grape_optimize(self.target, self.controls, config)
        return Execution(timed, report)

    def check(self, execution: Execution) -> Unit:
        report = execution.raw
        runs = [report_run(report, self.controls, self.target, self.tau, execution.timed.wall_s)]
        return Unit(execution.timed, runs, trace_digest([report.cost_trace]), best_converged(runs), [])

    def probe(self, seed: int, between) -> Probe:
        return grape_probe(seed, self.smoke, between)


CAMPAIGN_CONFIG = """\
dim: 2
target: identity
omega_max: 1.0
magicarp:
  mode: energy_optimal
  n_steps: {n_steps}
  max_iters: {max_iters}
  convergence_tol: {tol:.1e}
benchmark:
  dims: {dims}
  runs_per_dim: {runs}
  target: qft
  base_seed: {base_seed}
  threshold: {tol:.1e}
"""


class CampaignQftD23(Workload):
    """A scaled-down desk campaign through ``magicarp benchmark`` with two pool workers."""

    name = "campaign-qft-d23"
    workers = 2
    dims = [2, 3]
    # CPU cost of one energy-optimal iteration over 32 steps, relative to one at
    # d = 3, as measured on the first baseline's commit (8.6 ms and 13.4 ms).
    # Weighting each cell's iterations by it makes the campaign's iteration rate
    # independent of how many iterations each dimension's cells happened to need.
    iteration_weight = {2: 0.64, 3: 1.0}

    def setup(self) -> None:
        self.n_steps = 8 if self.smoke else 32
        self.max_iters = 5 if self.smoke else 500
        self.runs = 2 if self.smoke else 8
        self.runs_per_unit = self.runs * len(self.dims)

    def probe(self, seed: int, between) -> None:
        return None

    def cell_probe(self, units: list[Unit]) -> Probe:
        """The cells at the largest dimension, as the starts of the convergence probe."""
        return Probe([r for u in units for r in u.runs if r.dim == max(self.dims)], self.max_iters)

    def _write_config(self, base_seed: int) -> Path:
        path = self.work_dir / f"campaign-{base_seed}.yaml"
        path.write_text(
            CAMPAIGN_CONFIG.format(
                n_steps=self.n_steps,
                max_iters=self.max_iters,
                tol=GATE_TOL,
                dims=self.dims,
                runs=self.runs,
                base_seed=base_seed,
            ),
            encoding="utf-8",
        )
        return path

    def execute(self, seed: int) -> Execution:
        config = self._write_config(seed)
        out = self.work_dir / f"campaign-{seed}"
        argv = ["benchmark", "--config", str(config), "--out", str(out), "--workers", str(self.workers)]
        stdout = io.StringIO()
        with Timed() as timed, contextlib.redirect_stdout(stdout):
            code = magicarp.cli.main(argv)
        return Execution(timed, (seed, code, out))

    def check(self, execution: Execution) -> Unit:
        base_seed, code, out = execution.raw
        expected = [(d, i) for d in self.dims for i in range(self.runs)]
        if code != 0:
            runs = [Run(0, math.inf, False, math.inf, failure=f"exit code {code}", dim=d) for d, _ in expected]
            return Unit(execution.timed, runs, "", None, [f"magicarp benchmark exited {code}"])
        csv_bytes = (out / "records.csv").read_bytes()
        records = magicarp.bench.read_records_csv(out / "records.csv")
        failures = []
        if [(r.dim, r.run_index) for r in records] != expected:
            failures.append("records.csv does not hold one row per (dim, run) cell in order")
        runs = []
        for r in records:
            failure = None
            if not (math.isfinite(r.infidelity) and math.isfinite(r.duration_qsl)):
                failure = "non-finite record"
            elif r.seed != magicarp.derive_seed(base_seed, r.dim, r.run_index):
                failure = f"cell ({r.dim}, {r.run_index}) has seed {r.seed}, not the derived one"
            elif r.converged != (r.infidelity <= GATE_TOL):
                failure = f"cell ({r.dim}, {r.run_index}) converged flag disagrees with its infidelity"
            runs.append(Run(r.iterations, r.infidelity, r.converged, r.duration_qsl, failure=failure, dim=r.dim))
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary != json.loads(json.dumps(magicarp.campaign_summary(records, GATE_TOL))):
            failures.append("summary.json does not match the summary of records.csv")
        if records:
            failures.extend(self._replay_first_cell(base_seed, records[0]))
        largest = [r for r in runs if r.dim == max(self.dims)]
        return Unit(
            execution.timed, runs, hashlib.sha256(csv_bytes).hexdigest(), best_converged(largest), failures
        )

    def _replay_first_cell(self, base_seed: int, record) -> list[str]:
        """Re-run one cell serially: the pool's record must match it bit for bit."""
        d = record.dim
        controls = magicarp.nearest_neighbor_control_set(d)
        target = magicarp.target_gate("qft", d)
        config = magicarp.MagicarpConfig(
            mode="energy_optimal",
            n_steps=self.n_steps,
            max_iters=self.max_iters,
            convergence_tol=GATE_TOL,
            seed=magicarp.derive_seed(base_seed, d, record.run_index),
        )
        report = magicarp.optimize(magicarp.ShootingContext(controls=controls, target=target, config=config))
        failures = []
        replayed = (report.infidelity, report.duration, report.iterations, report.converged)
        pooled = (record.infidelity, record.duration_omega, record.iterations, record.converged)
        if replayed != pooled:
            failures.append(f"cell ({d}, {record.run_index}) replayed serially gives {replayed}, pool gave {pooled}")
        failure = schedule_failure(controls, target, report.final_schedule, report.infidelity)
        if failure:
            failures.append(f"replayed cell ({d}, {record.run_index}): {failure}")
        return failures


WORKLOADS = {w.name: w for w in (ShootQftD4, GrapeQftD5, CampaignQftD23)}
