#!/usr/bin/env python3
"""magicarp benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload shoot-qft-d4 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``. With ``--trace 0`` the workload runs on fresh inputs derived from
the seed, one unit after another, until the measuring time is used up, and
every end-to-end metric is reported. With ``--trace 1`` the first unit runs
alternately untraced and traced, and the per-layer metrics of the traced
passes are reported. An untraced run starts with the workload's convergence
probe, fills the rest of the measuring time with units, and times set-up in
fresh interpreters between them.
``--smoke`` shrinks every problem to a few steps and iterations so that the
harness can be tested quickly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, then the provenance, the cost-trace
digests and the end-to-end metrics that are reported but not gated.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is first imported; forked pool workers inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-interpreter set-up timings are taken before the probe, between probe
# starts at most one per SETUP_SPACING_S, and after each unit, so that they
# sample the machine's speed across the whole run; at least SETUP_MIN in all.
SETUP_SPACING_S = 1.5
SETUP_MIN = 8
# BENCHMARK.json names the gated metrics. These end-to-end metrics are
# reported beside them: their spread across seeds is set by how many
# iterations each random start needs, which a few runs per seed cannot average out.
REPORTED = {
    "time_to_gate_s": "s",
    "runs_per_s": "1/s",
    "success_rate": "ratio",
    "failure_rate": "ratio",
    "best_duration_qsl": "tau_qsl",
}

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
from pathlib import Path
import workloads
workloads.WORKLOADS[{name!r}]({smoke!r}, Path({work!r})).setup()
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny problem sizes, for tests")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class SetupSampler:
    """Import plus problem construction, each timing in a fresh interpreter."""

    def __init__(self, name: str, smoke: bool, work_dir: Path):
        self.code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name, smoke=smoke, work=str(work_dir))
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        out = subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        self.times.append(float(out.stdout.strip().splitlines()[-1]))
        self.last = perf_counter()

    def spaced(self) -> None:
        """Take a timing unless the last one is less than SETUP_SPACING_S old."""
        if perf_counter() - self.last >= SETUP_SPACING_S:
            self.sample()


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
    }


def percentile_summary(values: list[float]) -> dict:
    """Median and the highest of p75/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered) if ordered else None, "n": n}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            summary[f"p{p}"] = ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
            break
    return {k: (None if isinstance(v, float) and not math.isfinite(v) else v) for k, v in summary.items()}


def keep_going(costs: list[float], deadline: float) -> bool:
    """Start another unit if at least half of a typical one fits before the deadline,
    so that runs end, on average, when the measuring time is up."""
    return perf_counter() + statistics.median(costs) / 2 <= deadline


def run_probe(workload, seed: int, setup: SetupSampler):
    """The workload's convergence probe, or None if its units are the probe. If the
    library raises, the probe failed, which turns ``correct`` false."""
    from workloads import Probe, Run, sub_seed

    try:
        return workload.probe(sub_seed(workload.name, seed, "probe"), setup.spaced)
    except Exception as exc:  # noqa: BLE001 - a raising run is a result to report
        traceback.print_exc()
        return Probe([Run(0, math.inf, False, math.inf, failure=f"probe raised {type(exc).__name__}: {exc}")], 1)


def run_untraced(workload, args, setup: SetupSampler) -> tuple[list, object, list[str]]:
    """The probe, then units on fresh seeds until the measuring time is used up,
    with set-up timed between them. Also returns the failures of a probe that
    ran apart from the units (the units report their own)."""
    from workloads import sub_seed

    deadline = perf_counter() + args.seconds
    setup.sample()
    probe = run_probe(workload, args.seed, setup)
    units, costs = [], []
    while not units or keep_going(costs, deadline):
        t0 = perf_counter()
        units.append(workload.attempt(sub_seed(workload.name, args.seed, len(units))))
        costs.append(perf_counter() - t0)
        setup.sample()
    if probe is None:
        return units, workload.cell_probe(units), []
    return units, probe, [f"probe start {i}: {r.failure}" for i, r in enumerate(probe.runs) if r.failure]


def run_traced(workload, args, rec, setup_spans, counts: set[str]) -> tuple[list, dict]:
    """Alternate untraced and traced passes over the first unit until time is up."""
    from tracing import Tracing, layer_metrics
    from workloads import sub_seed

    seed = sub_seed(workload.name, args.seed, 0)
    deadline = perf_counter() + args.seconds
    units, costs, untraced_s, traced_s, passes, missing = [], [], [], [], [], []
    while not passes or keep_going(costs, deadline):
        t0 = perf_counter()
        units.append(workload.attempt(seed))
        untraced_s.append(units[-1].timed.wall_s)
        rec.spans = []
        tracing = Tracing(rec)
        unit = workload.attempt(seed, tracing)
        rec.collect_worker_spans()
        units.append(unit)
        traced_s.append(unit.timed.wall_s)
        m = layer_metrics(setup_spans + rec.spans, workload.n_steps, workload.workers)
        if workload.workers > 1 and "magicarp.bench.optimize" not in tracing.missing:
            if m["bench.cell.count"] != len(unit.runs):
                raise RuntimeError(
                    f"spans from pool workers are missing: {m['bench.cell.count']} cells traced, "
                    f"{len(unit.runs)} cells ran"
                )
        passes.append(m)
        missing = tracing.missing
        costs.append(perf_counter() - t0)
    layers = {}
    for name in passes[0]:
        if name in counts:
            layers[name] = passes[0][name]
            if any(p[name] != passes[0][name] for p in passes):
                units[0].check_failures.append(f"{name} differs between traced passes of the same unit")
        else:
            layers[name] = statistics.median(p[name] for p in passes)
    layers["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return units, {"layers": layers, "untraced_hooks": missing, "passes": len(passes)}


def iteration_rate(workload, units) -> float:
    """Median, over the run's timed optimize calls, of iterations per second of the call.

    Campaign cells run in pool workers and are not timed one by one, so
    there it is the median, over the ``cli.main`` calls, of the cells'
    iterations weighted by ``workload.iteration_weight`` (d = 3-equivalent
    iterations) over the CPU seconds of the call, its pool workers included.
    That counts pool start-up, cell dispatch and the config and output path,
    but not a worker idling while the other finishes the last cell: how long
    that takes depends on which cell stalls last, and it spreads the
    wall-clock rate across seeds beyond the bound (``runs_per_s`` and
    ``bench.pool.busy_ratio`` show it).
    """
    rates = [r.iterations / r.time_s for u in units for r in u.runs if r.time_s]
    if not rates:
        weight = workload.iteration_weight
        rates = [sum(weight[r.dim] * r.iterations for r in u.runs) / u.timed.cpu_s for u in units if u.timed.cpu_s]
    return statistics.median(rates) if rates else 0.0


def end_to_end(workload, units, setup_times, probe) -> dict:
    runs = [r for u in units for r in u.runs]
    times = [
        (r.time_s if r.converged and r.failure is None else math.inf)
        for r in runs if r.time_s is not None
    ]
    wall = sum(u.timed.wall_s for u in units)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "iters_per_s": iteration_rate(workload, units),
        "iters_to_gate": probe.iters_to_gate,
        "peak_rss_mb": peak_rss_mb(),
        "time_to_gate_s": percentile_summary(times) if times else None,
        "runs_per_s": len(runs) / (wall or math.inf),
        "success_rate": sum(r.converged and r.failure is None for r in runs) / len(runs),
        "failure_rate": sum(r.failure is not None for r in runs) / len(runs),
        "best_duration_qsl": units[0].best_duration_qsl,
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "magicarp" / "__init__.py").is_file():
        print(f"error: no magicarp sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy

    import magicarp
    from tracing import Recorder, Tracing
    from workloads import WORKLOADS

    if Path(magicarp.__file__).resolve().parent != (SRC / "magicarp").resolve():
        print(f"error: imported magicarp from {magicarp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    probe_failures = []
    try:
        workload = WORKLOADS[args.workload](args.smoke, work_dir)
        if args.trace:
            rec = Recorder(work_dir)
            with Tracing(rec):
                workload.setup()
            setup_spans, rec.spans = rec.spans, []
            counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
            units, extra = run_traced(workload, args, rec, setup_spans, counts)
            metrics = {m["name"]: (extra["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
            reported = {}
        else:
            workload.setup()
            setup = SetupSampler(args.workload, args.smoke, work_dir)
            units, probe, probe_failures = run_untraced(workload, args, setup)
            while not args.smoke and len(setup.times) < SETUP_MIN:
                setup.sample()
            setup_times = setup.times
            e2e = end_to_end(workload, units, setup_times, probe)
            extra = {
                "unit_wall_s": [u.timed.wall_s for u in units],
                "calls": [[r.iterations, r.time_s] for u in units for r in u.runs if r.time_s],
                "setup_samples": setup_times,
                "probe_iterations": [r.iterations for r in probe.runs],
                "probe_converged": [r.converged for r in probe.runs],
            }
            metrics = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
            reported = {name: (e2e[name], unit) for name, unit in REPORTED.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    runs = [r for u in units for r in u.runs]
    failures = [r.failure for r in runs if r.failure] + [f for u in units for f in u.check_failures]
    failures += probe_failures
    correct = not failures
    failed = sum(r.failure is not None for r in runs)

    for name, (value, unit) in {**metrics, **reported}.items():
        print(f"{name} = {json.dumps(value)} {unit}")
    for failure in failures:
        print(f"check failed: {failure}")
    detail = {
        "provenance": provenance(args, numpy),
        "units": len(units),
        "digests": [u.digest for u in units],
        "reported": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
        **extra,
    }
    print("detail " + json.dumps(detail, allow_nan=False))
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
