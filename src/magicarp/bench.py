"""Seeded random-restart campaigns over system dimension.

Each (dim, run_index) cell gets its own seed derived by a fixed 64-bit mix,
so any single record can be reproduced without replaying the campaign. The
cells of one dimension run in groups of contiguous run indices, each group's
restarts in lockstep (``shooting.run_restarts``). A group is as wide as an
even split of the dimension over the workers, but at least MIN_LANE_WIDTH
(a lockstep row costs less in a wider round) and at most LOCKSTEP_WIDTH, so
a small campaign may keep fewer processes busy than there are workers.
Since a lockstep restart is bitwise its lone run, the record list is
identical whatever the grouping and whether groups execute serially or in a
process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .propagation import FLOAT_FMT, table_from_csv, table_to_csv
from .qudit import TARGET_NAMES, check_omega_max, nearest_neighbor_control_set, target_gate, tau_qsl
from .shooting import LOCKSTEP_WIDTH, MagicarpConfig, ShootingContext, run_restarts

_MASK64 = (1 << 64) - 1

# fewest restarts a campaign group runs in lockstep, where a dimension has that
# many: the per-row cost of a pass still falls steeply up to about 8 rows
MIN_LANE_WIDTH = 8


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, dim: int, run_index: int) -> int:
    """Stable 64-bit mix of (base_seed, dim, run_index)."""
    h = base_seed & _MASK64
    for value in (dim, run_index):
        h = _splitmix64((h ^ _splitmix64(value & _MASK64)) & _MASK64)
    return h


@dataclass(frozen=True)
class BenchmarkSpec:
    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    runs_per_dim: int = 300
    target: str = "qft"
    magicarp: MagicarpConfig = MagicarpConfig()
    base_seed: int = 0
    omega_max: float = 1.0
    threshold: float = 1e-7  # the infidelity a run must reach to count for minimal_duration_qsl

    def __post_init__(self):
        for name, ok, expected in (
            ("dims", len(set(self.dims)) == len(self.dims) >= 1 and min(self.dims) >= 2, "distinct integers >= 2, one or more"),
            ("runs_per_dim", self.runs_per_dim >= 1, "an integer >= 1"),
            ("target", self.target in TARGET_NAMES[:-1], "one of " + "|".join(TARGET_NAMES[:-1])),
            ("base_seed", 0 <= self.base_seed < 2**64, "a 64-bit unsigned integer"),
            ("threshold", 0 < self.threshold < np.inf, "a positive finite number"),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")
        check_omega_max(self.omega_max)
        for d in self.dims:
            try:
                self.magicarp.check_start((d * d - 1,))
            except ValueError as exc:
                raise ValueError(f"magicarp.{exc} for d = {d}") from None


@dataclass(frozen=True)
class BenchmarkRecord:
    dim: int
    run_index: int
    seed: int
    infidelity: float
    duration_omega: float
    duration_qsl: float
    iterations: int
    converged: bool


def _run_group(args: tuple[BenchmarkSpec, int, range]) -> list[BenchmarkRecord]:
    """The records of one dimension's contiguous run indices, in cell order.

    The group's restarts run in lockstep (``run_restarts``), and each record
    is bitwise the one its cell gives alone. A restart that ends in one of
    ``optimizer.RUN_FAILURES`` (a failed eigh, a RuntimeError such as a
    degenerate envelope, or a start where the objective is not finite)
    becomes an ``inf`` record; the spec checked the input, and any other
    error, a plain ValueError or a TypeError, is a bug and propagates.
    """
    spec, dim, run_indices = args
    seeds = [derive_seed(spec.base_seed, dim, i) for i in run_indices]
    context = ShootingContext(
        controls=nearest_neighbor_control_set(dim, spec.omega_max),
        target=target_gate(spec.target, dim),
        config=spec.magicarp,
    )
    tau = tau_qsl(dim, spec.omega_max)
    records = []
    for run_index, seed, report in zip(run_indices, seeds, run_restarts(context, seeds)):
        if isinstance(report, Exception):
            records.append(BenchmarkRecord(dim, run_index, seed, np.inf, np.inf, np.inf, iterations=0, converged=False))
        else:
            records.append(
                BenchmarkRecord(
                    dim=dim,
                    run_index=run_index,
                    seed=seed,
                    infidelity=report.infidelity,
                    duration_omega=report.duration,
                    duration_qsl=report.duration / tau,
                    iterations=report.iterations,
                    converged=report.converged,
                )
            )
    return records


def run_campaign(spec: BenchmarkSpec, workers: int = 1) -> list[BenchmarkRecord]:
    """Run all (dim, run_index) cells; deterministic output order by cell.

    Each dimension's runs are cut into groups of ceil(runs_per_dim / workers)
    contiguous indices, at least MIN_LANE_WIDTH and at most LOCKSTEP_WIDTH,
    and a group runs in one process; the pool starts no more processes than
    there are groups. The records do not depend on the grouping or the
    worker count.
    """
    width = min(LOCKSTEP_WIDTH, max(MIN_LANE_WIDTH, -(-spec.runs_per_dim // max(workers, 1))))
    groups = [
        (spec, d, range(i, min(i + width, spec.runs_per_dim)))
        for d in spec.dims
        for i in range(0, spec.runs_per_dim, width)
    ]
    workers = min(workers, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so that serial runs never load multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [r for records in pool.map(_run_group, groups, chunksize=1) for r in records]
    return [r for group in groups for r in _run_group(group)]


def minimal_duration(
    records: list[BenchmarkRecord], dim: int, threshold: float = 1e-7
) -> float | None:
    """Min duration_qsl among records of that dim with infidelity <= threshold."""
    qualifying = [r.duration_qsl for r in records if r.dim == dim and r.infidelity <= threshold]
    return min(qualifying) if qualifying else None


def campaign_summary(records: list[BenchmarkRecord], threshold: float = 1e-7) -> dict:
    """Per-dimension minimal duration, success rate, and median duration."""
    dims = sorted({r.dim for r in records})
    summary = {}
    for d in dims:
        of_dim = [r for r in records if r.dim == d]
        converged = [r for r in of_dim if r.converged]
        durations = sorted(r.duration_qsl for r in converged)
        summary[str(d)] = {
            "runs": len(of_dim),
            "converged": len(converged),
            "success_rate": len(converged) / len(of_dim),
            "minimal_duration_qsl": minimal_duration(records, d, threshold),
            "median_duration_qsl": float(np.median(durations)) if durations else None,
        }
    return summary


# -- records CSV: one column per BenchmarkRecord field, in field order ------

# field type -> (format, parse); bools are written as 0/1, and only 0/1 read back
_CSV_TYPES = {
    "int": (str, int),
    "float": (lambda v: FLOAT_FMT % v, float),
    "bool": (lambda v: str(int(v)), {"0": False, "1": True}.__getitem__),
}
_CSV_COLUMNS = [(f.name, *_CSV_TYPES[f.type]) for f in fields(BenchmarkRecord)]
_CSV_HEADER = [name for name, _, _ in _CSV_COLUMNS]


def records_to_csv(records: list[BenchmarkRecord]) -> str:
    return table_to_csv(_CSV_HEADER, [[fmt(getattr(r, name)) for name, fmt, _ in _CSV_COLUMNS] for r in records])


def scatter_to_dat(records: list[BenchmarkRecord], dim: int) -> str:
    """A gnuplot-ready two-column file (duration_qsl, infidelity) of one dimension's records."""
    rows = (f"{FLOAT_FMT % r.duration_qsl} {FLOAT_FMT % r.infidelity}\n" for r in records if r.dim == dim)
    return "# duration_qsl infidelity\n" + "".join(rows)


def records_from_csv(text: str) -> list[BenchmarkRecord]:
    header, rows = table_from_csv(text, "records")
    if header != _CSV_HEADER:
        raise ValueError("bad benchmark records header")
    records = []
    for i, parts in enumerate(rows):
        values = {}
        for (name, _, parse), part in zip(_CSV_COLUMNS, parts):
            try:
                values[name] = parse(part)
            except (KeyError, ValueError):
                raise ValueError(f"records row {i} has a bad {name} field: {part!r}") from None
        records.append(BenchmarkRecord(**values))
    return records


def read_records_csv(path) -> list[BenchmarkRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return records_from_csv(fh.read())

