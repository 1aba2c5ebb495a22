"""Schema tests for the benchmark harness, run in smoke mode (tiny sizes).

    python -m pytest perfbench/tests -q

They check what the harness prints, never how fast anything ran.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every end-to-end metric the benchmark defines, gated in BENCHMARK.json or only reported.
END_TO_END = {
    "setup_s", "iters_per_s", "iters_to_gate", "peak_rss_mb", "time_to_gate_s",
    "runs_per_s", "success_rate", "failure_rate", "best_duration_qsl",
}

# Call counts that must be nonzero in the traced run, per workload.
SHOOTING = [
    "propagation.expm_ihermitian.calls",
    "propagation.propagate.calls",
    "shooting.batch_objective.calls",
    "shooting.gradient.calls",
    "optimizer.minimize_bfgs.calls",
    "optimizer.iterations",
    "optimizer.ladder.calls",
]
RUNS = {
    "shoot-qft-d4": SHOOTING,
    "grape-qft-d5": [
        "propagation.propagate.calls",
        "optimizer.minimize_bfgs.calls",
        "optimizer.iterations",
        "grape.grape_gradient.calls",
        "grape.grape_objective.calls",
    ],
    "campaign-qft-d23": SHOOTING + ["bench.cell.count"],
}
# Call counts that must be zero: layers the workload never reaches.
SKIPS = {
    "shoot-qft-d4": ["grape.grape_gradient.calls", "bench.cell.count"],
    "grape-qft-d5": ["shooting.batch_objective.calls", "optimizer.ladder.calls", "bench.cell.count"],
    "campaign-qft-d23": ["grape.grape_gradient.calls"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(out: subprocess.CompletedProcess) -> tuple[dict, dict, dict]:
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    printed = {line.split(" = ")[0]: line.split()[-1] for line in lines if " = " in line}
    return result, detail, printed


def check_result(result: dict, expected_metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected_metrics]
    for m in expected_metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, detail, printed = parse(run_bench(workload, 0))
    check_result(result, SPEC["end_to_end"])
    assert set(printed) == END_TO_END
    assert all(printed.values())
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert detail["provenance"]["workload"] == workload
    assert detail["provenance"]["blas_threads"] == "1"
    assert detail["provenance"]["trace"] is False
    assert len(detail["digests"]) == detail["units"] >= 1
    assert detail["reported"]["failure_rate"]["value"] == 0
    assert len(detail["probe_iterations"]) == len(detail["probe_converged"]) >= 1
    assert len(detail["setup_samples"]) >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_every_layer_it_reaches(workload):
    result, detail, printed = parse(run_bench(workload, 1))
    check_result(result, SPEC["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for name in RUNS[workload]:
        assert metrics[name] > 0, name
    for name in SKIPS[workload]:
        assert metrics[name] == 0, name
    assert metrics["qudit.setup.s"] > 0
    assert detail["untraced_hooks"] == []
    # every pass repeats the first unit, so its digest repeats
    assert len(set(detail["digests"])) == 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
