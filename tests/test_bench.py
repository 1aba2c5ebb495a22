import concurrent.futures
import math
import re

import numpy as np
import pytest

from dataclasses import replace

import magicarp.bench as bench
import magicarp.shooting as shooting
from magicarp.bench import (
    BenchmarkRecord,
    BenchmarkSpec,
    campaign_summary,
    derive_seed,
    minimal_duration,
    records_from_csv,
    records_to_csv,
    run_campaign,
    tau_qsl,
)
from magicarp.qudit import nearest_neighbor_control_set, target_gate
from magicarp.shooting import MagicarpConfig, ShootingContext, initial_coeffs, optimize

FAST_MAGICARP = MagicarpConfig(n_steps=16, max_iters=60, convergence_tol=1e-7, seed=0)


def record(dim=2, run_index=0, infidelity=1e-9, duration_qsl=1.3, converged=True):
    return BenchmarkRecord(
        dim=dim,
        run_index=run_index,
        seed=derive_seed(1, dim, run_index),
        infidelity=infidelity,
        duration_omega=duration_qsl * tau_qsl(dim),
        duration_qsl=duration_qsl,
        iterations=10,
        converged=converged,
    )


class TestTauQsl:
    def test_reference_values(self):
        assert tau_qsl(2, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert tau_qsl(6, 1.0) == pytest.approx(5 * math.pi / 6, rel=1e-15)
        assert tau_qsl(2, 2.0) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            tau_qsl(1, 1.0)
        with pytest.raises(ValueError):
            tau_qsl(2, 0.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)

    def test_distinct_across_cells(self):
        seeds = {derive_seed(42, d, i) for d in (2, 3, 4) for i in range(100)}
        assert len(seeds) == 300

    def test_base_seed_matters(self):
        assert derive_seed(1, 2, 0) != derive_seed(2, 2, 0)

    def test_64_bit_range(self):
        s = derive_seed(2**63, 6, 299)
        assert 0 <= s < 2**64


def lone_record(spec, dim, run_index):
    """The record of one campaign cell, from a lone ``optimize`` run."""
    seed = derive_seed(spec.base_seed, dim, run_index)
    context = ShootingContext(
        controls=nearest_neighbor_control_set(dim, spec.omega_max),
        target=target_gate(spec.target, dim),
        config=replace(spec.magicarp, seed=seed),
    )
    report = optimize(context)
    return BenchmarkRecord(
        dim, run_index, seed, report.infidelity, report.duration,
        report.duration / tau_qsl(dim, spec.omega_max), report.iterations, report.converged,
    )


class TestRunCampaign:
    def test_single_cell_reproducible(self):
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=1, magicarp=FAST_MAGICARP, base_seed=9)
        r1 = run_campaign(spec)
        r2 = run_campaign(spec)
        assert len(r1) == 1
        assert r1 == r2

    def test_cardinality_and_order(self):
        spec = BenchmarkSpec(dims=(2, 3), runs_per_dim=2, magicarp=FAST_MAGICARP, base_seed=3)
        records = run_campaign(spec)
        assert len(records) == 4
        assert [(r.dim, r.run_index) for r in records] == [(2, 0), (2, 1), (3, 0), (3, 1)]

    def test_parallel_equals_serial(self):
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=4, magicarp=FAST_MAGICARP, base_seed=5)
        assert run_campaign(spec, workers=1) == run_campaign(spec, workers=2)

    def test_duration_ratio_invariant(self):
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=3, magicarp=FAST_MAGICARP, base_seed=11)
        for r in run_campaign(spec):
            assert r.duration_qsl == pytest.approx(r.duration_omega / tau_qsl(2), abs=1e-12)

    def test_converged_records_meet_tolerance(self):
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=6, magicarp=FAST_MAGICARP, base_seed=1)
        for r in run_campaign(spec):
            if r.converged:
                assert r.infidelity <= FAST_MAGICARP.convergence_tol

    def test_run_failure_recorded_not_raised(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(shooting, "_construct_batch", boom)
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=2, magicarp=FAST_MAGICARP, base_seed=2)
        records = run_campaign(spec)
        assert len(records) == 2
        assert all(not r.converged for r in records)
        assert all(np.isinf(r.infidelity) for r in records)

    # a plain ValueError is what numpy raises for a shape or broadcast error: a bug, not an inf record
    @pytest.mark.parametrize(
        "error",
        [TypeError("synthetic bug"), ValueError("operands could not be broadcast together")],
        ids=["TypeError", "ValueError"],
    )
    def test_programming_error_propagates(self, monkeypatch, error):
        def bug(*args):
            raise error

        monkeypatch.setattr(shooting, "_construct_batch", bug)
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=2, magicarp=FAST_MAGICARP, base_seed=2)
        with pytest.raises(type(error)) as raised:
            run_campaign(spec)
        assert raised.value is error

    def test_failing_cell_leaves_its_peers_as_lone_runs(self, monkeypatch):
        # the construction fails at cell 1's starting point only: its lockstep
        # group re-runs the failed batch one restart at a time
        spec = BenchmarkSpec(dims=(2,), runs_per_dim=4, magicarp=FAST_MAGICARP, base_seed=2)
        clean = run_campaign(spec)
        seed = derive_seed(2, 2, 1)
        poison = initial_coeffs(replace(FAST_MAGICARP, seed=seed), 3)
        real = shooting._construct_batch

        def fails_at_poison(coeff_batch, *args):
            if np.any(np.all(np.atleast_2d(coeff_batch) == poison, axis=1)):
                raise np.linalg.LinAlgError("synthetic eigh failure")
            return real(coeff_batch, *args)

        monkeypatch.setattr(shooting, "_construct_batch", fails_at_poison)
        records = run_campaign(spec)
        assert records[1] == BenchmarkRecord(2, 1, seed, np.inf, np.inf, np.inf, 0, False)
        assert records[:1] + records[2:] == clean[:1] + clean[2:]
        assert records[:1] + records[2:] == [lone_record(spec, 2, i) for i in (0, 2, 3)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_records_equal_lone_runs(self, workers):
        # one lockstep group of 3 per dimension, serially or on a pool of 2
        spec = BenchmarkSpec(dims=(2, 3), runs_per_dim=3, magicarp=FAST_MAGICARP, base_seed=4)
        expected = [lone_record(spec, d, i) for d in (2, 3) for i in range(3)]
        assert run_campaign(spec, workers=workers) == expected

    @pytest.mark.parametrize("min_width,workers", [(1, 3), (2, 2), (1, 1)])
    def test_records_do_not_depend_on_the_lane_width(self, monkeypatch, min_width, workers):
        # lockstep groups of width 1, 2 and 3 under a lower floor
        spec = BenchmarkSpec(dims=(2, 3), runs_per_dim=3, magicarp=FAST_MAGICARP, base_seed=4)
        expected = run_campaign(spec)
        monkeypatch.setattr(bench, "MIN_LANE_WIDTH", min_width)
        assert run_campaign(spec, workers=workers) == expected

    @pytest.mark.parametrize(
        "runs,workers,sizes,pool",
        [
            (8, 2, [8], 2),
            (50, 2, [25, 25], 2),
            (50, 8, [8, 8, 8, 8, 8, 8, 2], 8),
            (300, 2, [32] * 9 + [12], 2),
            (3, 3, [3], 2),  # one group per dimension: no third process
            (3, 1, [3], None),
        ],
    )
    def test_lane_width_rule(self, monkeypatch, runs, workers, sizes, pool):
        # width = min(LOCKSTEP_WIDTH, max(MIN_LANE_WIDTH, ceil(runs / workers))),
        # and the pool starts no more processes than there are groups
        groups, pools = [], []

        def spy(context, seeds):
            groups.append((context.controls.dim, len(seeds)))
            return [RuntimeError("spy")] * len(seeds)

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(bench, "run_restarts", spy)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        spec = BenchmarkSpec(dims=(2, 3), runs_per_dim=runs, magicarp=FAST_MAGICARP)
        records = run_campaign(spec, workers=workers)
        assert [(r.dim, r.run_index) for r in records] == [(d, i) for d in (2, 3) for i in range(runs)]
        assert groups == [(d, size) for d in (2, 3) for size in sizes]
        assert pools == ([] if pool is None else [pool])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(dims=(1,), runs_per_dim=1)
        with pytest.raises(ValueError):
            BenchmarkSpec(dims=(2,), runs_per_dim=0)

    @pytest.mark.parametrize("omega_max", [0.0, -1.0, math.inf, math.nan])
    def test_spec_rejects_bad_omega_max(self, omega_max):
        with pytest.raises(ValueError, match="^omega_max"):
            BenchmarkSpec(dims=(2,), omega_max=omega_max)

    @pytest.mark.parametrize("threshold", [0.0, -1e-7, math.inf, math.nan])
    def test_spec_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError, match="^threshold: expected a positive finite number"):
            BenchmarkSpec(dims=(2,), threshold=threshold)

    def test_spec_checks_explicit_coeffs_against_every_dim(self):
        explicit = MagicarpConfig(init_coeffs=(0.1, 0.2, 0.3))
        assert BenchmarkSpec(dims=(2,), magicarp=explicit).magicarp is explicit
        with pytest.raises(ValueError, match=r"^magicarp\.init_coeffs: expected shape \(8,\), got shape \(3,\) for d = 3"):
            BenchmarkSpec(dims=(2, 3), magicarp=explicit)

    def test_spec_rejects_unknown_target_and_empty_dims(self):
        with pytest.raises(ValueError, match="^target"):
            BenchmarkSpec(target="bogus")
        with pytest.raises(ValueError, match="^dims"):
            BenchmarkSpec(dims=())

    def test_spec_rejects_repeated_dims(self):
        with pytest.raises(ValueError, match=r"^dims: expected distinct integers >= 2"):
            BenchmarkSpec(dims=(2, 2))


class TestMinimalDuration:
    def test_absent_when_none_qualify(self):
        records = [record(infidelity=1e-3, converged=False)]
        assert minimal_duration(records, 2) is None

    def test_single_qualifying_run(self):
        records = [record(duration_qsl=1.42)]
        assert minimal_duration(records, 2) == pytest.approx(1.42)

    def test_minimum_over_qualifying(self):
        records = [
            record(run_index=0, duration_qsl=1.5),
            record(run_index=1, duration_qsl=1.3),
            record(run_index=2, duration_qsl=1.2, infidelity=1e-3),  # above threshold
        ]
        assert minimal_duration(records, 2) == pytest.approx(1.3)

    def test_threshold_argument(self):
        records = [record(duration_qsl=1.2, infidelity=1e-5)]
        assert minimal_duration(records, 2, threshold=1e-7) is None
        assert minimal_duration(records, 2, threshold=1e-4) == pytest.approx(1.2)


class TestRecordsCsv:
    def test_round_trip(self):
        records = [
            record(dim=2, run_index=0, duration_qsl=1.25),
            record(dim=3, run_index=1, infidelity=float("inf"), converged=False),
        ]
        assert records_from_csv(records_to_csv(records)) == records

    def test_layout_follows_record_fields(self):
        r = BenchmarkRecord(3, 2, 2**63 + 5, 0.1, 1 / 3, math.inf, 10, False)
        assert records_to_csv([r]) == (
            "dim,run_index,seed,infidelity,duration_omega,duration_qsl,iterations,converged\n"
            "3,2,9223372036854775813,0.10000000000000001,0.33333333333333331,inf,10,0\n"
        )

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            records_from_csv("dim,run_index\n2,0\n")

    def test_bad_row_rejected(self):
        text = records_to_csv([record()]) + "2,0,1\n"
        with pytest.raises(ValueError):
            records_from_csv(text)

    @pytest.mark.parametrize("flag", ["2", "-1", "true", "", " 1"])
    def test_converged_reads_only_0_or_1(self, flag):
        text = records_to_csv([record(), record(run_index=1)])
        assert text.endswith(",1\n")  # the last field of the last row
        with pytest.raises(ValueError, match=re.escape(f"records row 1 has a bad converged field: {flag!r}")):
            records_from_csv(text[:-2] + flag + "\n")

    @pytest.mark.parametrize(("column", "value"), [(3, "abc"), (6, "2.5"), (0, "x")])
    def test_non_numeric_field_names_its_row_and_column(self, column, value):
        header, row = records_to_csv([record()]).splitlines()
        bad = row.split(",")
        bad[column] = value
        message = f"records row 1 has a bad {header.split(',')[column]} field: {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            records_from_csv("\n".join([header, row, ",".join(bad)]) + "\n")


class TestSummary:
    def test_structure(self):
        records = [
            record(dim=2, run_index=0, duration_qsl=1.3),
            record(dim=2, run_index=1, infidelity=0.5, converged=False, duration_qsl=9.0),
            record(dim=3, run_index=0, duration_qsl=1.5),
        ]
        summary = campaign_summary(records)
        assert summary["2"]["runs"] == 2
        assert summary["2"]["converged"] == 1
        assert summary["2"]["success_rate"] == pytest.approx(0.5)
        assert summary["2"]["minimal_duration_qsl"] == pytest.approx(1.3)
        assert summary["3"]["median_duration_qsl"] == pytest.approx(1.5)

    def test_null_minimal_duration(self):
        records = [record(infidelity=1e-2, converged=False)]
        summary = campaign_summary(records)
        assert summary["2"]["minimal_duration_qsl"] is None
        assert summary["2"]["median_duration_qsl"] is None
