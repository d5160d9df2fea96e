"""Smoke + shape tests for the experiment drivers behind each table.

These run scaled-down parameterisations and assert the paper's qualitative
claims (which system wins, in which direction quantities move) rather than
absolute numbers.
"""
import numpy as np
import pytest

from repro.microbench.migration import (
    STRATEGIES,
    memory_row,
    migrate_once,
    migration_row,
)
from repro.microbench.overhead import overhead_row
from repro.timely.cost import CostModel


def cost():
    return CostModel(workers=8, workers_per_process=4)


class TestOverheadShape:
    def test_row_schema(self):
        [row] = overhead_row(
            flavour="key",
            impl="megaphone",
            log_bins=8,
            nominal_keys=64e6,
            rate=500e3,
            duration_s=1.0,
            warmup_s=0.25,
            cost=cost(),
        )
        assert set(row) == {
            "experiment",
            "p90_ms",
            "p99_ms",
            "p9999_ms",
            "max_ms",
            "records",
        }
        assert row["experiment"] == "8"
        assert 0 < row["p90_ms"] <= row["max_ms"]

    def test_huge_bin_count_blows_up(self):
        [small] = overhead_row(
            flavour="key",
            impl="megaphone",
            log_bins=8,
            nominal_keys=64e6,
            rate=500e3,
            duration_s=1.0,
            warmup_s=0.25,
            cost=cost(),
        )
        [huge] = overhead_row(
            flavour="key",
            impl="megaphone",
            log_bins=18,
            nominal_keys=64e6,
            rate=500e3,
            duration_s=1.0,
            warmup_s=0.25,
            cost=cost(),
        )
        # Fig 13-15: latency explodes at large bin counts
        assert huge["p90_ms"] > 10 * small["p90_ms"]

    def test_native_fastest(self):
        by = {}
        for impl, log_bins in [("megaphone", 16), ("native", None)]:
            [row] = overhead_row(
                flavour="key",
                impl=impl,
                log_bins=log_bins,
                nominal_keys=64e6,
                rate=500e3,
                duration_s=1.0,
                warmup_s=0.25,
                cost=cost(),
            )
            by[row["experiment"]] = row
        assert by["Native"]["p90_ms"] < by["16"]["p90_ms"]


class TestMigrationShape:
    def test_all_at_once_latency_scales_with_state(self):
        recs = {}
        for nk in [512e6, 4096e6]:
            _, rec = migrate_once(
                nominal_keys=nk,
                n_bins=256,
                strategy="all_at_once",
                rate=200e3,
                warmup_s=0.3,
                post_s=0.2,
                cost=cost(),
            )
            recs[nk] = rec.max_latency_s
        # Fig 17: all-at-once max latency grows ~linearly with the domain
        assert recs[4096e6] > 4 * recs[512e6]

    def test_fluid_latency_bounded_by_bin_size(self):
        _, aao = migrate_once(
            nominal_keys=2048e6,
            n_bins=256,
            strategy="all_at_once",
            rate=200e3,
            warmup_s=0.3,
            post_s=0.2,
            cost=cost(),
        )
        _, fl = migrate_once(
            nominal_keys=2048e6,
            n_bins=256,
            strategy="fluid",
            rate=200e3,
            warmup_s=0.3,
            post_s=0.2,
            cost=cost(),
        )
        assert fl.max_latency_s < aao.max_latency_s / 5
        assert fl.duration_s > aao.duration_s

    def test_more_bins_lower_fluid_latency(self):
        lat = {}
        for n_bins in [32, 512]:
            _, rec = migrate_once(
                nominal_keys=2048e6,
                n_bins=n_bins,
                strategy="fluid",
                rate=200e3,
                warmup_s=0.3,
                post_s=0.2,
                cost=cost(),
            )
            lat[n_bins] = rec.max_latency_s
        # Fig 16: finer granularity -> lower max latency
        assert lat[512] < lat[32]

    def test_sweep_bins_rows(self):
        rows = [
            row
            for strategy in STRATEGIES
            for row in migration_row(
                nominal_keys=256e6,
                n_bins=2**5,
                strategy=strategy,
                rate=200e3,
                cost=cost(),
            )
        ]
        assert len(rows) == 3
        assert [r["log_bins"] for r in rows] == [5, 5, 5]
        assert all(r["duration_s"] is not None for r in rows)

    def test_proportional_fixed_latency(self):
        lat = {}
        for nk, n_bins in [(512e6, 64), (4096e6, 512)]:  # 8e6 keys/bin both
            _, rec = migrate_once(
                nominal_keys=nk,
                n_bins=n_bins,
                strategy="fluid",
                rate=200e3,
                warmup_s=0.3,
                post_s=0.2,
                cost=cost(),
            )
            lat[nk] = rec
        # Fig 18: per-bin state constant -> fluid max latency roughly flat,
        # duration grows
        assert lat[4096e6].max_latency_s < 4 * lat[512e6].max_latency_s
        assert lat[4096e6].duration_s > 2 * lat[512e6].duration_s


class TestThroughputShape:
    def test_saturation(self):
        from repro.microbench.count import run_count

        res = {}
        for rate in [1e6, 32e6]:
            r = run_count(
                impl="megaphone",
                flavour="key",
                nominal_keys=16384e6,
                n_bins=512,
                rate=rate,
                duration_s=1.2,
                warmup_s=0.3,
                cost=CostModel(),  # paper's 16 workers for the rate budget
                initial_imbalanced=True,
            )
            res[rate] = r.steady.percentile(99) / 1e3 * 1e3
        # Fig 19: 32M rec/s overloads 16 workers, latency explodes
        assert res[32e6] > 10 * res[1e6]


class TestMemoryShape:
    def test_memory_rows(self):
        by = {}
        for strategy in STRATEGIES:
            [row] = memory_row(
                nominal_keys=1e9,
                n_bins=128,
                strategy=strategy,
                rate=200e3,
                cost=cost(),
            )
            by[strategy] = row
        assert by["all_at_once"]["extra_gib"] > 4 * by["fluid"]["extra_gib"]


class TestHeadline:
    def test_fig1_ordering(self):
        by = {}
        for strategy, extra in [
            ("all_at_once", {}),
            ("fluid", {}),
            ("optimized", {"gap_ticks": 2}),
        ]:
            [row] = migration_row(
                nominal_keys=1e9,
                n_bins=512,
                strategy=strategy,
                rate=200e3,
                cost=cost(),
                **extra,
            )
            by[strategy] = row
        # Fig 1: all-at-once has by far the highest max latency; fluid and
        # optimized are orders of magnitude below
        assert by["all_at_once"]["max_latency_ms"] > 10 * by["fluid"]["max_latency_ms"]
        assert (
            by["all_at_once"]["max_latency_ms"]
            > 10 * by["optimized"]["max_latency_ms"]
        )
        # optimized groups non-interfering moves: fewer steps than fluid
        assert by["optimized"]["steps"] < by["fluid"]["steps"]
