"""Spark-engine migration experiment: per-micro-batch latency timeline.

Replays an open-loop keyed count over many micro-batches, triggers a
migration of 25% of the bins (the paper's configuration) mid-run under a
chosen strategy, and records each batch's wall-clock time. The spike above
the steady-state baseline is the reconfiguration disruption; all-at-once
ships every bin in one batch, batched a group per batch, fluid one per
batch — the Spark rendering of Figs 1/16.
"""
from __future__ import annotations

import os

import numpy as np
from pyspark.sql import SparkSession

from repro.core.strategies import migration_moves, plan_steps
from repro.spark_engine.engine import SparkMigratableCount


def migration_timeline(
    spark: SparkSession,
    *,
    strategy: str = "all_at_once",
    n_workers: int = 8,
    n_bins: int = 64,
    n_keys: int = 200_000,
    batch_records: int = 50_000,
    migrate_at_batch: int = 8,
    tail_batches: int = 4,
    seed: int = 0,
) -> dict:
    """Run the timeline; returns batch metrics, summary and final counts.
    It runs ``migrate_at_batch`` batches, one batch per step of the plan,
    then ``tail_batches``.

    Batch 0 loads one instance of every key (the paper's §5.2 methodology),
    so state size — and hence per-step movement volume — is comparable
    across strategies.
    """
    rng = np.random.default_rng(seed)
    eng = SparkMigratableCount(spark, n_workers=n_workers, n_bins=n_bins)
    moves = migration_moves(n_bins, n_workers)
    steps = plan_steps(moves, strategy, assignment=eng.routing.copy())
    plan = [None] * migrate_at_batch + steps + [None] * tail_batches
    all_keys = []
    timeline = []
    for b, step in enumerate(plan):
        if b == 0:
            keys = np.arange(n_keys, dtype=np.int64)
        else:
            keys = rng.integers(0, n_keys, batch_records)
        all_keys.append(keys)
        m = eng.process_batch(keys, moves=step)
        m["batch"] = b
        m["migrating"] = step is not None
        timeline.append(m)
    baseline = float(
        np.median([m["batch_s"] for m in timeline if not m["migrating"]])
    )
    mig_batches = [m for m in timeline if m["migrating"]]
    peak = max((m["batch_s"] for m in mig_batches), default=baseline)
    return {
        "strategy": strategy,
        "timeline": timeline,
        "baseline_s": baseline,
        "peak_batch_s": float(peak),
        "spike_s": float(peak - baseline),
        # a migration step runs inside its batch's Spark job, so its cost is
        # what the migrating batches took above the baseline
        "total_migration_s": float(
            sum(m["batch_s"] - baseline for m in mig_batches)
        ),
        "migration_batches": len(mig_batches),
        "moved_rows_total": int(sum(m["moved_rows"] for m in mig_batches)),
        "engine": eng,
        "input_keys": np.concatenate(all_keys),
    }


def spark_rows(
    *, n_keys: int, batch_records: int, migrate_at_batch: int, tail_batches: int
) -> list[dict]:
    """One :func:`migration_timeline` row per strategy, all on one fresh
    session after one warm-up. Each strategy runs ``migrate_at_batch``
    batches, one batch per step of its plan, then ``tail_batches``."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName("repro-spark-engine")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    scale = dict(
        n_workers=8,
        n_bins=64,
        n_keys=n_keys,
        batch_records=batch_records,
        migrate_at_batch=migrate_at_batch,
    )
    try:
        # a session's first migration costs ~1.5-2 s more than later ones; pay
        # it on a throwaway engine, moving bin 0 away and back, so that the
        # strategy run first is not charged for it
        warm = SparkMigratableCount(
            spark, n_workers=scale["n_workers"], n_bins=scale["n_bins"]
        )
        warm.process_batch(np.arange(n_keys))
        for owner in (1, 0):
            warm.process_batch(np.arange(batch_records), moves=[(0, owner)])
        rows = []
        for strategy in ("all_at_once", "batched", "fluid"):
            res = migration_timeline(
                spark, strategy=strategy, tail_batches=tail_batches, **scale
            )
            rows.append(
                {
                    "strategy": strategy,
                    "baseline_batch_s": res["baseline_s"],
                    "peak_batch_s": res["peak_batch_s"],
                    "spike_s": res["spike_s"],
                    "total_migration_s": res["total_migration_s"],
                    "migration_batches": res["migration_batches"],
                    "moved_rows": res["moved_rows_total"],
                }
            )
    finally:
        spark.stop()
    return rows
