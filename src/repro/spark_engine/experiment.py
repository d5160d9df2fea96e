"""Spark-engine migration experiment: per-micro-batch latency timeline.

Replays an open-loop keyed count over many micro-batches, triggers a
migration of 25% of the bins (the paper's configuration) mid-run under a
chosen strategy, and records each batch's wall-clock time. The spike above
the steady-state baseline is the reconfiguration disruption; all-at-once
ships every bin in one batch, batched a group per batch, fluid one per
batch — the Spark rendering of Figs 1/16.
"""
from __future__ import annotations

from typing import Optional

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
    n_batches: int = 18,
    migrate_at_batch: int = 8,
    batch_size: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Run the timeline; returns batch metrics, summary and final counts.

    Batch 0 loads one instance of every key (the paper's §5.2 methodology),
    so state size — and hence per-step movement volume — is comparable
    across strategies.
    """
    rng = np.random.default_rng(seed)
    eng = SparkMigratableCount(spark, n_workers=n_workers, n_bins=n_bins)
    moves = migration_moves(n_bins, n_workers)
    steps = plan_steps(
        moves,
        strategy,
        batch_size=batch_size,
        assignment=eng.routing.copy(),
    )
    all_keys = []
    timeline = []
    step_i = 0
    for b in range(n_batches):
        if b == 0:
            keys = np.arange(n_keys, dtype=np.int64)
        else:
            keys = rng.integers(0, n_keys, batch_records)
        all_keys.append(keys)
        step = None
        if b >= migrate_at_batch and step_i < len(steps):
            step = steps[step_i]
            step_i += 1
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
        "steps_unfinished": step_i < len(steps),
    }
