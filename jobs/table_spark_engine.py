"""Spark micro-batch engine (our addition): per-batch wall-clock during a
migration of 25% of the bins, per strategy — all-at-once pays one large
spike, fluid many small ones. Results are oracle-checked in tests."""
import os
import sys

import numpy as np

from _runner import run

TITLE = "Spark engine: micro-batch latency during migration (real shuffles)"


def main(quick: bool = False):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    from repro.spark_engine.engine import SparkMigratableCount
    from repro.spark_engine.experiment import migration_timeline

    spark = (
        SparkSession.builder.appName("repro-spark-engine")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    rows = []
    scale = dict(
        n_workers=8,
        n_bins=64,
        n_keys=2_000_000 if not quick else 50_000,
        batch_records=200_000 if not quick else 20_000,
        migrate_at_batch=6 if not quick else 3,
    )
    # a session's first migration costs ~1.5-2 s more than later ones; pay
    # it on a throwaway engine, moving bin 0 away and back, so that the
    # strategy run first is not charged for it
    warm = SparkMigratableCount(spark, n_workers=scale["n_workers"], n_bins=scale["n_bins"])
    warm.process_batch(np.arange(scale["n_keys"]))
    for owner in (1, 0):
        warm.process_batch(np.arange(scale["batch_records"]), moves=[(0, owner)])
    for strategy, n_batches in [
        ("all_at_once", 14 if not quick else 6),
        ("batched", 16 if not quick else 8),
        ("fluid", 26 if not quick else 22),
    ]:
        res = migration_timeline(
            spark, strategy=strategy, n_batches=n_batches, **scale
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
    spark.stop()
    return rows, [
        "strategy",
        "baseline_batch_s",
        "peak_batch_s",
        "spike_s",
        "total_migration_s",
        "migration_batches",
        "moved_rows",
    ]


if __name__ == "__main__":
    run(TITLE, main)
