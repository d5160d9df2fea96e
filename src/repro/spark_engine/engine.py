"""Structured-Streaming-style micro-batch engine with migratable keyed state.

This is the Spark-native rendering of Megaphone's mechanism (DESIGN.md,
layering): the paper's contribution is a runtime state-migration mechanism,
so it is expressed as DataFrame→DataFrame transformations rather than a
Catalyst rule:

* **State** is a Spark DataFrame ``(worker, bin, key, cnt)``
  hash-partitioned by ``worker`` and held as a local checkpoint — the
  stand-in for per-executor state stores.
* **Routing** is the configuration function ``bin -> worker``, a numpy
  table on the driver — Megaphone's F operator. Input rows are routed in
  pandas before they reach Spark; moved state rows are routed by a literal
  array-lookup expression, so no routing DataFrame or join is built.
* **A micro-batch** pre-aggregates the input per (bin, key), routes it by
  the current configuration, and merges it into the state (S + L) with a
  single exchange on ``worker``; the eager local checkpoint of the new
  state is the batch's one Spark action.
* **A migration step** rewrites the routing for a subset of bins and
  physically moves exactly those bins' state rows through a
  ``repartition(worker)`` shuffle, materialised (one action, which also
  counts them) before the batch's data processing — all-at-once ships
  every moved bin in one batch, fluid one bin per batch.

Nothing is registered in Spark's cache manager: Spark's context cleaner
frees a superseded checkpoint once the JVM has garbage-collected it.

Wall-clock time per micro-batch is the observed service latency; the
strategies differ only in how many bins each batch moves, which is the
paper's experiment. Results are oracle-checked per strategy
(tests/test_spark_engine.py).
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.binning import bin_of_keys


class SparkMigratableCount:
    """Keyed streaming count with migratable binned state on Spark."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        n_workers: int = 8,
        n_bins: int = 64,
    ):
        assert n_bins % n_workers == 0 or n_bins >= n_workers
        self.spark = spark
        self.n_workers = n_workers
        self.n_bins = n_bins
        self.routing = np.arange(n_bins, dtype=np.int64) % n_workers
        self.state: Optional[DataFrame] = None

    # -- routing -----------------------------------------------------------
    def set_routing(self, moves: list[tuple[int, int]]) -> None:
        for b, w in moves:
            assert 0 <= w < self.n_workers
            self.routing[b] = w

    def _worker_of_bin(self):
        """``routing[bin]`` as a column expression (1-based array lookup)."""
        table = F.array(*[F.lit(int(w)) for w in self.routing])
        return F.element_at(table, (F.col("bin") + 1).cast("int")).cast("long")

    # -- state movement (Megaphone's F extracting + reshipping bins) -------
    def migrate(self, moves: list[tuple[int, int]]) -> dict:
        """Move the state of ``moves``' bins to their new workers.

        Only the moved bins' rows are extracted, re-routed and re-shuffled;
        untouched state stays in place. Returns movement metrics.
        """
        if not moves or self.state is None:
            self.set_routing(moves or [])
            return {"moved_rows": 0, "moved_bins": 0}
        moved_bins = [int(b) for b, _ in moves]
        self.set_routing(moves)
        is_moved = F.col("bin").isin(moved_bins)
        moved = (
            self.state.filter(is_moved)
            .select(self._worker_of_bin().alias("worker"), "bin", "key", "cnt")
            .repartition(self.n_workers, "worker")
            .localCheckpoint(eager=False)
        )
        moved_rows = moved.count()  # materialise the physical transfer
        self.state = self.state.filter(~is_moved).unionByName(moved)
        return {"moved_rows": moved_rows, "moved_bins": len(moved_bins)}

    # -- data path ---------------------------------------------------------
    def process_batch(
        self, keys: np.ndarray, moves: Optional[list[tuple[int, int]]] = None
    ) -> dict:
        """One micro-batch: optional migration step, then state update.

        Returns wall-clock metrics: total batch seconds, migration seconds
        and rows moved.
        """
        t0 = time.perf_counter()
        mig = self.migrate(moves or [])
        t_mig = time.perf_counter() - t0

        upd_pdf = (
            pd.DataFrame({"key": keys})
            .assign(bin=lambda d: bin_of_keys(d.key.to_numpy(), self.n_bins))
            .groupby(["bin", "key"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
            .assign(worker=lambda d: self.routing[d["bin"].to_numpy()])
        )
        updates = self.spark.createDataFrame(upd_pdf[["worker", "bin", "key", "cnt"]])
        merged = self.state.unionByName(updates) if self.state is not None else updates
        # hash partitioning on worker satisfies the aggregate's clustering on
        # (worker, bin, key), so this is the batch's only exchange
        self.state = (
            merged.repartition(self.n_workers, "worker")
            .groupBy("worker", "bin", "key")
            .agg(F.sum("cnt").alias("cnt"))
            .localCheckpoint(eager=True)
        )
        return {
            "batch_s": time.perf_counter() - t0,
            "migration_s": t_mig,
            "moved_rows": mig["moved_rows"],
            "moved_bins": mig["moved_bins"],
        }

    # -- inspection --------------------------------------------------------
    def counts_pandas(self) -> pd.DataFrame:
        """Final (key, cnt) state — for the DuckDB oracle."""
        assert self.state is not None
        return self.state.groupBy("key").agg(F.sum("cnt").alias("cnt")).toPandas()

    def placement_pandas(self) -> pd.DataFrame:
        """(worker, bin) placement — to assert the Migration property."""
        assert self.state is not None
        return self.state.select("worker", "bin").distinct().toPandas()
