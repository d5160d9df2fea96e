"""Structured-Streaming-style micro-batch engine with migratable keyed state.

This is the Spark-native rendering of Megaphone's mechanism (DESIGN.md,
layering): the paper's contribution is a runtime state-migration mechanism,
so it is expressed as DataFrame→DataFrame transformations rather than a
Catalyst rule:

* **State** is a Spark DataFrame ``(worker, bin, key, cnt)``
  hash-partitioned by ``worker`` and held as a local checkpoint — the
  stand-in for per-executor state stores. It stays where it is: a batch
  reads it in place and exchanges only its own rows and the moved rows.
* **Routing** is the configuration function ``bin -> worker``, a numpy
  table on the driver — Megaphone's F operator. Input rows are routed in
  numpy before they reach Spark; moved state rows are routed by a literal
  array-lookup SQL expression, so no routing DataFrame or join is built.
* **A micro-batch** pre-aggregates the input per key in numpy, routes it
  by the current configuration, hands it to Spark as Arrow batches that
  executor tasks decode (not a ``LocalRelation``, whose rows Catalyst walks
  as part of the plan) and merges it into the state (S + L) in one Spark
  job: the batch's rows and the moved rows share one exchange on
  ``worker``, the kept state is unioned in unshuffled, and the eager local
  checkpoint of the aggregate is the batch's one action.
* **A migration step** rewrites the routing for a subset of bins and
  splits the state into the kept rows and those bins' rows, re-routed to
  their new workers. It runs no action of its own: the moved rows travel
  in their batch's exchange, next to that batch's records, as Megaphone
  ships a bin's state at the configuration's time — all-at-once ships
  every moved bin in one batch, fluid one bin per batch. The moved rows
  are counted by a ``DataFrame.observe`` metric as the job runs, and both
  the moved bins and their new workers are array-literal lookups in SQL
  strings, so a step compiles no new code.
* **Scoped confs.** The checkpoint runs with adaptive query execution off,
  so it records ``hashpartitioning(worker, n_workers)`` (with AQE on it
  records unknown partitioning) and the next batch need not reshuffle the
  state; ``createDataFrame`` runs with Arrow's local-relation threshold at
  0. Each restores the caller's setting afterwards.

Nothing is registered in Spark's cache manager: Spark's context cleaner
frees a superseded checkpoint once the JVM has garbage-collected it.

Wall-clock time per micro-batch is the observed service latency; the
strategies differ only in how many bins each batch moves, which is the
paper's experiment. Results are oracle-checked per strategy
(tests/test_spark_engine.py).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation, SparkSession

from repro.core.binning import bin_of_keys

_AQE = "spark.sql.adaptive.enabled"
_LOCAL_RELATION = "spark.sql.execution.arrow.localRelationThreshold"


@contextmanager
def _scoped_conf(spark: SparkSession, key: str, value: str):
    """Session conf ``key`` at ``value`` for the body only, also if it raises."""
    before = spark.conf.get(key)
    spark.conf.set(key, value)
    try:
        yield
    finally:
        spark.conf.set(key, before)


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

    @staticmethod
    def _lookup(table: np.ndarray) -> str:
        """``table[bin]`` as a SQL string for ``where``/``selectExpr``:
        ``element_at`` over one array literal. Generated code takes an array
        literal by reference, so a migration step compiles no new code; an
        ``isin`` of the moved bins would be inlined and compiled anew for
        every step."""
        items = ", ".join(map(str, table.tolist()))
        return f"element_at(array({items}), CAST(bin + 1 AS INT))"

    # -- state movement (Megaphone's F extracting + reshipping bins) -------
    def migrate(self, moves: list[tuple[int, int]]) -> dict:
        """Route ``moves``' bins to their new workers and split the state.

        Runs no Spark action: returns the plan pieces the batch's one job
        merges. ``kept`` is the state of every other bin, left in place;
        ``moved`` is the moved bins' rows re-routed to their new workers,
        still to be exchanged, counted by ``observed`` as the job runs. A
        move to a bin's current owner moves nothing.
        """
        before = self.routing.copy()
        self.set_routing(moves)
        moved_bins = self.routing != before
        if not moved_bins.any() or self.state is None:
            return {"kept": self.state, "moved": None, "observed": None, "moved_bins": 0}
        is_moved = self._lookup(moved_bins)
        observed = Observation()
        moved = (
            self.state.where(is_moved)
            .selectExpr(f"CAST({self._lookup(self.routing)} AS BIGINT) AS worker", "bin", "key", "cnt")
            .observe(observed, F.expr("count(1) AS rows"))
        )
        return {
            "kept": self.state.where(f"NOT {is_moved}"),
            "moved": moved,
            "observed": observed,
            "moved_bins": int(moved_bins.sum()),
        }

    # -- data path ---------------------------------------------------------
    def process_batch(
        self, keys: np.ndarray, moves: Optional[list[tuple[int, int]]] = None
    ) -> dict:
        """One micro-batch: optional migration step and state update, as one
        Spark job.

        Returns wall-clock seconds for the batch and the rows and bins moved.
        """
        t0 = time.perf_counter()
        mig = self.migrate(moves or [])
        key, cnt = np.unique(keys, return_counts=True)
        bins = bin_of_keys(key, self.n_bins)
        # in (bin, key) order the exchange's blocks compress ~16% smaller
        by_bin = np.argsort(bins, kind="stable")
        upd = pa.table({"worker": self.routing[bins], "bin": bins, "key": key, "cnt": cnt}).take(by_bin)
        with _scoped_conf(self.spark, _LOCAL_RELATION, "0"):
            shipped = self.spark.createDataFrame(upd)
        if mig["moved"] is not None:
            shipped = mig["moved"].unionByName(shipped)
        # the batch's only exchange: the batch's rows and the moved rows; the
        # kept state is already hash-partitioned on worker, which satisfies
        # the aggregate's clustering on (worker, bin, key)
        merged = shipped.repartition(self.n_workers, "worker")
        if mig["kept"] is not None:
            merged = mig["kept"].unionByName(merged)
        self.state = self._checkpoint(
            merged.groupBy("worker", "bin", "key").agg(F.sum("cnt").alias("cnt"))
        )
        observed = mig["observed"]
        moved_rows = observed.get["rows"] if observed is not None else 0
        return {
            "batch_s": time.perf_counter() - t0,
            "moved_rows": moved_rows,
            "moved_bins": mig["moved_bins"],
        }

    def _checkpoint(self, df: DataFrame) -> DataFrame:
        """Materialise ``df`` as an eager local checkpoint with AQE off.

        With AQE on, the checkpoint records unknown partitioning and the next
        batch would reshuffle the whole state; with it off, it records
        hashpartitioning(worker, n_workers), which the next batch's union
        passes through. The caller's setting is restored afterwards.
        """
        with _scoped_conf(self.spark, _AQE, "false"):
            return df.localCheckpoint(eager=True)

    # -- inspection --------------------------------------------------------
    def counts_pandas(self) -> pd.DataFrame:
        """Final (key, cnt) state — for the DuckDB oracle."""
        assert self.state is not None
        return self.state.groupBy("key").agg(F.sum("cnt").alias("cnt")).toPandas()

    def placement_pandas(self) -> pd.DataFrame:
        """(worker, bin) placement — to assert the Migration property."""
        assert self.state is not None
        return self.state.select("worker", "bin").distinct().toPandas()
