"""Megaphone's mechanism expressed over Spark DataFrames: keyed operator
state lives in a locally checkpointed Spark DataFrame hash-partitioned by
(logical) worker, a driver-side bin→worker routing table routes both input
and state, and a migration step ships the chosen bins' state rows through
the real Spark shuffle of their micro-batch, while the rest of the state
stays in place — all-at-once, batched, or fluid granularity."""
from repro.spark_engine.engine import SparkMigratableCount
from repro.spark_engine.experiment import migration_timeline

__all__ = ["SparkMigratableCount", "migration_timeline"]
