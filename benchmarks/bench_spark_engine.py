"""Benchmarks for the Spark micro-batch engine table: per-batch cost and
migration step cost with real shuffles."""
import numpy as np

from repro.spark_engine.engine import SparkMigratableCount
from repro.core.strategies import migration_moves


def test_bench_spark_batch(spark, benchmark):
    eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
    rng = np.random.default_rng(0)
    eng.process_batch(rng.integers(0, 20_000, 30_000))

    def batch():
        return eng.process_batch(rng.integers(0, 20_000, 30_000))

    benchmark.pedantic(batch, rounds=3, iterations=1)
    assert eng.state.count() > 0


def test_bench_spark_migration_step(spark, benchmark):
    eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
    rng = np.random.default_rng(1)
    eng.process_batch(rng.integers(0, 20_000, 30_000))
    moves = migration_moves(16, 4)

    state = {"flip": False}

    def step():
        # alternate between imbalancing and rebalancing so each round moves
        # the same bins back and forth
        if state["flip"]:
            mv = [(b, b % 4) for b, _ in moves]
        else:
            mv = moves
        state["flip"] = not state["flip"]
        return eng.process_batch(rng.integers(0, 20_000, 5_000), moves=mv)

    m = benchmark.pedantic(step, rounds=2, iterations=1)
    assert m["moved_rows"] > 0
