"""Spark micro-batch engine with migratable state: correctness under every
migration strategy (DuckDB oracle) and placement (Migration property)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.binning import bin_of_keys
from repro.core.strategies import migration_moves
from repro.oracle import assert_equivalent
from repro.spark_engine.engine import SparkMigratableCount
from repro.spark_engine.experiment import migration_timeline


def feed(eng, rng, n_keys=5_000, batches=3, per_batch=8_000, moves_at=None):
    all_keys = []
    for b in range(batches):
        keys = rng.integers(0, n_keys, per_batch)
        all_keys.append(keys)
        step = moves_at.get(b) if moves_at else None
        eng.process_batch(keys, moves=step)
    return np.concatenate(all_keys)


class TestEngineBasics:
    def test_counts_without_migration(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        keys = feed(eng, np.random.default_rng(0))
        got = eng.counts_pandas()
        exp = pd.Series(keys).value_counts()
        assert got.cnt.sum() == len(keys)
        assert dict(zip(got.key, got.cnt)) == exp.to_dict()

    def test_oracle_equivalence(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        keys = feed(eng, np.random.default_rng(1))
        inp = pd.DataFrame({"key": keys.astype("int64")})
        got = eng.state.groupBy("key").agg({"cnt": "sum"}).withColumnRenamed(
            "sum(cnt)", "cnt"
        )
        assert_equivalent(
            got, "SELECT key, COUNT(*) AS cnt FROM inp GROUP BY key", inp=inp
        )

    def test_placement_follows_routing(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        feed(eng, np.random.default_rng(2))
        placement = eng.placement_pandas()
        for _, row in placement.iterrows():
            assert row.worker == eng.routing[row.bin]

    def test_state_rows_bounded_by_domain(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        feed(eng, np.random.default_rng(3), n_keys=500)
        assert eng.state.count() <= 500


@pytest.mark.parametrize("strategy", ["all_at_once", "batched", "fluid"])
class TestMigrationStrategies:
    def test_counts_survive_migration(self, spark, strategy):
        res = migration_timeline(
            spark,
            strategy=strategy,
            n_workers=4,
            n_bins=16,
            n_keys=3_000,
            batch_records=5_000,
            n_batches=10 if strategy != "fluid" else 14,
            migrate_at_batch=3,
            seed=7,
        )
        assert not res["steps_unfinished"], "not enough batches to finish plan"
        eng = res["engine"]
        exp = pd.Series(res["input_keys"]).value_counts()
        got = eng.counts_pandas()
        assert dict(zip(got.key, got.cnt)) == exp.to_dict()

    def test_placement_after_migration(self, spark, strategy):
        res = migration_timeline(
            spark,
            strategy=strategy,
            n_workers=4,
            n_bins=16,
            n_keys=3_000,
            batch_records=5_000,
            n_batches=10 if strategy != "fluid" else 14,
            migrate_at_batch=3,
            seed=8,
        )
        eng = res["engine"]
        # migrated configuration: imbalancing moves applied
        expected = np.arange(16, dtype=np.int64) % 4
        for b, w in migration_moves(16, 4):
            expected[b] = w
        assert np.array_equal(eng.routing, expected)
        placement = eng.placement_pandas()
        for _, row in placement.iterrows():
            assert row.worker == expected[row.bin]


class TestMovementAccounting:
    def test_moved_rows_counted(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(4)
        keys = rng.integers(0, 2_000, 6_000)
        eng.process_batch(keys)
        moves = migration_moves(16, 4)
        moved_bins = {b for b, _ in moves}
        bins = bin_of_keys(np.unique(keys), 16)
        expected_rows = int(np.isin(bins, list(moved_bins)).sum())
        m = eng.process_batch(rng.integers(0, 2_000, 100), moves=moves)
        assert m["moved_rows"] == expected_rows

    def test_new_keys_in_moving_bins_follow_new_routing(self, spark):
        """A batch that moves bins and also brings new keys for them: right
        after it, every row sits on its bin's new worker and no count is
        lost or doubled."""
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(5)
        first = rng.integers(0, 2_000, 4_000)
        eng.process_batch(first)
        moves = migration_moves(16, 4)
        moved_bins = [b for b, _ in moves]
        fresh = np.arange(2_000, 4_000)
        fresh = fresh[np.isin(bin_of_keys(fresh, 16), moved_bins)]
        second = np.concatenate([rng.integers(0, 2_000, 1_000), fresh])
        eng.process_batch(second, moves=moves)
        placement = eng.placement_pandas()
        assert set(moved_bins) <= set(placement.bin)
        for _, row in placement.iterrows():
            assert row.worker == eng.routing[row.bin]
        got = eng.counts_pandas()
        exp = pd.Series(np.concatenate([first, second])).value_counts()
        assert dict(zip(got.key, got.cnt)) == exp.to_dict()

    def test_all_at_once_moves_everything_in_one_batch(self, spark):
        res = migration_timeline(
            spark,
            strategy="all_at_once",
            n_workers=4,
            n_bins=16,
            n_keys=3_000,
            batch_records=4_000,
            n_batches=7,
            migrate_at_batch=3,
            seed=9,
        )
        assert res["migration_batches"] == 1

    def test_fluid_moves_one_bin_per_batch(self, spark):
        res = migration_timeline(
            spark,
            strategy="fluid",
            n_workers=4,
            n_bins=16,
            n_keys=3_000,
            batch_records=4_000,
            n_batches=10,
            migrate_at_batch=3,
            seed=10,
        )
        assert res["migration_batches"] == len(migration_moves(16, 4))
        per_batch_bins = {
            m["moved_bins"] for m in res["timeline"] if m["migrating"]
        }
        assert per_batch_bins == {1}


class TestSparkResources:
    def test_no_plan_left_in_cache_manager(self, spark):
        """Batches and migration steps register nothing in Spark's cache
        manager, so superseded states cannot pile up there."""
        spark.catalog.clearCache()
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        moves = migration_moves(16, 4)
        feed(
            eng,
            np.random.default_rng(6),
            batches=6,
            moves_at={2: moves[:1], 4: moves[1:]},
        )
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()
