"""Spark micro-batch engine with migratable state: correctness under every
migration strategy (DuckDB oracle) and placement (Migration property), the
plan that leaves the state in place, and movement accounting."""
import re
import threading

import numpy as np
import pandas as pd
import pytest

from repro.core.binning import bin_of_keys
from repro.core.strategies import migration_moves
from repro.oracle import assert_equivalent
from repro.spark_engine.engine import SparkMigratableCount
from repro.spark_engine.experiment import migration_timeline

AQE = "spark.sql.adaptive.enabled"
LOCAL_RELATION = "spark.sql.execution.arrow.localRelationThreshold"


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

    def test_too_few_batches_for_the_plan_raise(self, spark):
        with pytest.raises(ValueError, match="fluid: 5 batches from batch 3 run 2 of"):
            migration_timeline(
                spark,
                strategy="fluid",
                n_workers=4,
                n_bins=16,
                n_keys=1_000,
                batch_records=1_000,
                n_batches=5,
                migrate_at_batch=3,
            )

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


# -- the state stays in place; a batch is one Spark job --------------------
def state_partitioning(eng) -> str:
    return eng.state._jdf.queryExecution().executedPlan().outputPartitioning().toString()


def executions_after(spark, last_id: int) -> list:
    """SQL executions with an id above ``last_id``, from Spark's SQL status
    store (kept with the UI off), once the listener bus has caught up."""
    spark.sparkContext._jsc.sc().listenerBus().waitUntilEmpty()
    execs = spark._jsparkSession.sharedState().statusStore().executionsList()
    found = [execs.apply(i) for i in range(execs.size())]
    return sorted(
        (e for e in found if e.executionId() > last_id), key=lambda e: e.executionId()
    )


def last_execution_id(spark) -> int:
    return max((e.executionId() for e in executions_after(spark, -1)), default=-1)


def plan_tree(plan: str) -> list[tuple[int, str]]:
    """(depth, node) per line of a formatted physical plan's tree; depth is
    the column of the ``+-``/``:-`` marker, -1 for the root."""
    out = []
    for line in plan.split("\n\n")[0].splitlines()[1:]:
        marker = re.search(r"[+:]- ", line)
        node = line[marker.end() if marker else 0 :].lstrip("* ")
        out.append((marker.start() if marker else -1, node))
    return out


def below_exchanges(tree: list[tuple[int, str]]) -> list[str]:
    """Nodes in the subtree of any Exchange."""
    below = []
    for i, (depth, node) in enumerate(tree):
        if node.startswith("Exchange"):
            for d, n in tree[i + 1 :]:
                if d <= depth:
                    break
                below.append(n)
    return below


def batch_plan(spark, eng, keys, moves=None) -> list[tuple[int, str]]:
    """Run one batch; assert it was one SQL execution of one Spark job and
    return that execution's plan tree, with every scan of the state (the
    checkpoint the batch started from) renamed ``STATE``."""
    state_rdd = eng.state._jdf.queryExecution().analyzed().rdd().id()
    last = last_execution_id(spark)
    eng.process_batch(keys, moves=moves)
    (execution,) = executions_after(spark, last)
    assert execution.jobs().size() == 1
    plan = execution.physicalPlanDescription()
    # a scan's details name the RDD it reads; the batch's own rows are also
    # a ``Scan ExistingRDD``, over another RDD. Attribute ids do not tell
    # the scans apart: a state read twice gets fresh ids in its second read.
    reads_state = {
        block.split(maxsplit=1)[0]
        for block in plan.split("\n\n")[1:]
        if re.search(rf"RDD\[{state_rdd}\] ", block)
    }
    return [
        (d, "STATE" if n.startswith("Scan") and n.rsplit(" ", 1)[-1] in reads_state else n)
        for d, n in plan_tree(plan)
    ]


class TestStateStaysInPlace:
    def test_state_hash_partitioned_on_worker(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(11)
        hashed = r"hashpartitioning\(worker#\d+L?, 4\)"
        eng.process_batch(rng.integers(0, 2_000, 4_000))
        assert re.fullmatch(hashed, state_partitioning(eng))
        eng.process_batch(rng.integers(0, 2_000, 4_000), moves=migration_moves(16, 4))
        assert re.fullmatch(hashed, state_partitioning(eng))

    def test_next_batch_does_not_exchange_state(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(12)
        eng.process_batch(rng.integers(0, 2_000, 4_000))
        steady = batch_plan(spark, eng, rng.integers(0, 2_000, 1_000))
        nodes = [n for _, n in steady]
        assert sum(n.startswith("Exchange") for n in nodes) == 1
        assert "STATE" in nodes
        assert "STATE" not in below_exchanges(steady)
        # a migrating batch: the moved rows share the batch's one exchange,
        # the kept state is still read in place
        migrating = batch_plan(
            spark, eng, rng.integers(0, 2_000, 1_000), moves=migration_moves(16, 4)[:1]
        )
        nodes = [n for _, n in migrating]
        shipped = [n for n in below_exchanges(migrating) if n == "STATE"]
        assert sum(n.startswith("Exchange") for n in nodes) == 1
        assert nodes.count("STATE") == 2 and len(shipped) == 1

    def test_batch_rows_are_not_a_local_relation(self, spark):
        """The batch's rows enter as an RDD of Arrow batches, not as a
        local relation whose rows are part of the plan."""
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(17)
        eng.process_batch(rng.integers(0, 2_000, 4_000))
        for moves in (None, migration_moves(16, 4)[:1]):
            nodes = [n for _, n in batch_plan(spark, eng, rng.integers(0, 2_000, 1_000), moves)]
            assert not any(n.startswith("LocalTableScan") for n in nodes)


    def test_migration_step_compiles_no_new_code(self, spark):
        """After the first steps, a step that moves other bins reuses the
        generated code: the moved bins are not inlined into it."""
        compile_time = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(16)
        eng.process_batch(rng.integers(0, 2_000, 4_000))
        for b in (0, 1):
            eng.process_batch(rng.integers(0, 2_000, 500), moves=[(b, (b + 1) % 4)])
        compiled = compile_time.METRIC_COMPILATION_TIME().getCount()
        for b in (2, 3, 4):
            eng.process_batch(rng.integers(0, 2_000, 500), moves=[(b, (b + 1) % 4)])
        assert compile_time.METRIC_COMPILATION_TIME().getCount() == compiled


# each session conf the engine sets around one call, with the call
# (``DataFrame.localCheckpoint`` or ``SparkSession.createDataFrame``) and a
# caller's value it must keep
SCOPED = [
    pytest.param(AQE, "localCheckpoint", "true", id="true"),
    pytest.param(AQE, "localCheckpoint", "false", id="false"),
    pytest.param(LOCAL_RELATION, "createDataFrame", "1048576", id="threshold-1048576"),
    pytest.param(LOCAL_RELATION, "createDataFrame", "64MB", id="threshold-64MB"),
]


class TestAqeScope:
    @pytest.mark.parametrize("key, call, value", SCOPED)
    def test_caller_setting_kept(self, spark, key, call, value):
        before = spark.conf.get(key)
        spark.conf.set(key, value)
        try:
            eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
            rng = np.random.default_rng(13)
            eng.process_batch(rng.integers(0, 2_000, 4_000))
            assert spark.conf.get(key) == value
            eng.process_batch(rng.integers(0, 2_000, 1_000), moves=migration_moves(16, 4))
            assert spark.conf.get(key) == value
        finally:
            spark.conf.set(key, before)

    @pytest.mark.parametrize("key, call, value", SCOPED)
    def test_caller_setting_kept_when_action_raises(self, spark, monkeypatch, key, call, value):
        def fail(*args, **kwargs):
            raise RuntimeError(f"{call} failed")

        before = spark.conf.get(key)
        spark.conf.set(key, value)
        try:
            eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
            owner = type(spark) if call == "createDataFrame" else type(spark.range(1))
            monkeypatch.setattr(owner, call, fail)
            with pytest.raises(RuntimeError, match=f"{call} failed"):
                eng.process_batch(np.arange(100))
            assert spark.conf.get(key) == value
        finally:
            spark.conf.set(key, before)


class TestMovedRowsAtTheEdges:
    def test_all_at_once_moves_every_bin(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(14)
        first = rng.integers(0, 3_000, 6_000)
        eng.process_batch(first)
        moves = [(b, (b + 1) % 4) for b in range(16)]
        second = rng.integers(0, 3_000, 500)
        m = eng.process_batch(second, moves=moves)
        assert m["moved_bins"] == 16
        assert m["moved_rows"] == len(np.unique(first))
        got = eng.counts_pandas()
        exp = pd.Series(np.concatenate([first, second])).value_counts()
        assert dict(zip(got.key, got.cnt)) == exp.to_dict()
        placement = eng.placement_pandas()
        assert (placement.worker.to_numpy() == eng.routing[placement.bin.to_numpy()]).all()

    def test_move_to_current_owner_moves_nothing(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        rng = np.random.default_rng(15)
        first = rng.integers(0, 3_000, 6_000)
        eng.process_batch(first)
        second = rng.integers(0, 3_000, 100)
        m = eng.process_batch(second, moves=[(5, 1)])
        assert m["moved_rows"] == 0 and m["moved_bins"] == 0
        bins = bin_of_keys(np.unique(np.concatenate([first, second])), 16)
        m = eng.process_batch(rng.integers(0, 3_000, 100), moves=[(5, 1), (6, 0)])
        assert m["moved_bins"] == 1
        assert m["moved_rows"] == int((bins == 6).sum())

    def test_empty_bin_moves_zero_rows_without_waiting(self, spark):
        eng = SparkMigratableCount(spark, n_workers=4, n_bins=16)
        keys = np.arange(3_000)
        keys = keys[bin_of_keys(keys, 16) != 3]
        eng.process_batch(keys)
        out = {}
        batch = threading.Thread(
            target=lambda: out.update(eng.process_batch(keys[:100], moves=[(3, 0)])),
            daemon=True,
        )
        batch.start()
        batch.join(timeout=300)
        assert not batch.is_alive(), "the batch waited on its moved-row count"
        assert out["moved_rows"] == 0 and out["moved_bins"] == 1
        assert eng.routing[3] == 0
