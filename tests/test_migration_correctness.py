"""End-to-end correctness of the Megaphone mechanism (§3.2 properties).

Property 1 (Correctness): final per-key counts equal a ground-truth group-by
over the full input — checked both directly and via the DuckDB oracle.
Property 2 (Migration): asserted inside the engine by the ConfigAuthority on
every applied batch (these tests run with the authority enabled).
Property 3 (Completion): ``run_count`` drains and asserts all frontiers close.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.microbench.count import run_count
from repro.timely.cost import CostModel


def small_cost():
    return CostModel(workers=4, workers_per_process=2)


def quick_run(**kw):
    kw.setdefault("cost", small_cost())
    kw.setdefault("nominal_keys", 1e6)
    kw.setdefault("scaled_keys", 1 << 10)
    kw.setdefault("rate", 20_000)
    kw.setdefault("n_bins", 32)
    kw.setdefault("duration_s", 1.5)
    kw.setdefault("warmup_s", 0.3)
    kw.setdefault("keep_inputs", True)
    return run_count(**kw)


def assert_counts_correct(run):
    expected = np.bincount(run.input_keys, minlength=len(run.final_counts))
    assert np.array_equal(expected, run.final_counts)


class TestNoMigration:
    def test_native_counts(self):
        assert_counts_correct(quick_run(impl="native"))

    def test_megaphone_counts(self):
        assert_counts_correct(quick_run(impl="megaphone"))

    def test_all_records_processed(self):
        run = quick_run(impl="megaphone")
        assert run.final_counts.sum() == len(run.input_keys)


@pytest.mark.parametrize("strategy", ["all_at_once", "batched", "fluid"])
class TestSingleMigration:
    def test_counts_survive_migration(self, strategy):
        run = quick_run(
            migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": strategy}]
        )
        assert_counts_correct(run)

    def test_migration_completes(self, strategy):
        run = quick_run(
            migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": strategy}]
        )
        rec = run.migrations[0]
        assert rec.completed_s is not None
        assert rec.steps_issued == rec.steps_total
        assert rec.duration_s >= 0

    def test_rebalance_roundtrip(self, strategy):
        run = quick_run(
            duration_s=2.0,
            migrations=[
                {"at_s": 0.5, "moves": "imbalance", "strategy": strategy},
                {"at_s": 1.2, "moves": "rebalance", "strategy": strategy},
            ],
        )
        assert_counts_correct(run)
        assert len([m for m in run.migrations if m.completed_s is not None]) == 2


class TestOptimizedStrategy:
    def test_optimized_counts(self):
        run = quick_run(
            migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": "optimized"}]
        )
        assert_counts_correct(run)

    def test_gap_ticks(self):
        run = quick_run(
            migrations=[
                {
                    "at_s": 0.6,
                    "moves": "imbalance",
                    "strategy": "optimized",
                    "gap_ticks": 2,
                }
            ]
        )
        assert_counts_correct(run)


class TestInitialImbalanced:
    def test_rebalance_from_imbalanced(self):
        run = quick_run(
            initial_imbalanced=True,
            migrations=[{"at_s": 0.6, "moves": "rebalance", "strategy": "batched"}],
        )
        assert_counts_correct(run)


class TestOracle:
    def test_counts_match_duckdb(self, spark):
        """Final megaphone state equals DuckDB's GROUP BY over the input."""
        from repro.oracle import assert_equivalent

        run = quick_run(
            migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": "batched"}]
        )
        got = pd.DataFrame(
            {
                "k": np.nonzero(run.final_counts)[0],
                "cnt": run.final_counts[run.final_counts > 0],
            }
        )
        got["k"] = got["k"].astype("int64")
        got["cnt"] = got["cnt"].astype("int64")
        inp = pd.DataFrame({"k": run.input_keys.astype("int64")})
        spark_df = spark.createDataFrame(got)
        assert_equivalent(
            spark_df,
            "SELECT k, COUNT(*) AS cnt FROM inp GROUP BY k",
            inp=inp,
        )


class TestMigrationSemantics:
    def test_memory_spike_only_for_all_at_once(self):
        runs = {}
        for strat in ["all_at_once", "fluid"]:
            run = quick_run(
                nominal_keys=512e6,
                migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": strat}],
                sample_memory=True,
            )
            samples = np.array([s[1] for s in run.memory_samples])
            start = np.median(samples[:10], axis=0)
            end = np.median(samples[-10:], axis=0)
            overshoot = samples.max(axis=0) - np.maximum(start, end)
            runs[strat] = overshoot.max()
        assert runs["all_at_once"] > 5 * max(runs["fluid"], 1.0)

    def test_all_at_once_single_spike_higher_than_fluid(self):
        recs = {}
        for strat in ["all_at_once", "fluid"]:
            run = quick_run(
                nominal_keys=2048e6,
                migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": strat}],
            )
            recs[strat] = run.migrations[0]
        assert recs["all_at_once"].max_latency_s > recs["fluid"].max_latency_s
        assert recs["fluid"].duration_s > recs["all_at_once"].duration_s

    def test_state_bytes_conserved(self):
        run = quick_run(
            nominal_keys=128e6,
            migrations=[{"at_s": 0.6, "moves": "imbalance", "strategy": "batched"}],
        )
        cost = small_cost()
        total = run.nominal_keys * cost.bytes_per_key("key")
        assert run.sim.state_bytes.sum() == pytest.approx(total, rel=1e-6)


W_RANDOM = 4


@st.composite
def count_moves(draw, bins):
    """A move set over distinct ``bins``, maybe empty: random targets, some
    the bin's owner at startup (bin b starts on worker b mod W)."""
    return [
        (b, b % W_RANDOM if draw(st.booleans()) else draw(st.integers(0, W_RANDOM - 1)))
        for b in draw(st.lists(bins, unique=True))
    ]


@settings(max_examples=15, deadline=None)
@given(
    strategy=st.sampled_from(["all_at_once", "batched", "fluid"]),
    seed=st.integers(0, 10_000),
    n_bins=st.sampled_from([8, 16, 64]),
    data=st.data(),
)
def test_random_migrations_preserve_counts(strategy, seed, n_bins, data):
    """Hypothesis: an arbitrary move set (maybe empty, some moves to the
    bin's current owner), then a second one queued a tick later, while the
    first is active, that moves some of its bins again, never lose or
    duplicate state (Property 1 under Property 2); both migrations complete
    and the run drains (Property 3)."""
    first = data.draw(count_moves(st.integers(0, n_bins - 1)))
    second = data.draw(count_moves(st.sampled_from([b for b, _ in first] or [0])))
    run = run_count(
        cost=CostModel(workers=W_RANDOM, workers_per_process=2),
        nominal_keys=1e6,
        scaled_keys=1 << 10,
        rate=10_000,
        n_bins=n_bins,
        duration_s=1.0,
        warmup_s=0.2,
        keep_inputs=True,
        seed=seed,
        migrations=[
            {"at_s": 0.4, "moves": first, "strategy": strategy},
            {"at_s": 0.401, "moves": second, "strategy": strategy},
        ],
    )
    assert_counts_correct(run)
    assert all(rec.completed_s is not None for rec in run.migrations)
    assert all(op.could_produce is None for op in run.sim.operators)


class TestMigrationQueue:
    def test_migrations_scheduled_out_of_time_order(self):
        """Migrations requested out of time order each run with their own
        plan and record: the earlier one starts first, whatever the call
        order."""
        run = quick_run(
            migrations=[
                {"at_s": 0.9, "moves": "imbalance", "strategy": "fluid"},
                {"at_s": 0.4, "moves": [(1, 0)], "strategy": "all_at_once"},
            ]
        )
        late, early = run.migrations
        assert (late.strategy, late.moves_total, late.steps_issued) == ("fluid", 8, 8)
        assert (early.strategy, early.moves_total, early.steps_issued) == (
            "all_at_once",
            1,
            1,
        )
        assert early.completed_s <= late.started_s
        assert 0.4 <= early.started_s < 0.9 <= late.started_s
        assert_counts_correct(run)
