"""Streaming NEXMark (native + Megaphone on the simulated runtime) checked
against DuckDB ground truth — including runs that migrate state mid-query,
which must not change any result (Property 1)."""
from collections import Counter
from functools import cache

import duckdb
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nexmark.generator import nexmark_events, split_events
from repro.nexmark.stream import run_nexmark

N_EVENTS = 30_000
SEED = 5

CLOSED_SQL = """
    SELECT a.id AS aid, a.seller, a.category, a.expires_ms, MAX(b.price) AS fp
    FROM bids b JOIN auctions a ON b.auction = a.id
    WHERE b.ts_ms >= a.ts_ms AND b.ts_ms < a.expires_ms
    GROUP BY 1, 2, 3, 4
"""


@pytest.fixture(scope="module")
def oracle():
    events = nexmark_events(N_EVENTS, rate_per_s=10_000, seed=SEED)
    p, a, b = split_events(events)
    con = duckdb.connect()
    con.register("persons", p)
    con.register("auctions", a)
    con.register("bids", b)
    yield con
    con.close()


def run(query, impl, migrations=None):
    return run_nexmark(
        query=query,
        impl=impl,
        n_events=N_EVENTS,
        rate_per_s=10_000,
        n_bins=256,
        seed=SEED,
        migrations=migrations,
    )


MIGRATION = [{"at_s": 1.0, "moves": "imbalance", "strategy": "batched"}]

CASES = [("native", None), ("megaphone", None), ("megaphone", MIGRATION)]
IDS = ["native", "megaphone", "megaphone-migrating"]


@pytest.mark.parametrize("impl,mig", CASES, ids=IDS)
class TestStreamingQueries:
    def test_q1(self, oracle, impl, mig):
        r = run("q1", impl, mig)
        cnt = sum(c for _, c, _ in r.results)
        tot = sum(s for _, _, s in r.results)
        expc, expt = oracle.execute(
            "SELECT COUNT(*), SUM(price * 0.908) FROM bids"
        ).fetchone()
        assert cnt == expc
        assert tot == pytest.approx(expt, abs=1e-4)

    def test_q2(self, oracle, impl, mig):
        r = run("q2", impl, mig)
        exp = [
            (int(x), float(y))
            for x, y in oracle.execute(
                "SELECT auction, price FROM bids WHERE auction % 123 = 0"
            ).fetchall()
        ]
        assert sorted(r.results) == sorted(exp)

    def test_q3(self, oracle, impl, mig):
        r = run("q3", impl, mig)
        exp = oracle.execute(
            """
            SELECT p.id, a.id FROM persons p JOIN auctions a ON p.id = a.seller
            WHERE p.state IN ('OR','ID','CA') AND a.category = 7
            """
        ).fetchall()
        assert sorted(r.results) == sorted((int(x), int(y)) for x, y in exp)

    def test_q4(self, oracle, impl, mig):
        r = run("q4", impl, mig)
        sums = {}
        for cat, price in r.results:
            s, c = sums.get(cat, (0.0, 0))
            sums[cat] = (s + price, c + 1)
        got = sorted((k, round(s / c, 6)) for k, (s, c) in sums.items())
        exp = oracle.execute(
            f"WITH c AS ({CLOSED_SQL}) "
            "SELECT category, AVG(fp) FROM c GROUP BY 1 ORDER BY 1"
        ).fetchall()
        assert got == [(int(k), round(float(v), 6)) for k, v in exp]

    def test_q5(self, oracle, impl, mig):
        r = run("q5", impl, mig)
        counts = {}
        for w, auc, c in r.results:
            counts[(w, auc)] = counts.get((w, auc), 0) + c
        best = {}
        for (w, auc), c in counts.items():
            cur = best.setdefault(w, [set(), 0])
            if c > cur[1]:
                best[w] = [{auc}, c]
            elif c == cur[1]:
                cur[0].add(auc)
        got = sorted((w, a, c[1]) for w, c in best.items() for a in c[0])
        exp = oracle.execute(
            """
            WITH hopped AS (
              SELECT unnest(generate_series(ts_ms//2000, ts_ms//2000+4)) AS w,
                     auction FROM bids),
            counts AS (SELECT w, auction, COUNT(*) cnt FROM hopped GROUP BY 1,2),
            mx AS (SELECT w, MAX(cnt) m FROM counts GROUP BY 1)
            SELECT counts.w, auction, cnt
            FROM counts JOIN mx ON counts.w = mx.w AND cnt = m
            """
        ).fetchall()
        assert got == sorted((int(w), int(a), int(c)) for w, a, c in exp)

    def test_q6(self, oracle, impl, mig):
        r = run("q6", impl, mig)
        got = sorted(
            (s, round(v, 6)) for lg in r.logics for s, v in lg.final_results()
        )
        exp = oracle.execute(
            f"""
            WITH c AS ({CLOSED_SQL}),
            r AS (SELECT seller, fp, ROW_NUMBER() OVER (
                      PARTITION BY seller
                      ORDER BY expires_ms DESC, aid DESC) rn FROM c)
            SELECT seller, AVG(fp) FROM r WHERE rn <= 10 GROUP BY 1
            """
        ).fetchall()
        assert got == sorted((int(s), round(float(v), 6)) for s, v in exp)

    def test_q7(self, oracle, impl, mig):
        r = run("q7", impl, mig)
        exp = oracle.execute(
            "SELECT ts_ms // 10000, MAX(price) FROM bids GROUP BY 1"
        ).fetchall()
        assert sorted(r.results) == sorted((int(w), float(p)) for w, p in exp)

    def test_q8(self, oracle, impl, mig):
        r = run("q8", impl, mig)
        exp = oracle.execute(
            """
            SELECT DISTINCT p.id, p.ts_ms // 20000
            FROM persons p JOIN auctions a
              ON p.id = a.seller AND p.ts_ms // 20000 = a.ts_ms // 20000
            """
        ).fetchall()
        assert sorted(r.results) == sorted((int(p), int(w)) for p, w in exp)


class TestMigrationBehaviour:
    def test_migration_completes_for_stateful_query(self):
        r = run("q4", "megaphone", MIGRATION)
        rec = r.migrations[0]
        assert rec.completed_s is not None
        assert rec.duration_s >= 0

    def test_stateless_query_migration_has_tiny_spike(self):
        r1 = run("q1", "megaphone", MIGRATION)
        r4 = run("q4", "megaphone", MIGRATION)
        # Q1 has no state: migration spike dominated by noise; Q4's spike
        # reflects real state movement (paper Figs 5 vs 8)
        assert r1.migrations[0].max_latency_s <= r4.migrations[0].max_latency_s * 2

    def test_native_rejects_migration(self):
        with pytest.raises(AssertionError):
            run("q3", "native", MIGRATION)


ADV_EVENTS, ADV_BINS, ADV_W = 6_000, 64, 8


def adversarial_run(query, migrations=None):
    """Q4 or Q5 over 6k events (0.6 s) on Megaphone. Their timers stay
    pending until the input closes, so every moved bin carries some."""
    return run_nexmark(
        query=query,
        impl="megaphone",
        n_events=ADV_EVENTS,
        rate_per_s=10_000,
        n_bins=ADV_BINS,
        seed=SEED,
        migrations=migrations,
    )


@cache
def unmigrated_results(query):
    return Counter(adversarial_run(query).results)


@st.composite
def moves(draw, bins=st.integers(0, ADV_BINS - 1)):
    """A move set, maybe empty: random targets, some the current owner."""
    return [
        (b, b % ADV_W if draw(st.booleans()) else draw(st.integers(0, ADV_W - 1)))
        for b in draw(st.lists(bins, max_size=12, unique=True))
    ]


@settings(max_examples=10, deadline=None)
@given(
    query=st.sampled_from(["q4", "q5"]),
    strategy=st.sampled_from(["all_at_once", "batched", "fluid"]),
    at_s=st.floats(0.05, 0.4),
    first=moves(),
    data=st.data(),
)
def test_adversarial_plans_keep_results(query, strategy, at_s, first, data):
    """A random plan, then a second one queued a tick later, while the
    first is active, that moves some of its bins again: the results equal
    the unmigrated run's as multisets, both migrations complete and the
    run drains (Property 3, asserted by the run)."""
    second = data.draw(moves(st.sampled_from([b for b, _ in first] or [0])))
    r = adversarial_run(
        query,
        [
            {"at_s": at_s, "moves": first, "strategy": strategy},
            {"at_s": at_s + 0.001, "moves": second, "strategy": strategy},
        ],
    )
    assert Counter(r.results) == unmigrated_results(query)
    assert all(rec.completed_s is not None for rec in r.migrations)
