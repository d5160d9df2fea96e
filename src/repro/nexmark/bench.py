"""NEXMark migration experiment (Figs 5–12, summarised as a table).

One row per query: replay the stream under load, keep a steady-state
latency window, then perform the paper's rebalancing migration, once with
the all-at-once and once with the batched strategy, and report steady p99
plus the maximum latency observed during each migration. The paper runs
4x10^6 events/s for 800 s with 2^12 bins; we replay a scaled stream
(rate/duration documented in EXPERIMENTS.md) — the comparison of interest
is the ratio between the two strategies' spikes per query, and its growth
with the query's state size.
"""
from __future__ import annotations

from repro.nexmark.stream import run_nexmark

QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"]


def nexmark_row(
    *,
    query: str,
    n_events: int,
    rate_per_s: float,
    n_bins: int,
    migrate_at_s: float,
) -> list[dict]:
    row = {"query": query.upper()}
    for strategy in ["all_at_once", "batched"]:
        r = run_nexmark(
            query=query,
            impl="megaphone",
            n_events=n_events,
            rate_per_s=rate_per_s,
            n_bins=n_bins,
            state_scale=20_000.0,
            migrations=[
                {"at_s": migrate_at_s, "moves": "imbalance", "strategy": strategy}
            ],
        )
        rec = r.migrations[0]
        row[f"{strategy}_max_ms"] = rec.max_latency_s * 1e3
        row[f"{strategy}_duration_s"] = rec.duration_s
        row["steady_p99_ms"] = r.steady.percentile(99) * 1e3
    return [row]
