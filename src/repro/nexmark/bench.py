"""NEXMark migration experiment (Figs 5–12, summarised as a table).

For each query, replay the stream under load, keep a steady-state latency
window, then perform the paper's rebalancing migration with the all-at-once
and batched strategies and report steady p99 plus the maximum latency
observed during each migration. The paper runs 4x10^6 events/s for 800 s
with 2^12 bins; we replay a scaled stream (rate/duration documented in
EXPERIMENTS.md) — the comparison of interest is the ratio between the two
strategies' spikes per query, and its growth with the query's state size.
"""
from __future__ import annotations

from typing import Optional

from repro.nexmark.stream import run_nexmark

QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"]


def nexmark_migration_table(
    *,
    queries: Optional[list[str]] = None,
    n_events: int = 60_000,
    rate_per_s: float = 10_000.0,
    n_bins: int = 1024,
    migrate_at_s: float = 3.0,
) -> list[dict]:
    rows = []
    for q in queries or QUERIES:
        row = {"query": q.upper()}
        for strategy in ["all_at_once", "batched"]:
            r = run_nexmark(
                query=q,
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
        rows.append(row)
    return rows
