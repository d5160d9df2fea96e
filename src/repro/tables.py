"""The reproduced tables (EXPERIMENTS.md) as data, and their markdown.

``TABLES`` maps each table's key to its title, its columns and its points.
A point is a picklable pair ``(fn, kwargs)`` of a module-level function and
its keyword arguments; ``fn(**kwargs)`` returns the point's rows, and a
table's rows are its points' rows in order. ``points(quick)`` gives the
full parameters or, with ``quick``, scaled-down smoke-run ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.microbench.migration import (
    STRATEGIES,
    memory_row,
    migration_row,
    throughput_row,
)
from repro.microbench.overhead import PAPER_LOG_BINS, overhead_row
from repro.nexmark.bench import QUERIES, nexmark_row
from repro.nexmark.loc import loc_table
from repro.spark_engine.experiment import spark_rows

Point = tuple[Callable[..., list[dict]], dict]


def fmt(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.2f}"
    return str(v)


def markdown_table(rows: list[dict], columns: Optional[list[str]] = None) -> str:
    """Render a list of dict rows as a GitHub-flavoured markdown table."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(fmt(r.get(c)) for c in cols) + " |")
    return "\n".join(out)


@dataclass(frozen=True)
class Table:
    title: str
    columns: list[str]
    points: Callable[[bool], list[Point]]


def _overhead(flavour: str, nominal_keys: float) -> Callable[[bool], list[Point]]:
    """Figs 13b-15b: one Megaphone row per log bin count, then Native."""

    def points(quick: bool) -> list[Point]:
        duration_s = 1.5 if quick else 5.0
        run = dict(
            flavour=flavour,
            nominal_keys=nominal_keys,
            rate=1e6 if quick else 4e6,
            duration_s=duration_s,
            warmup_s=min(1.0, duration_s / 4),
        )
        return [
            (overhead_row, dict(run, impl="megaphone", log_bins=lb))
            for lb in ([8, 12, 16, 20] if quick else PAPER_LOG_BINS)
        ] + [(overhead_row, dict(run, impl="native", log_bins=None))]

    return points


OVERHEAD_COLUMNS = ["experiment", "p90_ms", "p99_ms", "p9999_ms", "max_ms"]
MIGRATION_COLUMNS = ["strategy", "duration_s", "max_latency_ms", "steps", "moves"]

TABLES: dict[str, Table] = {
    "table1": Table(
        "Table 1: NEXMark query implementations, lines of code",
        ["query", "native_loc", "megaphone_loc", "paper_native", "paper_megaphone"],
        lambda quick: [(loc_table, {})],
    ),
    "fig1": Table(
        "Fig 1: migrating 1e9 keys / 8 GB of state, strategy comparison",
        MIGRATION_COLUMNS,
        # "optimized" is batched with bipartite-matched non-interfering
        # rounds and a drain gap (paper §4.4)
        lambda quick: [
            (
                migration_row,
                dict(
                    nominal_keys=1e9,
                    n_bins=512 if quick else 4096,
                    strategy=strategy,
                    rate=1e6,
                    **extra,
                ),
            )
            for strategy, extra in [
                ("all_at_once", {}),
                ("fluid", {}),
                ("optimized", {"gap_ticks": 2}),
            ]
        ],
    ),
    "fig13b": Table(
        "Fig 13b: hash-count overhead (256e6 keys, 4e6 rec/s), latency ms",
        OVERHEAD_COLUMNS,
        _overhead("hash", 256e6),
    ),
    "fig14b": Table(
        "Fig 14b: key-count overhead (256e6 keys, 4e6 rec/s), latency ms",
        OVERHEAD_COLUMNS,
        _overhead("key", 256e6),
    ),
    "fig15b": Table(
        "Fig 15b: key-count overhead (8192e6 keys, 4e6 rec/s), latency ms",
        OVERHEAD_COLUMNS,
        _overhead("key", 8192e6),
    ),
    "fig16": Table(
        "Fig 16: key-count migration latency vs duration, varying bin count (4096e6 keys)",
        ["log_bins"] + MIGRATION_COLUMNS,
        lambda quick: [
            (
                migration_row,
                dict(nominal_keys=4096e6, n_bins=2**lb, strategy=strategy, rate=1e6),
            )
            for lb in ([6, 10] if quick else [4, 6, 8, 10, 12, 14])
            for strategy in STRATEGIES
        ],
    ),
    "fig17": Table(
        "Fig 17: key-count migration latency vs duration, varying domain (4096 bins)",
        ["nominal_keys"] + MIGRATION_COLUMNS,
        lambda quick: [
            (
                migration_row,
                dict(nominal_keys=nk, n_bins=4096, strategy=strategy, rate=1e6),
            )
            for nk in (
                [256e6, 2048e6]
                if quick
                else [256e6, 512e6, 1024e6, 2048e6, 4096e6, 8192e6]
            )
            for strategy in STRATEGIES
        ],
    ),
    "fig18": Table(
        "Fig 18: key-count migration, keys & bins proportional (4e6 keys/bin)",
        ["nominal_keys", "n_bins", "strategy", "duration_s", "max_latency_ms"],
        # every domain is a power of two times 4e6 keys, so the bin count is
        # a power of two; batched moves a fixed 8 bins per step, so that
        # every step moves the same state
        lambda quick: [
            (
                migration_row,
                dict(
                    nominal_keys=nk,
                    n_bins=int(nk / 4e6),
                    strategy=strategy,
                    rate=1e6,
                    batch_size=8 if strategy == "batched" else None,
                ),
            )
            for nk in (
                [256e6, 4096e6]
                if quick
                else [256e6, 1024e6, 4096e6, 16384e6, 32768e6]
            )
            for strategy in STRATEGIES
        ],
    ),
    "fig19": Table(
        "Fig 19: offered load vs max latency (16384e6 keys, 4096 bins)",
        ["rate", "strategy", "max_latency_ms", "duration_s"],
        lambda quick: [
            (
                throughput_row,
                dict(nominal_keys=16384e6, n_bins=4096, rate=rate, strategy=strategy),
            )
            for rate in ([1e6, 16e6] if quick else [250e3, 1e6, 4e6, 16e6, 32e6])
            for strategy in ["none"] + STRATEGIES
        ],
    ),
    "fig20": Table(
        "Fig 20: memory per process during key-count migration (16e9 keys)",
        ["strategy", "steady_gib", "peak_gib", "extra_gib", "duration_s"],
        lambda quick: [
            (
                memory_row,
                dict(
                    nominal_keys=2e9 if quick else 16e9,
                    n_bins=1024 if quick else 4096,
                    strategy=strategy,
                    rate=1e6,
                ),
            )
            for strategy in STRATEGIES
        ],
    ),
    "nexmark": Table(
        "Figs 5-12: NEXMark migration, all-at-once vs batched (scaled stream)",
        [
            "query",
            "steady_p99_ms",
            "all_at_once_max_ms",
            "batched_max_ms",
            "all_at_once_duration_s",
            "batched_duration_s",
        ],
        lambda quick: [
            (
                nexmark_row,
                dict(
                    query=q,
                    n_events=30_000 if quick else 120_000,
                    rate_per_s=10_000,
                    n_bins=256 if quick else 1024,
                    migrate_at_s=2.0 if quick else 8.0,
                ),
            )
            for q in (["q1", "q4"] if quick else QUERIES)
        ],
    ),
    # one point: the three strategies share one session and its warm-up
    "spark": Table(
        "Spark engine: micro-batch latency during migration (real shuffles)",
        [
            "strategy",
            "baseline_batch_s",
            "peak_batch_s",
            "spike_s",
            "total_migration_s",
            "migration_batches",
            "moved_rows",
        ],
        lambda quick: [
            (
                spark_rows,
                dict(
                    n_keys=50_000 if quick else 2_000_000,
                    batch_records=20_000 if quick else 200_000,
                    migrate_at_batch=3 if quick else 6,
                    tail_batches=2 if quick else 4,
                ),
            )
        ],
    ),
}
