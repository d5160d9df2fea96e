"""§5.3 — Migration micro-benchmarks (Figs 1, 16, 17, 18, 19, 20).

Every experiment runs the key-count workload from the imbalanced
configuration (the state after the paper's first migration) and performs the
reported *rebalancing* migration, summarising it by its **duration** and the
**maximum service latency** observed during it — the two axes of the paper's
latency-vs-duration scatter plots. Each ``*_row`` function runs one point of
a table in ``repro.tables`` and returns its rows.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.microbench.count import run_count
from repro.timely.cost import CostModel

STRATEGIES = ["all_at_once", "batched", "fluid"]
# Fig 20: a timely process's resident memory before any operator state
BASE_GIB_PER_PROCESS = 3.0


def migrate_once(
    *,
    nominal_keys: float,
    n_bins: int,
    strategy: str,
    rate: float = 4e6,
    batch_size: Optional[int] = None,
    gap_ticks: int = 0,
    warmup_s: float = 1.0,
    post_s: float = 1.0,
    cost: Optional[CostModel] = None,
    sample_memory: bool = False,
    drain: bool = True,
    completion_timeout_s: float = 600.0,
    strict_completion: bool = True,
):
    """Run one rebalancing migration; return (CountRun, MigrationRecord)."""
    run = run_count(
        nominal_keys=nominal_keys,
        rate=rate,
        n_bins=n_bins,
        duration_s=warmup_s + post_s,
        warmup_s=min(warmup_s, 0.5),
        migrations=[
            {
                "at_s": warmup_s,
                "moves": "rebalance",
                "strategy": strategy,
                "batch_size": batch_size,
                "gap_ticks": gap_ticks,
            }
        ],
        cost=cost,
        sample_memory=sample_memory,
        initial_imbalanced=True,
        drain=drain,
        completion_timeout_s=completion_timeout_s,
        strict_completion=strict_completion,
    )
    return run, run.migrations[0]


def migration_row(**kwargs) -> list[dict]:
    """Figs 1, 16, 17, 18: one :func:`migrate_once` run as a row."""
    _, rec = migrate_once(**kwargs)
    n_bins = kwargs["n_bins"]
    return [
        {
            "nominal_keys": kwargs["nominal_keys"],
            "n_bins": n_bins,
            "log_bins": n_bins.bit_length() - 1,
            "strategy": rec.strategy,
            "duration_s": rec.duration_s,
            "max_latency_ms": rec.max_latency_s * 1e3,
            "steps": rec.steps_total,
            "moves": rec.moves_total,
        }
    ]


def throughput_row(
    *, nominal_keys: float, n_bins: int, rate: float, strategy: str
) -> list[dict]:
    """Fig 19: max latency at one offered load, steady (``strategy="none"``)
    or during a migration."""
    if strategy == "none":
        steady = run_count(
            nominal_keys=nominal_keys,
            n_bins=n_bins,
            rate=rate,
            duration_s=3.0,
            warmup_s=0.5,
            initial_imbalanced=True,
            drain=False,
        )
        max_lat, duration_s = steady.steady.max, None
    else:
        # under overload (the top rate) the migration cannot complete in
        # bounded time — the paper's point is exactly that latency explodes
        # there, so cap the wait at 20 s and report what was observed. The
        # cap also cuts fluid short at every rate: at 16384e6 keys and 4096
        # bins it needs ~57 s (Fig 18), so its duration reads None.
        run, rec = migrate_once(
            nominal_keys=nominal_keys,
            n_bins=n_bins,
            strategy=strategy,
            rate=rate,
            drain=False,
            completion_timeout_s=20.0,
            strict_completion=False,
        )
        max_lat, duration_s = rec.max_latency_s or run.latency.max, rec.duration_s
    return [
        {
            "rate": rate,
            "strategy": strategy,
            "max_latency_ms": max_lat * 1e3,
            "duration_s": duration_s,
        }
    ]


def memory_row(**kwargs) -> list[dict]:
    """Fig 20: per-process resident memory during one :func:`migrate_once`.

    Modelled RSS = base + state bytes + serialised bytes queued on the NIC.
    Each column is maximised over the processes: steady-state GiB, the
    migration peak, and the peak's overshoot above both the pre- and
    post-migration level (the paper's Fig 20 shows the first timely
    process, the one sending the most).
    """
    run, rec = migrate_once(sample_memory=True, **kwargs)
    samples = np.array([s[1] for s in run.memory_samples])  # (ticks, procs)
    per_proc_gib = samples / 2**30 + BASE_GIB_PER_PROCESS
    head = max(1, len(per_proc_gib) // 10)
    start = np.median(per_proc_gib[:head], axis=0)
    end = np.median(per_proc_gib[-head:], axis=0)
    peak = per_proc_gib.max(axis=0)
    # transient overshoot: peak above both the pre- and post-migration
    # resident level (relocated state is not an allocation spike)
    overshoot = peak - np.maximum(start, end)
    return [
        {
            "strategy": rec.strategy,
            "steady_gib": float(start.max()),
            "peak_gib": float(peak.max()),
            "extra_gib": float(overshoot.max()),
            "duration_s": rec.duration_s,
        }
    ]
