"""§5.3 — Migration micro-benchmarks (Figs 1, 16, 17, 18, 19, 20).

Every experiment runs the key-count workload from the imbalanced
configuration (the state after the paper's first migration) and performs the
reported *rebalancing* migration, summarising it by its **duration** and the
**maximum service latency** observed during it — the two axes of the paper's
latency-vs-duration scatter plots.
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
    flavour: str = "key",
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
    seed: int = 7,
    drain: bool = True,
    completion_timeout_s: float = 600.0,
    strict_completion: bool = True,
):
    """Run one rebalancing migration; return (CountRun, MigrationRecord)."""
    run = run_count(
        impl="megaphone",
        flavour=flavour,
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
        seed=seed,
        initial_imbalanced=True,
        drain=drain,
        completion_timeout_s=completion_timeout_s,
        strict_completion=strict_completion,
    )
    return run, run.migrations[0]


def _row(run, rec, **extra) -> dict:
    row = {
        "strategy": rec.strategy,
        "duration_s": rec.duration_s,
        "max_latency_ms": rec.max_latency_s * 1e3,
        "steps": rec.steps_total,
        "moves": rec.moves_total,
    }
    row.update(extra)
    return row


def migration_sweep_bins(
    *,
    nominal_keys: float = 4096e6,
    log_bins: Optional[list[int]] = None,
    rate: float = 4e6,
    strategies: Optional[list[str]] = None,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 16: vary the bin count at a fixed domain."""
    rows = []
    for lb in log_bins or [4, 6, 8, 10, 12, 14]:
        for strat in strategies or STRATEGIES:
            run, rec = migrate_once(
                nominal_keys=nominal_keys,
                n_bins=2**lb,
                strategy=strat,
                rate=rate,
                cost=cost,
            )
            rows.append(_row(run, rec, log_bins=lb, nominal_keys=nominal_keys))
    return rows


def migration_sweep_keys(
    *,
    nominal_keys_list: Optional[list[float]] = None,
    n_bins: int = 4096,
    rate: float = 4e6,
    strategies: Optional[list[str]] = None,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 17: vary the domain size at a fixed bin count."""
    rows = []
    for nk in nominal_keys_list or [256e6, 512e6, 1024e6, 2048e6, 4096e6, 8192e6]:
        for strat in strategies or STRATEGIES:
            run, rec = migrate_once(
                nominal_keys=nk, n_bins=n_bins, strategy=strat, rate=rate, cost=cost
            )
            rows.append(_row(run, rec, nominal_keys=nk, n_bins=n_bins))
    return rows


def migration_sweep_proportional(
    *,
    keys_per_bin: float = 4e6,
    nominal_keys_list: Optional[list[float]] = None,
    rate: float = 4e6,
    strategies: Optional[list[str]] = None,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 18: domain and bin count grow together (fixed state per bin)."""
    rows = []
    for nk in nominal_keys_list or [256e6, 1024e6, 4096e6, 16384e6, 32768e6]:
        n_bins = int(nk / keys_per_bin)
        n_bins = max(16, 1 << (n_bins - 1).bit_length())  # next power of two
        for strat in strategies or STRATEGIES:
            run, rec = migrate_once(
                nominal_keys=nk,
                n_bins=n_bins,
                strategy=strat,
                rate=rate,
                cost=cost,
                # fixed batch *size* keeps per-step state constant, which is
                # the point of this experiment (fixed migration granularity)
                batch_size=8 if strat == "batched" else None,
            )
            rows.append(_row(run, rec, nominal_keys=nk, n_bins=n_bins))
    return rows


def throughput_sweep(
    *,
    nominal_keys: float = 16384e6,
    n_bins: int = 4096,
    rates: Optional[list[float]] = None,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 19: offered load vs max latency, steady-state and per strategy."""
    rows = []
    for rate in rates or [250e3, 1e6, 4e6, 16e6, 32e6]:
        steady = run_count(
            impl="megaphone",
            flavour="key",
            nominal_keys=nominal_keys,
            n_bins=n_bins,
            rate=rate,
            duration_s=3.0,
            warmup_s=0.5,
            cost=cost,
            initial_imbalanced=True,
            drain=False,
        )
        rows.append(
            {
                "rate": rate,
                "strategy": "none",
                "max_latency_ms": steady.steady.max * 1e3,
                "duration_s": None,
            }
        )
        for strat in STRATEGIES:
            # under overload (the top rate) the migration cannot complete in
            # bounded time — the paper's point is exactly that latency
            # explodes there, so cap the wait and report what was observed
            run, rec = migrate_once(
                nominal_keys=nominal_keys,
                n_bins=n_bins,
                strategy=strat,
                rate=rate,
                cost=cost,
                drain=False,
                completion_timeout_s=20.0,
                strict_completion=False,
            )
            max_lat = rec.max_latency_s or run.latency.max
            rows.append(
                {
                    "rate": rate,
                    "strategy": strat,
                    "max_latency_ms": max_lat * 1e3,
                    "duration_s": rec.duration_s,
                }
            )
    return rows


def memory_experiment(
    *,
    nominal_keys: float = 16e9,
    n_bins: int = 4096,
    rate: float = 1e6,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 20: per-process resident memory over time per strategy.

    Modelled RSS = base + state bytes + serialised bytes queued on the NIC;
    the table reports steady-state and migration-peak GiB of process 0's
    *counterpart sender* (the process sending the most, as the paper's Fig 20
    shows the first timely process).
    """
    rows = []
    for strat in STRATEGIES:
        run, rec = migrate_once(
            flavour="key",
            nominal_keys=nominal_keys,
            n_bins=n_bins,
            strategy=strat,
            rate=rate,
            cost=cost,
            sample_memory=True,
        )
        samples = np.array([s[1] for s in run.memory_samples])  # (ticks, procs)
        per_proc_gib = samples / 2**30 + BASE_GIB_PER_PROCESS
        head = max(1, len(per_proc_gib) // 10)
        start = np.median(per_proc_gib[:head], axis=0)
        end = np.median(per_proc_gib[-head:], axis=0)
        peak = per_proc_gib.max(axis=0)
        # transient overshoot: peak above both the pre- and post-migration
        # resident level (relocated state is not an allocation spike)
        overshoot = peak - np.maximum(start, end)
        rows.append(
            {
                "strategy": strat,
                "steady_gib": float(start.max()),
                "peak_gib": float(peak.max()),
                "extra_gib": float(overshoot.max()),
                "duration_s": rec.duration_s,
            }
        )
    return rows


def headline_comparison(
    *,
    nominal_keys: float = 1e9,
    n_bins: int = 4096,
    rate: float = 1e6,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """Fig 1: one billion keys / 8 GB of state, three strategies.

    "optimized" is batched with bipartite-matched non-interfering rounds and
    a drain gap (paper §4.4).
    """
    rows = []
    for strat, kwargs in [
        ("all_at_once", {}),
        ("fluid", {}),
        ("optimized", {"gap_ticks": 2}),
    ]:
        run, rec = migrate_once(
            nominal_keys=nominal_keys,
            n_bins=n_bins,
            strategy=strat,
            rate=rate,
            cost=cost,
            **kwargs,
        )
        rows.append(_row(run, rec, nominal_keys=nominal_keys))
    return rows
