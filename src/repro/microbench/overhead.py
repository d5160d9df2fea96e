"""§5.2 — Overhead of the interface (Figs 13b/14b/15b percentile tables).

Compares Megaphone's stateful operator at geometrically increasing bin
counts against the native timely operator, with no migration occurring.
Rows report the 90/99/99.99 percentiles and maximum of per-record latency in
milliseconds, exactly as the paper's tables.
"""
from __future__ import annotations

from typing import Optional

from repro.latency.histogram import percentile_table
from repro.microbench.count import run_count
from repro.timely.cost import CostModel

PAPER_LOG_BINS = [4, 6, 8, 10, 12, 14, 16, 18, 20]


def overhead_row(
    *,
    flavour: str,
    impl: str,
    log_bins: Optional[int],
    nominal_keys: float,
    rate: float = 4e6,
    duration_s: float = 5.0,
    warmup_s: float = 1.0,
    cost: Optional[CostModel] = None,
) -> list[dict]:
    """One row of a Fig 13b/14b/15b-style table (``log_bins=None`` with
    ``impl="native"``)."""
    n_bins = 2**log_bins if log_bins is not None else 16
    run = run_count(
        impl=impl,
        flavour=flavour,
        nominal_keys=nominal_keys,
        rate=rate,
        n_bins=n_bins,
        duration_s=duration_s,
        warmup_s=warmup_s,
        cost=cost,
    )
    row = {"experiment": "Native" if impl == "native" else str(log_bins)}
    row.update(percentile_table(run.steady))
    row["records"] = run.steady.total
    return [row]

