"""The paper's counting microbenchmark (§5.2–§5.3).

A stream of random integer identifiers is drawn uniformly from a domain of
``nominal_keys``; the query maintains the cumulative occurrence count per
identifier. Two flavours exist:

* ``hash`` — HashMap-backed bins ("hash count");
* ``key``  — dense-array bins ("key count").

Both flavours store counts in dense numpy arrays here; the flavour selects
the calibrated per-record/byte cost constants (HashMap probing vs array
indexing, 64 B vs 8 B per key). The *nominal* domain drives costs and state
sizes; the *actual* in-memory domain is scaled down (``scaled_keys``) so that
runs stay laptop-sized while counts remain real and oracle-checkable
(substitution documented in DESIGN.md).

Each run pre-loads the nominal state footprint (the paper pre-loads one
instance of each key), runs an open-loop input at ``rate`` records/s, and
optionally performs timed migrations via :class:`MigrationDriver`.
"""
from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.binning import range_bin_bounds, range_bin_of_keys
from repro.core.harness import run_open_loop
from repro.core.operators import StateLogic
from repro.core.strategies import MigrationRecord, initial_assignment, migration_moves
from repro.latency.histogram import LatencyHistogram
from repro.timely.cost import CostModel
from repro.timely.engine import Simulation


def untouched_zeros(n: int) -> np.ndarray:
    """``n`` int64 zeros in a private anonymous mapping of their own.

    A worker writes only the pages of the bins it owns, and only those
    become resident, however many runs came before. ``np.zeros`` gives no
    such bound: once an earlier run's freed arrays sit in the C heap,
    ``calloc`` serves the array from there and clears, so makes resident,
    every page (each of 16 workers then holds the whole key range)."""
    return np.frombuffer(mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE), dtype=np.int64)


class CountLogic(StateLogic):
    """Dense per-key counts for one worker, range-partitioned into bins."""

    def __init__(
        self,
        worker: int,
        *,
        scaled_keys: int,
        n_bins: int,
        bin_nbytes: float,
        assignment: np.ndarray,
    ):
        self.worker = worker
        self.scaled_keys = scaled_keys
        self.n_bins = n_bins
        self.bin_nbytes = bin_nbytes
        self.counts = untouched_zeros(scaled_keys)
        self.owned = {int(b) for b in np.nonzero(assignment == worker)[0]}

    def apply(self, time: int, data) -> None:
        np.add.at(self.counts, data["k"], 1)

    def extract_bin(self, b: int):
        lo, hi = range_bin_bounds(b, self.n_bins, self.scaled_keys)
        payload = self.counts[lo:hi].copy()
        self.counts[lo:hi] = 0
        self.owned.discard(b)
        return payload, self.bin_nbytes

    def install_bin(self, b: int, payload, nbytes: float) -> None:
        lo, hi = range_bin_bounds(b, self.n_bins, self.scaled_keys)
        self.counts[lo:hi] += payload
        self.owned.add(b)

    def owned_bins(self) -> int:
        return len(self.owned)


class NativeCountLogic(StateLogic):
    """Baseline: per-worker dense counts, no bins (not migrateable)."""

    def __init__(self, worker: int, scaled_keys: int):
        self.counts = untouched_zeros(scaled_keys)

    def apply(self, time: int, data) -> None:
        np.add.at(self.counts, data["k"], 1)


@dataclass
class CountRun:
    """Result of one counting run."""

    nominal_keys: float
    n_bins: int
    latency: LatencyHistogram
    steady: LatencyHistogram
    migrations: list[MigrationRecord]
    memory_samples: list
    final_counts: Optional[np.ndarray] = None
    input_keys: Optional[np.ndarray] = None
    sim: Optional[Simulation] = None


def run_count(
    *,
    impl: str = "megaphone",
    flavour: str = "key",
    nominal_keys: float = 256e6,
    scaled_keys: Optional[int] = None,
    rate: float = 4e6,
    n_bins: int = 4096,
    duration_s: float = 5.0,
    warmup_s: float = 1.0,
    migrations: Optional[list[dict]] = None,
    cost: Optional[CostModel] = None,
    seed: int = 7,
    sample_memory: bool = False,
    keep_inputs: bool = False,
    drain: bool = True,
    initial_imbalanced: bool = False,
    completion_timeout_s: float = 600.0,
    strict_completion: bool = True,
) -> CountRun:
    """Run the counting benchmark on :func:`run_open_loop` (which documents
    ``migrations`` and the steady-state window)."""
    cost = cost or CostModel()
    sim = Simulation(cost)
    sim.sample_memory = sample_memory
    W = cost.workers
    if scaled_keys is None:
        scaled_keys = int(min(nominal_keys, 1 << 20))
    scaled_keys = max(scaled_keys, n_bins)
    bin_nbytes = nominal_keys / n_bins * cost.bytes_per_key(flavour)
    c_record = cost.record_cost(flavour, impl, nominal_keys)

    assign = initial_assignment(n_bins, W)
    if initial_imbalanced:
        # start from the post-first-migration (imbalanced) configuration, so
        # a "rebalance" migration reproduces the paper's reported *second*
        # migration without paying for simulating the first
        for b, w in migration_moves(n_bins, W):
            assign[b] = w
    logics: list[StateLogic] = []
    if impl == "megaphone":
        # pre-loaded nominal state footprint, per process
        for b in range(n_bins):
            sim.state_bytes[cost.process_of(int(assign[b]))] += bin_nbytes
    else:
        sim.state_bytes[:] = (
            nominal_keys * cost.bytes_per_key(flavour) / cost.processes
        )

    def make_logic(w: int) -> StateLogic:
        if impl == "megaphone":
            lg = CountLogic(
                w,
                scaled_keys=scaled_keys,
                n_bins=n_bins,
                bin_nbytes=bin_nbytes,
                assignment=assign,
            )
        else:
            lg = NativeCountLogic(w, scaled_keys)
        logics.append(lg)
        return lg

    rng = np.random.default_rng(seed)
    all_keys: list[np.ndarray] = []
    frac = [0.0]

    def source(t0: float):
        frac[0] += rate * cost.tick
        n = int(frac[0])
        frac[0] -= n
        if n <= 0:
            return None
        keys = rng.integers(0, scaled_keys, n)
        if keep_inputs:
            all_keys.append(keys)
        # records dispatched at tick start arrived during the preceding
        # tick interval (open-loop batching granularity = one tick)
        arrivals = t0 - cost.tick + np.linspace(0.0, cost.tick, n, endpoint=False)
        return {"k": keys}, arrivals

    steady, records = run_open_loop(
        sim,
        "count",
        impl=impl,
        assignment=assign,
        logic_factory=make_logic,
        c_record=c_record,
        bin_fn=lambda keys: range_bin_of_keys(keys, n_bins, scaled_keys),
        source=source,
        record_nbytes=8.0,
        duration_s=duration_s,
        warmup_s=warmup_s,
        migrations=migrations,
        completion_timeout_s=completion_timeout_s,
        strict_completion=strict_completion,
        drain=drain,
    )

    final = None
    if logics:
        # a mapping of its own, as the counts: from the C heap, whether
        # 8 MB more of it becomes resident depends on earlier runs
        final = untouched_zeros(len(logics[0].counts))
        for lg in logics:
            final += lg.counts
    return CountRun(
        nominal_keys=nominal_keys,
        n_bins=n_bins,
        latency=sim.latency,
        steady=steady,
        migrations=records,
        memory_samples=sim.memory_samples,
        final_counts=final,
        input_keys=np.concatenate(all_keys) if all_keys else None,
        sim=sim,
    )

