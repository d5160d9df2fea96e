"""Calibrated cost model for the simulated cluster.

The paper evaluates on 4 machines (one timely process of 4 workers pinned to
a socket each, i.e. 16 workers) connected by a 10 Gb/s network, at rates up
to 32x10^6 records/s and domains up to 32x10^9 keys. A local PySpark session
cannot observe nanosecond-scale per-record latencies at that rate, so the
discrete-event engine charges simulated time using the constants below.

Calibration targets (documented in DESIGN.md / EXPERIMENTS.md):

* Native key-count p90 ~1.5 ms at 4x10^6 rec/s (Fig 14b "Native") — set by
  the 1 ms scheduling tick plus jitter.
* Megaphone's overhead explodes super-linearly above ~2^14 bins
  (Figs 13–15): per scheduling iteration each worker pays
  ``c_bin_scan * bins_local ** bin_scan_exponent`` for scanning per-bin
  queues / the routing table, which leaves <=2^12 bins indistinguishable
  from native and reaches ~1 s at 2^20 bins, as in the paper.
* Saturation between 16x10^6 and 32x10^6 rec/s (Fig 19): the effective
  per-record pipeline cost (~520 ns with cache pressure) exceeds the
  per-worker budget of 500 ns/record at 32x10^6 rec/s over 16 workers.
* All-at-once migration latency ~ bytes moved / NIC bandwidth (Figs 1, 16–18,
  20): serialised state queues on the sending process's NIC, which is also
  what produces the all-at-once memory spike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CostModel:
    """Simulated-time cost constants (seconds / bytes)."""

    workers: int = 16
    workers_per_process: int = 4
    tick: float = 1e-3  # scheduling/input granularity (s)

    # Per-record application cost (seconds) by workload flavour. "hash" is a
    # HashMap-backed bin, "key" a dense-array bin (paper §5.2). Megaphone adds
    # routing-table lookup + bin indirection on top of native.
    c_record_native_key: float = 60e-9
    c_record_native_hash: float = 180e-9
    c_record_megaphone_key: float = 110e-9
    c_record_megaphone_hash: float = 2200e-9

    # Extra per-record cost once the working set blows the cache: applied as
    # +c_cache_miss per record when the nominal domain exceeds cache_keys.
    c_cache_miss: float = 300e-9
    cache_keys: float = 64e6

    # Exchange/channel cost per record (applies to all implementations).
    c_exchange: float = 110e-9

    # Per-iteration maintenance: each worker scans its local bins' queues and
    # routing state. Super-linear exponent models cache/TLB pressure on large
    # routing tables (calibrated to Figs 13–15).
    c_bin_scan: float = 30e-9
    bin_scan_exponent: float = 1.5

    # State movement: serialisation / deserialisation throughput and network.
    ser_bw: float = 2.0e9  # bytes/s per worker when extracting state
    deser_bw: float = 3.0e9  # bytes/s when installing received state
    nic_bw: float = 1.25e9  # 10 Gb/s per process
    net_latency: float = 100e-6  # one-way latency between processes

    # Per-key state footprint (bytes) used to derive bin sizes from the
    # *nominal* domain; 8 B/key matches "one billion keys = 8 GB" (Fig 1)
    # for the dense key-count, hash bins pay HashMap entry overhead.
    bytes_per_key_key: float = 8.0
    bytes_per_key_hash: float = 64.0

    # Jitter: multiplicative lognormal sigma on iteration costs, plus rare
    # additive spikes (GC / network hiccups) shaping the 99.99%/max tail.
    jitter_sigma: float = 0.35
    spike_prob: float = 6e-5
    spike_scale: float = 5e-3  # mean spike ~5 ms
    seed: int = 42

    _rng: np.random.Generator = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # ---- derived helpers -------------------------------------------------
    @property
    def processes(self) -> int:
        return max(1, self.workers // self.workers_per_process)

    def process_of(self, worker: int) -> int:
        return worker // self.workers_per_process

    def record_cost(self, flavour: str, impl: str, nominal_keys: float) -> float:
        """Per-record apply cost for a workload flavour/implementation."""
        base = {
            ("key", "native"): self.c_record_native_key,
            ("hash", "native"): self.c_record_native_hash,
            ("key", "megaphone"): self.c_record_megaphone_key,
            ("hash", "megaphone"): self.c_record_megaphone_hash,
        }[(flavour, impl)]
        if nominal_keys > self.cache_keys:
            # miss cost deepens with the working set (longer pointer chains,
            # TLB pressure): +8% per doubling beyond the cache size
            depth = 1.0 + 0.08 * np.log2(nominal_keys / self.cache_keys)
            base += self.c_cache_miss * depth
        return base + self.c_exchange

    def bytes_per_key(self, flavour: str) -> float:
        return self.bytes_per_key_key if flavour == "key" else self.bytes_per_key_hash

    def maintenance(self, bins_local: int) -> float:
        """Per-iteration per-worker bin/routing scan cost."""
        if bins_local <= 0:
            return 0.0
        return self.c_bin_scan * float(bins_local) ** self.bin_scan_exponent

    def jitter(self, cost: float) -> float:
        """Apply multiplicative lognormal jitter plus rare additive spikes."""
        # numpy's lognormal(0, sigma) is exp(0 + sigma * z): the same draw
        j = cost * math.exp(self.jitter_sigma * self._rng.standard_normal())
        if self._rng.random() < self.spike_prob:
            j += float(self._rng.exponential(self.spike_scale))
        return j
