"""Timestamped configuration function and control stream (paper §3.3).

A configuration update is ``(time, bin, worker)``: from logical ``time`` on,
``bin`` (and the state of its keys) lives at ``worker``. Updates travel on a
regular dataflow stream, so migrations are planned and coordinated purely by
logical time.

:class:`RoutingTable` materialises the configuration function
``(time, bin) -> worker`` as a sequence of epoch snapshots (one int array per
distinct update time), which makes per-batch lookups a single ``np.take``.
Old epochs are compacted away once the data frontier passes them.

:class:`ConfigAuthority` is a test/verification aid: the migration driver
registers every issued update here, and S instances assert Property 2
(every state update at time *t* runs at ``configuration(t, bin)``).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True)
class ControlUpdate:
    """One configuration update on the control stream."""

    time: int
    bin: int
    worker: int


class RoutingTable:
    """Configuration function as timestamped epoch snapshots."""

    def __init__(self, n_bins: int, initial: np.ndarray):
        assert len(initial) == n_bins
        self.times: list[int] = [0]
        self.tables: list[np.ndarray] = [np.asarray(initial, dtype=np.int64).copy()]

    def owner_before(self, time: int, b: int) -> int:
        """Owner of bin ``b`` for times just before ``time``."""
        i = bisect.bisect_left(self.times, time) - 1
        return int(self.tables[max(i, 0)][b])

    def apply_updates(self, updates: Iterable[ControlUpdate]) -> None:
        """Apply certain updates; must arrive in non-decreasing time order."""
        for u in updates:
            assert u.time >= self.times[-1], (
                f"updates must be integrated in time order: {u.time} < {self.times[-1]}"
            )
            if u.time > self.times[-1]:
                self.times.append(u.time)
                self.tables.append(self.tables[-1].copy())
            self.tables[-1][u.bin] = u.worker

    def lookup(self, time: int, bins: np.ndarray) -> np.ndarray:
        """Workers for ``bins`` at logical ``time`` (latest epoch <= time)."""
        i = bisect.bisect_right(self.times, time) - 1
        assert i >= 0, f"lookup at {time} precedes first epoch {self.times[0]}"
        return self.tables[i].take(bins)

    def compact(self, frontier: Optional[float]) -> None:
        """Drop epochs no record with time >= frontier could ever consult."""
        if frontier is None:
            keep = len(self.times) - 1
        else:
            keep = bisect.bisect_right(self.times, frontier) - 1
        if keep > 0:
            del self.times[:keep]
            del self.tables[:keep]


class ConfigAuthority:
    """Ground-truth configuration used to assert the Migration property."""

    def __init__(self, n_bins: int, initial: np.ndarray):
        self.table = RoutingTable(n_bins, initial)

    def register(self, updates: Iterable[ControlUpdate]) -> None:
        self.table.apply_updates(updates)

    def check(self, time: int, bins: np.ndarray, worker: int) -> None:
        owners = self.table.lookup(time, bins)
        if not np.all(owners == worker):
            bad = bins[owners != worker][:5]
            raise AssertionError(
                f"Migration property violated: bins {bad.tolist()} applied at "
                f"worker {worker} at time {time}, expected "
                f"{owners[owners != worker][:5].tolist()}"
            )
