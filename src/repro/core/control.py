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
        # workers as 16-bit ints: F's stable sort by destination is then a
        # radix sort
        self.tables: list[np.ndarray] = [np.asarray(initial, dtype=np.uint16).copy()]

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

    def check(self, times, bins: np.ndarray, workers) -> None:
        """Assert that each record ``i``, applied at ``times[i]`` on
        ``workers[i]``, has its bin ``bins[i]`` there (scalars broadcast)."""
        table = self.table
        epochs = np.searchsorted(table.times, times, side="right") - 1
        lo, hi = int(epochs.min()), int(epochs.max())
        assert lo >= 0, f"check at {np.min(times)} precedes first epoch {table.times[0]}"
        owners = table.tables[lo].take(bins)
        for i in range(lo + 1, hi + 1):  # records at later epochs
            at = epochs == i
            owners[at] = table.tables[i].take(bins[at])
        bad = np.flatnonzero(owners != workers)
        if len(bad):
            i = bad[0]
            times, workers = np.broadcast_arrays(times, workers, bins)[:2]
            raise AssertionError(
                f"Migration property violated: bin {bins[i]} applied at worker "
                f"{workers[i]} at time {times[i]}, expected worker {owners[i]} "
                f"({len(bad)} records misplaced)"
            )
