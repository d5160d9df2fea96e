"""Megaphone's extended Notificator (paper §4.3).

Timely's stock notificator tracks only future *times*; Megaphone extends it
to buffer full ``(time, data)`` pending work in a priority queue so that the
pending records travel with the state during a migration. Here each entry is
a :class:`repro.timely.engine.Batch`-like payload keyed by logical time.

The notificator doubles as the operator's capability set: its pending times
are reported through ``held_times`` and hold the output frontier back until
the work is done.
"""
from __future__ import annotations

import heapq
from typing import Any, Iterator, Optional


class Notificator:
    """Priority queue of (time, payload) pending work, replayable by frontier."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0

    def notify_at(self, time: int, payload: Any) -> None:
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def min_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def ripe(self, frontier: Optional[float]) -> Iterator[tuple[int, Any]]:
        """Drain entries whose time is *not in advance of* ``frontier``.

        ``frontier`` is the minimum time that may still arrive (None =
        closed input: everything is ripe). Entries come out in time order.
        """
        while self._heap and (frontier is None or self._heap[0][0] < frontier):
            t, _, payload = heapq.heappop(self._heap)
            yield t, payload

    def drain_all(self) -> list[tuple[int, Any]]:
        """Remove and return all pending entries (used when migrating a bin)."""
        out = [(t, p) for t, _, p in sorted(self._heap)]
        self._heap.clear()
        return out

    def __len__(self) -> int:
        return len(self._heap)
