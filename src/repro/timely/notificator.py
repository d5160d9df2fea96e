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
from typing import Any, Callable, Iterator, Optional


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

    def split(self, parts: Callable[[list], list[tuple]]) -> list[tuple[int, Any]]:
        """Split all pending entries in one call (used when migrating a bin):
        ``parts`` maps the payloads, in (time, seq) order, to one (moved,
        kept) pair each, either may be None. Kept parts stay pending at their
        (time, seq); moved parts are returned as (time, payload) in order."""
        if not self._heap:
            return []
        self._heap.sort()  # a sorted list is a heap; seq is unique
        pairs = list(zip(self._heap, parts([p for _, _, p in self._heap])))
        self._heap = [(t, s, k) for (t, s, _), (_, k) in pairs if k is not None]
        return [(t, m) for (t, _, _), (m, _) in pairs if m is not None]

    def __len__(self) -> int:
        return len(self._heap)
