"""Megaphone's extended Notificator (paper §4.3).

Timely's stock notificator tracks only future *times*; Megaphone extends it
to buffer full ``(time, data)`` pending work in a priority queue so that the
pending records travel with the state during a migration. Here each payload
is a :class:`repro.timely.engine.Piece`, a view of the records of one batch.

Pending work is keyed by time: a heap of the distinct times, and each
time's payloads in arrival order.

The notificator doubles as the operator's capability set: its earliest
pending time (``min_time``) holds the output frontier back until the work
is done.
"""
from __future__ import annotations

import heapq
from typing import Any, Optional


class Notificator:
    """Pending (time, payload) work by time, replayable by frontier."""

    def __init__(self) -> None:
        self._times: list[int] = []  # heap of the distinct pending times
        self._pending: dict[int, list] = {}  # time -> payloads in arrival order

    def notify_at(self, time: int, payload: Any) -> None:
        got = self._pending.get(time)
        if got is None:
            self._pending[time] = [payload]
            heapq.heappush(self._times, time)
        else:
            got.append(payload)

    def min_time(self) -> Optional[int]:
        return self._times[0] if self._times else None

    def drain(self, frontier: Optional[float]) -> list[tuple[int, list]]:
        """Remove and return the times *not in advance of* ``frontier`` as
        ``(time, [payloads])`` in time order, payloads in arrival order.

        ``frontier`` is the minimum time that may still arrive (None =
        closed input: everything is ripe).
        """
        times, out = self._times, []
        while times and (frontier is None or times[0] < frontier):
            t = heapq.heappop(times)
            out.append((t, self._pending.pop(t)))
        return out
