"""Unit tests for Megaphone's extended notificator (§4.3)."""
from hypothesis import given, strategies as st

from repro.timely.notificator import Notificator


def entries(n, frontier):
    """``n.drain(frontier)`` as ``(time, payload)`` entries, in order."""
    return [(t, p) for t, ps in n.drain(frontier) for p in ps]


class TestNotificator:
    def test_ripe_respects_frontier(self):
        n = Notificator()
        n.notify_at(5, "a")
        n.notify_at(10, "b")
        assert n.drain(10) == [(5, ["a"])]
        assert n.min_time() == 10

    def test_ripe_time_order(self):
        n = Notificator()
        for t in [30, 10, 20]:
            n.notify_at(t, str(t))
        assert [t for t, _ in n.drain(100)] == [10, 20, 30]

    def test_ripe_closed_frontier_drains_all(self):
        n = Notificator()
        n.notify_at(5, "a")
        assert [t for t, _ in n.drain(None)] == [5]
        assert n.min_time() is None

    def test_fifo_within_time(self):
        n = Notificator()
        n.notify_at(5, "first")
        n.notify_at(5, "second")
        assert n.drain(6) == [(5, ["first", "second"])]

    def test_pending_times_and_min(self):
        n = Notificator()
        assert n.min_time() is None
        n.notify_at(7, "x")
        n.notify_at(7, "y")
        n.notify_at(3, "z")
        assert n.min_time() == 3
        assert entries(n, None) == [(3, "z"), (7, "x"), (7, "y")]

    def test_drain_all(self):
        n = Notificator()
        n.notify_at(9, "a")
        n.notify_at(4, "b")
        assert entries(n, None) == [(4, "b"), (9, "a")]
        assert n.min_time() is None and n.drain(None) == []

    def test_exact_frontier_not_ripe(self):
        # "not in advance of" is strict here: t == frontier may still receive
        # more records at t
        n = Notificator()
        n.notify_at(5, "a")
        assert n.drain(5) == []
        assert n.min_time() == 5

    @given(st.lists(st.integers(0, 50), max_size=40), st.integers(0, 60))
    def test_partition_property(self, times, frontier):
        n = Notificator()
        for t in times:
            n.notify_at(t, t)
        ripe = [t for t, _ in entries(n, frontier)]
        assert ripe == sorted(t for t in times if t < frontier)
        assert [t for t, _ in entries(n, None)] == sorted(t for t in times if t >= frontier)
