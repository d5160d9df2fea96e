"""Unit tests for Megaphone's extended notificator (§4.3)."""
from hypothesis import given, strategies as st

from repro.timely.notificator import Notificator


class TestNotificator:
    def test_ripe_respects_frontier(self):
        n = Notificator()
        n.notify_at(5, "a")
        n.notify_at(10, "b")
        assert [(t, p) for t, p in n.ripe(10)] == [(5, "a")]
        assert len(n) == 1

    def test_ripe_time_order(self):
        n = Notificator()
        for t in [30, 10, 20]:
            n.notify_at(t, str(t))
        assert [t for t, _ in n.ripe(100)] == [10, 20, 30]

    def test_ripe_closed_frontier_drains_all(self):
        n = Notificator()
        n.notify_at(5, "a")
        assert [t for t, _ in n.ripe(None)] == [5]
        assert len(n) == 0

    def test_fifo_within_time(self):
        n = Notificator()
        n.notify_at(5, "first")
        n.notify_at(5, "second")
        assert [p for _, p in n.ripe(6)] == ["first", "second"]

    def test_pending_times_and_min(self):
        n = Notificator()
        assert n.min_time() is None
        n.notify_at(7, "x")
        n.notify_at(7, "y")
        n.notify_at(3, "z")
        assert n.min_time() == 3
        assert [t for t, _ in n.drain_all()] == [3, 7, 7]

    def test_drain_all(self):
        n = Notificator()
        n.notify_at(9, "a")
        n.notify_at(4, "b")
        assert n.drain_all() == [(4, "b"), (9, "a")]
        assert len(n) == 0

    def test_exact_frontier_not_ripe(self):
        # "not in advance of" is strict here: t == frontier may still receive
        # more records at t
        n = Notificator()
        n.notify_at(5, "a")
        assert list(n.ripe(5)) == []

    @given(st.lists(st.integers(0, 50), max_size=40), st.integers(0, 60))
    def test_partition_property(self, times, frontier):
        n = Notificator()
        for t in times:
            n.notify_at(t, t)
        ripe = [t for t, _ in n.ripe(frontier)]
        assert ripe == sorted(t for t in times if t < frontier)
        assert [t for t, _ in n.drain_all()] == sorted(t for t in times if t >= frontier)
