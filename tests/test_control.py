"""Unit tests for the timestamped configuration function (§3.3)."""
import numpy as np
import pytest

from repro.core.control import ConfigAuthority, ControlUpdate, RoutingTable


def table(n_bins=8, workers=4):
    return RoutingTable(n_bins, np.arange(n_bins) % workers)


class TestRoutingTable:
    def test_initial_lookup(self):
        t = table()
        assert t.lookup(0, np.array([0, 1, 5])).tolist() == [0, 1, 1]

    def test_update_takes_effect_at_time(self):
        t = table()
        t.apply_updates([ControlUpdate(100, 1, 3)])
        assert t.lookup(99, np.array([1]))[0] == 1
        assert t.lookup(100, np.array([1]))[0] == 3
        assert t.lookup(200, np.array([1]))[0] == 3

    def test_paper_example(self):
        # "assign key a to worker 2 for times [4,8) and worker 1 for [8,16)"
        t = RoutingTable(1, np.array([2]))
        t.apply_updates([ControlUpdate(8, 0, 1)])
        for time, expect in [(4, 2), (7, 2), (8, 1), (15, 1)]:
            assert t.lookup(time, np.array([0]))[0] == expect

    def test_owner_before(self):
        t = table()
        t.apply_updates([ControlUpdate(100, 1, 3)])
        assert t.owner_before(100, 1) == 1
        assert t.owner_before(101, 1) == 3

    def test_multiple_epochs(self):
        t = table()
        t.apply_updates([ControlUpdate(10, 0, 2), ControlUpdate(20, 0, 3)])
        assert t.lookup(5, np.array([0]))[0] == 0
        assert t.lookup(15, np.array([0]))[0] == 2
        assert t.lookup(25, np.array([0]))[0] == 3

    def test_same_time_batch(self):
        t = table()
        t.apply_updates([ControlUpdate(10, 0, 2), ControlUpdate(10, 1, 2)])
        assert t.lookup(10, np.array([0, 1])).tolist() == [2, 2]
        assert len(t.times) == 2

    def test_out_of_order_rejected(self):
        t = table()
        t.apply_updates([ControlUpdate(10, 0, 2)])
        with pytest.raises(AssertionError):
            t.apply_updates([ControlUpdate(5, 0, 1)])

    def test_compact_drops_retired_epochs(self):
        t = table()
        for i, time in enumerate([10, 20, 30]):
            t.apply_updates([ControlUpdate(time, 0, i)])
        t.compact(25)
        assert t.lookup(25, np.array([0]))[0] == 1
        assert t.lookup(30, np.array([0]))[0] == 2
        assert len(t.times) == 2

    def test_compact_none_keeps_latest(self):
        t = table()
        t.apply_updates([ControlUpdate(10, 0, 2), ControlUpdate(20, 0, 3)])
        t.compact(None)
        assert len(t.times) == 1
        assert t.lookup(100, np.array([0]))[0] == 3

    def test_lookup_before_first_epoch_fails_after_compaction(self):
        t = table()
        t.apply_updates([ControlUpdate(10, 0, 2)])
        t.compact(15)
        with pytest.raises(AssertionError):
            t.lookup(5, np.array([0]))


class TestConfigAuthority:
    def test_check_passes_for_correct_worker(self):
        a = ConfigAuthority(8, np.arange(8) % 4)
        a.check(0, np.array([0, 4]), 0)

    def test_check_raises_for_wrong_worker(self):
        a = ConfigAuthority(8, np.arange(8) % 4)
        with pytest.raises(AssertionError, match="Migration property"):
            a.check(0, np.array([1]), 0)

    def test_check_respects_time(self):
        a = ConfigAuthority(8, np.arange(8) % 4)
        a.register([ControlUpdate(50, 1, 0)])
        a.check(49, np.array([1]), 1)
        a.check(50, np.array([1]), 0)
        with pytest.raises(AssertionError):
            a.check(50, np.array([1]), 1)

    def test_compaction_keeps_owners_from_the_frontier_on(self):
        a = ConfigAuthority(8, np.arange(8) % 4)
        a.register([ControlUpdate(10, 1, 0)])
        a.register([ControlUpdate(20, 2, 0)])
        a.register([ControlUpdate(30, 1, 3)])
        bins = np.arange(8)
        before = {t: a.table.lookup(t, bins) for t in (25, 29, 30, 40)}
        a.table.compact(25)
        assert a.table.times == [20, 30]
        for t, owners in before.items():
            assert np.array_equal(a.table.lookup(t, bins), owners)
        a.check(25, np.array([1, 2]), 0)
        with pytest.raises(AssertionError, match="Migration property"):
            a.check(25, np.array([1]), 1)
        with pytest.raises(AssertionError, match="Migration property"):
            a.check(30, np.array([1]), 0)
