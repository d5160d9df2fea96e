"""Unit tests for the NEXMark stream utilities (payload schema, keyed bin
state helper, stream projections)."""
import numpy as np
import pytest

from repro.core.strategies import initial_assignment
from repro.nexmark.generator import AUCTION, BID, PERSON, nexmark_events
from repro.nexmark.stream import (
    CLOSED,
    FIELDS,
    KeyedBinState,
    QueryRun,
    closed_auction_stream,
    events_to_stream,
    payload,
)


class TestPayload:
    def test_all_fields_present(self):
        p = payload(5)
        assert set(p) == set(FIELDS)
        assert all(len(v) == 5 for v in p.values())

    def test_price_is_float(self):
        p = payload(3)
        assert p["price"].dtype == np.float64
        assert p["k"].dtype == np.int64

    def test_columns_override(self):
        p = payload(k=np.array([1, 2]), price=np.array([1.5, 2.5]))
        assert p["k"].tolist() == [1, 2]
        assert p["price"].tolist() == [1.5, 2.5]
        assert p["etype"].tolist() == [0, 0]


class TestKeyedBinState:
    def setup_method(self):
        self.assign = initial_assignment(8, 4)
        self.st = KeyedBinState(0, self.assign, entry_nbytes=32.0)

    def test_owns_assigned_bins(self):
        assert self.st.owned() == 2  # bins 0 and 4

    def test_put_get_pop(self):
        self.st.put(0, 42, "v")
        assert self.st.get(0, 42) == "v"
        self.st.pop(0, 42)
        assert self.st.get(0, 42) is None

    def test_extract_reports_bytes(self):
        self.st.put(0, 1, "a")
        self.st.put(0, 2, "b")
        state, nbytes = self.st.extract(0)
        assert nbytes == 64.0
        assert state == {1: "a", 2: "b"}
        assert self.st.owned() == 1

    def test_install_merges(self):
        self.st.install(7, {9: "x"})
        assert self.st.get(7, 9) == "x"
        assert self.st.owned() == 3


class TestStreamProjections:
    @pytest.fixture(scope="class")
    def events(self):
        return nexmark_events(5000, rate_per_s=1000, seed=2)

    def qr(self):
        return QueryRun(assignment=initial_assignment(64, 4), results=[])

    def test_q3_key_is_person_or_seller(self, events):
        s = events_to_stream("q3", events, self.qr())
        assert set(np.unique(s["etype"])) <= {PERSON, AUCTION}
        persons = s["etype"] == PERSON
        assert np.array_equal(s["k"][persons], s["id"][persons])
        assert np.array_equal(s["k"][~persons], s["seller"][~persons])

    def test_q4_keeps_auctions_and_bids(self, events):
        s = events_to_stream("q4", events, self.qr())
        assert set(np.unique(s["etype"])) == {AUCTION, BID}
        bids = s["etype"] == BID
        assert np.array_equal(s["k"][bids], s["auction"][bids])

    def test_q5_bids_only(self, events):
        s = events_to_stream("q5", events, self.qr())
        assert set(np.unique(s["etype"])) == {BID}

    def test_q7_key_is_window(self, events):
        qr = self.qr()
        s = events_to_stream("q7", events, qr)
        assert np.array_equal(s["k"], s["ts"] // qr.window_ms)

    def test_timestamps_monotone(self, events):
        for q in ["q1", "q2", "q3", "q4", "q5", "q7", "q8"]:
            s = events_to_stream(q, events, self.qr())
            assert np.all(np.diff(s["ts"]) >= 0), q

    def test_unknown_query_rejected(self, events):
        with pytest.raises(ValueError):
            events_to_stream("q99", events, self.qr())

    def test_q6_uses_closed_stream(self, events):
        with pytest.raises(ValueError):
            events_to_stream("q6", events, self.qr())


class TestClosedAuctionStream:
    def test_sorted_by_close_time(self):
        events = nexmark_events(5000, rate_per_s=1000, seed=2)
        s = closed_auction_stream(events)
        assert np.all(np.diff(s["ts"]) >= 0)
        assert set(np.unique(s["etype"])) == {CLOSED}
        assert np.array_equal(s["k"], s["seller"])
        # one closed record per auction with at least one valid bid
        assert len(np.unique(s["id"])) == len(s["id"])
