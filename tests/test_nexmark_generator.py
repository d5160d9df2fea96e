"""Unit tests for the synthetic NEXMark generator."""
import numpy as np
import pandas as pd
import pytest

from repro.nexmark.generator import (
    AUCTION,
    BID,
    PERSON,
    nexmark_events,
    split_events,
)


@pytest.fixture(scope="module")
def events():
    return nexmark_events(10_000, rate_per_s=1000, seed=3)


class TestProportions:
    def test_one_person_three_auctions_46_bids_per_50(self, events):
        counts = np.bincount(events["etype"])
        assert counts[PERSON] == 200
        assert counts[AUCTION] == 600
        assert counts[BID] == 9200


class TestDeterminism:
    def test_same_seed_same_events(self):
        a = nexmark_events(500, seed=9)
        b = nexmark_events(500, seed=9)
        pd.testing.assert_frame_equal(pd.DataFrame(a), pd.DataFrame(b))

    def test_different_seed_differs(self):
        a = nexmark_events(500, seed=1)
        b = nexmark_events(500, seed=2)
        assert not pd.DataFrame(a).equals(pd.DataFrame(b))


class TestColumns:
    def test_numpy_columns_without_name(self, events):
        """Events are numpy columns; a person's name is the oracle's."""
        assert all(isinstance(c, np.ndarray) for c in events.values())
        assert {len(c) for c in events.values()} == {10_000}
        assert "name" not in events


class TestReferentialIntegrity:
    def test_person_ids_sequential(self, events):
        p, a, b = split_events(events)
        assert p.id.tolist() == list(range(1, len(p) + 1))

    def test_auction_ids_sequential(self, events):
        _, a, _ = split_events(events)
        assert a.id.tolist() == list(range(1, len(a) + 1))

    def test_sellers_reference_existing_persons(self, events):
        _, a, _ = split_events(events)
        assert (a.seller >= 1).all()
        # a seller must have registered before the auction opens
        assert (a.seller <= (np.arange(len(a)) // 3 + 1)).all()

    def test_bids_reference_existing_auctions(self, events):
        _, a, b = split_events(events)
        assert (b.auction >= 1).all()
        assert b.auction.max() <= a.id.max()

    def test_bids_prefer_recent_auctions(self, events):
        """Bounded active-auction pool: bids land on recently opened
        auctions (this keeps Q4/Q6 state bounded, as in NEXMark)."""
        _, a, b = split_events(events)
        opened = a.set_index("id").ts_ms
        age_ms = b.ts_ms.values - opened.loc[b.auction].values
        assert np.median(age_ms) < 2000


class TestFields:
    def test_event_time_monotone(self, events):
        assert np.all(np.diff(events["ts_ms"]) >= 0)

    def test_rate(self):
        e = nexmark_events(2000, rate_per_s=100)
        assert e["ts_ms"][-1] == pytest.approx(1999 * 10, abs=1)

    def test_expires_after_open(self, events):
        _, a, _ = split_events(events)
        assert (a.expires_ms > a.ts_ms).all()

    def test_prices_positive(self, events):
        _, _, b = split_events(events)
        assert (b.price > 0).all()

    def test_person_fields_populated(self, events):
        p, _, _ = split_events(events)
        assert (p.state != "").all()
        assert p.name.str.startswith("person-").all()
        assert p.name.tolist() == [f"person-{i}" for i in p.id]

    def test_categories_in_range(self, events):
        _, a, _ = split_events(events)
        assert a.category.between(0, 9).all()
