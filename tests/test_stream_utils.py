"""Unit tests for the NEXMark stream utilities (payloads, keyed bin state
helper, each query's stream builder and fields)."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.strategies import initial_assignment
from repro.nexmark import queries_megaphone as QM
from repro.nexmark import queries_native as QN
from repro.nexmark import stream as S
from repro.nexmark.generator import AUCTION, BID, PERSON, US_STATES, nexmark_events
from repro.nexmark.stream import (
    CLOSED,
    QUERY_FIELDS,
    KeyedBinState,
    QueryRun,
    closed_auctions,
    payload,
    query_stream,
)


class TestPayload:
    def test_absent_fields_are_typed_zeros(self):
        p = payload(k=np.array([4, 5]), fields=("k", "w", "price"))
        assert list(p) == ["k", "w", "price"]
        assert p["w"].tolist() == [0, 0] and p["w"].dtype == np.int64
        assert p["price"].tolist() == [0.0, 0.0] and p["price"].dtype == np.float64

    def test_price_is_float(self):
        p = payload(3, fields=("k", "price"))
        assert p["price"].dtype == np.float64
        assert p["k"].dtype == np.int64

    def test_columns_override(self):
        p = payload(
            k=np.array([1, 2]), price=np.array([1.5, 2.5]), fields=("k", "etype", "price")
        )
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


@pytest.fixture(scope="module")
def events():
    return nexmark_events(5000, rate_per_s=1000, seed=2)


def build(query, events, window_ms=10_000):
    """``query``'s stream with ``seq`` added where its fields lack it, and
    its source columns, as a frame, at the rows ``seq`` indexes."""
    fields = dict.fromkeys(QUERY_FIELDS[query] + ("seq",))
    qr = QueryRun(
        assignment=initial_assignment(64, 4),
        results=[],
        fields=tuple(fields),
        window_ms=window_ms,
    )
    s, ts_ms = query_stream(query, events, qr)
    src = closed_auctions(events) if query == "q6" else events
    return s, ts_ms, pd.DataFrame(src).iloc[s["seq"]]


class TestStreamProjections:
    def test_q3_key_is_person_or_seller(self, events):
        s, _, src = build("q3", events)
        assert set(src.etype) == {PERSON, AUCTION}
        persons = (src.etype == PERSON).to_numpy()
        assert np.array_equal(s["k"][persons], src.id[persons])
        assert np.array_equal(s["k"][~persons], src.seller[~persons])

    def test_q4_keeps_auctions_and_bids(self, events):
        s, _, src = build("q4", events)
        assert set(src.etype) == {AUCTION, BID}
        bids = (src.etype == BID).to_numpy()
        assert np.array_equal(s["k"][bids], src.auction[bids])
        assert np.array_equal(s["k"][~bids], src.id[~bids])

    def test_q5_bids_only(self, events):
        s, _, src = build("q5", events)
        assert np.array_equal(s["seq"], np.flatnonzero(events["etype"] == BID))

    def test_q7_key_is_window(self, events):
        s, _, src = build("q7", events, window_ms=700)
        assert np.array_equal(s["k"], src.ts_ms // 700)

    def test_timestamps_monotone(self, events):
        for q in QUERY_FIELDS:
            _, ts_ms, src = build(q, events)
            assert np.array_equal(ts_ms, src.ts_ms), q
            assert np.all(np.diff(ts_ms) >= 0), q

    def test_unknown_query_rejected(self, events):
        qr = QueryRun(assignment=initial_assignment(64, 4), results=[], fields=("k",))
        with pytest.raises(ValueError):
            query_stream("q99", events, qr)

    def test_q6_uses_closed_stream(self, events):
        s, ts_ms, src = build("q6", events)
        assert np.array_equal(s["seq"], np.arange(len(closed_auctions(events)["id"])))
        assert set(s["etype"]) == {CLOSED}
        assert np.array_equal(ts_ms, src.expires_ms)


class TestClosedAuctionStream:
    def test_sorted_by_close_time(self, events):
        s, ts_ms, src = build("q6", events)
        assert len(s["k"]) > 0
        assert np.all(np.diff(ts_ms) >= 0)
        assert np.array_equal(s["k"], src.seller)
        # one closed record per auction with at least one valid bid
        assert src.id.is_unique


@pytest.mark.parametrize("query", sorted(QUERY_FIELDS))
def test_columns_are_their_source_columns(events, query):
    """Every column of a query's records equals the source column of the
    events it keeps, in the source's order, with the payload's dtypes;
    ``state_code`` is a person's index in ``US_STATES`` and ``w``, which no
    event carries, is zero."""
    s, _, src = build(query, events)
    assert list(s) == list(dict.fromkeys(QUERY_FIELDS[query] + ("seq",)))
    assert np.all(np.diff(s["seq"]) > 0)
    source = {"ts": src.ts_ms, "expires": src.expires_ms, "w": 0 * src.ts_ms}
    if "state_code" in s:
        codes = [list(US_STATES).index(x) if x else 0 for x in src.state]
        source["state_code"] = np.where(src.etype == PERSON, codes, 0)
    for f, col in s.items():
        if f not in ("k", "seq"):
            assert np.array_equal(col, source.get(f, src.get(f))), f
        assert col.dtype == (np.float64 if f == "price" else np.int64), f


def test_simulated_nexmark_and_key_count_load_no_pandas():
    """The simulator's NEXMark and key-count paths run on numpy columns:
    a process that imports them and replays Q4 and Q6 never imports
    pandas (only ``split_events`` and the DuckDB oracle do)."""
    code = textwrap.dedent(
        """
        import sys
        import repro.microbench.count
        from repro.nexmark import queries_megaphone, queries_native, stream
        for q in ("q4", "q6"):
            stream.run_nexmark(
                query=q, impl="megaphone", n_events=3_000, n_bins=64, seed=1
            )
        print("pandas" in sys.modules)
        """
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


class _Reads(dict):
    """A record or a batch that notes the fields read from it."""

    def __init__(self, data, read: set):
        super().__init__(data)
        self.read = read

    def __getitem__(self, field):
        self.read.add(field)
        return super().__getitem__(field)


@pytest.mark.parametrize("impl", ["megaphone", "native"])
@pytest.mark.parametrize("query", sorted(QUERY_FIELDS))
def test_query_fields_are_what_the_logic_reads(monkeypatch, query, impl):
    """A query's replayed records and the timer payloads its logic posts
    have the same columns (S gathers a pass's pending records by name), and
    those are the query's fields: every field its logic reads, plus ``k``,
    which F routes on. ``bin`` is S's column, not the stream's."""
    registry = QM.MEGAPHONE_IMPLS if impl == "megaphone" else QN.NATIVE_IMPLS
    read, applied, posted = set(), set(), set()

    def rows(data):
        for r in S.rows(data):
            yield _Reads(r, read)

    class Recording(registry[query]):
        def apply(self, time, data):
            applied.add(frozenset(data) - {"bin"})
            super().apply(time, _Reads(data, read))

        def take_postdated(self):
            out = super().take_postdated()
            posted.update(frozenset(pl) for _, pl in out)
            return out

    monkeypatch.setattr(QM, "rows", rows)
    monkeypatch.setattr(QN, "rows", rows)
    monkeypatch.setitem(registry, query, Recording)
    S.run_nexmark(
        query=query, impl=impl, n_events=6_000, rate_per_s=10_000, n_bins=64, seed=3
    )
    fields = frozenset(QUERY_FIELDS[query])
    assert applied == {fields}
    assert posted == ({fields} if query in ("q4", "q5", "q7") else set())
    assert read - {"bin"} | {"k"} == fields
