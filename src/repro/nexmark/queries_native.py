"""NEXMark Q1–Q8 as hand-written ("native") dataflow operators.

These are the baseline implementations of Table 1: each operator manages
its own per-worker state dictionaries, constructs its own timer payloads,
and tracks its own bookkeeping by hand — everything the Megaphone interface
(``queries_megaphone.py``) provides through its helpers. They cannot
migrate state (no bins, no extract/install), exactly like the paper's
hand-tuned native timely operators.
"""
from __future__ import annotations

import numpy as np

from repro.core.operators import StateLogic
from repro.nexmark.generator import AUCTION, BID, PERSON
from repro.nexmark.stream import (
    CLOSED,
    EUR,
    HOT_STATE_CODES,
    Q3_CATEGORY,
    TIMER,
    payload,
    rows,
)


class _NativeBase(StateLogic):
    def __init__(self, worker: int, q):
        self.q = q
        self.worker = worker
        self.results = q.results
        self.state: dict = {}
        self._post: list = []

    def take_postdated(self):
        out, self._post = self._post, []
        return out

    def _timer(self, t_ns: int, key: int, w: int = 0) -> None:
        # native operators build their notification payloads by hand
        pl = payload(fields=self.q.fields, k=np.array([key]), w=np.array([w]))
        pl["etype"] = np.array([TIMER], dtype=np.int64)
        self._post.append((t_ns, pl))


class Q1Native(_NativeBase):
    """Currency conversion (stateless map)."""

    def apply(self, time, data):
        mask = data["etype"] == BID
        count = int(mask.sum())
        total = float((data["price"][mask] * EUR).sum())
        self.results.append(("q1", count, total))


class Q2Native(_NativeBase):
    """Filter bids by auction id (stateless)."""

    MODULO = 123

    def apply(self, time, data):
        mask = (data["etype"] == BID) & (data["auction"] % self.MODULO == 0)
        auctions = data["auction"][mask]
        prices = data["price"][mask]
        for a, p in zip(auctions, prices):
            self.results.append((int(a), float(p)))


class Q3Native(_NativeBase):
    """Incremental person⋈auction join: hand-managed two-sided state."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.persons: dict[int, bool] = {}
        self.auctions: dict[int, list[int]] = {}

    def apply(self, time, data):
        for r in rows(data):
            key = int(r["k"])
            if r["etype"] == PERSON:
                if int(r["state_code"]) not in HOT_STATE_CODES:
                    continue
                self.persons[key] = True
                for aid in self.auctions.get(key, []):
                    self.results.append((key, aid))
            elif r["etype"] == AUCTION:
                if int(r["category"]) != Q3_CATEGORY:
                    continue
                aid = int(r["id"])
                if key not in self.auctions:
                    self.auctions[key] = []
                self.auctions[key].append(aid)
                if self.persons.get(key):
                    self.results.append((key, aid))


class Q4Native(_NativeBase):
    """Winning bid per closing auction: hand-managed auction table and
    expiry notifications."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.open_auctions: dict[int, list] = {}

    def apply(self, time, data):
        for r in rows(data):
            key = int(r["k"])
            if r["etype"] == AUCTION:
                category = int(r["category"])
                opened = int(r["ts"])
                expires = int(r["expires"])
                self.open_auctions[key] = [category, opened, expires, None]
                self._timer(max(expires * 1_000_000, time + 1), key)
            elif r["etype"] == BID:
                entry = self.open_auctions.get(key)
                if entry is None:
                    continue
                if entry[1] <= int(r["ts"]) < entry[2]:
                    price = float(r["price"])
                    if entry[3] is None or price > entry[3]:
                        entry[3] = price
            elif r["etype"] == TIMER:
                entry = self.open_auctions.pop(key, None)
                if entry is not None and entry[3] is not None:
                    self.results.append((entry[0], entry[3]))


class Q5Native(_NativeBase):
    """Sliding-window bid counts: hand-managed per-auction hop counters."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.counts: dict[int, dict[int, int]] = {}

    def apply(self, time, data):
        n_hops = self.q.window_ms // self.q.slide_ms
        for r in rows(data):
            key = int(r["k"])
            if r["etype"] == BID:
                per_window = self.counts.get(key)
                if per_window is None:
                    per_window = {}
                    self.counts[key] = per_window
                hop = int(r["ts"]) // self.q.slide_ms
                for w in range(hop, hop + n_hops):
                    if w not in per_window:
                        per_window[w] = 0
                        end_ns = (w + 1) * self.q.slide_ms * 1_000_000
                        self._timer(max(end_ns, time + 1), key, w=w)
                    per_window[w] += 1
            elif r["etype"] == TIMER:
                per_window = self.counts.get(key, {})
                w = int(r["w"])
                if w in per_window:
                    self.results.append((w, key, per_window.pop(w)))


class Q6Native(_NativeBase):
    """Average of last 10 closing prices per seller: hand-managed ring of
    recent prices."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.recent: dict[int, list[float]] = {}

    def apply(self, time, data):
        for r in rows(data):
            if r["etype"] != CLOSED:
                continue
            key = int(r["k"])
            prices = self.recent.get(key)
            if prices is None:
                prices = []
                self.recent[key] = prices
            prices.append(float(r["price"]))
            if len(prices) > self.q.last_n:
                del prices[: len(prices) - self.q.last_n]

    def final_results(self):
        out = []
        for seller, prices in self.recent.items():
            out.append((seller, sum(prices) / len(prices)))
        return out


class Q7Native(_NativeBase):
    """Highest bid per tumbling window: hand-managed window maxima."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.maxima: dict[int, float] = {}

    def apply(self, time, data):
        for r in rows(data):
            key = int(r["k"])
            if r["etype"] == BID:
                if key not in self.maxima:
                    end_ns = (key + 1) * self.q.window_ms * 1_000_000
                    self._timer(max(end_ns, time + 1), key)
                    self.maxima[key] = 0.0
                price = float(r["price"])
                if price > self.maxima[key]:
                    self.maxima[key] = price
            elif r["etype"] == TIMER:
                if key in self.maxima:
                    self.results.append((key, self.maxima.pop(key)))


class Q8Native(_NativeBase):
    """Windowed person⋈new-seller join: hand-managed person windows."""

    def __init__(self, worker, q):
        super().__init__(worker, q)
        self.person_window: dict[int, int] = {}
        self.emitted: set[tuple[int, int]] = set()

    def apply(self, time, data):
        for r in rows(data):
            key = int(r["k"])
            w = int(r["ts"]) // (2 * self.q.window_ms)
            if r["etype"] == PERSON:
                self.person_window[key] = w
            elif r["etype"] == AUCTION:
                pw = self.person_window.get(key)
                if pw == w and (key, w) not in self.emitted:
                    self.emitted.add((key, w))
                    self.results.append((key, w))


NATIVE_IMPLS = {
    "q1": Q1Native,
    "q2": Q2Native,
    "q3": Q3Native,
    "q4": Q4Native,
    "q5": Q5Native,
    "q6": Q6Native,
    "q7": Q7Native,
    "q8": Q8Native,
}
