"""NEXMark Q1–Q8 via Megaphone's stateful operator interface (§4.1).

Each query is a :class:`NexLogic`: per-key state comes from the
``KeyedBinState`` helper, in the bin S hands each record (``r["bin"]``:
the query never maps keys to bins), future work is scheduled with ``self.timer`` (the
extended notificator — pending records migrate with their bin), and
migration is entirely transparent to the query code. Compare with
``queries_native.py``, where the same logic hand-manages its state and
timers (Table 1's LOC comparison).
"""
from __future__ import annotations

from repro.nexmark.generator import AUCTION, BID, PERSON
from repro.nexmark.stream import (
    CLOSED,
    EUR,
    HOT_STATE_CODES,
    Q3_CATEGORY,
    TIMER,
    NexLogic,
    rows,
)


class Q1Megaphone(NexLogic):
    """Currency conversion (stateless map)."""

    ENTRY_NBYTES = 0.0

    def apply(self, time, data):
        mask = data["etype"] == BID
        self.results.append(
            ("q1", int(mask.sum()), float((data["price"][mask] * EUR).sum()))
        )


class Q2Megaphone(NexLogic):
    """Filter bids by auction id (stateless)."""

    ENTRY_NBYTES = 0.0
    MODULO = 123

    def apply(self, time, data):
        mask = (data["etype"] == BID) & (data["auction"] % self.MODULO == 0)
        for a, p in zip(data["auction"][mask], data["price"][mask]):
            self.results.append((int(a), float(p)))


class Q3Megaphone(NexLogic):
    """Incremental person⋈auction join, keyed by person id."""

    def apply(self, time, data):
        for r in rows(data):
            k, b = int(r["k"]), int(r["bin"])
            st = self.state.get(b, k, {"p": False, "a": []})
            if r["etype"] == PERSON and r["state_code"] in HOT_STATE_CODES:
                st["p"] = True
                for aid in st["a"]:
                    self.results.append((k, aid))
            elif r["etype"] == AUCTION and r["category"] == Q3_CATEGORY:
                st["a"].append(int(r["id"]))
                if st["p"]:
                    self.results.append((k, int(r["id"])))
            else:
                continue
            self.state.put(b, k, st)


class Q4Megaphone(NexLogic):
    """Winning bid per closing auction, keyed by auction id."""

    def apply(self, time, data):
        for r in rows(data):
            k, b = int(r["k"]), int(r["bin"])
            if r["etype"] == AUCTION:
                self.state.put(
                    b, k, [int(r["category"]), int(r["ts"]), int(r["expires"]), None]
                )
                self.timer(
                    max(int(r["expires"]) * 1_000_000, time + 1), k=[k]
                )
            elif r["etype"] == BID:
                st = self.state.get(b, k)
                if st and st[1] <= r["ts"] < st[2]:
                    st[3] = max(st[3] or 0.0, float(r["price"]))
            elif r["etype"] == TIMER:
                st = self.state.get(b, k)
                if st:
                    if st[3] is not None:
                        self.results.append((st[0], st[3]))
                    self.state.pop(b, k)


class Q5Megaphone(NexLogic):
    """Bid counts per auction per sliding window, keyed by auction id."""

    def apply(self, time, data):
        n_hops = self.q.window_ms // self.q.slide_ms
        for r in rows(data):
            k, b = int(r["k"]), int(r["bin"])
            if r["etype"] == BID:
                st = self.state.get(b, k, {})
                hop = int(r["ts"]) // self.q.slide_ms
                for w in range(hop, hop + n_hops):
                    if w not in st:
                        st[w] = 0
                        end_ns = (w + 1) * self.q.slide_ms * 1_000_000
                        self.timer(max(end_ns, time + 1), k=[k], w=[w])
                    st[w] += 1
                self.state.put(b, k, st)
            elif r["etype"] == TIMER:
                st = self.state.get(b, k, {})
                w = int(r["w"])
                if w in st:
                    self.results.append((w, k, st.pop(w)))


class Q6Megaphone(NexLogic):
    """Average of last 10 closing prices per seller, keyed by seller."""

    def apply(self, time, data):
        for r in rows(data):
            if r["etype"] != CLOSED:
                continue
            k, b = int(r["k"]), int(r["bin"])
            prices = self.state.get(b, k, [])
            prices.append(float(r["price"]))
            self.state.put(b, k, prices[-self.q.last_n :])

    def final_results(self):
        out = []
        for b, keys in self.state.bins.items():
            for seller, prices in keys.items():
                out.append((seller, sum(prices) / len(prices)))
        return out


class Q7Megaphone(NexLogic):
    """Highest bid per tumbling window, keyed by window id."""

    def apply(self, time, data):
        for r in rows(data):
            k, b = int(r["k"]), int(r["bin"])
            if r["etype"] == BID:
                cur = self.state.get(b, k)
                if cur is None:
                    end_ns = (k + 1) * self.q.window_ms * 1_000_000
                    self.timer(max(end_ns, time + 1), k=[k])
                    cur = 0.0
                self.state.put(b, k, max(cur, float(r["price"])))
            elif r["etype"] == TIMER:
                cur = self.state.get(b, k)
                if cur is not None:
                    self.results.append((k, cur))
                    self.state.pop(b, k)


class Q8Megaphone(NexLogic):
    """Windowed person⋈new-seller join, keyed by person id."""

    def apply(self, time, data):
        for r in rows(data):
            k, b = int(r["k"]), int(r["bin"])
            w = int(r["ts"]) // (2 * self.q.window_ms)
            if r["etype"] == PERSON:
                self.state.put(b, k, {"w": w, "hit": set()})
            elif r["etype"] == AUCTION:
                st = self.state.get(b, k)
                if st and st["w"] == w and w not in st["hit"]:
                    st["hit"].add(w)
                    self.results.append((k, w))


MEGAPHONE_IMPLS = {
    "q1": Q1Megaphone,
    "q2": Q2Megaphone,
    "q3": Q3Megaphone,
    "q4": Q4Megaphone,
    "q5": Q5Megaphone,
    "q6": Q6Megaphone,
    "q7": Q7Megaphone,
    "q8": Q8Megaphone,
}
