"""Streaming NEXMark on the simulated timely runtime.

Events flow as dict-of-numpy-array batches with one unified schema
(:data:`FIELDS`); each query assigns its routing key into ``k``. Multi-input
queries (Q3, Q8) multiplex both relations onto one keyed stream — exactly
the reduction the paper describes for operators with multiple data inputs.

``run_nexmark`` replays a generated event stream at its native rate on the
shared open-loop harness (:func:`repro.core.harness.run_open_loop`),
optionally migrating state, and returns latency histograms, migration
records and the query's emitted results for oracle comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pandas as pd

from repro.core.binning import bin_of_keys, hash_keys
from repro.core.harness import run_open_loop
from repro.core.operators import StateLogic
from repro.core.strategies import MigrationRecord, initial_assignment
from repro.latency.histogram import LatencyHistogram
from repro.nexmark.generator import nexmark_events, split_events
from repro.timely.cost import CostModel
from repro.timely.engine import Simulation

# unified stream schema: etypes 0 person / 1 auction / 2 bid / 3 closed
# auction / 9 timer
FIELDS = [
    "k",
    "seq",
    "etype",
    "ts",
    "id",
    "seller",
    "category",
    "expires",
    "auction",
    "bidder",
    "price",
    "state_code",
    "city_code",
    "w",
]
CLOSED, TIMER = 3, 9
HOT_STATE_CODES = (0, 1, 2)  # OR, ID, CA in generator.US_STATES order
Q3_CATEGORY = 7
EUR = 0.908  # Q1's dollar-to-euro rate


def payload(n: int = 0, **cols) -> dict[str, np.ndarray]:
    """Build a stream payload with all schema fields present."""
    if cols:
        n = max(n, max(len(np.atleast_1d(v)) for v in cols.values()))
    out = {}
    for f in FIELDS:
        if f in cols:
            out[f] = np.asarray(cols[f]).astype(
                np.float64 if f == "price" else np.int64
            )
        else:
            dtype = np.float64 if f == "price" else np.int64
            out[f] = np.zeros(n, dtype=dtype)
    return out


def rows(data):
    """Yield a payload's records one dict at a time, in stream order."""
    order = np.argsort(data["seq"], kind="stable")
    for i in order:
        yield {f: v[i] for f, v in data.items()}


class KeyedBinState:
    """Megaphone-side helper: per-bin keyed state dictionaries with byte
    accounting, surfaced for migration (the "crisper framing" of §4.1 —
    users get per-key state without writing the plumbing)."""

    def __init__(self, worker: int, assignment: np.ndarray, entry_nbytes: float):
        self.bins: dict[int, dict] = {
            int(b): {} for b in np.nonzero(assignment == worker)[0]
        }
        self.entry_nbytes = entry_nbytes

    def get(self, b: int, key: int, default=None):
        return self.bins.setdefault(b, {}).get(key, default)

    def put(self, b: int, key: int, value) -> None:
        self.bins.setdefault(b, {})[key] = value

    def pop(self, b: int, key: int) -> None:
        self.bins.get(b, {}).pop(key, None)

    def extract(self, b: int):
        state = self.bins.pop(b, {})
        return state, self.entry_nbytes * len(state)

    def install(self, b: int, state) -> None:
        self.bins.setdefault(b, {}).update(state)

    def owned(self) -> int:
        return len(self.bins)


class NexLogic(StateLogic):
    """Base for Megaphone-interface NEXMark logics: state via KeyedBinState
    in the bins S hands over (``data["bin"]``), timers via post-dated
    records, results into a shared list."""

    ENTRY_NBYTES = 64.0

    def __init__(self, worker: int, q: "QueryRun"):
        self.q = q
        self.state = KeyedBinState(
            worker, q.assignment, self.ENTRY_NBYTES * q.state_scale
        )
        self.results = q.results
        self._post: list[tuple[int, dict]] = []

    def timer(self, t_ns: int, **cols) -> None:
        self._post.append((t_ns, payload(**cols, etype=[TIMER])))

    def take_postdated(self):
        out, self._post = self._post, []
        return out

    def extract_bin(self, b: int):
        return self.state.extract(b)

    def install_bin(self, b: int, payload_, nbytes: float) -> None:
        self.state.install(b, payload_)

    def owned_bins(self) -> int:
        return self.state.owned()

    # subclasses implement apply(time, data)


@dataclass
class QueryRun:
    """Shared context handed to logic instances."""

    assignment: np.ndarray
    results: list
    window_ms: int = 10_000
    slide_ms: int = 2_000
    last_n: int = 10
    # nominal state scale: how many of the paper's entries (4x10^6 events/s
    # for 800 s) each entry of our scaled replay stands for; drives the
    # simulated per-bin state bytes, like the nominal key domain in the
    # count microbenchmark (DESIGN.md substitution table)
    state_scale: float = 1.0


@dataclass
class NexRun:
    results: list
    latency: LatencyHistogram
    steady: LatencyHistogram
    migrations: list[MigrationRecord]
    logics: list
    sim: Simulation


def events_to_stream(query: str, events: pd.DataFrame, qr: QueryRun) -> dict:
    """Project generated events into the unified keyed stream of a query."""
    from repro.nexmark.generator import AUCTION, BID, PERSON, US_STATES, CITIES

    e = events
    etype = e.etype.to_numpy().astype(np.int64)
    state_code = np.where(etype == PERSON, _codes(e.state, US_STATES), 0)
    city_code = np.where(etype == PERSON, _codes(e.city, CITIES), 0)
    base = dict(
        seq=np.arange(len(e), dtype=np.int64),
        etype=etype,
        ts=e.ts_ms.to_numpy(),
        id=e.id.to_numpy(),
        seller=e.seller.to_numpy(),
        category=e.category.to_numpy(),
        expires=e.expires_ms.to_numpy(),
        auction=e.auction.to_numpy(),
        bidder=e.bidder.to_numpy(),
        price=e.price.to_numpy(),
        state_code=state_code,
        city_code=city_code,
    )
    if query in ("q1", "q2"):
        key = base["auction"]
        keep = etype == BID
    elif query in ("q3", "q8"):
        key = np.where(etype == PERSON, base["id"], base["seller"])
        keep = etype != BID
    elif query in ("q4", "q5"):
        key = np.where(etype == AUCTION, base["id"], base["auction"])
        keep = (etype == AUCTION) | (etype == BID)
        if query == "q5":
            keep = etype == BID
            key = base["auction"]
    elif query == "q7":
        key = base["ts"] // qr.window_ms
        keep = etype == BID
    elif query == "q6":
        raise ValueError("q6 uses closed_auction_stream()")
    else:
        raise ValueError(query)
    out = payload(**{k: v[keep] for k, v in base.items()})
    out["k"] = key[keep].astype(np.int64)
    return out


def closed_auction_stream(events: pd.DataFrame) -> dict:
    """Q6 input: the closed-auction stream (seller, final price), the Q4
    prefix the paper shares between Q4 and Q6 — derived here from the event
    relations, ordered by closing time."""
    p, a, b = split_events(events)
    j = b.merge(a, left_on="auction", right_on="id", suffixes=("_b", "_a"))
    j = j[(j.ts_ms_b >= j.ts_ms_a) & (j.ts_ms_b < j.expires_ms)]
    closed = (
        j.groupby(["id", "seller", "expires_ms"], as_index=False)
        .price.max()
        .sort_values(["expires_ms", "id"])
        .reset_index(drop=True)
    )
    return payload(
        k=closed.seller.to_numpy(),
        seq=np.arange(len(closed)),
        etype=np.full(len(closed), CLOSED),
        ts=closed.expires_ms.to_numpy(),
        id=closed.id.to_numpy(),
        seller=closed.seller.to_numpy(),
        price=closed.price.to_numpy(),
    )


def _codes(col: pd.Series, vocab: np.ndarray) -> np.ndarray:
    m = {s: i for i, s in enumerate(vocab)}
    return col.map(lambda s: m.get(s, 0)).to_numpy(dtype=np.int64)


def run_nexmark(
    *,
    query: str,
    impl: str,
    n_events: int = 120_000,
    rate_per_s: float = 10_000.0,
    n_bins: int = 1024,
    cost: Optional[CostModel] = None,
    migrations: Optional[list[dict]] = None,
    seed: int = 5,
    window_ms: int = 10_000,
    slide_ms: int = 2_000,
    state_scale: float = 1.0,
) -> NexRun:
    """Replay a NEXMark query on the simulated runtime."""
    from repro.nexmark import queries_native as QN
    from repro.nexmark import queries_megaphone as QM

    cost = cost or CostModel(workers=8, workers_per_process=4)
    sim = Simulation(cost)
    W = cost.workers
    assign = initial_assignment(n_bins, W)
    qr = QueryRun(
        assignment=assign,
        results=[],
        window_ms=window_ms,
        slide_ms=slide_ms,
        state_scale=state_scale,
    )
    events = nexmark_events(int(n_events), rate_per_s=rate_per_s, seed=seed)
    if query == "q6":
        stream = closed_auction_stream(events)
    else:
        stream = events_to_stream(query, events, qr)
    registry = QM.MEGAPHONE_IMPLS if impl == "megaphone" else QN.NATIVE_IMPLS
    logic_cls = registry[query]
    logics: list = []

    def mk(w):
        lg = logic_cls(w, qr)
        logics.append(lg)
        return lg

    # open-loop replay: per tick, ship the events that arrived during the
    # preceding tick interval
    ts_s = stream["ts"] * 1e-3
    n = len(ts_s)
    cursor = [0]

    def source(t0: float):
        lo = cursor[0]
        hi = lo + int(np.searchsorted(ts_s[lo:], t0))
        if hi == lo:
            return None
        cursor[0] = hi
        return {f: col[lo:hi] for f, col in stream.items()}, ts_s[lo:hi]

    def key_dest(data) -> np.ndarray:
        return (hash_keys(data["k"]) % np.uint64(W)).astype(np.int64)

    steady, records = run_open_loop(
        sim,
        query,
        impl=impl,
        assignment=assign,
        logic_factory=mk,
        c_record=cost.record_cost("hash", impl, 1e6),
        bin_fn=lambda keys: bin_of_keys(keys, n_bins),
        source=source,
        record_nbytes=64.0,
        duration_s=(float(ts_s[-1]) if n else 0.0) + 2 * cost.tick,
        warmup_s=0.5,
        migrations=migrations,
        # the native operator needs its input exchanged by key (it cannot
        # re-route); Megaphone's F does the keyed exchange itself, so its
        # input only needs to be spread across workers
        key_dest=key_dest if impl == "native" else None,
    )
    return NexRun(
        results=qr.results,
        latency=sim.latency,
        steady=steady,
        migrations=records,
        logics=logics,
        sim=sim,
    )
