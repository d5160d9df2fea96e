"""Streaming NEXMark on the simulated timely runtime.

Events flow as dict-of-numpy-array batches, from the generator's columns
on; pandas appears only in :func:`~repro.nexmark.generator.split_events`
and the DuckDB oracle that reads it. As in the paper, where each
query maps the events into a record type of its own, there is no common
schema: :func:`query_stream` builds each query's records from the
generator's columns with only its :data:`QUERY_FIELDS`, the fields its
logic reads, plus ``k``, the routing key F routes on, and, where the logic
walks records in stream order with :func:`rows`, ``seq``. The logics build
their timer payloads over the same fields (``QueryRun.fields``), so every
pending record of a query has the same columns. Multi-input queries (Q3,
Q8) multiplex both relations onto one keyed stream — exactly the reduction
the paper describes for operators with multiple data inputs.

``run_nexmark`` replays a generated event stream at its native rate on the
shared open-loop harness (:func:`repro.core.harness.run_open_loop`),
optionally migrating state, and returns latency histograms, migration
records and the query's emitted results for oracle comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.binning import bin_of_keys, hash_keys
from repro.core.harness import run_open_loop
from repro.core.operators import StateLogic
from repro.core.strategies import MigrationRecord, initial_assignment
from repro.latency.histogram import LatencyHistogram
from repro.nexmark.generator import (
    AUCTION,
    BID,
    PERSON,
    US_STATES,
    nexmark_events,
)
from repro.timely.cost import CostModel
from repro.timely.engine import Simulation

# etypes past the generator's 0 person / 1 auction / 2 bid
CLOSED, TIMER = 3, 9
HOT_STATE_CODES = (0, 1, 2)  # OR, ID, CA in generator.US_STATES order
Q3_CATEGORY = 7
EUR = 0.908  # Q1's dollar-to-euro rate


def payload(n: int = 0, *, fields: Sequence[str], **cols) -> dict[str, np.ndarray]:
    """Build a stream payload with the ``fields`` present (zeros where
    ``cols`` gives none); columns not among them are dropped."""
    if cols:
        n = max(n, max(len(np.atleast_1d(v)) for v in cols.values()))
    out = {}
    for f in fields:
        dtype = np.float64 if f == "price" else np.int64
        out[f] = np.asarray(cols[f]).astype(dtype) if f in cols else np.zeros(n, dtype)
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
        self._post.append(
            (t_ns, payload(fields=self.q.fields, **cols, etype=[TIMER]))
        )

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
    # the columns of the query's records, timer payloads included
    fields: Sequence[str]
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


# the fields each query's logic reads (both implementations), plus ``k``,
# and ``seq`` where the logic uses rows()
QUERY_FIELDS = {
    "q1": ("k", "etype", "price"),
    "q2": ("k", "etype", "auction", "price"),
    "q3": ("k", "seq", "etype", "id", "category", "state_code"),
    "q4": ("k", "seq", "etype", "ts", "category", "expires", "price"),
    "q5": ("k", "seq", "etype", "ts", "w"),
    "q6": ("k", "seq", "etype", "price"),
    "q7": ("k", "seq", "etype", "price"),
    "q8": ("k", "seq", "etype", "ts"),
}
# the event types each query keeps
QUERY_ETYPES = {
    "q1": (BID,),
    "q2": (BID,),
    "q3": (PERSON, AUCTION),
    "q4": (AUCTION, BID),
    "q5": (BID,),
    "q6": (CLOSED,),
    "q7": (BID,),
    "q8": (PERSON, AUCTION),
}
# the source column of each field whose name differs from it
SOURCE = {"ts": "ts_ms", "expires": "expires_ms"}


def query_stream(
    query: str, events: dict[str, np.ndarray], qr: QueryRun
) -> tuple[dict, np.ndarray]:
    """Build a query's keyed stream over ``qr.fields`` from the generated
    events (Q6: from their :func:`closed_auctions`), and return it with its
    records' event times in ms, which drive the replay clock. ``seq`` is a
    record's position in its source columns; fields no source column holds
    (Q5's ``w``) are zeros."""
    if query not in QUERY_ETYPES:
        raise ValueError(query)
    if query == "q6":
        events = closed_auctions(events)
    keep = np.flatnonzero(np.isin(events["etype"], QUERY_ETYPES[query]))

    def col(c: str) -> np.ndarray:
        return events[c][keep]

    etype = col("etype")
    if query in ("q3", "q8"):
        k = np.where(etype == PERSON, col("id"), col("seller"))
    elif query == "q4":
        k = np.where(etype == AUCTION, col("id"), col("auction"))
    elif query == "q7":
        k = col("ts_ms") // qr.window_ms
    else:
        k = col("seller" if query == "q6" else "auction")
    cols = {"k": k, "seq": keep}
    for f in qr.fields:
        if f == "state_code":
            # a person's index in US_STATES; 0 for an auction's empty state
            cols[f] = (col("state")[:, None] == US_STATES).argmax(axis=1)
        elif f not in cols and SOURCE.get(f, f) in events:
            cols[f] = col(SOURCE.get(f, f))
    return payload(fields=qr.fields, **cols), col("ts_ms")


def closed_auctions(events: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Q6's input relation: each auction with a valid bid, closed at its
    expiry with its seller and final price (the Q4 prefix the paper shares
    between Q4 and Q6), ordered by closing time, under the generator's
    column names (``etype`` is :data:`CLOSED`, ``ts_ms`` the close time)."""
    ts, expires = events["ts_ms"], events["expires_ms"]
    auctions = np.flatnonzero(events["etype"] == AUCTION)
    bids = np.flatnonzero(events["etype"] == BID)
    # auction ids are sequential from 1: auction id i is event auctions[i - 1]
    a = events["auction"][bids] - 1
    valid = (ts[bids] >= ts[auctions[a]]) & (ts[bids] < expires[auctions[a]])
    final = np.full(len(auctions), -np.inf)  # each auction's best valid bid
    np.maximum.at(final, a[valid], events["price"][bids[valid]])
    closed = np.flatnonzero(final > -np.inf)
    closed = closed[np.lexsort((closed, expires[auctions[closed]]))]
    cols = {c: events[c][auctions[closed]] for c in ("id", "seller", "expires_ms")}
    return {
        **cols,
        "price": final[closed],
        "etype": np.full(len(closed), CLOSED),
        "ts_ms": cols["expires_ms"],
    }


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
        fields=QUERY_FIELDS[query],
    )
    events = nexmark_events(int(n_events), rate_per_s=rate_per_s, seed=seed)
    stream, ts_ms = query_stream(query, events, qr)
    ts_s = ts_ms * 1e-3  # the replay clock
    registry = QM.MEGAPHONE_IMPLS if impl == "megaphone" else QN.NATIVE_IMPLS
    logic_cls = registry[query]
    logics: list = []

    def mk(w):
        lg = logic_cls(w, qr)
        logics.append(lg)
        return lg

    # open-loop replay: per tick, ship the events that arrived during the
    # preceding tick interval
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
