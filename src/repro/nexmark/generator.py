"""Deterministic synthetic NEXMark event generator.

NEXMark models an auction site with three entity streams — persons,
auctions, bids — interleaved in the standard proportion of 1 person :
3 auctions : 46 bids per 50 events. This generator reproduces the
properties the paper's evaluation relies on:

* sequential ids per entity type, so referential integrity holds (bids
  reference recently opened auctions, auctions reference existing persons);
* a bounded pool of active ("hot") auctions, so Q4/Q6 state stays bounded;
* event time advancing at a configurable rate, so time-based windows
  (Q5/Q7/Q8) behave like the paper's time-dilated variants.

The paper used the reference Java generator at 4x10^6 events/s on a
cluster; we substitute this scaled generator (substitution recorded in
DESIGN.md). Determinism in ``seed`` lets the DuckDB oracle check every
query result exactly.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

US_STATES = np.array(["OR", "ID", "CA", "WA", "NV", "NY", "AZ", "TX"])
CITIES = np.array(
    ["portland", "boise", "la", "seattle", "reno", "nyc", "phoenix", "austin"]
)

PERSON, AUCTION, BID = 0, 1, 2
HOT_AUCTIONS = 20  # bids go to the most recently opened auctions
AUCTION_DURATION_S = (2.0, 10.0)  # uniform auction lifetime
N_CATEGORIES = 10


def nexmark_events(
    n: int,
    *,
    rate_per_s: float = 10_000.0,
    seed: int = 0,
) -> pd.DataFrame:
    """Generate ``n`` interleaved NEXMark events as one pandas DataFrame.

    Columns: ``ts_ms`` (event time), ``etype`` (0 person / 1 auction /
    2 bid), and per-type fields (unused fields are 0/empty): ``id``,
    ``state``, ``city``, ``name`` for persons; ``id``, ``seller``,
    ``category``, ``expires_ms`` for auctions; ``auction``, ``bidder``,
    ``price`` for bids.
    """
    g = np.random.default_rng(seed)
    i = np.arange(n, dtype=np.int64)
    slot = i % 50
    etype = np.where(slot == 0, PERSON, np.where(slot < 4, AUCTION, BID)).astype(
        np.int8
    )
    ts_ms = (i * 1000.0 / rate_per_s).astype(np.int64)

    persons_so_far = i // 50 + 1  # persons emitted up to and including i
    auctions_so_far = 3 * (i // 50) + np.clip(slot, 0, 3)  # ditto auctions

    pid = np.where(etype == PERSON, persons_so_far, 0)
    aid = np.where(etype == AUCTION, auctions_so_far, 0)

    seller = np.where(
        etype == AUCTION, g.integers(1, persons_so_far + 1), 0
    )
    category = np.where(etype == AUCTION, g.integers(0, N_CATEGORIES, n), 0)
    dur_lo, dur_hi = AUCTION_DURATION_S
    expires_ms = np.where(
        etype == AUCTION,
        ts_ms + (g.uniform(dur_lo, dur_hi, n) * 1000).astype(np.int64),
        0,
    )

    pool = np.minimum(HOT_AUCTIONS, np.maximum(auctions_so_far, 1))
    bid_auction = np.where(
        etype == BID, auctions_so_far - g.integers(0, 10**9, n) % pool, 0
    )
    bidder = np.where(etype == BID, g.integers(1, persons_so_far + 1), 0)
    price = np.where(etype == BID, g.uniform(1.0, 1000.0, n).round(2), 0.0)

    state_idx = g.integers(0, len(US_STATES), n)
    df = pd.DataFrame(
        {
            "ts_ms": ts_ms,
            "etype": etype,
            "id": np.where(etype == PERSON, pid, aid),
            "state": np.where(etype == PERSON, US_STATES[state_idx], ""),
            "city": np.where(etype == PERSON, CITIES[state_idx], ""),
            "name": np.where(
                etype == PERSON,
                np.char.add("person-", persons_so_far.astype(str)),
                "",
            ),
            "seller": seller,
            "category": category,
            "expires_ms": expires_ms,
            "auction": bid_auction,
            "bidder": bidder,
            "price": price,
        }
    )
    return df


def split_events(events: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame, pd.DataFrame]:
    """Split the interleaved stream into (persons, auctions, bids) relations."""
    p = events[events.etype == PERSON][["ts_ms", "id", "state", "city", "name"]]
    a = events[events.etype == AUCTION][
        ["ts_ms", "id", "seller", "category", "expires_ms"]
    ]
    b = events[events.etype == BID][["ts_ms", "auction", "bidder", "price"]]
    return (
        p.reset_index(drop=True),
        a.reset_index(drop=True),
        b.reset_index(drop=True),
    )
