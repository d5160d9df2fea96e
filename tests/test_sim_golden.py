"""Golden snapshot of the simulator's outputs.

Runs ``run_count`` and ``run_nexmark`` on small parameters covering every
migration strategy, both bin functions, the native operators and the
timer-driven NEXMark queries, and compares each run with a committed
snapshot: the tick count, the latency and steady histograms, every
``MigrationRecord``, a digest of the final state or query results, and the
cost model's RNG state after the run (which pins the exact sequence of
``Ctx.charge`` calls). A change that only restructures the simulator must
leave all of it bit-identical.

A change that must move simulated outputs rewrites the snapshot with
``PYTHONPATH=src python tests/test_sim_golden.py`` and says why.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.microbench.count import run_count
from repro.nexmark.stream import run_nexmark
from repro.timely.cost import CostModel

SNAPSHOT = Path(__file__).with_name("sim_golden.json")


def _count(**kw):
    return dict(
        nominal_keys=1e6,
        scaled_keys=1 << 10,
        rate=20_000,
        n_bins=32,
        duration_s=1.2,
        warmup_s=0.2,
        keep_inputs=True,
        **kw,
    )


COUNT_CASES = {
    "key-all_at_once": _count(
        flavour="key",
        sample_memory=True,
        migrations=[{"at_s": 0.5, "moves": "imbalance", "strategy": "all_at_once"}],
    ),
    "hash-batched": _count(
        flavour="hash",
        migrations=[
            {"at_s": 0.4, "moves": "imbalance", "strategy": "batched", "batch_size": 3}
        ],
    ),
    "key-fluid-gap-roundtrip": _count(
        flavour="key",
        migrations=[
            {"at_s": 0.3, "moves": "imbalance", "strategy": "fluid", "gap_ticks": 1},
            {"at_s": 0.7, "moves": "rebalance", "strategy": "fluid", "gap_ticks": 1},
        ],
    ),
    "hash-optimized-gap-imbalanced": _count(
        flavour="hash",
        initial_imbalanced=True,
        migrations=[
            {"at_s": 0.4, "moves": "rebalance", "strategy": "optimized", "gap_ticks": 2}
        ],
    ),
    "native-key": _count(impl="native", flavour="key"),
}

NEX_MIGRATION = [
    {"at_s": 0.7, "moves": "imbalance", "strategy": "batched", "batch_size": 4}
]
NEX_CASES = {
    **{
        f"{q}-megaphone-batched": dict(query=q, impl="megaphone", migrations=NEX_MIGRATION)
        for q in ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"]
    },
    "q4-native": dict(query="q4", impl="native"),
    "q6-native": dict(query="q6", impl="native"),
}


def _small_cost():
    return CostModel(workers=4, workers_per_process=2)


def _hist(h) -> dict:
    nz = np.flatnonzero(h.counts)
    return {
        "counts": {str(int(i)): int(h.counts[i]) for i in nz},
        "total": int(h.total),
        "max": float(h.max),
    }


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        raw = obj.tobytes()
    else:
        raw = repr(obj).encode()
    return hashlib.sha256(raw).hexdigest()


def _snapshot(r, cost, result_digest) -> dict:
    return {
        "ticks": int(r.sim.tick_index),
        "latency": _hist(r.latency),
        "steady": _hist(r.steady),
        "migrations": [
            {
                "strategy": m.strategy,
                "requested_at_s": m.requested_at_s,
                "started_s": m.started_s,
                "completed_s": m.completed_s,
                "steps_total": m.steps_total,
                "steps_issued": m.steps_issued,
                "moves_total": m.moves_total,
                "window": _hist(m.window),
            }
            for m in r.migrations
        ],
        "result_digest": result_digest,
        "rng_state": repr(cost._rng.bit_generator.state),
    }


def run_case(name: str) -> dict:
    cost = _small_cost()
    if name in COUNT_CASES:
        r = run_count(cost=cost, seed=11, **COUNT_CASES[name])
        state = _digest(r.final_counts)
        if r.memory_samples:
            state += "/" + _digest([(t, s.tolist()) for t, s in r.memory_samples])
        return _snapshot(r, cost, state)
    r = run_nexmark(
        cost=cost,
        n_events=8_000,
        rate_per_s=8_000.0,
        n_bins=64,
        seed=5,
        window_ms=400,
        slide_ms=100,
        state_scale=100.0,
        **NEX_CASES[name],
    )
    return _snapshot(r, cost, _digest(r.results))


CASES = list(COUNT_CASES) + list(NEX_CASES)


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("name", CASES)
def test_matches_snapshot(snapshot, name):
    # round-trip through JSON so floats and keys compare as stored
    got = json.loads(json.dumps(run_case(name)))
    assert got == snapshot[name]


if __name__ == "__main__":
    SNAPSHOT.write_text(
        json.dumps({name: run_case(name) for name in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {SNAPSHOT}")
