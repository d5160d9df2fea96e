"""The open-loop harness shared by every simulated workload.

Megaphone is a library (paper §3.4, §4.1): the F/S operator pair, the
control stream and the migration controller are the same for every query;
only the user's state logic L changes. :func:`run_open_loop` is that common
part. It builds the stateful operator (Megaphone's F/S pair, or the native
baseline), schedules the requested migrations on a :class:`MigrationDriver`,
feeds the caller's per-tick records into the dataflow, keeps a steady-state
latency window, and runs until the input is consumed, the migrations are
complete and every frontier has closed.
"""
from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.core.control import ConfigAuthority
from repro.core.operators import MigratableOperator, NativeOperator, StateLogic, take
from repro.core.strategies import (
    MigrationDriver,
    MigrationRecord,
    migration_moves,
    rebalance_moves,
)
from repro.latency.histogram import LatencyHistogram
from repro.timely.engine import ARRIVAL, InputHandle, Piece, Simulation


def run_open_loop(
    sim: Simulation,
    name: str,
    *,
    impl: str,
    assignment: np.ndarray,
    logic_factory: Callable[[int], StateLogic],
    c_record: float,
    bin_fn: Callable[[np.ndarray], np.ndarray],
    source: Callable[[float], Optional[tuple[Any, np.ndarray]]],
    record_nbytes: float,
    duration_s: float,
    warmup_s: float,
    migrations: Optional[list[dict]] = None,
    key_dest: Optional[Callable[[Any], np.ndarray]] = None,
    completion_timeout_s: float = 600.0,
    strict_completion: bool = True,
    drain: bool = True,
) -> tuple[LatencyHistogram, list[MigrationRecord]]:
    """Run one workload on ``sim``; return the steady-state histogram and
    the migration records.

    ``impl`` is ``"megaphone"`` (the F/S pair, Property 2 checked by a
    :class:`ConfigAuthority` on every apply) or ``"native"``. ``migrations``
    is a list of dicts ``{"at_s": float, "moves": "imbalance"|"rebalance"|
    list, "strategy": str, "batch_size": int|None, "gap_ticks": int}``; the
    driver waits a migration's ``gap_ticks`` between its steps.

    ``source(t0)`` returns the records that arrived during the tick before
    ``t0``, as ``(data, arrival times in seconds)``, or None if there were
    none; the times become the column ``ARRIVAL``. Each tick's records go
    to one worker per process, rotating each tick; ``key_dest`` instead
    sends every record to the worker it maps the record to (for an
    operator that cannot exchange its input itself). The steady-state
    histogram covers ``[warmup_s, first migration)``, or
    ``[warmup_s, duration_s)`` when no migration is scheduled.
    """
    cost = sim.cost
    W = cost.workers
    n_bins = len(assignment)
    migrations = migrations or []
    data_in = InputHandle(sim, "data")
    driver = None
    if impl == "megaphone":
        control_in = InputHandle(sim, "control")
        authority = ConfigAuthority(n_bins, assignment)
        mo = MigratableOperator(
            sim,
            name,
            n_bins=n_bins,
            initial_assignment=assignment,
            logic_factory=logic_factory,
            c_record=c_record,
            record_nbytes=record_nbytes,
            data_input=data_in,
            control_input=control_in,
            bin_fn=bin_fn,
            authority=authority,
        )
        driver = MigrationDriver(sim, control_in, mo.probe, authority=authority)
        for m in migrations:
            moves = m["moves"]
            if moves == "imbalance":
                moves = migration_moves(n_bins, W)
            elif moves == "rebalance":
                moves = rebalance_moves(n_bins, W)
            driver.schedule_migration(
                m["at_s"],
                moves,
                m["strategy"],
                batch_size=m.get("batch_size"),
                assignment=assignment,
                gap_ticks=m.get("gap_ticks", 0),
            )
    else:
        assert not migrations, "native operator cannot migrate"
        NativeOperator(
            sim, name, logic_factory=logic_factory, c_record=c_record, data_input=data_in
        )

    tick_ns = int(round(cost.tick * 1e9))

    def feed(sim_: Simulation, t0: float) -> None:
        if data_in.could_produce is None:  # closed during drain
            return
        t_ns = int(round(t0 * 1e9))
        got = source(t0)
        if got is not None:
            data, arrivals = got
            cols = {**data, ARRIVAL: arrivals}
            if key_dest is None:
                # the paper's harness feeds at every process; rotation keeps
                # the ingest-side routing cost balanced across workers. Each
                # gets a contiguous piece, sized as np.array_split does
                wpp = cost.workers_per_process
                targets = range(sim_.tick_index % wpp, W, wpp)
                size, extra = divmod(len(arrivals), len(targets))
                hi = 0
                for i, w in enumerate(targets):
                    lo, hi = hi, hi + size + (i < extra)
                    if hi > lo:
                        data_in.send(w, Piece(t_ns, cols, lo, hi))
            else:
                dest = key_dest(data)
                for w in range(W):
                    idx = np.flatnonzero(dest == w)
                    if len(idx):
                        data_in.send(w, Piece(t_ns, take(cols, idx), 0, len(idx)))
        data_in.advance_to(t_ns + tick_ns)

    sim.on_tick.insert(0, feed)

    steady = LatencyHistogram()
    first_mig = min((m["at_s"] for m in migrations), default=duration_s)
    in_steady = [False]

    def steady_window(sim_: Simulation, t0: float) -> None:
        want = warmup_s <= t0 < first_mig
        if want and not in_steady[0]:
            sim_.latency_windows.append(steady)
            in_steady[0] = True
        elif not want and in_steady[0]:
            sim_.latency_windows.remove(steady)
            in_steady[0] = False

    sim.on_tick.append(steady_window)

    sim.run(duration_s)
    # run on until scheduled migrations complete
    if driver is not None and not driver.idle:
        sim.run_until(lambda s: driver.idle, max_seconds=completion_timeout_s)
        if strict_completion:
            assert driver.idle, "migration did not complete (liveness violation)"
    if drain:
        sim.drain(max_seconds=600.0)
    return steady, list(driver.records) if driver else []
