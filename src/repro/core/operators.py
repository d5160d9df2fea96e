"""Megaphone's F/S operator pair (paper §3.4, §4).

``MigratableOperator`` wraps a user ``StateLogic`` (the L operator) into the
two-operator construction of Figure 3b:

* **F** ingests the data stream and the control stream. It routes data by
  the timestamped bin→worker configuration, buffering records whose time is
  in advance of the control frontier. It integrates configuration updates
  once certain, and initiates migrations: when the S-output probe shows that
  a bin's state has absorbed all updates before the migration time, the F
  instance co-located with the current owner extracts the bin (state plus
  pending records, via the shared pointer), serialises it and ships it to
  the new owner on the state channel at the migration timestamp. Until then
  every F instance holds a capability at the migration time, which holds the
  S frontier at that time.
* **S** hosts the state bins. It installs received state immediately, and
  applies data batches in timestamp order once their time is no longer in
  advance of either the data or the state input frontier, via the extended
  Notificator.

``NativeOperator`` is the baseline: a single hand-partitioned stateful
operator without bins, control input, or migration support.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.control import ConfigAuthority, ControlUpdate, RoutingTable
from repro.timely.engine import (
    Batch,
    Channel,
    Ctx,
    InputHandle,
    Operator,
    OperatorInstance,
    Probe,
    Simulation,
    frontier_min,
)
from repro.timely.notificator import Notificator


class StateLogic:
    """User logic L hosted by an S instance: binned keyed state.

    Implementations keep all bins owned by one worker and apply record
    batches vectorised across bins (the Spark/pandas idiom for per-key
    folds). ``extract_bin``/``install_bin`` move one bin's state; the
    *nominal* byte size drives the simulated serialisation/network costs
    even when the in-memory state uses a scaled-down domain.
    """

    def apply(self, time: int, data: Any) -> None:
        raise NotImplementedError

    def take_postdated(self) -> list[tuple[int, Any]]:
        """Post-dated records the operator sends itself (§3.2: an operator
        "may schedule further per-key changes at future timestamps"). They
        enter the hosting S's notificator, hold its frontier, and migrate
        with their bin."""
        return []

    def extract_bin(self, b: int) -> tuple[Any, float]:
        """Remove and return (payload, nominal_nbytes) for bin ``b``."""
        raise NotImplementedError

    def install_bin(self, b: int, payload: Any, nbytes: float) -> None:
        raise NotImplementedError

    def owned_bins(self) -> int:
        """Number of bins currently hosted (drives maintenance cost)."""
        raise NotImplementedError


def take_batch(batch: Batch, idx: np.ndarray, nbytes: float = 0.0) -> Batch:
    """The records ``idx`` of ``batch``, at the same time. Record batches
    are dicts of equal-length columns; the key column is ``k``."""
    return Batch(
        time=batch.time,
        data={name: col[idx] for name, col in batch.data.items()},
        arrivals=None if batch.arrivals is None else batch.arrivals[idx],
        nbytes=nbytes,
    )


def _merge_batches(batches: list[Batch]) -> Batch:
    """Concatenate same-timestamp batches into one (per-batch costs in the
    simulator are per *apply*, so S consolidates its inbox per timestamp)."""
    if len(batches) == 1:
        return batches[0]
    # timer/self-notification batches carry no arrivals; merge what exists
    arrs = [b.arrivals for b in batches if b.arrivals is not None]
    arr = np.concatenate(arrs) if arrs else None
    return Batch(
        time=batches[0].time,
        data={
            name: np.concatenate([b.data[name] for b in batches])
            for name in batches[0].data
        },
        arrivals=arr,
        nbytes=sum(b.nbytes for b in batches),
    )


@dataclass
class _Migration:
    time: int
    bin: int
    src: int
    dst: int
    sent: bool = False


@dataclass
class _SharedRouting:
    """Routing state shared by the F instances of one process (the paper
    shares bins via pointers between same-process operators; our simulation
    runs one process, so one copy integrated in lockstep)."""

    routing: RoutingTable
    pending: list = field(default_factory=list)  # heap of (time, seq, update)
    migrations: list = field(default_factory=list)
    seq: int = 0

    def push(self, updates: list[ControlUpdate]) -> None:
        for u in updates:
            heapq.heappush(self.pending, (u.time, self.seq, u))
            self.seq += 1

    def integrate(self, control_frontier: Optional[float]) -> None:
        """Apply updates whose time is no longer in advance of the control
        frontier; record the implied migrations."""
        ready: list[ControlUpdate] = []
        while self.pending and (
            control_frontier is None or self.pending[0][0] < control_frontier
        ):
            ready.append(heapq.heappop(self.pending)[2])
        for u in ready:
            prev = self.routing.owner_before(u.time, u.bin)
            self.routing.apply_updates([u])
            if prev != u.worker:
                self.migrations.append(_Migration(u.time, u.bin, prev, u.worker))

    def held_times(self) -> list[int]:
        held = [t for t, _, _ in self.pending[:1]]
        held += [m.time for m in self.migrations if not m.sent]
        return held


class _FInstance(OperatorInstance):
    def __init__(self, owner: "MigratableOperator", worker: int):
        self.mo = owner
        self.buffer: list[Batch] = []  # data in advance of the control frontier

    def held_times(self) -> list[int]:
        held = self.mo.shared.held_times()
        if self.buffer:
            held.append(min(b.time for b in self.buffer))
        return held

    def schedule(self, ctx: Ctx) -> bool:
        mo, sim = self.mo, ctx.sim
        # fast path: nothing queued, buffered, pending, or migrating
        shared = mo.shared
        if (
            not mo.control_ch.queues[self.worker]
            and not mo.data_ch.queues[self.worker]
            and not self.buffer
            and not shared.pending
            and not shared.migrations
        ):
            return False
        did = False
        # 1. ingest control messages (delivered to worker 0, table is shared)
        for cb in mo.control_ch.take(self.worker):
            mo.shared.push(cb.data)
            did = True
        # control gating must use the *full* gate frontier (including
        # delivered-but-unconsumed control messages): the control stream is
        # consumed by worker 0's instance but consulted by all instances, so
        # a message queued at worker 0 must hold everyone back
        control_frontier = mo.control_ch.gate_frontier
        # 2. integrate certain configuration updates (shared, idempotent)
        mo.shared.integrate(control_frontier)
        # 3. ingest + route data
        self.buffer.extend(mo.data_ch.take(self.worker))
        if self.buffer:
            routable, held = [], []
            for b in self.buffer:
                if control_frontier is None or b.time < control_frontier:
                    routable.append(b)
                else:
                    held.append(b)
            if routable:
                self.buffer = held
                for b in routable:
                    self._route(ctx, b)
                did = True
        # 4. initiate actionable migrations owned by this worker
        for m in mo.shared.migrations:
            if m.sent or m.src != self.worker:
                continue
            if not mo.probe.reached(m.time):
                continue
            s_inst = mo.s_op.instances[self.worker]
            payload, nbytes, pending = s_inst.uninstall_bin(m.bin)
            ctx.charge(nbytes / sim.cost.ser_bw)
            ctx.send(
                mo.state_ch,
                m.dst,
                Batch(
                    time=m.time,
                    data=(m.bin, payload, pending, self.worker),
                    nbytes=nbytes,
                ),
            )
            m.sent = True
            did = True
        mo.shared.migrations = [m for m in mo.shared.migrations if not m.sent]
        mo.shared.routing.compact(mo.data_ch.gate_frontier)
        return did

    def _route(self, ctx: Ctx, batch: Batch) -> None:
        mo = self.mo
        keys = batch.data["k"]
        bins = mo.bin_fn(keys)
        workers = mo.shared.routing.lookup(batch.time, bins)
        ctx.charge(len(keys) * ctx.sim.cost.c_exchange)
        order = np.argsort(workers, kind="stable")
        dest_sorted = workers[order]
        uniq, starts = np.unique(dest_sorted, return_index=True)
        ends = np.append(starts[1:], len(order))
        per_rec_bytes = batch.nbytes / max(len(keys), 1)
        for w, lo, hi in zip(uniq, starts, ends):
            sub = take_batch(batch, order[lo:hi], per_rec_bytes * (hi - lo))
            ctx.send(mo.data_out_ch, int(w), sub)


class _LogicHost(OperatorInstance):
    """One worker's logic L and its extended Notificator: the apply loop
    shared by S and the native operator. ``owner`` supplies ``c_record``
    and ``authority``; with an authority, every applied batch is checked
    against the configuration (Property 2)."""

    def __init__(self, owner, worker: int):
        self.owner = owner
        self.logic = owner.logic_factory(worker)
        self.notif = Notificator()

    def held_times(self) -> list[int]:
        t = self.notif.min_time()
        return [] if t is None else [t]

    def apply_ripe(self, ctx: Ctx, gate: Optional[float]) -> bool:
        """Apply ripe batches in timestamp order, one merged batch per time;
        return True if any was applied."""
        owner = self.owner
        by_time: dict[int, list[Batch]] = {}
        for t, batch in self.notif.ripe(gate):
            by_time.setdefault(t, []).append(batch)
        for t in sorted(by_time):
            batch = _merge_batches(by_time[t])
            if owner.authority is not None:
                keys = batch.data["k"]
                owner.authority.check(t, owner.bin_fn(keys), self.worker)
            self.logic.apply(t, batch.data)
            ctx.charge(len(batch) * owner.c_record)
            if batch.arrivals is not None:
                ctx.record_latency(batch.arrivals)
            for pt, pdata in self.logic.take_postdated():
                assert pt > t, f"post-dated record at {pt} not after {t}"
                self.notif.notify_at(pt, Batch(time=pt, data=pdata))
        return bool(by_time)


class _SInstance(_LogicHost):
    _last_maintained_tick = -1

    def uninstall_bin(self, b: int) -> tuple[Any, float, list]:
        """Shared-pointer extraction used by the co-located F instance:
        removes the bin's state *and* its pending records."""
        mo = self.owner
        payload, nbytes = self.logic.extract_bin(b)
        keep, moved = Notificator(), []
        for t, batch in self.notif.drain_all():
            mask = mo.bin_fn(batch.data["k"]) == b
            if mask.any():
                moved.append((t, take_batch(batch, np.nonzero(mask)[0])))
                rest = np.nonzero(~mask)[0]
                if len(rest):
                    keep.notify_at(t, take_batch(batch, rest))
            else:
                keep.notify_at(t, batch)
        self.notif = keep
        # NOTE: sender-side state bytes are *not* released here — the
        # serialised copy queues on the NIC and the original allocation is
        # only returned once the transfer completes (this is the paper's
        # Fig 20 all-at-once memory spike); release happens at install time.
        return payload, nbytes, moved

    def schedule(self, ctx: Ctx) -> bool:
        mo, sim = self.owner, ctx.sim
        # batches apply once their time is behind both inputs' frontiers
        gate = frontier_min(mo.data_out_ch.arrive_frontier, mo.state_ch.arrive_frontier)
        # fast path: no queued input and no ripe pending work
        if (
            not mo.state_ch.queues[self.worker]
            and not mo.data_out_ch.queues[self.worker]
        ):
            mn = self.notif.min_time()
            if mn is None or (gate is not None and mn >= gate):
                return False
        did = False
        # 1. install migrated state immediately (paper §3.4)
        for sb in mo.state_ch.take(self.worker):
            b, payload, pending, src_worker = sb.data
            self.logic.install_bin(b, payload, sb.nbytes)
            for t, pb in pending:
                self.notif.notify_at(t, pb)
            ctx.charge(sb.nbytes / sim.cost.deser_bw)
            sim.state_bytes[sim.cost.process_of(src_worker)] -= sb.nbytes
            sim.state_bytes[sim.cost.process_of(self.worker)] += sb.nbytes
            did = True
        # 2. enqueue data
        for db in mo.data_out_ch.take(self.worker):
            self.notif.notify_at(db.time, db)
            did = True
        # 3. apply ripe batches in timestamp order
        if self.apply_ripe(ctx, gate):
            did = True
        # 4. per-iteration maintenance: scan of local bins / routing state
        if did and sim.tick_index != self._last_maintained_tick:
            self._last_maintained_tick = sim.tick_index
            ctx.charge(sim.cost.maintenance(self.logic.owned_bins()))
        return did


class MigratableOperator:
    """Builds the F→S pair with data, control and state channels, a probe on
    S's output, and Property-2 checking against a :class:`ConfigAuthority`."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        *,
        n_bins: int,
        initial_assignment: np.ndarray,
        logic_factory: Callable[[int], StateLogic],
        c_record: float,
        data_input: InputHandle,
        control_input: InputHandle,
        bin_fn: Callable[[np.ndarray], np.ndarray],
        authority: Optional[ConfigAuthority] = None,
    ):
        self.logic_factory = logic_factory
        self.c_record = c_record
        self.bin_fn = bin_fn
        self.authority = authority
        self.shared = _SharedRouting(RoutingTable(n_bins, initial_assignment))

        self.f_op = Operator(sim, f"{name}.F")
        self.s_op = Operator(sim, f"{name}.S")
        self.data_ch = Channel(f"{name}.data_in", data_input, self.f_op)
        self.control_ch = Channel(f"{name}.control", control_input, self.f_op)
        self.data_out_ch = Channel(f"{name}.data", self.f_op, self.s_op)
        self.state_ch = Channel(f"{name}.state", self.f_op, self.s_op)
        self.f_op.add_instances(lambda w: _FInstance(self, w))
        self.s_op.add_instances(lambda w: _SInstance(self, w))
        self.probe = Probe(self.s_op)


class _NativeInstance(_LogicHost):
    def schedule(self, ctx: Ctx) -> bool:
        did = False
        for db in self.owner.data_ch.take(self.worker):
            self.notif.notify_at(db.time, db)
            did = True
        if self.apply_ripe(ctx, self.owner.data_ch.arrive_frontier):
            did = True
        return did


class NativeOperator:
    """Hand-partitioned baseline stateful operator: no bins, no control
    stream, no migration capability (the paper's "Native" rows)."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        *,
        logic_factory: Callable[[int], StateLogic],
        c_record: float,
        data_input: InputHandle,
    ):
        self.logic_factory = logic_factory
        self.c_record = c_record
        self.authority = None
        self.op = Operator(sim, f"{name}.native")
        self.data_ch = Channel(f"{name}.data_in", data_input, self.op)
        self.op.add_instances(lambda w: _NativeInstance(self, w))
        self.probe = Probe(self.op)
