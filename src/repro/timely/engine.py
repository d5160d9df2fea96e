"""Discrete-event simulated timely-dataflow runtime.

The runtime executes a small DAG of dataflow operators across ``W`` logical
workers (the paper uses 16 workers in 4 processes). It provides the timely
concepts Megaphone relies on:

* integer logical timestamps on every message (nanoseconds of event time);
* frontiers / progress tracking: for every channel the engine knows the
  minimum logical timestamp that may still arrive, derived from upstream
  capabilities, buffered work, and in-flight messages. One pass over the
  operators in topological order (checked as each channel is built) sets
  each operator's input channels from their sources' ``could_produce`` and
  folds them with the operator's held times into its own ``could_produce``;
* capabilities: operator instances may hold times, which holds downstream
  frontiers back (Megaphone's F holds the migration time on the state
  channel until state has been shipped);
* probes: observe an operator's output frontier (F watches S's);
* exchange channels: instances address messages to specific workers; one
  multi-destination send (``Ctx.scatter``) hands each worker a
  :class:`Piece`, a view of one destination-sorted batch;
* the send-within-capability rule: an operator sends only at times at or
  after its ``could_produce`` from the last frontier pass.

Simulated time is float seconds. Each worker has a clock (``busy_until``);
scheduling runs in ticks of ``cost.tick`` seconds, each of ``PASSES``
passes. A pass delivers the messages due, recomputes the frontiers and then,
per operator in graph order, runs only the instances that the operator's
``stage`` activates, as timely runs an operator only when activated: those
with work (queued input, a ripe time, a bin to ship) whose worker is free
before the tick ends. A saturated worker's input stays queued and holds its
channel's frontier. Cross-process messages
queue on the sending process's NIC (bandwidth ``cost.nic_bw``), which is what
produces both the all-at-once latency spike and its memory spike (paper §5.3.5).
``Ctx.record_latency`` keeps ``(now, arrivals)``, from the records' column
:data:`ARRIVAL`; the tick's end subtracts them all in one numpy operation
and records them, but for NaN ones (post-dated records), in
``Simulation.latency`` and the open ``latency_windows``.

Bookkeeping is per pass and per logical time, not per message: a channel
counts its undelivered and queued messages per time (a frontier is a
``min`` over a few distinct times) and moves the messages due with one sort
on ``(deliver_time, seq)``; an operator's ``stage`` may do work for all
its instances before they run in a pass, and its ``earliest_held`` gives the
frontier pass its capabilities in one call. ``recompute_frontiers`` checks
that no frontier goes back and that a closed one stays closed.

This is a simulation substrate: numbers it produces are governed by the
calibrated :class:`repro.timely.cost.CostModel`, but the *data* flowing
through it is real (numpy/pandas batches), so operator correctness is checked
against the DuckDB oracle.
"""
from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro.latency.histogram import LatencyHistogram
from repro.timely.cost import CostModel


def frontier_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Minimum of two integer frontiers where ``None`` means closed/empty.

    Timestamps are totally ordered, so a frontier is a single minimum. A
    closed input contributes nothing; if both are closed the result is
    closed (None). Ties return ``a``.
    """
    return a if b is None or (a is not None and a <= b) else b


ARRIVAL = "arrival"  # records' arrival times in simulated s; NaN if post-dated


@dataclass(eq=False, slots=True)
class Batch:
    """A timestamped batch of records.

    All records in a batch share one logical timestamp ``time`` (the tick
    their event time falls in). ``data`` is workload-defined: records as a
    dict of equal-length columns, :data:`ARRIVAL` among them, control
    updates or state payloads; ``nbytes`` is the modelled wire size.
    """

    time: int
    data: Any
    nbytes: float = 0.0


class Piece(NamedTuple):
    """Records ``lo:hi`` of ``batch``, at its ``time``: what one worker gets
    of a multi-destination send. A whole batch is the piece ``(time,
    batch, 0, n)``."""

    time: int
    batch: Batch
    lo: int
    hi: int


class _InFlight(NamedTuple):
    """A message (a ``Batch`` or a ``Piece``) in flight; ``seq`` is unique,
    so messages order by (deliver_time, seq) and the batch is never
    compared."""

    deliver_time: float
    seq: int
    dst_worker: int
    batch: Batch | Piece


# builds a NamedTuple from a tuple without the NamedTuple constructor's
# Python-level __new__ (one per message sent)
_tuple_new = tuple.__new__


class Channel:
    """A dataflow edge with per-destination-instance queues and progress.

    ``gate_frontier`` — the minimum logical time that may *still arrive* at
    the destination (undelivered messages plus everything the sources could
    still produce) — is recomputed by the simulation each scheduling pass.
    The source must be an input or an operator added before the destination,
    so that one pass in operator order sees every source's current frontier.
    """

    def __init__(self, name: str, src: "Operator | InputHandle", dst: "Operator"):
        self.name = name
        self.src = src
        self.dst = dst
        self.queues: list[list[Batch | Piece]] = [[] for _ in range(dst.sim.workers)]
        # sent since the last delivery (unordered); those not due then wait
        # in the heap ``_later``
        self.in_flight: list[_InFlight] = []
        self._later: list[_InFlight] = []
        # message counts per time: undelivered, delivered but not consumed
        self.undelivered: dict[int, int] = {}
        self.queued: dict[int, int] = {}
        # gate_frontier: min time that is not yet fully processed on this
        # edge (includes delivered-but-unconsumed) — drives downstream
        # progress. arrive_frontier: min time that may still *arrive* at the
        # destination — the destination's own apply gate (its queue is in its
        # hands and consumed before acting).
        self.gate_frontier: Optional[float] = 0.0
        self.arrive_frontier: Optional[float] = 0.0
        if isinstance(src, InputHandle):
            src.output_channels.append(self)
        else:
            ops = dst.sim.operators
            assert src in ops[: ops.index(dst)], (
                f"channel {name}: source {src.name} must be added before "
                f"destination {dst.name} (operators run in topological order)"
            )
        dst.input_channels.append(self)
        dst.sim.channels.append(self)

    # -- message lifecycle -------------------------------------------------
    def send(self, dst_worker: int, batch: Batch, deliver_time: float, seq: int) -> None:
        self.in_flight.append(_tuple_new(_InFlight, (deliver_time, seq, dst_worker, batch)))
        u, t = self.undelivered, batch.time
        u[t] = u.get(t, 0) + 1

    def send_all(self, sent: list[_InFlight], time: int) -> None:
        """Send messages all at ``time`` in one step."""
        self.in_flight += sent
        u = self.undelivered
        u[time] = u.get(time, 0) + len(sent)

    def deliver_due(self, now: float) -> None:
        """Queue every message due by ``now`` at its destination, in
        (deliver_time, seq) order."""
        due, later = [], self._later
        if self.in_flight:
            for m in self.in_flight:
                if m[0] <= now:
                    due.append(m)
                else:
                    heapq.heappush(later, m)
            self.in_flight = []
        while later and later[0][0] <= now:
            due.append(heapq.heappop(later))
        if not due:
            return
        due.sort()
        u, q, queues = self.undelivered, self.queued, self.queues
        for _, _, w, batch in due:
            t = batch.time
            c = u[t] - 1
            if c:
                u[t] = c
            else:
                del u[t]
            q[t] = q.get(t, 0) + 1
            queues[w].append(batch)

    def take(self, worker: int, frontier: Optional[float] = None) -> list[Batch | Piece]:
        """Take the worker's queued messages at times before ``frontier``
        (all of them if None), in order; the others stay queued in order."""
        got = self.queues[worker]
        if not got:
            return got
        if frontier is not None and any(b.time >= frontier for b in got):
            self.queues[worker] = [b for b in got if b.time >= frontier]
            got = [b for b in got if b.time < frontier]
        else:
            self.queues[worker] = []
        q = self.queued
        for b in got:
            c = q[b.time] - 1
            if c:
                q[b.time] = c
            else:
                del q[b.time]
        return got

    def set_frontiers(self, src_f: Optional[float]) -> None:
        """Recompute both frontiers from the source's frontier ``src_f``."""
        self.arrive_frontier = f = frontier_min(src_f, min(self.undelivered, default=None))
        self.gate_frontier = frontier_min(f, min(self.queued, default=None))


class Operator:
    """A named dataflow operator with one instance per worker."""

    def __init__(self, sim: "Simulation", name: str):
        self.sim = sim
        self.name = name
        self.input_channels: list[Channel] = []
        self.instances: list[OperatorInstance] = []
        self.could_produce: Optional[float] = 0.0
        sim.operators.append(self)

    def earliest_held(self) -> Optional[int]:
        """The earliest time the operator holds a capability at (buffered or
        pending work, or shared state), or None; asked once per frontier
        pass. By default, the earliest of the instances' ``held_times``."""
        return min((t for inst in self.instances for t in inst.held_times()), default=None)

    def stage(self, t1: float) -> list["OperatorInstance"]:
        """Per-pass work before the instances run; returns the instances to
        schedule in this pass, in worker order. An instance is activated
        only if its worker is free by ``t1``; by default every such one."""
        busy = self.sim.worker_busy
        return [inst for inst in self.instances if busy[inst.worker] < t1]

    def add_instances(self, factory: Callable[[int], "OperatorInstance"]) -> None:
        for w in range(self.sim.workers):
            inst = factory(w)
            inst.op = self
            inst.worker = w
            self.instances.append(inst)


class OperatorInstance:
    """Per-worker operator instance. Subclasses implement ``schedule``.

    ``held_times()`` reports capabilities (including buffered/pending work)
    that hold the operator's output frontier back; an operator that
    overrides ``earliest_held`` may track them itself.
    """

    op: Operator
    worker: int

    def held_times(self) -> list[int]:
        return []

    def schedule(self, ctx: "Ctx") -> bool:
        """Run once; charge costs via ``ctx``; return True if work was done."""
        raise NotImplementedError


class InputHandle:
    """External source: holds a capability at ``could_produce`` until
    advanced (the attribute an operator's frontier has, too).

    ``send`` delivers a batch to a chosen worker of the destination operator
    at the current simulation time (sources are outside the NIC model).
    """

    def __init__(self, sim: "Simulation", name: str):
        self.sim = sim
        self.name = name
        self.could_produce: Optional[int] = 0
        self.output_channels: list[Channel] = []
        sim.inputs.append(self)

    def send(self, dst_worker: int, batch: Batch) -> None:
        f = self.could_produce
        assert f is not None and batch.time >= f, (
            f"send at {batch.time} behind frontier {f} on {self.name}"
        )
        sim = self.sim
        for ch in self.output_channels:
            ch.send(dst_worker, batch, sim.now, sim.seq)
            sim.seq += 1

    def advance_to(self, t: int) -> None:
        f = self.could_produce
        if f is None:  # closed inputs stay closed
            return
        assert t >= f, f"cannot regress frontier {f} -> {t}"
        self.could_produce = t

    def close(self) -> None:
        self.could_produce = None


class Probe:
    """Observes an operator's output frontier (paper §4.3)."""

    def __init__(self, op: Operator):
        self.op = op

    def reached(self, t: int) -> bool:
        """True iff nothing earlier than ``t`` can still appear at the output
        (``t`` is present in or behind the frontier) — the condition for
        *initiating* a migration at ``t``."""
        f = self.op.could_produce
        return f is None or f >= t

    def passed(self, t: int) -> bool:
        """True iff all work at times <= ``t`` is complete (the frontier is
        strictly beyond ``t``) — the condition for migration *completion*."""
        f = self.op.could_produce
        return f is None or f > t


class _Nic:
    """Per-process NIC: FIFO bandwidth queue + in-flight byte accounting."""

    def __init__(self, bw: float, latency: float):
        self.bw = bw
        self.latency = latency
        self.busy_until = 0.0
        self.queued: list[tuple[float, float]] = []  # (drain_time, bytes), in order

    def transmit(self, now: float, nbytes: float) -> float:
        start = max(now, self.busy_until)
        self.busy_until = start + nbytes / self.bw
        self.queued.append((self.busy_until, nbytes))
        return self.busy_until + self.latency

    def drop_drained(self, now: float) -> None:
        """Forget the transfers that have left the NIC by ``now``."""
        q = self.queued  # in drain order: busy_until never decreases
        n = 0
        while n < len(q) and q[n][0] <= now:
            n += 1
        del q[:n]

    def queued_bytes(self, now: float) -> float:
        self.drop_drained(now)
        return sum(b for _, b in self.queued)


def _check_capability(channel: Channel, time: int) -> None:
    """Timely's capability rule: an operator sends at ``time`` only if its
    ``could_produce`` from the last frontier pass is not later."""
    f = channel.src.could_produce
    assert f is not None and time >= f, (
        f"{channel.src.name}: send at {time} on {channel.name} behind its "
        f"capability {f}"
    )


class Ctx:
    """Charging context of one worker: ``now`` is the worker's clock during
    the ``schedule`` call it is passed to."""

    __slots__ = ("sim", "worker", "now")

    def __init__(self, sim: "Simulation", worker: int, start: float):
        self.sim = sim
        self.worker = worker
        self.now = start

    def charge(self, seconds: float) -> None:
        if seconds > 0:
            self.now += self.sim.cost.jitter(seconds)

    def send(self, channel: Channel, dst_worker: int, batch: Batch) -> None:
        """Send ``batch`` to ``dst_worker``; cross-process goes via the NIC."""
        _check_capability(channel, batch.time)
        sim = self.sim
        src_p = sim.process_of[self.worker]
        if src_p == sim.process_of[dst_worker]:
            deliver = self.now
        else:
            deliver = sim.nics[src_p].transmit(self.now, batch.nbytes)
        channel.send(dst_worker, batch, deliver, sim.seq)
        sim.seq += 1

    def scatter(self, channel: Channel, batch: Batch, counts: list[int]) -> None:
        """Send ``batch``, its records sorted by destination, in one step:
        worker ``w`` gets the piece of the next ``counts[w]`` records and
        their share of ``batch.nbytes``.

        Deliver times, NIC queue entries and ``seq`` numbers equal those of
        one ``send`` per piece in worker order: a cross-process piece starts
        at ``max(now, busy_until)`` of this process's NIC, plus the
        transfer times of the pieces before it."""
        time = batch.time
        _check_capability(channel, time)
        sim, now = self.sim, self.now
        process_of = sim.process_of
        src_p = process_of[self.worker]
        nic = sim.nics[src_p]
        bw, latency, queued = nic.bw, nic.latency, nic.queued
        per_record = batch.nbytes / max(sum(counts), 1)
        busy = max(now, nic.busy_until)
        sent, seq, hi = [], sim.seq, 0
        for w, n in enumerate(counts):
            if not n:
                continue
            lo, hi = hi, hi + n
            if process_of[w] == src_p:
                deliver = now
            else:
                nbytes = per_record * n
                nic.busy_until = busy = busy + nbytes / bw
                queued.append((busy, nbytes))
                deliver = busy + latency
            piece = _tuple_new(Piece, (time, batch, lo, hi))
            sent.append(_tuple_new(_InFlight, (deliver, seq, w, piece)))
            seq += 1
        sim.seq = seq
        channel.send_all(sent, time)

    def record_latency(self, arrivals: np.ndarray) -> None:
        """Record ``now - arrivals`` at tick end; NaN arrivals record nothing."""
        self.sim.tick_latency.append((self.now, arrivals))


class Simulation:
    """The simulated cluster and dataflow graph. Operators are added in
    topological order (``Channel`` checks it); the per-tick loop delivers
    messages, recomputes frontiers, and schedules the instances each
    operator's ``stage`` activates, in graph order, for ``PASSES`` passes
    (two passes let a record traverse F then S within one tick)."""

    PASSES = 2

    def __init__(self, cost: Optional[CostModel] = None):
        # finished simulations are reference cycles: free them before this
        # one grows, or back-to-back runs (sweeps) stack their peak memory
        gc.collect()
        self.cost = cost or CostModel()
        self.workers = self.cost.workers
        self.now = 0.0
        self.worker_busy = [0.0] * self.workers
        self.process_of = [self.cost.process_of(w) for w in range(self.workers)]
        self.nics = [
            _Nic(self.cost.nic_bw, self.cost.net_latency)
            for _ in range(self.cost.processes)
        ]
        self.operators: list[Operator] = []
        self.inputs: list[InputHandle] = []
        self.channels: list[Channel] = []
        self.latency = LatencyHistogram()
        self.latency_windows: list[LatencyHistogram] = []
        # (now, arrivals) recorded during the current tick; windows open and
        # close only in on_tick callbacks, so one flush per tick is exact
        self.tick_latency: list[tuple[float, np.ndarray]] = []
        self.tick_index = 0
        self.seq = 0  # the next message's sequence number
        self.on_tick: list[Callable[["Simulation", float], None]] = []
        # state bytes per process, maintained by stateful operators, for the
        # memory experiment (Fig 20).
        self.state_bytes = np.zeros(self.cost.processes)
        self.memory_samples: list[tuple[float, np.ndarray]] = []
        self.sample_memory = False
        # one context per worker; step_tick sets its clock before a schedule
        self.ctxs = [Ctx(self, w, 0.0) for w in range(self.workers)]

    # -- progress tracking -------------------------------------------------
    def recompute_frontiers(self) -> None:
        """Propagate could-produce frontiers through the DAG in one pass: in
        topological order every source's ``could_produce`` is current when
        its channel is set. No frontier goes back or reopens."""
        for op in self.operators:
            f = None
            for ch in op.input_channels:
                ch.set_frontiers(ch.src.could_produce)
                f = frontier_min(f, ch.gate_frontier)
            f = frontier_min(f, op.earliest_held())
            old = op.could_produce
            assert f is None or (old is not None and f >= old), (
                f"{op.name}: frontier went back from {old} to {f}"
            )
            op.could_produce = f

    # -- main loop ---------------------------------------------------------
    def step_tick(self) -> None:
        t0 = self.tick_index * self.cost.tick
        t1 = t0 + self.cost.tick
        self.now = t0
        for cb in self.on_tick:
            cb(self, t0)
        worker_busy, ctxs = self.worker_busy, self.ctxs
        for _ in range(self.PASSES):
            for ch in self.channels:
                ch.deliver_due(t1)
            self.recompute_frontiers()
            for op in self.operators:
                # only activated instances run; a saturated worker's work
                # waits (and holds its frontiers), so latency grows
                for inst in op.stage(t1):
                    w = inst.worker
                    busy = worker_busy[w]
                    ctx = ctxs[w]
                    ctx.now = busy if busy > t0 else t0
                    if inst.schedule(ctx):
                        worker_busy[w] = ctx.now
        self.recompute_frontiers()
        if self.tick_latency:
            nows, arrivals = zip(*self.tick_latency)
            self.tick_latency = []
            lat = np.repeat(nows, [len(a) for a in arrivals]) - np.concatenate(arrivals)
            lat = lat[~np.isnan(lat)]
            idx = LatencyHistogram.index(lat)
            self.latency.record(lat, idx)
            for w in self.latency_windows:
                w.record(lat, idx)
        for nic in self.nics:  # sampled or not: the queues hold only bytes in flight
            nic.drop_drained(t1)
        if self.sample_memory:
            extra = np.array([nic.queued_bytes(t1) for nic in self.nics])
            self.memory_samples.append((t1, self.state_bytes + extra))
        self.now = t1
        self.tick_index += 1

    def run(self, seconds: float) -> None:
        n = int(round(seconds / self.cost.tick))
        for _ in range(n):
            self.step_tick()

    def run_until(self, cond: Callable[["Simulation"], bool], max_seconds: float) -> None:
        limit = self.tick_index + int(round(max_seconds / self.cost.tick))
        while not cond(self) and self.tick_index < limit:
            self.step_tick()

    def drain(self, max_seconds: float = 60.0) -> None:
        """Close inputs and run until all frontiers are closed (Property 3)."""
        for h in self.inputs:
            h.close()
        self.run_until(
            lambda s: all(op.could_produce is None for op in s.operators),
            max_seconds,
        )
        assert all(op.could_produce is None for op in self.operators), (
            "completion (liveness) violated: frontier did not close; "
            + ", ".join(f"{op.name}={op.could_produce}" for op in self.operators)
        )
