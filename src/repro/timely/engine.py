"""Discrete-event simulated timely-dataflow runtime.

The runtime executes a small DAG of dataflow operators across ``W`` logical
workers (the paper uses 16 workers in 4 processes). It provides the timely
concepts Megaphone relies on:

* integer logical timestamps on every message (nanoseconds of event time);
* frontiers / progress tracking: for every channel the engine knows the
  minimum logical timestamp that may still arrive, derived from upstream
  capabilities, buffered work, and in-flight messages;
* capabilities: operator instances may hold times, which holds downstream
  frontiers back (Megaphone's F holds the migration time on the state
  channel until state has been shipped);
* probes: observe an operator's output frontier (F watches S's);
* exchange channels: instances address messages to specific workers.

Simulated time is float seconds. Each worker has a clock (``busy_until``);
scheduling runs in ticks of ``cost.tick`` seconds. Cross-process messages
queue on the sending process's NIC (bandwidth ``cost.nic_bw``), which is what
produces both the all-at-once latency spike and its memory spike (paper §5.3.5).
Latencies recorded during a tick are applied to ``Simulation.latency`` and
the open ``latency_windows`` once, at the end of that tick.

This is a simulation substrate: numbers it produces are governed by the
calibrated :class:`repro.timely.cost.CostModel`, but the *data* flowing
through it is real (numpy/pandas batches), so operator correctness is checked
against the DuckDB oracle.
"""
from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro.latency.histogram import LatencyHistogram
from repro.timely.cost import CostModel


def frontier_min(*candidates: Optional[float]) -> Optional[float]:
    """Minimum of integer frontiers where ``None`` means closed/empty.

    Timestamps are totally ordered, so a frontier is a single minimum. A
    closed input contributes nothing; if every candidate is closed the
    result is closed (None).
    """
    live = [c for c in candidates if c is not None]
    return min(live) if live else None


@dataclass(eq=False)
class Batch:
    """A timestamped batch of records.

    All records in a batch share one logical timestamp ``time`` (the tick
    their event time falls in); ``arrivals`` carries each record's exact
    arrival in simulated seconds for latency measurement. ``data`` is
    workload-defined (dict of numpy arrays, pandas DataFrame, or state
    payloads); ``nbytes`` is the modelled wire size.
    """

    time: int
    data: Any
    arrivals: Optional[np.ndarray] = None
    nbytes: float = 0.0

    def __len__(self) -> int:
        if self.arrivals is not None:
            return len(self.arrivals)
        try:
            return len(self.data)
        except TypeError:
            return 1


class _InFlight(NamedTuple):
    """Heap entry of a message in flight; ``seq`` is unique, so entries
    order by (deliver_time, seq) and the batch is never compared."""

    deliver_time: float
    seq: int
    dst_worker: int
    batch: Batch


class _TimeSet:
    """Multiset of logical times with O(log n) min (lazy-deletion heap); a
    time is pushed when its count goes from 0 to 1."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._heap: list = []

    def add(self, t: int) -> None:
        c = self._counts.get(t, 0)
        self._counts[t] = c + 1
        if not c:
            heapq.heappush(self._heap, t)

    def remove(self, t: int) -> None:
        c = self._counts[t] - 1
        if c:
            self._counts[t] = c
        else:
            del self._counts[t]

    def min(self) -> Optional[int]:
        while self._heap and self._counts.get(self._heap[0], 0) == 0:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return sum(self._counts.values())


class Channel:
    """A dataflow edge with per-destination-instance queues and progress.

    ``gate_frontier`` — the minimum logical time that may *still arrive* at
    the destination (undelivered messages plus everything the sources could
    still produce) — is recomputed by the simulation each scheduling pass.
    """

    def __init__(self, name: str, src: "Operator | InputHandle", dst: "Operator"):
        self.name = name
        self.src = src
        self.dst = dst
        self.queues: list[list[Batch]] = [[] for _ in range(dst.sim.workers)]
        self.in_flight: list[_InFlight] = []
        self.undelivered = _TimeSet()
        self.queued = _TimeSet()  # delivered but not yet consumed
        # gate_frontier: min time that is not yet fully processed on this
        # edge (includes delivered-but-unconsumed) — drives downstream
        # progress. arrive_frontier: min time that may still *arrive* at the
        # destination — the destination's own apply gate (its queue is in its
        # hands and consumed before acting).
        self.gate_frontier: Optional[float] = 0.0
        self.arrive_frontier: Optional[float] = 0.0
        dst.input_channels.append(self)
        src.output_channels.append(self)
        dst.sim.channels.append(self)

    # -- message lifecycle -------------------------------------------------
    def send(self, dst_worker: int, batch: Batch, deliver_time: float, seq: int) -> None:
        heapq.heappush(
            self.in_flight, _InFlight(deliver_time, seq, dst_worker, batch)
        )
        self.undelivered.add(batch.time)

    def deliver_due(self, now: float) -> None:
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= now:
            _, _, dst_worker, batch = heapq.heappop(in_flight)
            self.undelivered.remove(batch.time)
            self.queued.add(batch.time)
            self.queues[dst_worker].append(batch)

    def take(self, worker: int) -> list[Batch]:
        got = self.queues[worker]
        if got:
            self.queues[worker] = []
            for b in got:
                self.queued.remove(b.time)
        return got

    def pending_min(self) -> Optional[int]:
        return frontier_min(self.undelivered.min(), self.queued.min())


class Operator:
    """A named dataflow operator with one instance per worker."""

    def __init__(self, sim: "Simulation", name: str):
        self.sim = sim
        self.name = name
        self.input_channels: list[Channel] = []
        self.output_channels: list[Channel] = []
        self.instances: list[OperatorInstance] = []
        self.could_produce: Optional[float] = 0.0
        sim.operators.append(self)

    def add_instances(self, factory: Callable[[int], "OperatorInstance"]) -> None:
        for w in range(self.sim.workers):
            inst = factory(w)
            inst.op = self
            inst.worker = w
            self.instances.append(inst)


class OperatorInstance:
    """Per-worker operator instance. Subclasses implement ``schedule``.

    ``held_times()`` reports capabilities (including buffered/pending work)
    that hold the operator's output frontier back.
    """

    op: Operator
    worker: int

    def held_times(self) -> list[int]:
        return []

    def schedule(self, ctx: "Ctx") -> bool:
        """Run once; charge costs via ``ctx``; return True if work was done."""
        raise NotImplementedError


class InputHandle:
    """External source: holds a capability at ``epoch`` until advanced.

    ``send`` delivers a batch to a chosen worker of the destination operator
    at the current simulation time (sources are outside the NIC model).
    """

    def __init__(self, sim: "Simulation", name: str):
        self.sim = sim
        self.name = name
        self.epoch: Optional[int] = 0
        self.output_channels: list[Channel] = []
        sim.inputs.append(self)

    def send(self, dst_worker: int, batch: Batch) -> None:
        assert self.epoch is not None and batch.time >= self.epoch, (
            f"send at {batch.time} behind epoch {self.epoch} on {self.name}"
        )
        for ch in self.output_channels:
            ch.send(dst_worker, batch, self.sim.now, self.sim.next_seq())

    def advance_to(self, t: int) -> None:
        if self.epoch is None:  # closed inputs stay closed
            return
        assert t >= self.epoch, f"cannot regress epoch {self.epoch} -> {t}"
        self.epoch = t

    def close(self) -> None:
        self.epoch = None


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
        self.queued: list[tuple[float, float]] = []  # (drain_time, bytes)

    def transmit(self, now: float, nbytes: float) -> float:
        start = max(now, self.busy_until)
        self.busy_until = start + nbytes / self.bw
        heapq.heappush(self.queued, (self.busy_until, nbytes))
        return self.busy_until + self.latency

    def queued_bytes(self, now: float) -> float:
        while self.queued and self.queued[0][0] <= now:
            heapq.heappop(self.queued)
        return sum(b for _, b in self.queued)


class Ctx:
    """Charging context for one ``schedule`` call of one instance."""

    def __init__(self, sim: "Simulation", worker: int, start: float):
        self.sim = sim
        self.worker = worker
        self.now = start

    def charge(self, seconds: float, jitter: bool = True) -> None:
        if seconds > 0:
            self.sim.total_cpu += seconds
            self.now += self.sim.cost.jitter(seconds) if jitter else seconds

    def send(self, channel: Channel, dst_worker: int, batch: Batch) -> None:
        """Send ``batch`` to ``dst_worker``; cross-process goes via the NIC."""
        sim = self.sim
        src_p, dst_p = sim.cost.process_of(self.worker), sim.cost.process_of(dst_worker)
        if src_p == dst_p:
            deliver = self.now
        else:
            deliver = sim.nics[src_p].transmit(self.now, batch.nbytes)
        channel.send(dst_worker, batch, deliver, sim.next_seq())

    def record_latency(self, arrivals: np.ndarray) -> None:
        """Record ``now - arrivals``; applied to the histograms at tick end."""
        self.sim.tick_latency.append(self.now - arrivals)


class Simulation:
    """The simulated cluster and dataflow graph. Operators are added in
    topological order; the per-tick loop delivers messages, recomputes
    frontiers, and schedules instances in graph order for ``PASSES`` passes
    (two passes let a record traverse F then S within one tick)."""

    PASSES = 2

    def __init__(self, cost: Optional[CostModel] = None):
        # finished simulations are reference cycles: free them before this
        # one grows, or back-to-back runs (sweeps) stack their peak memory
        gc.collect()
        self.cost = cost or CostModel()
        self.workers = self.cost.workers
        self.now = 0.0
        self.worker_busy = np.zeros(self.workers)
        self.nics = [
            _Nic(self.cost.nic_bw, self.cost.net_latency)
            for _ in range(self.cost.processes)
        ]
        self.operators: list[Operator] = []
        self.inputs: list[InputHandle] = []
        self.channels: list[Channel] = []
        self.latency = LatencyHistogram()
        self.latency_windows: list[LatencyHistogram] = []
        # latencies recorded during the current tick; windows open and close
        # only in on_tick callbacks, so one flush per tick is exact
        self.tick_latency: list[np.ndarray] = []
        self.total_cpu = 0.0
        self.tick_index = 0
        self._seq = itertools.count()
        self.on_tick: list[Callable[["Simulation", float], None]] = []
        # state bytes per process, maintained by stateful operators, for the
        # memory experiment (Fig 20).
        self.state_bytes = np.zeros(self.cost.processes)
        self.memory_samples: list[tuple[float, np.ndarray]] = []
        self.sample_memory = False

    def next_seq(self) -> int:
        return next(self._seq)

    # -- progress tracking -------------------------------------------------
    def recompute_frontiers(self) -> None:
        """Propagate could-produce frontiers through the DAG (topo order)."""
        for ch in self.channels:
            src_f = (
                ch.src.epoch
                if isinstance(ch.src, InputHandle)
                else ch.src.could_produce
            )
            ch.gate_frontier = frontier_min(src_f, ch.pending_min())
            ch.arrive_frontier = frontier_min(src_f, ch.undelivered.min())
        for op in self.operators:
            candidates: list[Optional[float]] = [
                ch.gate_frontier for ch in op.input_channels
            ]
            for inst in op.instances:
                held = inst.held_times()
                if held:
                    candidates.append(min(held))
            op.could_produce = frontier_min(*candidates)
            # refresh downstream gate views of channels sourced here (topo
            # order makes this exact for a DAG)
            for ch in op.output_channels:
                ch.gate_frontier = frontier_min(op.could_produce, ch.pending_min())
                ch.arrive_frontier = frontier_min(
                    op.could_produce, ch.undelivered.min()
                )

    # -- main loop ---------------------------------------------------------
    def step_tick(self) -> None:
        t0 = self.tick_index * self.cost.tick
        t1 = t0 + self.cost.tick
        self.now = t0
        for cb in self.on_tick:
            cb(self, t0)
        for _ in range(self.PASSES):
            for ch in self.channels:
                ch.deliver_due(t1)
            self.recompute_frontiers()
            for op in self.operators:
                for inst in op.instances:
                    w = inst.worker
                    if self.worker_busy[w] >= t1:
                        continue  # worker saturated: work waits, latency grows
                    ctx = Ctx(self, w, max(self.worker_busy[w], t0))
                    if inst.schedule(ctx):
                        self.worker_busy[w] = ctx.now
        self.recompute_frontiers()
        if self.tick_latency:
            lat = np.concatenate(self.tick_latency)
            self.tick_latency = []
            idx = LatencyHistogram.index(lat)
            self.latency.record(lat, idx)
            for w in self.latency_windows:
                w.record(lat, idx)
        if self.sample_memory:
            extra = np.array(
                [nic.queued_bytes(t1) for nic in self.nics]
            )
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
