"""Megaphone's F/S operator pair (paper §3.4, §4).

``MigratableOperator`` wraps a user ``StateLogic`` (the L operator) into the
two-operator construction of Figure 3b:

* **F** ingests the data stream and the control stream. It routes data by
  the timestamped bin→worker configuration; records whose time is in
  advance of the control frontier wait in its input queue. It integrates
  configuration updates once certain, and initiates migrations: when the
  S-output probe shows that a bin's state has absorbed all updates before
  the migration time, the F
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

F gathers each routed batch once in destination order and sends it once:
every S instance gets a :class:`repro.timely.engine.Piece`, a view of its
records. Each pass activates only the instances with work: for F, those
with control to take, records the control frontier has passed, or a bin to
ship; for S and the native operator, those with queued state or data or a
ripe pending time. S and the native operator share one receive path,
:class:`_HostOperator`, which stages its active instances once per pass: one
gather of all their ripe pieces and, for S, one bin computation that feeds
both the Property-2 check and L's ``bin`` column. Each instance's
``schedule`` then charges, in worker order. A notificator holds pieces only
(post-dated and installed records are whole batches); a piece entering it
must be later than every time that host applied. S takes the records'
``ARRIVAL`` column out before L applies them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.core.control import ConfigAuthority, ControlUpdate, RoutingTable
from repro.timely.engine import (
    ARRIVAL,
    Batch,
    Channel,
    Ctx,
    InputHandle,
    Operator,
    OperatorInstance,
    Piece,
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
        """Apply the records at ``time``: a dict of equal-length columns.
        Under S, column ``bin`` holds each record's bin, so L never maps
        keys to bins itself."""
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


def take_batch(batch: Batch, idx: np.ndarray | slice, nbytes: float = 0.0) -> Batch:
    """The records ``idx`` of ``batch``, at the same time (a slice gives
    views). Record batches are dicts of equal-length columns; the key
    column is ``k``."""
    return Batch(
        time=batch.time,
        data={name: col[idx] for name, col in batch.data.items()},
        nbytes=nbytes,
    )


def whole(batch: Batch) -> Piece:
    """All records of ``batch`` as one piece."""
    return Piece(batch.time, batch, 0, len(batch.data["k"]))


@dataclass
class _Migration:
    time: int
    bin: int
    src: int
    dst: int


@dataclass
class _SharedRouting:
    """Routing state shared by the F instances of one process (the paper
    shares bins via pointers between same-process operators; our simulation
    runs one process, so one copy integrated in lockstep).

    ``pending`` holds the control updates not yet integrated in arrival
    order, which is time order: one controller feeds the control stream.
    ``migrations`` holds the migrations whose bin is not yet shipped."""

    routing: RoutingTable
    pending: list[ControlUpdate] = field(default_factory=list)
    migrations: list[_Migration] = field(default_factory=list)

    def integrate(self, control_frontier: Optional[float]) -> None:
        """Apply updates whose time is no longer in advance of the control
        frontier; record the implied migrations."""
        pending = self.pending
        n = 0
        while n < len(pending) and (
            control_frontier is None or pending[n].time < control_frontier
        ):
            n += 1
        for u in pending[:n]:
            prev = self.routing.owner_before(u.time, u.bin)
            self.routing.apply_updates([u])
            if prev != u.worker:
                self.migrations.append(_Migration(u.time, u.bin, prev, u.worker))
        del pending[:n]


class _FOperator(Operator):
    """F. Records in advance of the control frontier wait in F's input
    queue, where they hold the data channel's gate and so F's frontier.
    Each pass activates only the instances with work: control to take,
    records to route, or a bin to ship."""

    def __init__(self, sim: Simulation, name: str, owner: "MigratableOperator"):
        super().__init__(sim, name)
        self.mo = owner

    def earliest_held(self) -> Optional[int]:
        """The first pending update and every unshipped migration hold
        their times."""
        shared = self.mo.shared
        held = [m.time for m in shared.migrations]
        if shared.pending:
            held.append(shared.pending[0].time)
        return min(held, default=None)

    def stage(self, t1: float) -> list["_FInstance"]:
        mo = self.mo
        shared, control_ch, data_ch = mo.shared, mo.control_ch, mo.data_ch
        routing = shared.routing
        if len(routing.times) > 1:
            # nothing F still holds or may receive is before its frontier
            routing.compact(self.could_produce)
        if not (data_ch.queued or control_ch.queued or shared.pending or shared.migrations):
            return []
        busy = self.sim.worker_busy
        free = [inst for inst in self.instances if busy[inst.worker] < t1]
        if not free:
            return []  # integrating is F's work too: it waits for a free worker
        # control gating must use the *full* gate frontier (including
        # delivered-but-unconsumed control messages): the control stream is
        # consumed by one instance but consulted by all, so a message queued
        # at any worker must hold everyone back. Updates taken in this pass
        # are at or after their queued message's time, so at or after it:
        # integrating before they are taken changes nothing.
        cf = control_ch.gate_frontier
        shared.integrate(cf)  # the shared table, once per pass
        probe = mo.probe
        ships = {m.src for m in shared.migrations if probe.reached(m.time)}
        staged = []
        for inst in free:
            w = inst.worker
            q = data_ch.queues[w]
            if (
                control_ch.queues[w]
                or w in ships
                or (q and (cf is None or any(b.time < cf for b in q)))
            ):
                staged.append(inst)
        return staged


class _FInstance(OperatorInstance):
    def __init__(self, owner: "MigratableOperator", worker: int):
        self.mo = owner

    def schedule(self, ctx: Ctx) -> bool:
        mo, sim, w = self.mo, ctx.sim, self.worker
        shared = mo.shared
        did = False
        # 1. ingest control messages (delivered to one worker; the table is
        # shared, and F's stage integrates it)
        pending = shared.pending
        for cb in mo.control_ch.take(w):
            for u in cb.data:
                assert u.time >= cb.time, f"{self.op.name}: update at {u.time} sent at {cb.time}"
                assert not pending or u.time >= pending[-1].time, (
                    f"{self.op.name}: control update at {u.time} arrived "
                    f"after one at {pending[-1].time} (out of time order)"
                )
                pending.append(u)
            did = True
        # 2. route the records the control frontier has passed
        for b in mo.data_ch.take(w, mo.control_ch.gate_frontier):
            self._route(ctx, b)
            did = True
        # 3. initiate actionable migrations owned by this worker; shipping a
        # bin drops its migration, and with it F's capability at its time
        for m in [m for m in shared.migrations if m.src == w]:
            if not mo.probe.reached(m.time):
                continue
            shared.migrations.remove(m)
            s_inst = mo.s_op.instances[w]
            payload, nbytes, pending = s_inst.uninstall_bin(m.bin)
            ctx.charge(nbytes / sim.cost.ser_bw)
            ctx.send(
                mo.state_ch,
                m.dst,
                Batch(time=m.time, data=(m.bin, payload, pending, w), nbytes=nbytes),
            )
            did = True
        return did

    def _route(self, ctx: Ctx, batch: Batch) -> None:
        mo = self.mo
        keys = batch.data["k"]
        workers = mo.shared.routing.lookup(batch.time, mo.bin_fn(keys))
        ctx.charge(len(keys) * ctx.sim.cost.c_exchange)
        # gather the records once in destination order and send them once:
        # each destination gets a piece of the gathered batch
        order = np.argsort(workers, kind="stable")
        gathered = take_batch(batch, order, batch.nbytes)
        ctx.scatter(mo.data_out_ch, gathered, np.bincount(workers).tolist())


class _HostOperator(Operator):
    """S or the native operator. ``owner`` supplies ``c_record``, ``bin_fn``
    and ``authority``. With a ``bin_fn`` (S), each staged pass bins its
    records once, for L's ``bin`` column and, with an authority, for the
    check of every applied record."""

    def __init__(self, sim: Simulation, name: str, owner):
        super().__init__(sim, name)
        self.owner = owner

    def earliest_held(self) -> Optional[int]:
        held = [t for host in self.instances if (t := host.notif.min_time()) is not None]
        return min(held, default=None)

    def stage(self, t1: float) -> list["_LogicHost"]:
        """Activate the hosts with work: queued input (state or data) or a
        ripe pending time."""
        # a time applies once it is behind every input's frontier
        gate = None
        for ch in self.input_channels:
            gate = frontier_min(gate, ch.arrive_frontier)
        busy = self.sim.worker_busy
        queues = [ch.queues for ch in self.input_channels]
        staged = []
        groups = []  # (host, time, pieces), worker-major, then time order
        for host in self.instances:
            w = host.worker
            if busy[w] >= t1:
                continue
            # queued input, or else a ripe pending time
            for q in queues:
                if q[w]:
                    host.take_inputs()
                    break
            else:
                first = host.notif.min_time()
                if first is None or (gate is not None and first >= gate):
                    continue
            staged.append(host)
            groups += [(host, t, ps) for t, ps in host.notif.drain(gate)]
        if not groups:
            return staged
        # one gather over the concatenated distinct batches the pieces view:
        # the index is arange(records) plus, per piece, the shift from its
        # place in the output to its first record (no piece is empty)
        first = {}  # id(batch) -> its first record in the concatenation
        batches, shifts, lens, counts = [], [], [], []
        rows = pos = 0  # records in the concatenation; in the output
        for _, _, ps in groups:
            pos0 = pos
            for _, b, lo, hi in ps:
                at = first.get(id(b))
                if at is None:
                    at = first[id(b)] = rows
                    batches.append(b)
                    rows += len(b.data["k"])
                shifts.append(at + lo - pos)
                lens.append(hi - lo)
                pos += hi - lo
            counts.append(pos - pos0)
        idx = np.arange(pos) + np.repeat(shifts, lens)
        cols = {
            name: np.concatenate([b.data[name] for b in batches])[idx]
            for name in batches[0].data
        }
        arrivals = cols.pop(ARRIVAL)
        lo = 0
        for (host, t, _), n in zip(groups, counts):
            host.cols = cols  # sliced per time as it applies, to bound memory
            host.ripe.append((t, lo, n, arrivals[lo : lo + n]))
            lo += n
        owner = self.owner
        if owner.bin_fn is not None:
            cols["bin"] = owner.bin_fn(cols["k"])
            if owner.authority is not None:
                owner.authority.check(
                    np.array([t for _, t, _ in groups]).repeat(counts),
                    cols["bin"],
                    np.array([host.worker for host, _, _ in groups]).repeat(counts),
                )
        return staged


class _LogicHost(OperatorInstance):
    """One worker's logic L and its extended Notificator, for S and the
    native operator: staging runs ``take_inputs``, ``schedule`` applies.
    Only staged hosts are scheduled."""

    def __init__(self, owner, worker: int, data_ch: Channel):
        self.owner = owner
        self.data_ch = data_ch
        self.logic = owner.logic_factory(worker)
        self.notif = Notificator()
        self.applied = -1  # the last time applied
        self.installs: list[float] = []  # nbytes of each state installed
        self.cols: dict = {}  # the last staged pass's gathered ripe records
        self.ripe: list[tuple] = []  # (time, first record, records, arrivals)

    def enqueue(self, piece: Piece) -> None:
        t = piece.time
        assert t > self.applied, (
            f"{self.op.name}[{self.worker}]: batch at {t} arrived after time "
            f"{self.applied} was applied (late arrival)"
        )
        self.notif.notify_at(t, piece)

    def take_inputs(self) -> None:
        """Enqueue arrived data (whole batches from the native operator's
        input)."""
        for b in self.data_ch.take(self.worker):
            self.enqueue(whole(b))

    def schedule(self, ctx: Ctx) -> bool:
        deser_bw = ctx.sim.cost.deser_bw
        for nbytes in self.installs:
            ctx.charge(nbytes / deser_bw)
        self.installs = []
        c_record, logic = self.owner.c_record, self.logic
        for t, lo, n, arrivals in self.ripe:
            logic.apply(t, {name: col[lo : lo + n] for name, col in self.cols.items()})
            ctx.charge(n * c_record)
            ctx.record_latency(arrivals)
            self.applied = t
            for pt, pdata in logic.take_postdated():
                nan = np.full(len(pdata["k"]), np.nan)
                self.enqueue(whole(Batch(time=pt, data={**pdata, ARRIVAL: nan})))
        self.ripe = []
        return True


class _SInstance(_LogicHost):
    _last_maintained_tick = -1

    def uninstall_bin(self, b: int) -> tuple[Any, float, list]:
        """Shared-pointer extraction used by the co-located F instance:
        removes the bin's state *and* its pending records, which leave as
        ``(time, batch)`` in (time, arrival) order; the rest stay pending in
        order, a piece's kept records as one whole batch."""
        payload, nbytes = self.logic.extract_bin(b)
        # NOTE: sender-side state bytes are released at install, not here:
        # the original allocation lives until the serialised copy has left
        # the NIC (the paper's Fig 20 all-at-once memory spike)
        pending = [(t, p) for t, ps in self.notif.drain(None) for p in ps]
        if not pending:
            return payload, nbytes, []
        keys = [bt.data["k"][lo:hi] for _, (_, bt, lo, hi) in pending]
        in_bin = self.owner.bin_fn(np.concatenate(keys)) == b
        ends = np.cumsum([len(k) for k in keys]).tolist()
        hits = np.logical_or.reduceat(in_bin, [0] + ends[:-1]).tolist()
        moved = []
        for (t, piece), end, hit in zip(pending, ends, hits):
            if not hit:
                self.enqueue(piece)
                continue
            _, bt, lo, hi = piece
            mask = in_bin[end - (hi - lo) : end]
            moved.append((t, take_batch(bt, lo + np.flatnonzero(mask))))
            rest = lo + np.flatnonzero(~mask)
            if len(rest):
                self.enqueue(whole(take_batch(bt, rest)))
        return payload, nbytes, moved

    def take_inputs(self) -> None:
        """Install migrated state immediately (paper §3.4), then enqueue
        F's pieces."""
        sim = self.op.sim
        for sb in self.owner.state_ch.take(self.worker):
            b, payload, pending, src_worker = sb.data
            self.logic.install_bin(b, payload, sb.nbytes)
            for _, pb in pending:
                self.enqueue(whole(pb))
            sim.state_bytes[sim.process_of[src_worker]] -= sb.nbytes
            sim.state_bytes[sim.process_of[self.worker]] += sb.nbytes
            self.installs.append(sb.nbytes)
        for piece in self.data_ch.take(self.worker):  # F's pieces
            self.enqueue(piece)

    def schedule(self, ctx: Ctx) -> bool:
        super().schedule(ctx)
        # per-iteration maintenance: scan of local bins / routing state
        sim = ctx.sim
        if sim.tick_index != self._last_maintained_tick:
            self._last_maintained_tick = sim.tick_index
            ctx.charge(sim.cost.maintenance(self.logic.owned_bins()))
        return True


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

        self.f_op = _FOperator(sim, f"{name}.F", self)
        self.s_op = _HostOperator(sim, f"{name}.S", self)
        self.data_ch = Channel(f"{name}.data_in", data_input, self.f_op)
        self.control_ch = Channel(f"{name}.control", control_input, self.f_op)
        self.data_out_ch = Channel(f"{name}.data", self.f_op, self.s_op)
        self.state_ch = Channel(f"{name}.state", self.f_op, self.s_op)
        self.f_op.add_instances(lambda w: _FInstance(self, w))
        self.s_op.add_instances(lambda w: _SInstance(self, w, self.data_out_ch))
        self.probe = Probe(self.s_op)


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
        self.bin_fn = self.authority = None
        self.op = _HostOperator(sim, f"{name}.native", self)
        self.data_ch = Channel(f"{name}.data_in", data_input, self.op)
        self.op.add_instances(lambda w: _LogicHost(self, w, self.data_ch))
        self.probe = Probe(self.op)
