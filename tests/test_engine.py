"""Unit tests for the simulated timely runtime: channels, progress tracking,
capabilities, probes, the NIC model and liveness."""
import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.latency.histogram import LatencyHistogram
from repro.timely.cost import CostModel
from repro.timely.engine import (
    Batch,
    Channel,
    Ctx,
    InputHandle,
    Operator,
    OperatorInstance,
    Probe,
    Simulation,
    _Nic,
    frontier_min,
)


def small_cost(**kw):
    kw.setdefault("workers", 4)
    kw.setdefault("workers_per_process", 2)
    kw.setdefault("jitter_sigma", 0.0)
    kw.setdefault("spike_prob", 0.0)
    return CostModel(**kw)


class CollectOp(Operator):
    """Test operator whose instances hold the times of the messages they
    keep queued."""

    def earliest_held(self):
        return min((b.time for inst in self.instances for b in inst.queue), default=None)


class Collect(OperatorInstance):
    """Test operator instance: consumes input once its time passed the
    arrive gate."""

    def __init__(self, op_ref, worker, gated=True):
        self.got: list[Batch] = []
        self.queue: list[Batch] = []
        self.gated = gated
        self._ch = None

    def schedule(self, ctx):
        ch = self._ch
        did = False
        for b in ch.take(self.worker):
            self.queue.append(b)
            did = True
        gate = ch.arrive_frontier
        keep = []
        for b in self.queue:
            if gate is None or b.time < gate:
                self.got.append(b)
                ctx.charge(1e-5)
                did = True
            else:
                keep.append(b)
        self.queue = keep
        return did


def build_sim(**cost_kw):
    sim = Simulation(small_cost(**cost_kw))
    inp = InputHandle(sim, "in")
    op = CollectOp(sim, "collect")
    ch = Channel("c", inp, op)
    insts = []

    def mk(w):
        i = Collect(op, w)
        i._ch = ch
        insts.append(i)
        return i

    op.add_instances(mk)
    return sim, inp, op, ch, insts


class TestFrontierMin:
    def test_plain_min(self):
        assert frontier_min(3, 5) == 3

    def test_none_is_closed(self):
        assert frontier_min(None, 5) == 5
        assert frontier_min(5, None) == 5
        assert frontier_min(None, None) is None


class TestChannelCounts:
    """A channel counts its undelivered and queued messages per logical
    time; ``set_frontiers`` takes the minimum over those times."""

    def test_frontiers_follow_counts(self):
        sim, inp, op, ch, insts = build_sim()
        for seq, (w, t) in enumerate([(0, 5), (0, 3), (1, 3)]):
            ch.send(w, Batch(time=t, data=None), 0.0, seq)
        ch.set_frontiers(None)
        assert ch.arrive_frontier == ch.gate_frontier == 3
        ch.deliver_due(0.0)
        ch.set_frontiers(None)
        assert ch.arrive_frontier is None and ch.gate_frontier == 3
        ch.take(0)  # the 5 and one 3
        ch.set_frontiers(None)
        assert ch.gate_frontier == 3
        ch.take(1)
        ch.set_frontiers(9)
        assert ch.arrive_frontier == ch.gate_frontier == 9

    def test_counts(self):
        sim, inp, op, ch, insts = build_sim()
        ch.send(0, Batch(time=1, data=None), 0.0, 0)
        ch.send(2, Batch(time=1, data=None), 0.5, 1)
        assert ch.undelivered == {1: 2} and ch.queued == {}
        ch.deliver_due(0.0)
        assert ch.undelivered == {1: 1} and ch.queued == {1: 1}
        ch.deliver_due(1.0)
        ch.take(0)
        assert ch.undelivered == {} and ch.queued == {1: 1}

    def test_readd_after_take(self):
        sim, inp, op, ch, insts = build_sim()
        ch.send(0, Batch(time=4, data=None), 0.0, 0)
        ch.send(0, Batch(time=2, data=None), 1.0, 1)
        ch.deliver_due(1.0)
        ch.take(0)
        ch.send(1, Batch(time=2, data=None), 2.0, 2)
        ch.set_frontiers(None)
        assert ch.arrive_frontier == ch.gate_frontier == 2
        ch.deliver_due(2.0)
        ch.take(1)
        ch.set_frontiers(None)
        assert ch.gate_frontier is None

    def test_frontiers_match_sorted_multiset(self):
        """Random sends (some due later), deliveries and takes (all, or
        those before a frontier) against a model: sorted undelivered and
        queued times, and each worker's queue in (deliver_time, seq)
        order."""
        rng = np.random.default_rng(0)
        sim, inp, op, ch, insts = build_sim()
        undelivered, queued = [], []  # sorted times
        in_flight = []  # (deliver_time, seq, worker, time)
        queues = [[] for _ in range(sim.workers)]
        now, seq = 0.0, 0
        for _ in range(3000):
            r = rng.random()
            if r < 0.5:
                t = int(rng.integers(0, 16))
                w = int(rng.integers(sim.workers))
                d = now + float(rng.choice([0.0, 0.5, 2.0]))
                ch.send(w, Batch(time=t, data=seq), d, seq)
                in_flight.append((d, seq, w, t))
                bisect.insort(undelivered, t)
                seq += 1
            elif r < 0.75:
                now += float(rng.choice([0.0, 0.5, 1.0]))
                ch.deliver_due(now)
                due = sorted(m for m in in_flight if m[0] <= now)
                in_flight = [m for m in in_flight if m[0] > now]
                for _, sq, w, t in due:
                    undelivered.remove(t)
                    bisect.insort(queued, t)
                    queues[w].append((t, sq))
            else:
                w = int(rng.integers(sim.workers))
                frontier = None if rng.random() < 0.5 else int(rng.integers(0, 20))
                got = ch.take(w, frontier)
                taken = [m for m in queues[w] if frontier is None or m[0] < frontier]
                assert [(b.time, b.data) for b in got] == taken
                for t, _ in taken:
                    queued.remove(t)
                queues[w] = [m for m in queues[w] if m not in taken]
            src_f = None if rng.random() < 0.2 else int(rng.integers(0, 20))
            ch.set_frontiers(src_f)
            arrive = min([t for t in (src_f,) if t is not None] + undelivered[:1], default=None)
            gate = min([t for t in (arrive,) if t is not None] + queued[:1], default=None)
            assert ch.arrive_frontier == arrive
            assert ch.gate_frontier == gate
        assert sum(ch.undelivered.values()) == len(undelivered)
        assert sum(ch.queued.values()) == len(queued)


class TestNic:
    def test_bandwidth_serialisation(self):
        nic = _Nic(bw=1e9, latency=0.0)
        t1 = nic.transmit(0.0, 1e9)  # 1 second of data
        t2 = nic.transmit(0.0, 1e9)
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)  # queues behind the first

    def test_latency_added(self):
        nic = _Nic(bw=1e9, latency=0.5)
        assert nic.transmit(0.0, 0.0) == pytest.approx(0.5)

    def test_queued_bytes_drain(self):
        nic = _Nic(bw=1e9, latency=0.0)
        nic.transmit(0.0, 2e9)
        assert nic.queued_bytes(1.0) == 2e9
        assert nic.queued_bytes(3.0) == 0.0


class TestProgress:
    def test_gate_follows_epoch(self):
        sim, inp, op, ch, insts = build_sim()
        inp.advance_to(10)
        sim.recompute_frontiers()
        assert ch.gate_frontier == 10
        assert op.could_produce == 10

    def test_message_holds_frontier(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(0, Batch(time=5, data=None))
        inp.advance_to(100)
        sim.recompute_frontiers()
        assert ch.gate_frontier == 5  # undelivered message at 5

    def test_undelivered_vs_queued_distinction(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(0, Batch(time=5, data=None))
        inp.advance_to(100)
        ch.deliver_due(1.0)
        sim.recompute_frontiers()
        assert ch.arrive_frontier == 100  # delivered: cannot *arrive* anymore
        assert ch.gate_frontier == 5  # but still unconsumed: holds progress

    def test_held_times_hold_frontier(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(1, Batch(time=7, data=None))
        inp.advance_to(100)
        sim.step_tick()
        # gated operator keeps 7 queued (gate=100 > 7 so it applies)
        assert insts[1].got and insts[1].got[0].time == 7

    def test_gating_waits_for_epoch(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(1, Batch(time=50, data=None))
        # epoch still 0: record at 50 is in advance of the frontier -> wait
        sim.step_tick()
        assert not insts[1].got
        assert op.could_produce == 0
        inp.advance_to(51)
        sim.step_tick()
        assert insts[1].got

    def test_closed_input_drains(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(2, Batch(time=5, data=None))
        inp.close()
        sim.step_tick()
        assert insts[2].got
        assert op.could_produce is None

    def test_probe_reached_vs_passed(self):
        sim, inp, op, ch, insts = build_sim()
        probe = Probe(op)
        inp.advance_to(10)
        sim.recompute_frontiers()
        assert probe.reached(10)
        assert not probe.passed(10)
        assert probe.passed(9)

    def test_epoch_regression_rejected(self):
        sim, inp, *_ = build_sim()
        inp.advance_to(10)
        with pytest.raises(AssertionError):
            inp.advance_to(5)

    def test_send_behind_epoch_rejected(self):
        sim, inp, *_ = build_sim()
        inp.advance_to(10)
        with pytest.raises(AssertionError):
            inp.send(0, Batch(time=5, data=None))

    def test_one_pass_sees_current_upstream_frontier(self):
        """input -> A -> B: B's input channel gets A's frontier from the
        same pass, not the one A had before it."""
        sim = Simulation(small_cost())
        inp = InputHandle(sim, "in")
        a, b = Operator(sim, "A"), Operator(sim, "B")
        Channel("in->A", inp, a)
        ab = Channel("A->B", a, b)
        inp.advance_to(10)
        sim.recompute_frontiers()
        assert a.could_produce == 10
        assert ab.gate_frontier == ab.arrive_frontier == 10
        assert b.could_produce == 10

    def test_channel_against_operator_order_rejected(self):
        sim = Simulation(small_cost())
        a, b = Operator(sim, "A"), Operator(sim, "B")
        Channel("A->B", a, b)
        with pytest.raises(AssertionError, match="channel B->A: .*topological"):
            Channel("B->A", b, a)
        with pytest.raises(AssertionError, match="channel A->A"):
            Channel("A->A", a, a)

    def test_closed_stays_closed(self):
        sim, inp, *_ = build_sim()
        inp.close()
        inp.advance_to(100)  # no-op
        assert inp.could_produce is None


class TestWorkerClocks:
    def test_costs_accumulate_on_worker(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        assert sim.worker_busy[0] >= 1e-5
        assert sim.worker_busy[3] == 0.0

    def test_saturated_worker_defers_work(self):
        sim, inp, op, ch, insts = build_sim()
        sim.worker_busy[0] = 1.0  # worker blocked for 1 simulated second
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        assert not insts[0].got  # deferred
        sim.worker_busy[0] = 0.0
        inp.advance_to(20)
        sim.step_tick()
        assert insts[0].got

    def test_charge_advances_worker_clock(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        assert sim.worker_busy[0] == pytest.approx(1e-5)


class TestNicIntegration:
    def test_cross_process_send_uses_nic(self):
        sim, inp, op, ch, insts = build_sim()
        from repro.timely.engine import Ctx

        ctx = Ctx(sim, 0, 0.0)
        # worker 0 (process 0) -> worker 2 (process 1): NIC path
        ctx.send(ch, 2, Batch(time=0, data=None, nbytes=sim.cost.nic_bw))
        assert ch.in_flight[0].deliver_time == pytest.approx(
            1.0 + sim.cost.net_latency
        )

    def test_same_process_send_immediate(self):
        sim, inp, op, ch, insts = build_sim()
        from repro.timely.engine import Ctx

        ctx = Ctx(sim, 0, 0.25)
        ctx.send(ch, 1, Batch(time=0, data=None, nbytes=1e12))
        assert ch.in_flight[0].deliver_time == pytest.approx(0.25)


    def test_drained_transfers_leave_the_nic_queue(self):
        from repro.timely.engine import Ctx

        sim, inp, op, ch, insts = build_sim()
        Ctx(sim, 0, 0.0).send(ch, 2, Batch(time=0, data=None, nbytes=1e3))
        assert len(sim.nics[0].queued) == 1
        sim.step_tick()  # memory sampling is off: nothing reads the queue
        assert not sim.nics[0].queued

    def test_process_table_at_process_boundaries(self):
        from repro.timely.engine import Ctx

        sim, inp, op, ch, insts = build_sim(workers=8, workers_per_process=4)
        assert sim.process_of == [0, 0, 0, 0, 1, 1, 1, 1]
        nbytes = 0.5 * sim.cost.nic_bw  # half a simulated second on the wire

        def send(src, dst, now):
            ctx = Ctx(sim, src, now)
            ctx.send(ch, dst, Batch(time=0, data=None, nbytes=nbytes))
            return max(ch.in_flight, key=lambda m: m.seq).deliver_time

        # same process: delivered at the sender's clock, no NIC queueing
        assert send(3, 0, 0.25) == 0.25
        assert send(4, 7, 0.5) == 0.5
        assert [nic.busy_until for nic in sim.nics] == [0.0, 0.0]
        # 3 -> 4 goes through process 0's NIC, 4 -> 3 through process 1's
        lat = sim.cost.net_latency
        assert send(3, 4, 0.25) == pytest.approx(0.75 + lat)
        assert sim.nics[0].busy_until == pytest.approx(0.75)
        assert sim.nics[1].busy_until == 0.0
        assert send(4, 3, 1.0) == pytest.approx(1.5 + lat)
        assert sim.nics[1].busy_until == pytest.approx(1.5)
        assert sim.nics[0].busy_until == pytest.approx(0.75)


class TestScatter:
    @pytest.mark.parametrize("busy_bytes", [0.0, 3.3e6])
    def test_matches_one_send_per_piece(self, busy_bytes):
        """``Ctx.scatter``'s deliver times, seqs, NIC queue entries and NIC
        clock equal those of one ``Ctx.send`` per piece in worker order, bit
        for bit: same-process and cross-process destinations, from an idle
        NIC and from one busy past the sender's clock."""
        counts = [3, 0, 5, 2, 0, 7, 1, 4]  # worker 2 sends; 2 and 3 share a process
        record_nbytes = 56.117

        def run(one_step):
            sim, inp, op, ch, insts = build_sim(workers=8)
            ctx = Ctx(sim, 2, 0.0123)
            if busy_bytes:
                ctx.send(ch, 7, Batch(time=0, data=None, nbytes=busy_bytes))
                assert sim.nics[1].busy_until > ctx.now
            if one_step:
                ctx.scatter(ch, 0, {}, counts, record_nbytes)
                pieces = [(m.msg.lo, m.msg.hi) for m in ch.in_flight[-6:]]
                assert pieces == [(0, 3), (3, 8), (8, 10), (10, 17), (17, 18), (18, 22)]
            else:
                for w, n in enumerate(counts):
                    if n:
                        ctx.send(ch, w, Batch(time=0, data=None, nbytes=record_nbytes * n))
            sent = [(m.deliver_time, m.seq, m.dst_worker) for m in ch.in_flight]
            nic = sim.nics[1]
            return sent, list(nic.queued), nic.busy_until, sim.seq, ch.undelivered

        assert run(True) == run(False)


class TestSendWithinCapability:
    def test_send_behind_capability_rejected(self):
        """Both sends check the time against the sending operator's
        ``could_produce``; a closed operator sends nothing."""
        sim = Simulation(small_cost())
        a, b = Operator(sim, "a"), Operator(sim, "b")
        ch = Channel("ab", a, b)
        a.could_produce = 10
        ctx = Ctx(sim, 0, 0.0)
        ctx.send(ch, 1, Batch(time=10, data=None))
        ctx.scatter(ch, 12, {}, [1, 1], 8.0)
        match = r"a: send at 9 on ab behind its capability 10"
        with pytest.raises(AssertionError, match=match):
            ctx.send(ch, 1, Batch(time=9, data=None))
        with pytest.raises(AssertionError, match=match):
            ctx.scatter(ch, 9, {}, [0, 1], 8.0)
        a.could_produce = None
        with pytest.raises(AssertionError, match=r"behind its capability None"):
            ctx.send(ch, 1, Batch(time=10, data=None))


class Relay(OperatorInstance):
    """Chain test instance: holds each message it takes at a drawn time at
    or after the message's for a drawn number of ticks, then sends it on to
    a drawn worker, maybe with enough bytes to queue on the NIC."""

    def __init__(self, draw, inp, out):
        self.draw, self.inp, self.out = draw, inp, out
        self.held = []  # (time, tick to send at)

    def schedule(self, ctx):
        draw, tick, did = self.draw, ctx.sim.tick_index, False
        for m in self.inp.take(self.worker):
            self.held.append((m.time + draw(st.integers(0, 2)), tick + draw(st.integers(0, 2))))
            did = True
        keep = []
        for t, due in self.held:
            if due > tick:
                keep.append((t, due))
                continue
            nbytes = draw(st.sampled_from([0.0, 1e6]))
            ctx.send(self.out, draw(st.integers(0, 3)), Batch(time=t, data=None, nbytes=nbytes))
            did = True
        self.held = keep
        return did


class RelayOp(Operator):
    def earliest_held(self):
        return min((t for inst in self.instances for t, _ in inst.held), default=None)


class LateChecked(Collect):
    """Collect that checks that every message it takes is later than every
    time it applied (no late arrival)."""

    def schedule(self, ctx):
        last = max((b.time for b in self.got), default=-1)
        for b in self._ch.queues[self.worker]:
            assert b.time > last, f"late arrival: {b.time} after {last} was applied"
        return super().schedule(ctx)


def assert_monotone(frontiers):
    """Each operator's frontiers, one list per tick, never go back and stay
    closed once closed."""
    for before, after in zip(frontiers, frontiers[1:]):
        for f0, f1 in zip(before, after):
            assert f1 is None or (f0 is not None and f1 >= f0), (f0, f1)


class TestProgressSafety:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_chain_keeps_progress_safe(self, data):
        """input -> A -> B -> sink, with random sends at or ahead of the
        input frontier, random input advances and saturated workers; A and
        B hold each message for a while at a later time and send it on
        within that capability. No send is behind its capability, no
        frontier goes back, the sink takes no late message, and at drain
        every frontier closes (Property 3) with every message applied."""
        draw = data.draw
        sim = Simulation(small_cost())
        inp = InputHandle(sim, "in")
        a, b, sink = RelayOp(sim, "A"), RelayOp(sim, "B"), CollectOp(sim, "sink")
        ia, ab, bs = Channel("in->A", inp, a), Channel("A->B", a, b), Channel("B->sink", b, sink)
        a.add_instances(lambda w: Relay(draw, ia, ab))
        b.add_instances(lambda w: Relay(draw, ab, bs))
        sinks = []

        def mk(w):
            sinks.append(LateChecked(sink, w))
            sinks[-1]._ch = bs
            return sinks[-1]

        sink.add_instances(mk)
        sent, frontiers = 0, []
        for _ in range(draw(st.integers(1, 12))):
            for w, ahead in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4)):
                inp.send(w, Batch(time=inp.could_produce + ahead, data=None))
                sent += 1
            inp.advance_to(inp.could_produce + draw(st.integers(0, 2)))
            if draw(st.booleans()):
                w = draw(st.integers(0, 3))
                busy = sim.now + draw(st.sampled_from([0.5e-3, 3e-3]))
                sim.worker_busy[w] = max(sim.worker_busy[w], busy)
            sim.step_tick()
            frontiers.append([op.could_produce for op in sim.operators])
        sim.drain(max_seconds=1.0)
        frontiers.append([op.could_produce for op in sim.operators])
        assert_monotone(frontiers)
        assert sum(len(s.got) for s in sinks) == sent


class TestLiveness:
    def test_drain_closes_all_frontiers(self):
        sim, inp, op, ch, insts = build_sim()
        for t in range(5):
            inp.send(t % 4, Batch(time=t, data=None))
        inp.advance_to(10)
        sim.step_tick()
        sim.drain(max_seconds=1.0)
        assert all(o.could_produce is None for o in sim.operators)
        assert sum(len(i.got) for i in insts) == 5

    def test_latency_recording(self):
        sim, inp, op, ch, insts = build_sim()

        class Rec(Collect):
            def schedule(self, ctx):
                r = super().schedule(ctx)
                if self.got:
                    ctx.record_latency(np.array([0.0]))
                    self.got = []
                return r

        # swap instance 0 for a recording one
        rec = Rec(op, 0)
        rec._ch = ch
        rec.op, rec.worker = op, 0
        op.instances[0] = rec
        window = LatencyHistogram()
        sim.latency_windows.append(window)
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        # applied at the end of the tick, to the total and the open window
        assert sim.latency.total >= 1
        assert window.total == sim.latency.total

    def test_nan_arrivals_record_no_latency(self):
        """Post-dated records arrived at no time (NaN arrivals): the tick
        records only the finite latencies, in the total and in an open
        window, also where a call holds NaN arrivals only."""
        sim = Simulation(small_cost())
        window = LatencyHistogram()
        sim.latency_windows.append(window)

        def record(sim_, t0):
            ctx = sim_.ctxs[0]
            ctx.now = t0 + 0.004
            ctx.record_latency(np.array([0.003, np.nan, 0.001]))
            ctx.record_latency(np.array([np.nan, np.nan]))

        sim.on_tick.append(record)
        sim.step_tick()
        for hist in (sim.latency, window):
            assert hist.total == 2
            assert hist.max == pytest.approx(0.003)

    def test_memory_sampling(self):
        sim, inp, op, ch, insts = build_sim()
        sim.sample_memory = True
        sim.state_bytes[0] = 123.0
        sim.step_tick()
        assert sim.memory_samples
        t, per_proc = sim.memory_samples[0]
        assert per_proc[0] == pytest.approx(123.0)
