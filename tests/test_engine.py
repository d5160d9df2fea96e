"""Unit tests for the simulated timely runtime: channels, progress tracking,
capabilities, probes, the NIC model and liveness."""
import numpy as np
import pytest

from repro.timely.cost import CostModel
from repro.timely.engine import (
    Batch,
    Channel,
    InputHandle,
    Operator,
    OperatorInstance,
    Probe,
    Simulation,
    _Nic,
    _TimeSet,
    frontier_min,
)


def small_cost(**kw):
    kw.setdefault("workers", 4)
    kw.setdefault("workers_per_process", 2)
    kw.setdefault("jitter_sigma", 0.0)
    kw.setdefault("spike_prob", 0.0)
    return CostModel(**kw)


class Collect(OperatorInstance):
    """Test operator: consumes input once its time passed the arrive gate."""

    def __init__(self, op_ref, worker, gated=True):
        self.got: list[Batch] = []
        self.queue: list[Batch] = []
        self.gated = gated
        self._ch = None

    def held_times(self):
        return [b.time for b in self.queue]

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
                ctx.charge(1e-5, jitter=False)
                did = True
            else:
                keep.append(b)
        self.queue = keep
        return did


def build_sim(**cost_kw):
    sim = Simulation(small_cost(**cost_kw))
    inp = InputHandle(sim, "in")
    op = Operator(sim, "collect")
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
        assert frontier_min(None, None) is None
        assert frontier_min() is None


class TestTimeSet:
    def test_min_with_lazy_deletion(self):
        ts = _TimeSet()
        ts.add(5)
        ts.add(3)
        ts.add(3)
        assert ts.min() == 3
        ts.remove(3)
        assert ts.min() == 3
        ts.remove(3)
        assert ts.min() == 5
        ts.remove(5)
        assert ts.min() is None

    def test_len(self):
        ts = _TimeSet()
        ts.add(1)
        ts.add(1)
        assert len(ts) == 2


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

    def test_closed_stays_closed(self):
        sim, inp, *_ = build_sim()
        inp.close()
        inp.advance_to(100)  # no-op
        assert inp.epoch is None


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

    def test_total_cpu_tracked(self):
        sim, inp, op, ch, insts = build_sim()
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        assert sim.total_cpu == pytest.approx(1e-5)


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
        inp.send(0, Batch(time=0, data=None))
        inp.advance_to(10)
        sim.step_tick()
        assert sim.latency.total >= 1

    def test_memory_sampling(self):
        sim, inp, op, ch, insts = build_sim()
        sim.sample_memory = True
        sim.state_bytes[0] = 123.0
        sim.step_tick()
        assert sim.memory_samples
        t, per_proc = sim.memory_samples[0]
        assert per_proc[0] == pytest.approx(123.0)
