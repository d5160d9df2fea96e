"""Focused unit tests of the F/S mechanism, mirroring the paper's Figure 4
walk-through: buffering while the control frontier lags, migration
initiation gated on the S-output probe, capability holding, and pending
records travelling with their bin."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binning import range_bin_of_keys
from repro.core.control import ConfigAuthority, ControlUpdate
from repro.core.operators import (
    MigratableOperator,
    NativeOperator,
    StateLogic,
    _FInstance,
    _SInstance,
    take,
)
from repro.core.strategies import MigrationDriver, initial_assignment
from repro.microbench.count import CountLogic, run_count
from repro.nexmark.stream import run_nexmark
from repro.timely.cost import CostModel
from repro.timely.engine import ARRIVAL, Batch, Ctx, InputHandle, Piece, Simulation
from repro.timely.notificator import Notificator

W, BINS, DOMAIN = 4, 16, 1024
MS = 1_000_000  # ns per tick at tick=1ms
POST_AT = 5 * MS


class PostingCount(CountLogic):
    """CountLogic that logs each apply as (time, keys, bins) and post-dates
    the records it applies at time 0 to ``POST_AT``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen, self._post = [], []

    def apply(self, time, data):
        super().apply(time, data)
        self.seen.append((time, data["k"].copy(), data["bin"].copy()))
        if time == 0:
            self._post.append((POST_AT, {"k": data["k"].copy()}))

    def take_postdated(self):
        out, self._post = self._post, []
        return out


class Reposting(CountLogic):
    """CountLogic that post-dates the records it applies at an even
    millisecond by 3 ms, so that they apply again once (and count twice)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.posted, self._post = 0, []

    def apply(self, time, data):
        super().apply(time, data)
        if time // MS % 2 == 0:
            self._post.append((time + 3 * MS, {"k": data["k"].copy()}))
            self.posted += len(data["k"])

    def take_postdated(self):
        out, self._post = self._post, []
        return out


def drain_all(notif):
    """Drain ``notif``'s pieces, in order."""
    return [p for _, ps in notif.drain(None) for p in ps]


def rows(piece):
    """The records a piece views, as columns."""
    return take(piece.data, slice(piece.lo, piece.hi))


def piece_of(t, data):
    """All records of the columns ``data`` as one piece at ``t``."""
    return Piece(t, data, 0, len(data["k"]))


class Rig:
    """Hand-driven F/S rig: we control the inputs tick by tick. ``logic``
    is a ``CountLogic`` class; each bin's state is ``bin_nbytes``."""

    def __init__(self, logic=CountLogic, bin_nbytes=1e6):
        self.cost = CostModel(
            workers=W, workers_per_process=2, jitter_sigma=0.0, spike_prob=0.0
        )
        self.sim = Simulation(self.cost)
        self.data = InputHandle(self.sim, "data")
        self.control = InputHandle(self.sim, "control")
        assign = initial_assignment(BINS, W)
        self.authority = ConfigAuthority(BINS, assign)
        self.logics = []

        def mk(w):
            lg = logic(
                w,
                scaled_keys=DOMAIN,
                n_bins=BINS,
                bin_nbytes=bin_nbytes,
                assignment=assign,
            )
            self.logics.append(lg)
            return lg

        self.mo = MigratableOperator(
            self.sim,
            "c",
            n_bins=BINS,
            initial_assignment=assign,
            logic_factory=mk,
            c_record=100e-9,
            record_nbytes=8.0,
            data_input=self.data,
            control_input=self.control,
            bin_fn=lambda k: range_bin_of_keys(k, BINS, DOMAIN),
            authority=self.authority,
        )

    def tick(self, n=1):
        for _ in range(n):
            self.sim.step_tick()

    def now_ns(self):
        return self.sim.tick_index * MS

    def send_keys(self, keys, worker=0):
        arrivals = np.full(len(keys), self.sim.tick_index * 1e-3)
        cols = {"k": np.array(keys, dtype=np.int64), ARRIVAL: arrivals}
        self.data.send(worker, piece_of(self.now_ns(), cols))

    def advance_both(self):
        t1 = self.now_ns() + MS
        self.data.advance_to(t1)
        self.control.advance_to(t1)

    def total_counts(self):
        return sum(lg.counts.sum() for lg in self.logics)

    def owner_of_bin(self, b):
        return [w for w, lg in enumerate(self.logics) if b in lg.owned]


class TestBuffering:
    def test_records_buffered_while_control_frontier_lags(self):
        r = Rig()
        # control epoch stays at 0: configuration at the records' time is
        # uncertain, F must buffer (Fig 4a)
        r.send_keys([1, 2, 3])
        r.data.advance_to(r.now_ns() + MS)
        r.tick()
        assert r.total_counts() == 0
        # the batch waits in F0's input queue
        assert len(r.mo.data_ch.queues[0]) == 1

    def test_buffered_records_flow_once_control_advances(self):
        r = Rig()
        r.send_keys([1, 2, 3])
        r.advance_both()
        r.tick(2)
        assert r.total_counts() == 3

    def test_s_frontier_held_by_buffered_data(self):
        r = Rig()
        r.send_keys([5])
        r.data.advance_to(r.now_ns() + MS)
        r.tick()
        # probe cannot pass the buffered record's time
        assert not r.mo.probe.passed(0)


class TestMigrationInitiation:
    def test_state_and_ownership_move(self):
        r = Rig()
        key = 0  # bin 0, worker 0
        r.send_keys([key] * 4)
        r.advance_both()
        r.tick(2)
        assert r.owner_of_bin(0) == [0]
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 3)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 3)]))
        r.advance_both()
        r.tick(3)
        for _ in range(5):
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [3]
        # counts preserved: installed at the new owner
        assert r.logics[3].counts[key] == 4
        # shipping the bin dropped the migration and its capability
        assert not r.mo.f_op.migrations

    def test_records_at_migration_time_go_to_new_owner(self):
        r = Rig()
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 2)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        r.send_keys([0, 0])  # same timestamp as the migration
        r.advance_both()
        for _ in range(6):
            r.advance_both()
            r.tick()
        # applied at worker 2 (configuration at time t_mig), counted once
        assert r.logics[2].counts[0] == 2
        assert r.total_counts() == 2

    def test_capability_held_until_state_shipped(self):
        r = Rig()
        t_mig = r.now_ns()
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        # control frontier not advanced past t_mig: update uncertain, the
        # pending update holds the F (and thus S) frontier at t_mig
        r.data.advance_to(r.now_ns() + 5 * MS)
        r.tick()
        assert not r.mo.probe.passed(t_mig)

    def test_control_update_out_of_time_order_rejected(self):
        r = Rig()
        t = r.now_ns()
        late = ControlUpdate(t + 2 * MS, 0, 2)
        r.control.send(0, Batch(time=late.time, data=[late]))
        # earlier in time than the pending update: F must not reorder it
        r.control.send(0, Batch(time=t, data=[ControlUpdate(t, 1, 2)]))
        with pytest.raises(AssertionError, match=r"c.F: control update at .*out of time order"):
            r.tick()

    def test_update_before_its_message_time_rejected(self):
        r = Rig()
        r.control.send(0, Batch(time=2 * MS, data=[ControlUpdate(MS, 0, 2)]))
        with pytest.raises(AssertionError, match=r"c.F: update at 1000000 sent at 2000000"):
            r.tick()

    def test_noop_update_to_same_worker_is_not_a_migration(self):
        r = Rig()
        t = r.now_ns()
        r.control.send(0, Batch(time=t, data=[ControlUpdate(t, 0, 0)]))
        r.advance_both()
        r.tick(2)
        assert not r.mo.f_op.migrations


class TestApplyCharge:
    """An apply charges ``c_record`` per record it applies, arrived or
    post-dated (NEXMark timers, whose arrivals are NaN)."""

    C_RECORD = 1e-6

    def _host(self):
        sim = Simulation(
            CostModel(workers=W, workers_per_process=2, jitter_sigma=0.0, spike_prob=0.0)
        )

        class Recorded(StateLogic):
            def __init__(self, worker):
                self.applied = []

            def apply(self, time, data):
                self.applied.append(len(data["k"]))

        native = NativeOperator(
            sim,
            "n",
            logic_factory=Recorded,
            c_record=self.C_RECORD,
            data_input=InputHandle(sim, "in"),
        )
        return sim, native.op.instances[0]

    @staticmethod
    def _records(n, arrivals=False):
        # more columns than records in the timer batch, as NEXMark's payloads
        data = {c: np.zeros(n, dtype=np.int64) for c in "kwxyz"}
        data[ARRIVAL] = np.zeros(n) if arrivals else np.full(n, np.nan)
        return piece_of(0, data)

    @staticmethod
    def _apply(sim, host):
        """Close the input, so that every pending time is ripe, stage the
        operator and schedule the host; return the host's clock."""
        sim.inputs[0].close()
        sim.recompute_frontiers()
        host.op.stage(sim.cost.tick)
        ctx = Ctx(sim, 0, 0.0)
        assert host.schedule(ctx)
        return ctx.now

    def test_timer_only_apply_charges_per_timer(self):
        sim, host = self._host()
        host.notif.notify_at(0, self._records(3))
        assert self._apply(sim, host) == pytest.approx(3 * self.C_RECORD)
        assert host.logic.applied == [3]

    def test_timers_merged_with_data_are_charged(self):
        sim, host = self._host()
        host.notif.notify_at(0, self._records(4, arrivals=True))
        host.notif.notify_at(0, self._records(3))
        assert self._apply(sim, host) == pytest.approx(7 * self.C_RECORD)
        assert host.logic.applied == [7]


class TestRouting:
    def test_route_matches_take_per_destination(self):
        """F's one send of a routed piece's gathered records against one
        ``take`` per destination: same destinations in order, and each
        piece views the same columns, arrivals among them, at the routed
        piece's time; the NIC carries each cross-process destination's
        ``record_nbytes`` per record. The routed piece views the middle of
        its columns. Worker 1 owns none of the keys and gets no piece."""
        r = Rig()
        rng = np.random.default_rng(3)
        width = DOMAIN // BINS
        bins = rng.choice([b for b in range(BINS) if b % W != 1], 200)
        keys = bins * width + rng.integers(0, width, len(bins))
        cols = {"k": keys, "v": rng.random(len(keys)), ARRIVAL: np.sort(rng.random(len(keys)))}
        piece = Piece(4 * MS, cols, 20, 170)
        r.mo.f_op.instances[0]._route(Ctx(r.sim, 0, 0.0), piece)
        sent = sorted(r.mo.data_out_ch.in_flight, key=lambda m: m.seq)

        routed = rows(piece)
        owners = r.mo.f_op.routing.lookup(piece.time, r.mo.bin_fn(routed["k"]))
        expected = []
        for w in range(W):
            idx = np.flatnonzero(owners == w)
            if len(idx):
                expected.append((w, take(routed, idx)))
        assert [w for w, _ in expected] == [0, 2, 3]
        assert [m.dst_worker for m in sent] == [w for w, _ in expected]
        assert len({id(m.msg.data) for m in sent}) == 1  # one gathered copy
        for m, (_, ref) in zip(sent, expected):
            assert m.msg.time == piece.time
            got = rows(m.msg)
            assert got.keys() == ref.keys()
            for name in ref:
                assert np.array_equal(got[name], ref[name])
        # workers 2 and 3 are in the other process
        assert [nb for _, nb in r.sim.nics[0].queued] == [
            8.0 * len(ref["k"]) for _, ref in expected[1:]
        ]


class TestStagedPass:
    """S stages all ready workers' ripe records once per pass: one bin
    computation and one Property-2 check over every record."""

    def _stage_ripe(self, r, misplace=None):
        """Pending records at workers 0, 1 and 3 at times 1..3 ms, each in a
        bin its worker owns, except ``misplace`` = (worker, time, bin)."""
        width = DOMAIN // BINS
        for w in (0, 1, 3):
            s_inst = r.mo.s_op.instances[w]
            for t in (1 * MS, 2 * MS, 3 * MS):
                bins = [b for b in range(BINS) if b % W == w][:3]
                if misplace is not None and misplace[:2] == (w, t):
                    bins[1] = misplace[2]
                keys = np.array(bins, dtype=np.int64) * width
                s_inst.notif.notify_at(t, piece_of(t, {"k": keys, ARRIVAL: np.zeros(3)}))
        r.data.close()
        r.control.close()
        r.sim.recompute_frontiers()
        r.mo.s_op.stage(r.sim.cost.tick)

    def test_one_check_covers_every_staged_record(self):
        r = Rig()
        self._stage_ripe(r)
        assert [len(r.mo.s_op.instances[w].ripe) for w in range(W)] == [3, 3, 0, 3]

    def test_gather_keeps_piece_order_and_arrivals(self):
        """Two workers' pieces of one destination-sorted routed send, next
        to post-dated records (NaN arrivals) and another routed piece: each
        worker applies its pieces' records in arrival order with their
        arrivals, and the tick records the latency of the arrived records
        only."""
        r = Rig()
        width = DOMAIN // BINS
        t = 1 * MS
        sorted_keys = np.array([0, 4, 8, 1, 5, 9]) * width  # workers 0,0,0,1,1,1
        shared = {"k": sorted_keys, ARRIVAL: np.arange(1, 7) / 10}
        timer = {"k": np.array([12 * width]), ARRIVAL: [np.nan]}
        late = {"k": np.array([4 * width + 1]), ARRIVAL: [0.9]}
        host0, host1 = r.mo.s_op.instances[:2]
        for host, piece in [
            (host0, piece_of(t, timer)),
            (host1, Piece(t, shared, 3, 6)),
            (host0, Piece(t, shared, 0, 3)),
            (host0, piece_of(t, late)),
        ]:
            host.notif.notify_at(t, piece)
        r.data.close()
        r.control.close()
        r.sim.recompute_frontiers()
        r.mo.s_op.stage(r.sim.cost.tick)
        for host, keys, arrs in [
            (
                host0,
                [12 * width, 0, 4 * width, 8 * width, 4 * width + 1],
                [np.nan, 0.1, 0.2, 0.3, 0.9],
            ),
            (host1, [width, 5 * width, 9 * width], [0.4, 0.5, 0.6]),
        ]:
            [(time, lo, n, arrivals)] = host.ripe
            assert ARRIVAL not in host.cols  # L never sees the column
            assert time == t
            assert host.cols["k"][lo : lo + n].tolist() == keys
            assert np.array_equal(arrivals, arrs, equal_nan=True)
            assert host.schedule(Ctx(r.sim, host.worker, 0.0))
        r.tick()  # the tick's end records the latencies the hosts kept
        assert r.sim.latency.total == 7

    def test_misplaced_record_names_its_time_bin_and_worker(self):
        r = Rig()
        with pytest.raises(
            AssertionError,
            match=r"Migration property violated: bin 6 applied at worker 1 "
            r"at time 2000000, expected worker 2 \(1 records misplaced\)",
        ):
            self._stage_ripe(r, misplace=(1, 2 * MS, 6))

    def test_apply_sees_the_bin_of_every_record(self):
        """L reads each record's bin from S (``data["bin"]``): for routed
        records, for post-dated records, and for post-dated records pending
        in a moved bin, which the migration installs at the new owner."""
        r = Rig(logic=PostingCount)
        width = DOMAIN // BINS
        r.send_keys(np.arange(0, DOMAIN, width // 2))  # two keys of every bin
        r.advance_both()
        r.tick()
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 2)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        for _ in range(20):
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [2]
        seen = [(w, t, k, b) for w, lg in enumerate(r.logics) for t, k, b in lg.seen]
        for _, _, keys, bins in seen:
            assert np.array_equal(bins, r.mo.bin_fn(keys))
        applied = {(w, t, int(k)) for w, t, keys, _ in seen for k in keys}
        # routed, and post-dated at the owner that stays
        assert {(0, 0, 0), (1, 0, width), (1, POST_AT, width)} <= applied
        # post-dated in bin 0, pending at the migration, applied at the new owner
        assert {(2, POST_AT, 0), (2, POST_AT, width // 2)} <= applied
        assert not any(w == 0 and k < width for w, t, k in applied if t >= t_mig)


class TestProgressChecks:
    def test_late_arrival_rejected(self):
        r = Rig()
        r.send_keys([1, 2])
        r.advance_both()
        r.tick(2)
        s_inst = r.mo.s_op.instances[0]
        assert s_inst.applied == 0
        with pytest.raises(AssertionError, match=r"c.S\[0\]: batch at 0 arrived after time 0 was applied \(late"):
            s_inst.enqueue(piece_of(0, {"k": np.array([1])}))

    def test_frontier_going_back_rejected(self):
        r = Rig()
        r.advance_both()
        r.tick()
        r.mo.s_op.could_produce = 10 * MS  # ahead of what S could produce
        with pytest.raises(AssertionError, match=r"c.S: frontier went back from 10000000 to"):
            r.sim.recompute_frontiers()

    def test_closed_frontier_stays_closed(self):
        r = Rig()
        r.mo.f_op.could_produce = None
        with pytest.raises(AssertionError, match=r"c.F: frontier went back from None to 0"):
            r.sim.recompute_frontiers()

    def test_postdated_state_installed_after_later_data_held(self):
        """A post-dated record pending in a moving bin reaches the new owner
        with the bin's state, which is slow to ship (20 MB) while data at
        later times already waits there. S must not apply those times before
        the state input passes them: the post-dated record applies at its
        time, in time order, after the install."""
        r = Rig(logic=PostingCount, bin_nbytes=2e7)
        width = DOMAIN // BINS
        keys = np.arange(0, DOMAIN, width // 2)
        r.send_keys(keys)
        r.advance_both()
        r.tick()
        t_mig = r.now_ns()
        r.authority.register([ControlUpdate(t_mig, 0, 2)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        dst = r.mo.s_op.instances[2]
        held = -1  # the latest time the new owner holds before the install
        for _ in range(60):
            if 0 not in r.logics[2].owned:
                held = max(dst.notif._pending, default=held)
            # from the new owner's process: process 0's NIC is busy shipping
            r.send_keys(keys, worker=3)
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [2]
        assert held > POST_AT
        times = [t for t, _, _ in r.logics[2].seen]
        assert times == sorted(times)
        # key 0 at POST_AT: the record sent then, and the post-dated one
        at_post = np.concatenate([k for t, k, _ in r.logics[2].seen if t == POST_AT])
        assert np.count_nonzero(at_post == 0) == 2


    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_rig_keeps_progress_safe(self, data):
        """An F/S rig driven at random: records sent at or ahead of the data
        frontier, updates moving random bins at increasing times on the
        control stream, independent input advances, saturated workers, and
        post-dated records that may be pending in a moving bin. No send is
        behind its capability, no frontier goes back, no piece reaches S
        late, and at drain every frontier closes (Property 3), every
        migration has shipped, and every record sent or post-dated applied
        once at its bin's owner (Property 2, checked on every apply)."""
        draw = data.draw
        r = Rig(logic=Reposting, bin_nbytes=draw(st.sampled_from([1e3, 2e6])))
        keys = st.lists(st.integers(0, DOMAIN - 1), min_size=1, max_size=6)
        sent, last_update, frontiers = 0, -MS, []
        for _ in range(draw(st.integers(1, 12))):
            for w, ahead, ks in draw(
                st.lists(st.tuples(st.integers(0, W - 1), st.integers(0, 3), keys), max_size=3)
            ):
                cols = {"k": np.array(ks), ARRIVAL: np.full(len(ks), r.sim.now)}
                r.data.send(w, piece_of(r.data.could_produce + ahead * MS, cols))
                sent += len(ks)
            if draw(st.booleans()):
                t = max(last_update + MS, r.control.could_produce) + draw(st.integers(0, 3)) * MS
                u = ControlUpdate(t, draw(st.integers(0, BINS - 1)), draw(st.integers(0, W - 1)))
                r.authority.register([u])
                r.control.send(0, Batch(time=t, data=[u]))
                last_update = t
            for h in (r.data, r.control):
                h.advance_to(h.could_produce + draw(st.integers(0, 2)) * MS)
            if draw(st.booleans()):
                w = draw(st.integers(0, W - 1))
                busy = r.sim.now + draw(st.sampled_from([0.5e-3, 3e-3]))
                r.sim.worker_busy[w] = max(r.sim.worker_busy[w], busy)
            r.tick()
            frontiers.append([op.could_produce for op in r.sim.operators])
        r.sim.drain(max_seconds=2.0)
        frontiers.append([op.could_produce for op in r.sim.operators])
        for before, after in zip(frontiers, frontiers[1:]):
            for f0, f1 in zip(before, after):
                assert f1 is None or (f0 is not None and f1 >= f0), (f0, f1)
        assert not r.mo.f_op.migrations and not r.mo.f_op.pending
        assert r.total_counts() == sent + sum(lg.posted for lg in r.logics)

    @staticmethod
    def _migrate_late(r):
        """Migrate bin 0 at 3 ms, certain at once (the control frontier is
        at 10 ms), while data advances one tick at a time. Worker 0, which
        hosts bin 0, is saturated until 3.5 ms with a record of bin 0 at
        time 0 waiting for it, so S's frontier stays at 0 while the data
        frontier passes 3 ms: F ships the bin in tick 3."""
        t_mig = 3 * MS
        r.sim.worker_busy[0] = 3.5e-3
        r.authority.register([ControlUpdate(t_mig, 0, 2)])
        r.control.send(1, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 2)]))
        r.control.advance_to(10 * MS)
        r.send_keys([0], worker=1)
        for _ in range(8):
            r.data.advance_to(r.now_ns() + MS)
            r.tick()

    def test_state_sent_at_the_migration_time_f_holds(self):
        r = Rig()
        self._migrate_late(r)
        assert r.owner_of_bin(0) == [2]
        assert r.logics[2].counts[0] == 1

    def test_state_sent_behind_capability_rejected(self):
        """F that drops its capability at the migration time before it ships
        the bin sends the state behind its own frontier."""
        r = Rig()
        f = r.mo.f_op
        f.earliest_held = lambda: f.pending[0].time if f.pending else None
        with pytest.raises(
            AssertionError,
            match=r"c.F: send at 3000000 on c.state behind its capability 4000000",
        ):
            self._migrate_late(r)


class TestRoutingCompaction:
    def test_epoch_kept_while_a_saturated_f_holds_a_record(self):
        """F1 holds a record at time 0 while the control frontier lags, then
        its worker saturates. An update at 2 ms is integrated meanwhile; F
        keeps the epoch the record routes by until F1 is free to route it."""
        r = Rig()
        r.send_keys([0], worker=1)  # bin 0, at time 0
        r.data.advance_to(MS)
        r.tick()  # the control frontier is at 0: F1 cannot route yet
        assert r.total_counts() == 0
        r.sim.worker_busy[1] = 5e-3  # worker 1 saturated until 5 ms
        t_up = 2 * MS
        r.authority.register([ControlUpdate(t_up, 1, 2)])
        r.control.send(0, Batch(time=t_up, data=[ControlUpdate(t_up, 1, 2)]))
        epochs = []
        for _ in range(8):
            r.advance_both()
            r.tick()
            epochs.append(list(r.mo.f_op.routing.times))
        assert [0, t_up] in epochs  # kept while F1 held the record
        assert epochs[-1] == [t_up]  # compacted once it was routed
        assert r.logics[0].counts[0] == 1
        assert r.owner_of_bin(1) == [2]


def spy_passes(r):
    """Record the instances each pass of ``r`` stages and schedules."""
    staged, scheduled = [], []
    for op in (r.mo.f_op, r.mo.s_op):

        def stage(t1, stage=op.stage):
            out = stage(t1)
            staged.extend(out)
            return out

        op.stage = stage
        for inst in op.instances:

            def schedule(ctx, schedule=inst.schedule, inst=inst):
                scheduled.append(inst)
                return schedule(ctx)

            inst.schedule = schedule
    return staged, scheduled


class TestActivation:
    def test_saturated_worker_neither_staged_nor_scheduled(self):
        """Workers 1 and 2 are saturated until 5 ms, F1 with a record queued
        and S2 with the piece F0 routes to it. Neither is staged or
        scheduled, and each queued input holds its channel's gate (and the
        probe) at its time; once free, both run."""
        r = Rig()
        staged, scheduled = spy_passes(r)
        r.sim.worker_busy[1] = r.sim.worker_busy[2] = 5e-3
        width = DOMAIN // BINS
        r.send_keys([0], worker=1)
        r.send_keys([2 * width], worker=0)  # bin 2, at worker 2
        r.advance_both()
        r.tick(3)
        f0, f1 = r.mo.f_op.instances[:2]
        s2 = r.mo.s_op.instances[2]
        assert f0 in staged and f0 in scheduled  # it routed
        for inst in (f1, s2):
            assert inst not in staged and inst not in scheduled
        assert r.mo.data_ch.queues[1] and r.mo.data_out_ch.queues[2]
        assert r.mo.data_ch.gate_frontier == 0
        assert r.mo.data_out_ch.gate_frontier == 0
        assert not r.mo.probe.passed(0)
        for _ in range(6):
            r.advance_both()
            r.tick()
        assert f1 in scheduled and s2 in scheduled
        assert r.total_counts() == 2

    @pytest.mark.parametrize("workload", ["count-fluid", "nexmark-q4"])
    def test_every_scheduled_instance_does_work(self, monkeypatch, workload):
        """Each pass schedules only the F and S instances that have work:
        every ``schedule`` call that ``step_tick`` makes returns True."""
        calls = []
        for cls in (_FInstance, _SInstance):

            def spied(self, ctx, schedule=cls.schedule):
                did = schedule(self, ctx)
                calls.append((type(self).__name__, did))
                return did

            monkeypatch.setattr(cls, "schedule", spied)
        cost = CostModel(workers=W, workers_per_process=2)
        if workload == "count-fluid":
            run_count(
                cost=cost,
                nominal_keys=1e6,
                scaled_keys=1 << 10,
                rate=20_000,
                n_bins=32,
                duration_s=1.0,
                warmup_s=0.2,
                migrations=[{"at_s": 0.3, "moves": "imbalance", "strategy": "fluid"}],
            )
        else:
            run_nexmark(
                query="q4",
                impl="megaphone",
                cost=cost,
                n_events=6_000,
                rate_per_s=8_000.0,
                n_bins=64,
                window_ms=400,
                slide_ms=100,
                state_scale=100.0,
                migrations=[
                    {"at_s": 0.4, "moves": "imbalance", "strategy": "batched", "batch_size": 4}
                ],
            )
        assert {name for name, _ in calls} == {"_FInstance", "_SInstance"}
        assert all(did for _, did in calls)


class TestAuthorityCompaction:
    def test_driver_bounds_authority_and_keeps_property2(self):
        """A fluid migration of 8 bins registers 8 epochs; the driver
        compacts the authority behind S's frontier every tick, and every
        apply is still checked against it."""
        r = Rig()
        driver = MigrationDriver(r.sim, r.control, r.mo.probe, authority=r.authority)
        moves = [(b, (b + 1) % W) for b in range(8)]
        rec = driver.schedule_migration(0.002, moves, "fluid")
        epochs = []
        for i in range(60):
            r.send_keys(np.arange(i % 16, DOMAIN, 16))
            r.data.advance_to(r.now_ns() + MS)
            r.tick()
            epochs.append(len(r.authority.table.times))
        assert rec.completed_s is not None and rec.steps_issued == 8
        assert max(epochs) <= 3
        assert r.total_counts() == 60 * (DOMAIN // 16)
        for b, w in moves:
            assert r.owner_of_bin(b) == [w]


class TestMigrationDriver:
    def test_each_migration_spaces_its_steps_by_its_own_gap(self):
        """Two queued fluid migrations, with gaps 0 and 3: each waits its
        own gap after a step completes before it issues the next."""
        r = Rig()
        driver = MigrationDriver(r.sim, r.control, r.mo.probe, authority=r.authority)
        there = [(b, (b + 1) % W) for b in range(6)]
        back = [(b, b % W) for b in range(6)]
        recs = [
            driver.schedule_migration(0.002, there, "fluid", gap_ticks=0),
            driver.schedule_migration(0.003, back, "fluid", gap_ticks=3),
        ]
        issued = [[], []]
        for i in range(80):
            r.send_keys(np.arange(i % 16, DOMAIN, 16))
            r.data.advance_to(r.now_ns() + MS)
            r.tick()
            for rec, ticks in zip(recs, issued):
                if rec.steps_issued > len(ticks):
                    ticks.append(r.sim.tick_index)
        assert all(rec.completed_s is not None for rec in recs)
        assert [len(t) for t in issued] == [6, 6]
        spacing = [np.diff(t) for t in issued]
        assert np.array_equal(spacing[1], spacing[0] + 3)


class TestPendingRecordsMigrate:
    def test_notificator_entries_travel_with_bin(self):
        """A record pending in the moved bin (a timer L post-dated beyond
        the migration time) must migrate with its bin and be applied at the
        new owner (the paper's P(t) = state + pending records)."""
        r = Rig(logic=PostingCount)
        r.send_keys([0])  # bin 0 at worker 0: applied at 0, post-dated to POST_AT
        r.advance_both()
        r.tick()
        src = r.mo.s_op.instances[0]
        assert list(src.notif._pending) == [POST_AT]
        t_mig = r.now_ns()
        assert t_mig < POST_AT
        r.authority.register([ControlUpdate(t_mig, 0, 1)])
        r.control.send(0, Batch(time=t_mig, data=[ControlUpdate(t_mig, 0, 1)]))
        for _ in range(8):
            r.advance_both()
            r.tick()
        assert r.owner_of_bin(0) == [1]
        assert not src.notif._pending
        assert [(t, k.tolist()) for t, k, _ in r.logics[1].seen] == [(POST_AT, [0])]
        # the count moved with the state; the timer applied at the new owner
        assert r.logics[1].counts[0] == 2
        assert r.total_counts() == 2

    def test_extraction_matches_drain_and_renotify(self):
        """``uninstall_bin`` against the per-piece drain-and-renotify it
        replaced: pieces mixing bins, pieces wholly in the moved bin and
        timer batches (NaN arrivals), at repeated times; pieces view the
        middle of a larger batch."""
        r = Rig()
        s_inst = r.mo.s_op.instances[0]
        b = min(r.logics[0].owned)
        lo = b * (DOMAIN // BINS)

        def fill(notif):
            rng = np.random.default_rng(1)
            for i in range(30):
                t = int(rng.integers(5, 12)) * MS
                if i % 5 == 0:  # wholly in the moved bin
                    keys = lo + rng.integers(0, DOMAIN // BINS, 4)
                else:
                    keys = rng.integers(0, DOMAIN, 1 + i % 7)
                # records of other pieces around this one's
                pad = i % 3
                keys = np.concatenate([rng.integers(0, DOMAIN, 2 * pad), keys])
                if i % 4 == 1:  # post-dated
                    arrivals = np.full(len(keys), np.nan)
                else:
                    arrivals = rng.random(len(keys))
                cols = {"k": keys, ARRIVAL: arrivals}
                notif.notify_at(t, Piece(t, cols, pad, len(keys) - pad))

        def reference(notif):
            keep, moved = Notificator(), []
            for piece in drain_all(notif):
                t, cols = piece.time, rows(piece)
                mask = r.mo.bin_fn(cols["k"]) == b
                if mask.any():
                    moved.append(piece_of(t, take(cols, np.nonzero(mask)[0])))
                    rest = np.nonzero(~mask)[0]
                    if len(rest):
                        keep.notify_at(t, piece_of(t, take(cols, rest)))
                else:
                    keep.notify_at(t, piece)
            return keep, moved

        fill(s_inst.notif)
        ref = Notificator()
        fill(ref)
        ref, ref_moved = reference(ref)
        _, _, moved = s_inst.uninstall_bin(b)
        for n in (s_inst.notif, ref):
            late = {"k": np.array([lo]), ARRIVAL: np.array([0.5])}
            n.notify_at(8 * MS, piece_of(8 * MS, late))

        def flat(pieces):
            out = []
            for p in pieces:
                cols = rows(p)
                out.append((p.time, cols["k"].tolist(), cols[ARRIVAL].tobytes()))
            return out

        assert any(p.hi - p.lo == 4 for p in moved)
        assert flat(moved) == flat(ref_moved)
        assert flat(drain_all(s_inst.notif)) == flat(drain_all(ref))


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_uninstall_bin_splits_pending_in_order(self, data):
        """Pending pieces at several times (views into shared routed
        columns, and post-dated records with NaN arrivals): the moved
        records are exactly the bin's, in (time, arrival) order with their
        arrivals; the rest stay pending in that order and hold the earliest
        of their times; a piece enqueued afterwards queues behind the kept
        ones of its time."""
        r = Rig()
        s_inst = r.mo.s_op.instances[0]
        width = DOMAIN // BINS
        b = data.draw(st.sampled_from([0, 4]))  # worker 0 owns both
        times = st.sampled_from([5 * MS, 6 * MS, 7 * MS])
        keys = st.lists(
            st.sampled_from([0, 1, 4]).flatmap(
                lambda kb: st.integers(kb * width, (kb + 1) * width - 1)
            ),
            min_size=1,
            max_size=8,
        )

        def cols(ks, arrivals):
            return {"k": np.array(ks), ARRIVAL: arrivals}

        # routed records with distinct arrivals
        routed = data.draw(st.lists(st.tuples(times, keys), min_size=1, max_size=3))
        shared = [(t, cols(ks, j + np.arange(len(ks)) / 10)) for j, (t, ks) in enumerate(routed)]

        @st.composite
        def view(draw):
            t, d = draw(st.sampled_from(shared))
            n = len(d["k"])
            lo = draw(st.integers(0, n - 1))
            return Piece(t, d, lo, draw(st.integers(lo + 1, n)))

        timer = st.tuples(times, keys).map(
            lambda tk: piece_of(tk[0], cols(tk[1], np.full(len(tk[1]), np.nan)))
        )
        pieces = data.draw(st.lists(st.one_of(view(), timer), max_size=10))
        for piece in pieces:
            s_inst.enqueue(piece)

        def records(pieces):
            """(time, key, arrival or None) of each record, in order."""
            return [
                (p.time, int(k), None if np.isnan(a) else float(a))
                for p in pieces
                for k, a in zip(rows(p)["k"], rows(p)[ARRIVAL])
            ]

        by_time = sorted(pieces, key=lambda p: p.time)  # stable: arrival order
        expected = records(by_time)
        _, _, moved = s_inst.uninstall_bin(b)
        assert records(moved) == [rec for rec in expected if rec[1] // width == b]
        kept = [rec for rec in expected if rec[1] // width != b]
        assert s_inst.notif.min_time() == min((t for t, _, _ in kept), default=None)
        after = (6 * MS, width, 99.0)
        s_inst.enqueue(piece_of(6 * MS, cols([width], [99.0])))
        pending = records(drain_all(s_inst.notif))
        assert pending == sorted(kept + [after], key=lambda rec: rec[0])


class TestCountMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap, /proc")
    def test_counts_stay_unresident_after_a_freed_heap(self):
        """A worker's counts make resident only the pages it writes, also
        where freed arrays of an earlier run sit in the heap (``np.zeros``
        would clear them all: 16 workers x 8 MB)."""
        code = textwrap.dedent(
            """
            import numpy as np
            from repro.microbench.count import CountLogic

            def rss():
                return int(open("/proc/self/statm").read().split()[1]) * 4096

            np.zeros(1 << 20)  # freed at once: glibc maps 8 MB from the heap now
            freed = [np.zeros(1 << 20) for _ in range(16)]
            pin = np.ones(1 << 17)  # above them, so their heap is kept
            del freed
            before = rss()
            assign = np.zeros(1024, dtype=np.int64)
            logics = [
                CountLogic(w, scaled_keys=1 << 20, n_bins=1024, bin_nbytes=1.0, assignment=assign)
                for w in range(16)
            ]
            print(rss() - before)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) < 16 * 2**20
