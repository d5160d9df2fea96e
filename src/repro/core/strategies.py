"""Migration strategies and the external migration controller (paper §3.3,
§4.4).

A migration is a set of ``(bin, new_worker)`` moves. A *strategy* turns the
moves into a sequence of timestamped steps on the control stream:

* **all-at-once** — every move at one common timestamp (the partial
  pause-and-resume behaviour of existing systems);
* **fluid** — one bin per step, awaiting completion (probe) between steps;
* **batched** — ``batch_size`` bins per step, awaiting completion between
  steps;
* **optimized** — batched into *non-interfering rounds* via bipartite
  matching (at most one bin per source and per destination worker per
  round) plus a drain gap between rounds (paper §4.4).

:class:`MigrationDriver` plays the role of the external controller (e.g.
DS2/Chi): it feeds updates into the control input, advances the control
epoch every tick, watches the S-output probe for completion, and records
per-migration (duration, max latency) — the two axes of Figs 16–18.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.control import ConfigAuthority, ControlUpdate
from repro.latency.histogram import LatencyHistogram
from repro.timely.engine import Batch, InputHandle, Probe, Simulation


def initial_assignment(n_bins: int, workers: int) -> np.ndarray:
    """Balanced startup configuration: bin b -> worker b mod W."""
    return np.arange(n_bins, dtype=np.int64) % workers


def migration_moves(n_bins: int, workers: int) -> list[tuple[int, int]]:
    """The paper's first migration: half the keys of half the workers move to
    the other half (25% of total state), leaving an imbalanced assignment.

    With one bin per worker (``n_bins == workers``) every upper-half bin
    moves: 50% of the state."""
    moves = []
    for b in range(n_bins):
        w = b % workers
        if w >= workers // 2 and (b // workers) % 2 == 0:
            moves.append((b, w - workers // 2))
    return moves


def rebalance_moves(n_bins: int, workers: int) -> list[tuple[int, int]]:
    """The second migration: back to the balanced configuration."""
    return [(b, b % workers) for b, _ in migration_moves(n_bins, workers)]


def plan_steps(
    moves: list[tuple[int, int]],
    strategy: str,
    *,
    batch_size: Optional[int] = None,
    assignment: Optional[np.ndarray] = None,
) -> list[list[tuple[int, int]]]:
    """Split ``moves`` into the per-timestamp steps of a strategy."""
    if not moves:
        return []
    if strategy == "all_at_once":
        return [list(moves)]
    if strategy == "fluid":
        return [[m] for m in moves]
    if strategy == "batched":
        k = batch_size or max(1, len(moves) // 32)
        return [list(moves[i : i + k]) for i in range(0, len(moves), k)]
    if strategy == "optimized":
        assert assignment is not None, "optimized strategy needs the assignment"
        cur = assignment.copy()
        remaining = list(moves)
        rounds: list[list[tuple[int, int]]] = []
        while remaining:
            used_src: set[int] = set()
            used_dst: set[int] = set()
            round_, rest = [], []
            for b, dst in remaining:
                src = int(cur[b])
                if src not in used_src and dst not in used_dst:
                    round_.append((b, dst))
                    used_src.add(src)
                    used_dst.add(dst)
                    cur[b] = dst
                else:
                    rest.append((b, dst))
            rounds.append(round_)
            remaining = rest
        return rounds
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class MigrationRecord:
    strategy: str
    requested_at_s: float
    started_s: Optional[float] = None
    completed_s: Optional[float] = None
    steps_total: int = 0
    steps_issued: int = 0
    moves_total: int = 0
    window: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_s is None or self.completed_s is None:
            return None
        return self.completed_s - self.started_s

    @property
    def max_latency_s(self) -> float:
        return self.window.max


class MigrationDriver:
    """External controller driving the control stream of one operator."""

    def __init__(
        self,
        sim: Simulation,
        control_input: InputHandle,
        probe: Probe,
        *,
        authority: ConfigAuthority,
    ):
        self.sim = sim
        self.control = control_input
        self.probe = probe
        self.authority = authority
        # (at_s, record, steps, gap_ticks), ordered by at_s
        self.queue: list[tuple[float, MigrationRecord, list, int]] = []
        self.active: Optional[MigrationRecord] = None
        self._steps: list[list[tuple[int, int]]] = []
        self._gap_ticks = 0
        self._last_step_time: Optional[int] = None
        self._gap_left = 0
        self.records: list[MigrationRecord] = []
        sim.on_tick.append(self.on_tick)

    def schedule_migration(
        self,
        at_s: float,
        moves: list[tuple[int, int]],
        strategy: str,
        *,
        batch_size: Optional[int] = None,
        assignment: Optional[np.ndarray] = None,
        gap_ticks: int = 0,
    ) -> MigrationRecord:
        """Queue a migration to start at ``at_s``; its steps are spaced by
        ``gap_ticks`` idle ticks after each one completes."""
        steps = plan_steps(
            moves, strategy, batch_size=batch_size, assignment=assignment
        )
        rec = MigrationRecord(
            strategy=strategy,
            requested_at_s=at_s,
            steps_total=len(steps),
            moves_total=len(moves),
        )
        self.queue.append((at_s, rec, steps, gap_ticks))
        self.queue.sort(key=lambda x: x[0])
        self.records.append(rec)
        return rec

    def on_tick(self, sim: Simulation, t0: float) -> None:
        if self.control.could_produce is None:  # closed (drain): nothing to drive
            return
        # S applies nothing before its output frontier: bound the table
        self.authority.table.compact(self.probe.op.could_produce)
        t_ns = int(round(t0 * 1e9))
        if self.active is None and self.queue and t0 >= self.queue[0][0] - 1e-12:
            _, self.active, self._steps, self._gap_ticks = self.queue.pop(0)
            self._last_step_time = None
            self._gap_left = 0
            sim.latency_windows.append(self.active.window)
        if self.active is not None:
            rec = self.active
            prev_done = self._last_step_time is None or self.probe.passed(
                self._last_step_time
            )
            if prev_done and self._gap_left > 0:
                self._gap_left -= 1
            elif prev_done and rec.steps_issued < rec.steps_total:
                step = self._steps[rec.steps_issued]
                updates = [ControlUpdate(t_ns, b, w) for b, w in step]
                self.authority.register(updates)
                # the controller feeds the control stream from worker 0
                self.control.send(0, Batch(time=t_ns, data=updates, nbytes=64.0))
                if rec.started_s is None:
                    rec.started_s = t0
                rec.steps_issued += 1
                self._last_step_time = t_ns
                self._gap_left = self._gap_ticks
            elif prev_done and rec.steps_issued == rec.steps_total:
                rec.completed_s = self.sim.now
                sim.latency_windows.remove(rec.window)
                self.active = None
        self.control.advance_to(t_ns + int(round(sim.cost.tick * 1e9)))

    @property
    def idle(self) -> bool:
        return self.active is None and not self.queue
