"""Unit tests for migration strategies and move planning (§3.3, §4.4)."""
import numpy as np
import pytest

from repro.core.strategies import (
    initial_assignment,
    migration_moves,
    plan_steps,
    rebalance_moves,
)


class TestAssignments:
    def test_initial_balanced(self):
        a = initial_assignment(64, 16)
        counts = np.bincount(a, minlength=16)
        assert np.all(counts == 4)

    @pytest.mark.parametrize("n_bins, W, moved", [(256, 16, 64), (64, 16, 16), (16, 16, 8)])
    def test_migration_moves_quarter_of_state(self, n_bins, W, moved):
        # 25% of total state, except at one bin per worker: half of it
        assert len(migration_moves(n_bins, W)) == moved

    def test_migration_moves_source_upper_half(self):
        n_bins, W = 256, 16
        a = initial_assignment(n_bins, W)
        for b, dst in migration_moves(n_bins, W):
            assert a[b] >= W // 2  # source: upper half of the workers
            assert dst < W // 2  # destination: lower half

    def test_rebalance_inverts(self):
        n_bins, W = 128, 8
        a = initial_assignment(n_bins, W)
        for b, w in migration_moves(n_bins, W):
            a[b] = w
        for b, w in rebalance_moves(n_bins, W):
            a[b] = w
        assert np.array_equal(a, initial_assignment(n_bins, W))


class TestPlanSteps:
    MOVES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 1)]

    def test_all_at_once_single_step(self):
        steps = plan_steps(self.MOVES, "all_at_once")
        assert len(steps) == 1
        assert steps[0] == self.MOVES

    def test_fluid_one_per_step(self):
        steps = plan_steps(self.MOVES, "fluid")
        assert [len(s) for s in steps] == [1] * 5

    def test_batched_chunking(self):
        steps = plan_steps(self.MOVES, "batched", batch_size=2)
        assert [len(s) for s in steps] == [2, 2, 1]
        assert sum(steps, []) == self.MOVES

    def test_empty_moves(self):
        assert plan_steps([], "all_at_once") == []

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            plan_steps(self.MOVES, "nope")

    def test_optimized_requires_assignment(self):
        with pytest.raises(AssertionError):
            plan_steps(self.MOVES, "optimized")

    def test_optimized_rounds_non_interfering(self):
        n_bins, W = 64, 8
        assign = initial_assignment(n_bins, W)
        moves = migration_moves(n_bins, W)
        cur = assign.copy()
        rounds = plan_steps(moves, "optimized", assignment=assign.copy())
        covered = []
        for rnd in rounds:
            srcs = [int(cur[b]) for b, _ in rnd]
            dsts = [w for _, w in rnd]
            # bipartite matching: distinct sources and destinations per round
            assert len(set(srcs)) == len(srcs)
            assert len(set(dsts)) == len(dsts)
            for b, w in rnd:
                cur[b] = w
            covered.extend(rnd)
        assert sorted(covered) == sorted(moves)

    def test_optimized_fewer_steps_than_fluid(self):
        n_bins, W = 256, 16
        moves = migration_moves(n_bins, W)
        fluid = plan_steps(moves, "fluid")
        opt = plan_steps(
            moves, "optimized", assignment=initial_assignment(n_bins, W)
        )
        assert len(opt) < len(fluid)
