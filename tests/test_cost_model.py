"""Unit tests for the calibrated cluster cost model."""
import numpy as np
import pytest

from repro.timely.cost import CostModel


class TestCostModel:
    def test_processes(self):
        assert CostModel(workers=16, workers_per_process=4).processes == 4
        assert CostModel(workers=4, workers_per_process=2).processes == 2

    def test_process_of(self):
        c = CostModel(workers=16, workers_per_process=4)
        assert c.process_of(0) == 0
        assert c.process_of(3) == 0
        assert c.process_of(4) == 1
        assert c.process_of(15) == 3

    def test_record_cost_ordering(self):
        c = CostModel()
        # megaphone >= native; hash >= key
        for nk in [1e6, 1e9]:
            assert c.record_cost("key", "megaphone", nk) >= c.record_cost(
                "key", "native", nk
            )
            assert c.record_cost("hash", "megaphone", nk) >= c.record_cost(
                "key", "megaphone", nk
            )

    def test_cache_miss_kicks_in_for_large_domains(self):
        c = CostModel()
        assert c.record_cost("key", "native", 1e9) > c.record_cost(
            "key", "native", 1e6
        )

    def test_record_cost_unknown_flavour(self):
        with pytest.raises(KeyError):
            CostModel().record_cost("tree", "native", 1e6)

    def test_maintenance_superlinear(self):
        c = CostModel()
        assert c.maintenance(0) == 0.0
        # growth factor between successive quadruplings exceeds 4x (the
        # paper's >2^14-bin blow-up)
        assert c.maintenance(4096) / c.maintenance(1024) > 4.0

    def test_maintenance_magnitude_calibration(self):
        c = CostModel()
        # 2^20 total bins = 65536 per worker: ~1s-scale iteration (Fig 13b/14b)
        assert 0.3 <= c.maintenance(65536) <= 3.0
        # <=2^12 total bins = 256 per worker: sub-ms, indistinguishable
        assert c.maintenance(256) < 1e-3

    def test_saturation_point(self):
        # effective per-record cost must saturate 16 workers between 16M and
        # 32M records/s (Fig 19)
        c = CostModel()
        per_rec = c.record_cost("key", "megaphone", 16384e6)
        assert (16e6 / c.workers) * per_rec < 1.0
        assert (32e6 / c.workers) * per_rec > 0.8

    def test_bytes_per_key(self):
        c = CostModel()
        assert c.bytes_per_key("key") == 8.0
        assert c.bytes_per_key("hash") > c.bytes_per_key("key")

    def test_fig1_state_size(self):
        # one billion keys of key-count state = 8 GB (paper Fig 1)
        c = CostModel()
        assert 1e9 * c.bytes_per_key("key") == 8e9

    def test_jitter_deterministic_per_seed(self):
        a = [CostModel(seed=1).jitter(1e-3) for _ in range(5)]
        b = [CostModel(seed=1).jitter(1e-3) for _ in range(5)]
        assert a == b

    def test_jitter_nonnegative_and_scaled(self):
        c = CostModel(jitter_sigma=0.0, spike_prob=0.0)
        assert c.jitter(2e-3) == pytest.approx(2e-3)


def test_jitter_draws_numpys_lognormal_stream():
    """jitter's exp(sigma * z) draw gives bit for bit what numpy's
    lognormal(0, sigma) gives, spikes included, so the charges of every
    simulated run stay the same."""
    c = CostModel(seed=42)
    ref = np.random.default_rng(42)
    spikes = 0
    for _ in range(100_000):
        want = 1e-3 * float(ref.lognormal(0.0, c.jitter_sigma))
        if ref.random() < c.spike_prob:
            want += float(ref.exponential(c.spike_scale))
            spikes += 1
        assert c.jitter(1e-3) == want
    assert spikes > 0
