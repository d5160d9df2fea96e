"""Unit tests for the log-binned latency histogram (§5 methodology)."""
import numpy as np

from repro.latency.histogram import LatencyHistogram, percentile_table


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.percentile(90) == 0.0
        assert h.max == 0.0
        assert h.total == 0

    def test_max_exact(self):
        h = LatencyHistogram()
        h.record(np.array([1e-3, 5e-3, 2e-3]))
        assert h.max == 5e-3

    def test_percentile_within_bin_resolution(self):
        h = LatencyHistogram()
        h.record(np.full(1000, 3e-3))
        p = h.percentile(90)
        assert 3e-3 <= p <= 3e-3 * 1.06

    def test_percentiles_monotone(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(0)
        h.record(rng.lognormal(-6, 1, 10_000))
        ps = [h.percentile(q) for q in [50, 90, 99, 99.9]]
        assert ps == sorted(ps)

    def test_percentile_capped_by_max(self):
        h = LatencyHistogram()
        h.record(np.array([1e-3]))
        assert h.percentile(99.99) <= h.max

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(np.array([1e-3] * 10))
        b.record(np.array([1e-1] * 10))
        a.merge(b)
        assert a.total == 20
        assert a.max == 1e-1

    def test_record_vectorised_total(self):
        h = LatencyHistogram()
        h.record(np.linspace(1e-4, 1e-2, 500))
        assert h.total == 500

    def test_accuracy_against_numpy(self):
        h = LatencyHistogram()
        rng = np.random.default_rng(2)
        vals = rng.exponential(2e-3, 50_000)
        h.record(vals)
        for q in [50, 90, 99]:
            ref = np.percentile(vals, q)
            got = h.percentile(q)
            assert ref * 0.9 <= got <= ref * 1.15, (q, ref, got)

    def test_percentile_table_units_ms(self):
        h = LatencyHistogram()
        h.record(np.full(100, 2e-3))
        row = percentile_table(h)
        assert set(row) == {"p90_ms", "p99_ms", "p9999_ms", "max_ms"}
        assert abs(row["max_ms"] - 2.0) < 1e-9
