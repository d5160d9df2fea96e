"""Log-binned latency histograms, as in the paper's harness.

The paper records observed latencies "in a histogram of logarithmically-sized
bins" (§5) and reports percentiles (90/99/99.99/max) from it. We use bins at
factor ``2**(1/8)`` so reported percentiles resolve to ~9% granularity, and
track the exact maximum separately.

Values are recorded in *seconds*; reporting converts to milliseconds to match
the paper's tables (Figs 13b/14b/15b).
"""
from __future__ import annotations

import numpy as np

_BINS_PER_OCTAVE = 8
_MIN_EXP = -7  # 100 ns floor
_MAX_EXP = 3  # 1000 s ceiling
_N_BINS = (_MAX_EXP - _MIN_EXP) * 10 * _BINS_PER_OCTAVE  # generous


class LatencyHistogram:
    """Streaming histogram over logarithmic latency bins.

    ``record(np.ndarray)`` is vectorised; ``percentile(q)`` returns the upper
    edge of the bin containing the q-quantile (paper-style conservative
    read-out), ``max`` the exact maximum.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(_N_BINS + 2, dtype=np.int64)
        self.max = 0.0
        self.total = 0

    def _index(self, values: np.ndarray) -> np.ndarray:
        v = np.clip(values, 1e-7, None)
        idx = np.floor(
            (np.log10(v) - _MIN_EXP) * 10 * _BINS_PER_OCTAVE
        ).astype(np.int64)
        return np.clip(idx, 0, _N_BINS + 1)

    def record(self, latencies_s: np.ndarray) -> None:
        arr = np.asarray(latencies_s, dtype=np.float64)
        if arr.size == 0:
            return
        self.counts += np.bincount(self._index(arr), minlength=_N_BINS + 2)
        self.max = max(self.max, float(arr.max()))
        self.total += arr.size

    def merge(self, other: "LatencyHistogram") -> None:
        self.counts += other.counts
        self.max = max(self.max, other.max)
        self.total += other.total

    @staticmethod
    def _edge(idx: np.ndarray | int) -> np.ndarray | float:
        return 10.0 ** (_MIN_EXP + (np.asarray(idx) + 1) / (10 * _BINS_PER_OCTAVE))

    def percentile(self, q: float) -> float:
        """Upper bin edge of the ``q`` (0..100) percentile, in seconds."""
        if self.total == 0:
            return 0.0
        target = self.total * q / 100.0
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target))
        return float(min(self._edge(idx), self.max if self.max > 0 else np.inf))


def percentile_table(hist: LatencyHistogram) -> dict[str, float]:
    """Paper-style row: 90/99/99.99 percentiles and max, in milliseconds."""
    return {
        "p90_ms": hist.percentile(90) * 1e3,
        "p99_ms": hist.percentile(99) * 1e3,
        "p9999_ms": hist.percentile(99.99) * 1e3,
        "max_ms": hist.max * 1e3,
    }
