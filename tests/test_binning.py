"""Unit tests for key→bin assignment (§4.2)."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.binning import (
    bin_of_keys,
    hash_keys,
    range_bin_bounds,
    range_bin_of_keys,
)


class TestHashKeys:
    def test_deterministic(self):
        k = np.arange(100)
        assert np.array_equal(hash_keys(k), hash_keys(k))

    def test_spreads_bits(self):
        h = hash_keys(np.arange(10_000))
        # top byte should be roughly uniform
        top = (h >> np.uint64(56)).astype(np.int64)
        counts = np.bincount(top, minlength=256)
        assert counts.min() > 0
        assert counts.max() < 5 * counts.mean()

    def test_dtype(self):
        assert hash_keys(np.arange(4)).dtype == np.uint64

    def test_wraps_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hash_keys(np.array([-1, 2**63 - 1, -(2**63)], dtype=np.int64))


class TestBinOfKeys:
    @pytest.mark.parametrize("n_bins", [1, 2, 16, 4096])
    def test_range(self, n_bins):
        b = bin_of_keys(np.arange(5000), n_bins)
        assert b.min() >= 0 and b.max() < n_bins

    def test_power_of_two_enforced(self):
        with pytest.raises(AssertionError):
            bin_of_keys(np.arange(4), 3)

    def test_static_equivalence_classes(self):
        k = np.arange(1000)
        assert np.array_equal(bin_of_keys(k, 64), bin_of_keys(k, 64))

    def test_uses_most_significant_bits(self):
        # keys sharing low bits (HashMap-collision-prone, footnote 2) must
        # still spread across bins
        k = np.arange(0, 1 << 20, 1 << 10)  # same low 10 bits
        bins = bin_of_keys(k, 64)
        assert len(np.unique(bins)) > 32

    @given(st.integers(1, 10))
    def test_balanced(self, log_bins):
        n_bins = 2**log_bins
        bins = bin_of_keys(np.arange(20_000), n_bins)
        counts = np.bincount(bins, minlength=n_bins)
        assert counts.max() < 4 * max(1.0, counts.mean())


class TestRangeBinning:
    def test_bounds_partition_domain(self):
        domain, n_bins = 1000, 8
        covered = []
        for b in range(n_bins):
            lo, hi = range_bin_bounds(b, n_bins, domain)
            covered.extend(range(lo, hi))
        assert covered == list(range(domain))

    def test_bin_matches_bounds(self):
        domain, n_bins = 1 << 12, 16
        keys = np.arange(domain)
        bins = range_bin_of_keys(keys, n_bins, domain)
        for b in range(n_bins):
            lo, hi = range_bin_bounds(b, n_bins, domain)
            assert np.all(bins[lo:hi] == b)

    def test_non_divisible_domain(self):
        bins = range_bin_of_keys(np.arange(10), 4, 10)
        assert bins.max() <= 3
