"""Key-to-bin assignment (paper §4.2).

Megaphone groups keys into a power-of-two number of *bins*; the bin is the
most-significant bits of the exchange hash (least-significant bits collide in
HashMap-style tables, see the paper's footnote 2). The number of bins is
fixed at startup.

Two assignments are provided:

* ``bin_of_keys`` — MSBs of a splitmix64 hash (the paper's scheme);
* ``range_bin_of_keys`` — contiguous range partitioning of a dense integer
  key domain, used by the dense-array ("key count") workload so a bin's
  state is a contiguous array slice. Both are static key equivalence
  classes, which is all the mechanism requires.

Only the mechanism maps keys to bins: F to route each record, and S once
per staged pass, handing the user's logic each record's bin as the ``bin``
column (and splitting pending records when a bin migrates).
"""
from __future__ import annotations

import numpy as np


# splitmix64's constants, built once: hash_keys runs on every routed and
# every staged batch
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)
# shift that keeps the top log2(n_bins) bits, for n_bins = 2**1 .. 2**63
_MSB_SHIFT = {1 << i: np.uint64(64 - i) for i in range(1, 64)}


def hash_keys(keys: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over int keys (returns uint64)."""
    z = keys.astype(np.uint64, copy=True)
    # uint64 array arithmetic wraps modulo 2**64 without a warning
    z += _GAMMA
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    z ^= z >> _S31
    return z


def bin_of_keys(keys: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin id = most significant ``log2(n_bins)`` bits of the key hash."""
    if n_bins == 1:
        return np.zeros(len(keys), dtype=np.int64)
    shift = _MSB_SHIFT.get(n_bins)
    assert shift is not None, "bin count must be a power of two"
    return (hash_keys(keys) >> shift).astype(np.int64)


def range_bin_of_keys(keys: np.ndarray, n_bins: int, domain: int) -> np.ndarray:
    """Bin id by contiguous key range over a dense [0, domain) key space."""
    width = -(-domain // n_bins)  # ceil
    return (keys // width).astype(np.int64, copy=False)


def range_bin_bounds(b: int, n_bins: int, domain: int) -> tuple[int, int]:
    """[lo, hi) key range owned by range-partition bin ``b``."""
    width = -(-domain // n_bins)
    return b * width, min(domain, (b + 1) * width)
