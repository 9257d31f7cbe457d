"""Counter-based deterministic random numbers (splitmix64).

Every draw is a pure function of (seed, stream index): a consumer that
owns a block of indices computes ``uniform01_array(seed, indices)``, with
no generator state to carry between draws or blocks.  Integer arithmetic
wraps exactly in uint64 and the float conversion uses the top 53 bits, so
sequences are identical across platforms.  A seed that is not an integer in
[0, 2^64), 1.5 or 3.0 alike, is refused rather than truncated or reduced
modulo 2^64, so no two seeds alias one stream.
"""
from __future__ import annotations

import numpy as np

from .errors import _integer

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53


def check_seed(seed: int) -> int:
    """``seed`` as an int in [0, 2^64), else a ValueError naming the seed."""
    if (seed := _integer(seed, "seed", 0)) > _MASK:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


def uniform01_array(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1) at stream positions ``indices``.

    ``seed`` is an int (range-checked) or a uint64 array; it broadcasts
    against ``indices``, so ``seeds[:, None]`` with ``np.arange(n)`` gives
    the first n draws of every seed, one row per seed.
    """
    seed = np.uint64(seed if isinstance(seed, np.ndarray) else check_seed(seed))
    # every step runs in place on z and one scratch buffer t, which ends as the floats
    z = np.empty(np.broadcast_shapes(seed.shape, indices.shape), np.uint64)
    z[...] = indices
    z += np.uint64(1)
    z *= np.uint64(_GOLDEN)
    z += seed
    t = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    z >>= np.uint64(11)
    return np.multiply(z, _INV_2_53, out=t.view(np.float64))
