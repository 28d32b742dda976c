"""uniform_streams equals numpy's own per-trial streams, value for value.

The user sweep's published bytes rest on this: if a numpy release changes
SeedSequence or PCG64, this test fails instead of the CSVs changing silently.
"""

import numpy as np
import pytest

from vlc_noma.streams import TRIAL_LIMIT, uniform_streams

# Seeds of one to five uint32 words, at the word boundaries.
SEEDS = [0, 1, 2, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3]
WIDTH = 6  # trials per range, so each range also runs the batched path
RANGE_STARTS = [
    0,
    *(int(lo) for lo in np.random.default_rng(6).integers(1, TRIAL_LIMIT - 1 - WIDTH, 3)),
    TRIAL_LIMIT - WIDTH,  # ends at trial 2**32 - 1
]


def numpy_stream(seed, k, trial):
    seq = np.random.SeedSequence(seed, spawn_key=(k, trial))
    return np.random.Generator(np.random.PCG64(seq)).random((k, 2)).ravel()


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_numpy_generators(seed):
    for k in range(1, 12):
        for lo in RANGE_STARTS:
            expected = np.array([numpy_stream(seed, k, m) for m in range(lo, lo + WIDTH)])
            assert np.array_equal(uniform_streams(seed, k, lo, lo + WIDTH), expected), (k, lo)


def test_empty_range_and_zero_users():
    assert uniform_streams(1, 3, 5, 5).shape == (0, 6)
    assert uniform_streams(1, 0, 0, 4).shape == (4, 0)


@pytest.mark.parametrize("seed, k, lo, hi", [
    (-1, 2, 0, 1),
    (1, -1, 0, 1),
    (1, 2, -1, 1),
    (1, 2, 3, 2),
    (1, 2, TRIAL_LIMIT - 1, TRIAL_LIMIT + 1),  # index 2**32 takes a second word
])
def test_out_of_range_arguments_are_rejected(seed, k, lo, hi):
    with pytest.raises(ValueError):
        uniform_streams(seed, k, lo, hi)
