"""numpy's seeded uniform streams, reproduced for a range of trials at once.

The user sweep draws each drop's positions from
Generator(PCG64(SeedSequence(seed, spawn_key=(k, trial)))).random((k, 2)).
Every step of that chain is integer arithmetic: SeedSequence's uint32 hash
mixing, PCG64's 128-bit LCG with XSL-RR output, and the 53-bit conversion
to a double. So uint32 and uint64 array operations, which wrap exactly as the
C code does, give the same values for many trials in one pass.
tests/test_streams.py compares them with numpy's own generators.
"""

import numpy as np

from .config import TRIAL_LIMIT

_M32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix constants (mixing)
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix constants (generate_state)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier as high and low uint64 halves, the low half
# also as 32-bit limbs for the high word of the low-by-low product.
_PCG_HI, _PCG_LO = 2549297995355413924, 4865540595714422341
_PCG_LO_0, _PCG_LO_1 = _PCG_LO & _M32, _PCG_LO >> 32
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative int."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_pool(seed: int, k: int, trials: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed, spawn_key=(k, trial)).pool as four uint32 arrays
    over trials. Words that do not depend on the trial stay Python ints,
    masked to 32 bits, until the trial word is mixed in."""
    run = _words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words(k) + [trials]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, np.uint64) as four uint64 arrays."""
    const = _INIT_B
    words = []
    for word in pool + pool:
        value = word ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        words.append((value ^ value >> 16).astype(np.uint64))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, mod 2**128, on (high, low) uint64 halves."""
    lo0, lo1 = lo & _M32, lo >> 32
    p00, p01, p10 = lo0 * _PCG_LO_0, lo0 * _PCG_LO_1, lo1 * _PCG_LO_0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry_lo_lo = lo1 * _PCG_LO_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = carry_lo_lo + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def uniform_streams(seed: int, k: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, 2k) doubles that, for each trial m in [lo, hi),
    Generator(PCG64(SeedSequence(seed, spawn_key=(k, m)))).random((k, 2))
    draws, flattened in C order. Needs seed >= 0, k >= 0 and
    0 <= lo <= hi <= TRIAL_LIMIT."""
    if seed < 0 or k < 0 or not 0 <= lo <= hi <= TRIAL_LIMIT:
        raise ValueError("need seed >= 0, k >= 0 and 0 <= lo <= hi <= 2**32")
    trials = np.arange(lo, hi, dtype=np.uint64).astype(np.uint32)
    s0, s1, s2, s3 = _generate_state(_seed_pool(seed, k, trials))
    # pcg_setseq_128_srandom_r: inc = (s2:s3) << 1 | 1, state = 0, step,
    # state += (s0:s1), step.
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    state_lo = inc_lo + s1
    state_hi = inc_hi + s0 + (state_lo < s1)
    state_hi, state_lo = _lcg_step(state_hi, state_lo, inc_hi, inc_lo)
    out = np.empty((hi - lo, 2 * k))
    for column in range(2 * k):
        state_hi, state_lo = _lcg_step(state_hi, state_lo, inc_hi, inc_lo)
        xored, rot = state_hi ^ state_lo, state_hi >> 58
        draw = xored >> rot | xored << (-rot & 63)
        out[:, column] = draw >> 11
    out *= _DOUBLE_UNIT
    return out
