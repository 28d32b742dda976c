"""The user sweep's lean per-drop path equals the public route bit for bit.

floor_gains must give each user's los_channel_gain(...).channel_gain,
scheme_sum_rates must give evaluate_schedule(plan, users).sum_rate for the
TDMA, forced and adaptive plans, and a batched sweep shard must give
_simulate_drop's rates for every drop, compared with ==, never approximately.
"""

import dataclasses
import math

import numpy as np
import pytest

from vlc_noma.channel import UserPosition, floor_gains, los_channel_gain
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import (
    STREAM_BLOCK,
    _simulate_drop,
    _sweep_users_shard,
    sample_user_positions,
)
from vlc_noma.rates import CAPACITY_SNR_FACTOR
from vlc_noma.region import RegionCache
from vlc_noma.scheduler import (
    UserChannelSet,
    adaptive_pairing,
    evaluate_schedule,
    forced_pairing,
    scheme_sum_rates,
    tdma_plan,
)

DEFAULT = ExperimentConfig()
# A 30 degree field of view leaves the room's outer floor outside it.
NARROW_FOV = dataclasses.replace(DEFAULT, fov_deg=30.0)


def public_rates(gains, p_led, noise_power, region_of=None):
    users = UserChannelSet.from_gains(gains, p_led, noise_power)
    plans = (tdma_plan(users), forced_pairing(users), adaptive_pairing(users, region_of))
    return tuple(evaluate_schedule(plan, users).sum_rate for plan in plans)


def random_drops(cfg, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 12))
        yield sample_user_positions(rng, cfg.room(), k)


@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_floor_gains_equal_los_channel_gain(cfg):
    dead = 0
    for positions in random_drops(cfg, 300, seed=3):
        lean = floor_gains(cfg.link(), positions.tolist())
        public = [
            los_channel_gain(cfg.led(), cfg.photodiode(),
                             UserPosition((float(p[0]), float(p[1]), 0.0)),
                             cfg.noise_power).channel_gain
            for p in positions
        ]
        assert lean == public
        dead += lean.count(0.0)
    assert (dead > 0) == (cfg is NARROW_FOV)


@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_scheme_sum_rates_equal_evaluate_schedule(cfg):
    odd = 0
    for positions in random_drops(cfg, 300, seed=4):
        gains = floor_gains(cfg.link(), positions.tolist())
        odd += len(gains) % 2
        expected = public_rates(gains, cfg.led_power, cfg.noise_power)
        assert scheme_sum_rates(gains, cfg.led_power, cfg.noise_power) == expected
    assert odd > 0


def test_scheme_sum_rates_equal_evaluate_schedule_with_a_region_gate():
    cache = RegionCache()
    for positions in random_drops(DEFAULT, 100, seed=5):
        gains = floor_gains(DEFAULT.link(), positions.tolist())
        expected = public_rates(gains, 1.0, DEFAULT.noise_power, cache.region_of)
        assert scheme_sum_rates(gains, 1.0, DEFAULT.noise_power, cache.region_of) == expected


@pytest.mark.parametrize("gains, noise_power", [
    ([1e-158, 1e-6, 2e-6], 1e10),          # 1e-316 / 1e10: the weakest SNR is 0
    ([1e-158, 1e-158, 1e-6, 3e-6], 1e10),
    ([0.0, 1e-6, 3e-6, 3e-6, 0.0], 1e-14),  # dead links and a tie
    ([2e-6], 1e-14),
])
def test_scheme_sum_rates_edge_gains(gains, noise_power):
    assert scheme_sum_rates(gains, 1.0, noise_power) == public_rates(gains, 1.0, noise_power)


@pytest.mark.parametrize("gains, p_led, noise_power", [
    ([1e-160, 1e-6], 1.0, 1e-14),    # r = 1e308, still finite
    ([1e-160, 1e-5], 1.0, 1e-14),    # r = 1e310 overflows the square
    ([1e-314, 1e-5], 1e308, 1.0),    # the ratio itself is inf, weak SNR > 0
    ([1e-160, 1e-160, 3e-6, 1e-5], 1.0, 1e-14),
])
def test_huge_gain_ratios(gains, p_led, noise_power):
    rates = scheme_sum_rates(gains, p_led, noise_power)
    assert rates == public_rates(gains, p_led, noise_power)
    assert all(math.isfinite(rate) for rate in rates)


@pytest.mark.parametrize("gains, p_led, noise_power", [
    ([1e-160, 1e-5], 1.0, 1e-14),
    ([1e-314, 1e-5], 1e308, 1.0),
])
def test_an_overflowed_ratio_never_pairs_and_forces_the_limit(gains, p_led, noise_power):
    tdma, forced, adaptive = scheme_sum_rates(gains, p_led, noise_power)
    assert adaptive == tdma
    # both unit rates of a forced pair tend to log2(1 + t * weak SNR)
    weak_snr = p_led * gains[0] * gains[0] / noise_power
    unit = math.log2(1.0 + CAPACITY_SNR_FACTOR * weak_snr)
    assert forced == unit + unit


@pytest.mark.parametrize("validate", [False, True], ids=["gap_sign", "region_gate"])
@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_batched_shard_equals_simulate_drop(cfg, validate):
    cfg = dataclasses.replace(cfg, users_min=1, users_max=11)
    lo, hi = STREAM_BLOCK - 15, STREAM_BLOCK + 15  # spans a block boundary
    shard = _sweep_users_shard((cfg, lo, hi, validate))
    cache = RegionCache(validate=True) if validate else None
    for k, drops in zip(cfg.user_counts(), shard):
        assert drops == [_simulate_drop(cfg, k, m, cache) for m in range(lo, hi)], k


@pytest.mark.parametrize("gains", [[], [float("nan"), 1e-6], [float("inf")], [-1e-6, 1e-6]])
def test_scheme_sum_rates_rejects_what_the_user_set_rejects(gains):
    with pytest.raises(ValueError) as public:
        UserChannelSet.from_gains(gains, 1.0, 1e-14)
    with pytest.raises(ValueError) as lean:
        scheme_sum_rates(gains, 1.0, 1e-14)
    assert str(lean.value) == str(public.value)
