"""The user sweep's lean paths equal the public route bit for bit.

floor_gains must give each user's los_channel_gain(...).channel_gain, the
block kernels block_floor_gains and block_sum_rates must give floor_gains and
scheme_sum_rates (evaluate_schedule over the TDMA, forced and adaptive plans)
row by row, and a batched sweep shard must give _simulate_drop's rates for
every drop, compared with ==, never approximately.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlc_noma.channel import UserPosition, block_floor_gains, floor_gains, los_channel_gain
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import (
    STREAM_BLOCK,
    _simulate_drop,
    _sweep_users_shard,
    sample_user_positions,
)
from vlc_noma.rates import CAPACITY_SNR_FACTOR, rate_gap_at
from vlc_noma.scheduler import (
    UserChannelSet,
    adaptive_pairing,
    block_sum_rates,
    scheme_sum_rates,
)
from vlc_noma.streams import uniform_streams

DEFAULT = ExperimentConfig()
# A 30 degree field of view leaves the room's outer floor outside it.
NARROW_FOV = dataclasses.replace(DEFAULT, fov_deg=30.0)
# At a 1 degree semi-angle live gains differ by more than 1e154, so squared
# gain ratios overflow.
NARROW_BEAM = dataclasses.replace(DEFAULT, semi_angle_deg=1.0)
CONFIGS = pytest.mark.parametrize(
    "cfg", [DEFAULT, NARROW_FOV, NARROW_BEAM], ids=["default", "narrow_fov", "narrow_beam"])


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


@pytest.mark.parametrize("gains, p_led, noise_power", [
    ([1e-160, 1e-6], 1.0, 1e-14),    # r = 1e308, still finite
    ([1e-160, 1e-5], 1.0, 1e-14),    # r = 1e310 overflows the square
    ([1e-314, 1e-5], 1e308, 1.0),    # the ratio itself is inf, weak SNR > 0
    ([1e-160, 1e-160, 3e-6, 1e-5], 1.0, 1e-14),
])
def test_huge_gain_ratios(gains, p_led, noise_power):
    assert np.isfinite(block_sum_rates(np.array([gains]), p_led, noise_power)).all()


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


# With validate the shard also cross-checks every drop's pairs against
# solver regions (region_gate), which must pass and change no rate.
@pytest.mark.parametrize("validate", [False, True], ids=["gap_sign", "region_gate"])
@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_batched_shard_equals_simulate_drop(cfg, validate):
    cfg = dataclasses.replace(cfg, users_min=1, users_max=11)
    lo, hi = STREAM_BLOCK - 15, STREAM_BLOCK + 15  # spans a block boundary
    shard = _sweep_users_shard((cfg, lo, hi, validate))
    for k, drops in zip(cfg.user_counts(), shard):
        assert drops == [_simulate_drop(cfg, k, m) for m in range(lo, hi)], k


def block_gains(cfg, k, trials):
    """A (trials, k) block of seeded sweep drops' gains, and floor_gains
    of each drop."""
    u = uniform_streams(cfg.seed, k, 0, trials)
    xs, ys = u[:, 0::2] * cfg.room().length, u[:, 1::2] * cfg.room().width
    rows = [floor_gains(cfg.link(), zip(x, y)) for x, y in zip(xs.tolist(), ys.tolist())]
    return block_floor_gains(cfg.link(), xs, ys), rows


def assert_rows_equal(gains, p_led, noise_power):
    gains = np.asarray(gains, dtype=float)
    rates = block_sum_rates(gains, p_led, noise_power)
    assert rates.shape == (len(gains), 3)
    for row, got in zip(gains.tolist(), rates.tolist()):
        assert tuple(got) == scheme_sum_rates(row, p_led, noise_power), row


@CONFIGS
def test_block_floor_gains_equal_floor_gains(cfg):
    for k in range(1, 12):
        block, rows = block_gains(cfg, k, 64)
        for got, expected in zip(block, rows):
            assert np.array_equal(got, expected), k
    # dead links outside the narrow FOV, underflowed gains in the narrow beam
    assert (block == 0.0).any() == (cfg is not DEFAULT)


def test_block_floor_gains_rejects_a_receiver_at_the_led():
    lx, ly, _ = DEFAULT.link().led_position
    floor_led = DEFAULT.link()._replace(led_position=(lx, ly, 0.0))
    with pytest.raises(ValueError, match="collocated"):
        block_floor_gains(floor_led, np.array([[1.0, lx]]), np.array([[1.0, ly]]))


@CONFIGS
def test_block_sum_rates_equal_scheme_sum_rates(cfg):
    for k in range(1, 12):
        gains, _ = block_gains(cfg, k, 128)
        assert_rows_equal(gains, cfg.led_power, cfg.noise_power)


# Pairs whose gap is exactly 0.0, at r_min of gamma = 100 and at r_max of
# gamma = 400: the greedy takes them (the test is gap >= 0), and one ulp
# more in any log2 of the gap would not.
ZERO_GAP_PAIRS = [[1e-6, 1.7683513499195429e-06], [2e-6, 0.00034446561201890974]]


@pytest.mark.parametrize("weak, strong", ZERO_GAP_PAIRS)
def test_a_zero_gap_pairs(weak, strong):
    assert rate_gap_at(1.0 * weak * weak / 1e-14, (strong / weak) ** 2) == 0.0
    users = UserChannelSet.from_gains([weak, strong], 1.0, 1e-14)
    assert adaptive_pairing(users).pairs == ((1, 2),)


@pytest.mark.parametrize("row, p_led, noise_power", [
    *((pair, 1.0, 1e-14) for pair in ZERO_GAP_PAIRS),
    ([0.0, 0.0, 0.0, 0.0], 1.0, 1e-14),                # every link dead
    ([1e-6, 1e-6, 3e-6, 3e-6, 3e-6], 1.0, 1e-14),      # ties
    ([0.0, 1e-6, 3e-6, 3e-6, 0.0], 1.0, 1e-14),        # dead links and a tie
    ([1e-170, 1e-6, 2e-6, 5e-6], 1.0, 1e-14),          # the weakest SNR underflows to 0
    ([1e-158, 1e-158, 1e-6, 3e-6], 1.0, 1e10),
    ([1e-160, 1e-5], 1.0, 1e-14),                      # 1e160 : 1e-5, r overflows
    ([1e-160, 1e-160, 3e-6, 1e-5, 2e-6], 1.0, 1e-14),
    ([1e-160, 1e-6], 1.0, 1e-14),                      # r = 1e308, still finite
    ([1e-314, 1e-5], 1e308, 1.0),                      # the ratio itself is inf
    ([2e-6], 1.0, 1e-14),
    ([1e-158, 1e-6, 2e-6], 1.0, 1e10),                 # 1e-316 / 1e10: the weakest SNR is 0
    ([1e-160, 1e-160, 3e-6, 1e-5], 1.0, 1e-14),
])
def test_block_sum_rates_edge_rows(row, p_led, noise_power):
    # the row, its reverse and a rotation: the kernel sorts each row
    assert_rows_equal([row, row[::-1], row[1:] + row[:1]], p_led, noise_power)


# Live gains of 0..50 dB weak-user SNR at 1 W, a dead link, an underflowing
# SNR and a gain 1e155 below the others, drawn from a short list so rows tie.
LEVELS = [0.0, 1e-170, 1e-160, 1e-7, 2e-7, 1e-6, 1e-6 * math.pi, 1e-5, 2.5e-5]
gain_blocks = st.integers(1, 9).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.sampled_from(LEVELS), st.floats(1e-7, 3e-5)), min_size=k, max_size=k),
    min_size=1, max_size=6))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(gain_blocks)
def test_block_sum_rates_equal_scheme_sum_rates_on_random_blocks(gains):
    assert_rows_equal(gains, 1.0, 1e-14)


@pytest.mark.parametrize("gains", [[[float("nan"), 1e-6]], [[float("inf")]], [[-1e-6, 1e-6]],
                                   [[1e-6], [float("nan")]], [[]]])
def test_block_sum_rates_rejects_what_scheme_sum_rates_rejects(gains):
    # scheme_sum_rates rejects what UserChannelSet.from_gains rejects
    with pytest.raises(ValueError) as lean:
        scheme_sum_rates(gains[-1], 1.0, 1e-14)
    with pytest.raises(ValueError) as block:
        block_sum_rates(np.array(gains), 1.0, 1e-14)
    assert str(block.value) == str(lean.value)
