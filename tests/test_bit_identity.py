"""The user sweep's lean paths and the region solver's fused kernels equal
the public route bit for bit.

floor_gains must give each user's los_channel_gain(...).channel_gain, the
block kernels block_floor_gains and block_sum_rates must give floor_gains and
scheme_sum_rates (evaluate_schedule over the TDMA, forced and adaptive plans)
row by row, a sweep block must give _simulate_drop's rates for every drop,
and sca_solve and oracle_region must give what the rates functions through
a generic bisection give, compared with ==, never approximately.
"""

import dataclasses
import math
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlc_noma import batch, scheduler
from vlc_noma.batch import block_floor_gains, block_sum_rates
from vlc_noma.channel import UserPosition, floor_gains, los_channel_gain
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import (
    STREAM_BLOCK,
    _simulate_drop,
    _sweep_users_block,
    sample_user_positions,
)
from vlc_noma.rates import (
    CAPACITY_SNR_FACTOR,
    GAMMA_FLOOR,
    noma_rate_at,
    noma_user_rates,
    noma_wins,
    rate_gap_at,
    squared_ratio,
    tdma_rate_at,
    tdma_rate_slope,
)
from vlc_noma.region import (
    GAMMA_MAX,
    MAX_ITERATIONS,
    ORACLE_REL_WIDTH,
    SCAN_RANGE,
    TOLERANCE,
    InfeasibleSeedError,
    RegionSolverError,
    _log_bisect as oracle_bisect,
    _surrogate_root,
    feasibility_scan,
    oracle_region,
    region_for_snr,
    sca_solve,
)
from vlc_noma.scheduler import UserChannelSet, adaptive_pairing, scheme_sum_rates
from vlc_noma.streams import uniform_streams

DEFAULT = ExperimentConfig()
# A 30 degree field of view leaves the room's outer floor outside it.
NARROW_FOV = dataclasses.replace(DEFAULT, fov_deg=30.0)
# At a 1 degree semi-angle live gains differ by more than 1e154, so squared
# gain ratios overflow.
NARROW_BEAM = dataclasses.replace(DEFAULT, semi_angle_deg=1.0)
# Floor points more than about 1.3e154 m from the LED square their distance
# past the float max: both routes overflow to the dead gain 0.0 silently
# (warnings are errors in this suite).
HUGE_ROOM = dataclasses.replace(DEFAULT, room_length=1e170, room_width=1e170,
                                room_height=1e150, fov_deg=90.0)
CONFIGS = pytest.mark.parametrize(
    "cfg", [DEFAULT, NARROW_FOV, NARROW_BEAM, HUGE_ROOM],
    ids=["default", "narrow_fov", "narrow_beam", "huge_room"])


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
    ([1e-160, 1.35e-6], 1.0, 1e-14),  # the ratio 1.35e154 squares past the float max
])
def test_an_overflowed_ratio_never_pairs_and_forces_the_limit(gains, p_led, noise_power):
    tdma, forced, adaptive = scheme_sum_rates(gains, p_led, noise_power)
    assert adaptive == tdma
    # both unit rates of a forced pair tend to log2(1 + t * weak SNR)
    weak_snr = p_led * gains[0] * gains[0] / noise_power
    unit = math.log2(1.0 + CAPACITY_SNR_FACTOR * weak_snr)
    assert forced == unit + unit


# The trial ranges span a block boundary of the sweep and end at the last
# trial the streams take. cross_check also checks every pair the scalar
# greedy forms in those drops against its certified oracle region, a check
# the sweep itself does not make: each must pass.
@pytest.mark.parametrize("cross_check", [False, True], ids=["gap_sign", "cross_check"])
@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_sweep_block_equals_simulate_drop(cfg, cross_check):
    room = cfg.room()
    for lo, hi in [(STREAM_BLOCK - 15, STREAM_BLOCK + 15), (2**32 - 15, 2**32)]:
        for k in range(1, 12):
            drops = _sweep_users_block((cfg, k, lo, hi))
            assert drops.shape == (hi - lo, 3)
            assert list(map(tuple, drops.tolist())) == [
                _simulate_drop(cfg, k, m) for m in range(lo, hi)], (k, lo)
            if cross_check:
                u = uniform_streams(cfg.seed, k, lo, hi)
                gains = block_floor_gains(cfg.link(), u[:, 0::2] * room.length,
                                          u[:, 1::2] * room.width)
                for row in gains.tolist():
                    users = UserChannelSet.from_gains(row, cfg.led_power, cfg.noise_power)
                    adaptive_pairing(users, oracle_region)


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
    # dead links outside the narrow FOV and in the huge room, underflowed
    # gains in the narrow beam
    assert (block == 0.0).any() == (cfg is not DEFAULT)


def test_block_floor_gains_map_pow_only_over_the_live_cosines(monkeypatch):
    # d * d needs no pow; cos**m does, for the live receivers only
    counted = mapped_count(monkeypatch)
    block, _ = block_gains(NARROW_FOV, 6, 64)
    assert 0 < counted[pow] == np.count_nonzero(block) < block.size


# Floor points within 200 ulps of the cone edge's radius, in four
# directions: both routes cut them on the same cosine comparison.
EDGE_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-1.0, 0.0)]


@pytest.mark.parametrize("fov_deg", [30.0, 75.0, 89.0])
def test_block_floor_gains_equal_floor_gains_on_the_fov_edge(fov_deg):
    link = dataclasses.replace(DEFAULT, fov_deg=fov_deg).link()
    lx, ly, lz = link.led_position
    radius = lz * math.tan(math.radians(fov_deg))
    for _ in range(200):
        radius = math.nextafter(radius, 0.0)
    radii = [radius]
    while len(radii) < 401:
        radii.append(math.nextafter(radii[-1], math.inf))
    xs = np.array([[lx + c * d for d in radii] for c, _ in EDGE_DIRECTIONS])
    ys = np.array([[ly + s * d for d in radii] for _, s in EDGE_DIRECTIONS])
    block = block_floor_gains(link, xs, ys)
    for x, y, got in zip(xs.tolist(), ys.tolist(), block.tolist()):
        assert got == floor_gains(link, zip(x, y))
    assert (block == 0.0).any() and (block > 0.0).any()


def test_block_floor_gains_overflow_silently_inside_the_cone():
    link = HUGE_ROOM.link()
    lx, ly, _ = link.led_position
    # cosines of 1e-10 (inside the cone, d * d = inf) and 1 (under the LED)
    xs, ys = np.array([[lx + 1e160, lx]]), np.array([[ly, ly]])
    block = block_floor_gains(link, xs, ys)
    assert block.tolist() == [floor_gains(link, [(lx + 1e160, ly), (lx, ly)])]
    assert block[0, 0] == 0.0 < block[0, 1]


def test_block_kernels_give_a_drop_the_same_bits_with_or_without_a_dead_element_in_its_block():
    # An all-live block skips the masked copies; one dead element anywhere
    # in the block sends every drop through them.
    link = DEFAULT.link()
    lx, ly, _ = link.led_position
    u = uniform_streams(DEFAULT.seed, 4, 0, 64)
    xs, ys = u[:, 0::2] * DEFAULT.room().length, u[:, 1::2] * DEFAULT.room().width
    live = block_floor_gains(link, xs, ys)
    assert (live > 0.0).all()
    # a receiver 100 m out lies outside the 60 degree field of view
    far_x = np.vstack((xs, [[lx + 100.0, lx, lx + 1.0, lx + 2.0]]))
    masked = block_floor_gains(link, far_x, np.vstack((ys, [[ly] * 4])))
    assert masked[-1, 0] == 0.0 and np.array_equal(masked[:-1], live)
    p_led, noise_power = DEFAULT.led_power, DEFAULT.noise_power
    rates = block_sum_rates(live, p_led, noise_power)
    assert_rows_equal(live, p_led, noise_power)
    # a dead weak user, then a forced pair whose r overflows to inf
    for row in ([0.0, 1e-6, 2e-6, 5e-6], [1e-160, 1e-6, 2e-6, 1e-5]):
        block = np.vstack((live, [row]))
        assert np.array_equal(block_sum_rates(block, p_led, noise_power)[:-1], rates)
        assert_rows_equal(block, p_led, noise_power)
    assert squared_ratio(1e-5, 1e-160) == math.inf


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


def exact_rho(gamma, r):
    """(A*B)**2/(C*D) - 1 in exact rational arithmetic at these float
    arguments and t (see rates.noma_wins): the gap's sign, and its size near
    the tie (the gap is about rho / (2 ln 2))."""
    t, gamma, r = Fraction(CAPACITY_SNR_FACTOR), Fraction(gamma), Fraction(r)
    x = t * r * gamma
    ab = (1 + x / (r + gamma + 1)) * (1 + x / (r + 1))
    return ab * ab / ((1 + t * gamma) * (1 + x)) - 1


def float_bits(value):
    return struct.unpack("<q", struct.pack("<d", value))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def exact_boundary(gamma, lo, hi):
    """The last float from lo toward hi whose exact gap sign is lo's."""
    side = exact_rho(gamma, lo) >= 0
    assert (exact_rho(gamma, hi) >= 0) != side
    lo, hi = float_bits(lo), float_bits(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (exact_rho(gamma, bits_float(mid)) >= 0) == side:
            lo = mid
        else:
            hi = mid
    return lo


# Each side of noma_wins carries at most about 16 roundings, so it decides
# as exact arithmetic does wherever |rho| exceeds 32 unit roundoffs.
RHO_ROUNDING = 32 * 2.0**-53
BOUNDARY_STEPS = [*range(-8, 9), -64, 64, -512, 512]


def test_noma_wins_is_the_exact_gap_sign_off_the_tie():
    gammas, ratios, signs = [], [], []
    for snr_db in (10.2, 12.0, 20.0, 40.0, 80.0, 150.0, 220.0, 300.0):
        gamma = 10.0 ** (snr_db / 10.0)
        region = region_for_snr(gamma)
        inside = math.sqrt(region.r_min * region.r_max)
        # the gap turns non-negative past r_min and negative past r_max
        for lo, hi, rising in ((1.0, inside, True), (inside, 4.0 * region.r_max, False)):
            edge = exact_boundary(gamma, lo, hi)
            gammas += [gamma] * len(BOUNDARY_STEPS)
            ratios += [bits_float(edge + step) for step in BOUNDARY_STEPS]
            signs += [(step > 0) == rising for step in BOUNDARY_STEPS]
    wins = [noma_wins(gamma, r) for gamma, r in zip(gammas, ratios)]
    # numpy's + - * / round as Python's do: the arrays decide bit for bit alike
    assert noma_wins(np.array(gammas), np.array(ratios)).tolist() == wins
    rhos = [exact_rho(gamma, r) for gamma, r in zip(gammas, ratios)]
    assert [rho >= 0 for rho in rhos] == signs
    for gamma, r, rho, won in zip(gammas, ratios, rhos, wins):
        if abs(rho) > RHO_ROUNDING:
            assert won == (rho >= 0), (gamma, r)


@pytest.mark.parametrize("gamma, r, wins", [
    (1e80, 1e150, True),
    (1e80, 1e170, False),  # the gap is -17.8, but (A*B)**2 >= C*D reads inf >= inf
    (1e80, math.inf, False),
    (100.0, math.inf, False),
])
def test_noma_wins_does_not_overflow(gamma, r, wins):
    if r < math.inf:
        assert (exact_rho(gamma, r) >= 0) == wins
    assert noma_wins(gamma, r) is wins
    with np.errstate(invalid="ignore"):  # an infinite r makes A NaN
        assert noma_wins(np.array([gamma]), np.array([r])).tolist() == [wins]


# Pairs whose float gap is exactly 0.0, at r_min of gamma = 100 and at r_max
# of gamma = 400. The greedy pairs on the exact sign of the gap: rho is about
# -6.2e-16 at the first, so it stays single, and positive at the second.
ZERO_GAP_PAIRS = [[1e-6, 1.7683513499195429e-06], [2e-6, 0.00034446561201890974]]


@pytest.mark.parametrize("weak, strong", ZERO_GAP_PAIRS)
def test_a_zero_gap_pairs(weak, strong):
    gamma = 1.0 * weak * weak / 1e-14
    r = squared_ratio(strong, weak)
    assert rate_gap_at(gamma, r) == 0.0
    exact = exact_rho(gamma, r) >= 0
    users = UserChannelSet.from_gains([weak, strong], 1.0, 1e-14)
    assert adaptive_pairing(users).pairs == (((1, 2),) if exact else ())


# glibc 2.36's pow(5.323630699892461, 2) is 28.341043828837496, an ulp above
# the correctly rounded square, and at this weak user's 22.6 dB the pair's
# sum-rate moves with that ulp.
def test_the_pair_kernels_square_the_ratio_by_multiplication():
    ratio = 5.323630699892461
    weak = 2.0**-20
    strong = ratio * weak  # exact: weak is a power of two
    assert squared_ratio(strong, weak) == ratio * ratio == 28.341043828837492
    unit_weak, unit_strong = noma_user_rates(2.0 * weak * weak / 1e-14, ratio * ratio)
    # K = 2: the forced pair is the adaptive one, each in a whole slot
    rates = block_sum_rates(np.array([[weak, strong]]), 2.0, 1e-14)[0].tolist()
    assert rates[1:] == [unit_weak + unit_strong] * 2
    assert tuple(rates) == scheme_sum_rates([weak, strong], 2.0, 1e-14)


# Pairs whose |rho| is about 1e-10, near the tie but far outside the
# roundings: the first takes its partner, the second does not.
NEAR_ZERO_GAP_PAIRS = [[1e-6, 1.768351350096378e-06], [2e-6, 0.0003444656120533563]]


def mapped_count(monkeypatch):
    """Count the elements batch.mapped passes to each function from here on."""
    counted = Counter()
    mapped = batch.mapped

    def spy(fn, values, *args):
        counted[fn] += values.size
        return mapped(fn, values, *args)

    monkeypatch.setattr(batch, "mapped", spy)
    return counted


# No pair takes the float gap: near the tie or far from it, both routes
# decide by noma_wins alone, and the block maps log2 only for the rates.
@pytest.mark.parametrize("pair, rho_range, paired", [
    (ZERO_GAP_PAIRS[0], (1e-17, 1e-14), False),
    (ZERO_GAP_PAIRS[1], (1e-17, 1e-14), True),
    (NEAR_ZERO_GAP_PAIRS[0], (1e-12, 1e-9), True),
    (NEAR_ZERO_GAP_PAIRS[1], (1e-12, 1e-9), False),
    ([1e-6, 2e-6], (1e-9, math.inf), True),
    ([1e-6, 1e-3], (1e-9, math.inf), False),
])
def test_no_pair_takes_the_float_gap(monkeypatch, pair, rho_range, paired):
    weak, strong = pair
    gamma = weak * weak / 1e-14
    r = squared_ratio(strong, weak)
    rho = exact_rho(gamma, r)
    assert rho_range[0] < abs(rho) <= rho_range[1]
    assert noma_wins(gamma, r) == (rho >= 0) == paired
    counted = mapped_count(monkeypatch)
    rates = block_sum_rates(np.array([pair]), 1.0, 1e-14)
    assert tuple(rates[0].tolist()) == scheme_sum_rates(pair, 1.0, 1e-14)
    # two solo units and the forced pair's two logs; at K = 2 an adaptive
    # pair is the forced pair and reuses its rates; every r is ratio * ratio,
    # no pow
    assert counted[math.log2] == 2 + 2
    assert counted[rate_gap_at] == counted[math.acos] == counted[pow] == 0


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
    # user 1 takes user 4, so user 2 skips it and pairs with user 3
    ([1e-6, 1.1e-6, 5e-6, 1e-5], 1.0, 1e-14),
    *((pair, 1.0, 1e-14) for pair in NEAR_ZERO_GAP_PAIRS),
    ([1e-160, 1.35e-6], 1.0, 1e-14),                   # the ratio 1.35e154: r overflows
])
def test_block_sum_rates_edge_rows(row, p_led, noise_power):
    # the row, its reverse and a rotation: the kernel sorts each row
    assert_rows_equal([row, row[::-1], row[1:] + row[:1]], p_led, noise_power)


# Two drops of one block: at weak index 0 the first (6 dB) tries every j
# without pairing while the second pairs at j = 3; later, each has a taken
# partner whose gap is non-negative.
EDGE_BLOCK = [[2e-7, 1e-6, 2e-6, 1e-5], [1e-6, 1.5e-6, 2e-6, 1e-5]]


@pytest.mark.parametrize("block", [EDGE_BLOCK, EDGE_BLOCK[::-1]])
def test_block_sum_rates_edge_block(block):
    assert_rows_equal(block, 1.0, 1e-14)


def greedy_partners(row, p_led, noise_power):
    """adaptive_pairing's pairs of one row as (weak rank, strong rank) in
    gain order, the order block_sum_rates sorts each row into."""
    users = UserChannelSet.from_gains(row, p_led, noise_power)
    rank = {u.user_id: n for n, u in enumerate(users)}
    return [(rank[w], rank[s]) for w, s in adaptive_pairing(users).pairs]


# At 20 dB (1 W, 1e-14 W): the first drop's forced r = 1e4 lies past
# r_max (about 1,800), so weak index 0 takes index 1; the second drop's
# r = 900 pairs index 0 with its forced partner 2.
MIXED_BLOCK = [[1e-6, 2e-5, 1e-4], [1e-6, 2e-5, 3e-5]]


@pytest.mark.parametrize("block", [MIXED_BLOCK, MIXED_BLOCK[::-1]])
def test_block_sum_rates_mix_forced_and_other_partners_at_one_weak_index(monkeypatch, block):
    assert [greedy_partners(row, 1.0, 1e-14) for row in MIXED_BLOCK] == [[(0, 1)], [(0, 2)]]
    counted = mapped_count(monkeypatch)
    assert_rows_equal(block, 1.0, 1e-14)
    # six solo units, two forced pairs and the one pair at another partner
    assert counted[math.log2] == 6 + 2 * 2 + 2


def test_block_sum_rates_rate_each_forced_pair_once(monkeypatch):
    # One default sweep block: mapped log2 runs once per solo unit, twice per
    # live forced pair, and twice more only per greedy pair at another partner.
    k = 10
    gains, _ = block_gains(DEFAULT, k, 2000)
    p_led, noise_power = DEFAULT.led_power, DEFAULT.noise_power
    live_forced = np.count_nonzero(np.sort(gains, axis=1)[:, :k // 2] > 0.0)
    greedy = [pair for row in gains.tolist() for pair in greedy_partners(row, p_led, noise_power)]
    other = sum(s != k - 1 - w for w, s in greedy)
    counted = mapped_count(monkeypatch)
    block_sum_rates(gains, p_led, noise_power)
    assert counted[math.log2] == gains.size + 2 * live_forced + 2 * other
    assert counted[pow] == 0
    # at seed 1 the greedy pairs only forced partners
    assert len(greedy) > 0 and other == 0


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


def sweep_gains(cfg, k, trials):
    """One seeded sweep block's (trials, k) gains, as _sweep_users_block
    computes them."""
    u = uniform_streams(cfg.seed, k, 0, trials)
    return block_floor_gains(cfg.link(), u[:, 0::2] * cfg.room().length,
                             u[:, 1::2] * cfg.room().width)


def record_ratios(monkeypatch, module):
    """Patch module.noma_wins to record the ratios it tests, in call order,
    keyed by the weak user's SNR."""
    tested = {}

    def wins(gamma, r):
        for g, x in zip(np.ravel(gamma).tolist(), np.ravel(r).tolist()):
            tested.setdefault(g, []).append(x)
        return noma_wins(gamma, r)

    monkeypatch.setattr(module, "noma_wins", wins)
    return tested


def pairs_below_top(row, p_led, noise_power):
    """How many of a row's greedy pairs take a partner below the highest
    index still free when its weak user searches."""
    free, below = set(range(len(row))), 0
    for weak, strong in greedy_partners(row, p_led, noise_power):
        free -= {weak}
        below += strong != max(free)
        free -= {strong}
    return below


# K = 100 blocks: the default room; a 50 degree field of view, where 5.3%
# of the users are dead; 0.05 W, where 2,218 pairs in 506 of the first 512
# drops form below their weak user's top; and 1e-12 W, where every weak
# user lies below rates.GAMMA_FLOOR.
LOW_POWER = dataclasses.replace(DEFAULT, led_power=0.05)
TINY_POWER = dataclasses.replace(DEFAULT, led_power=1e-12)
K100_CONFIGS = pytest.mark.parametrize(
    "cfg", [DEFAULT, dataclasses.replace(DEFAULT, fov_deg=50.0), LOW_POWER, TINY_POWER],
    ids=["default", "fov50", "low_power", "tiny_power"])


@K100_CONFIGS
def test_the_block_greedy_tests_the_pairs_the_scalar_greedy_tests(monkeypatch, cfg):
    # Each weak user (each SNR is one user's) tests the same ratios in the
    # same order on both routes: the block's one pass per weak index, from
    # each drop's top and on below it, is adaptive_pairing's j loop.
    gains = sweep_gains(cfg, 100, 512)
    snrs = cfg.led_power * gains * gains / cfg.noise_power
    live = snrs[snrs >= GAMMA_FLOOR]
    assert np.unique(live).size == live.size
    block = record_ratios(monkeypatch, batch)
    block_sum_rates(gains, cfg.led_power, cfg.noise_power)
    scalar = record_ratios(monkeypatch, scheduler)
    for row in gains.tolist():
        adaptive_pairing(UserChannelSet.from_gains(row, cfg.led_power, cfg.noise_power))
    assert block == scalar
    assert (len(block) > 0) == (cfg is not TINY_POWER)
    if cfg is LOW_POWER:
        assert sum(pairs_below_top(row, cfg.led_power, cfg.noise_power)
                   for row in gains.tolist()) == 2218


def test_a_k100_block_tests_fewer_ratios_than_one_pass_per_pair(monkeypatch):
    # One pass per (i, j) tested 1,403,316 elements in 4,950 noma_wins calls
    # on this block; one pass per weak index, stopping at R_FLOOR, tests
    # 66,654 in 126.
    calls = Counter()
    wins = batch.noma_wins

    def counted(gamma, r):
        calls["calls"] += 1
        calls["elements"] += r.size
        return wins(gamma, r)

    monkeypatch.setattr(batch, "noma_wins", counted)
    block_sum_rates(sweep_gains(DEFAULT, 100, STREAM_BLOCK), DEFAULT.led_power,
                    DEFAULT.noise_power)
    assert calls == {"calls": 126, "elements": 66654}


@K100_CONFIGS
def test_block_sum_rates_equal_scheme_sum_rates_at_k100(cfg):
    assert_rows_equal(sweep_gains(cfg, 100, 256), cfg.led_power, cfg.noise_power)


def fold_mean_and_se(values):
    """The sweep's reduction as Python loops from 0.0, the reference
    batch.mean_and_se must equal: the sample standard deviation (n - 1
    denominator) over sqrt(n), and 0.0 for a single value."""
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    if n == 1:
        return mean, 0.0
    squares = 0.0
    for v in values:
        dev = v - mean
        squares += dev * dev
    return mean, math.sqrt(squares / (n - 1)) / math.sqrt(n)


def assert_mean_and_se_equal_the_folds(drops):
    expected = [fold_mean_and_se(column) for column in drops.T.tolist()]
    # In column-major order numpy's np.sum over axis 0 runs pairwise; in
    # row-major order it adds row by row, so that layout alone would not
    # tell an ordered sum from np.sum.
    for layout in (drops, np.asfortranarray(drops)):
        means, ses = batch.mean_and_se(layout)
        assert list(zip(means.tolist(), ses.tolist())) == expected


# a single drop, small samples, one full sweep block and one past it
@pytest.mark.parametrize("n", [1, 2, 3, STREAM_BLOCK, STREAM_BLOCK + 1])
def test_mean_and_se_equal_left_to_right_folds(n):
    rng = np.random.default_rng(n)
    assert_mean_and_se_equal_the_folds(rng.random((n, 3)) * rng.lognormal(0.0, 3.0, (n, 3)))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(st.tuples(*[st.floats(1e-300, 1e300)] * 3), min_size=1, max_size=40))
def test_mean_and_se_equal_left_to_right_folds_on_random_columns(rows):
    # a sum past the float max is inf in both routes
    with np.errstate(over="ignore"):
        assert_mean_and_se_equal_the_folds(np.array(rows))


def test_sweep_users_mean_and_se_equal_left_to_right_folds():
    for k in DEFAULT.user_counts():
        assert_mean_and_se_equal_the_folds(_sweep_users_block((DEFAULT, k, 0, 2000)))


def traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mean_and_se_holds_one_fold_block_beyond_its_input():
    # the terms are made and folded batch.FOLD_ROWS rows at a time, so a
    # few block-size buffers (about 0.15 MB) serve this 24 MB input, or any
    drops = np.random.default_rng(0).random((10**6, 3))
    block_bytes = (batch.FOLD_ROWS + 1) * drops.shape[1] * drops.itemsize
    for layout in (drops, np.asfortranarray(drops)):
        assert traced_peak(batch.mean_and_se, layout) <= 4 * block_bytes


@pytest.mark.parametrize("fn", [math.log2, pow])
def test_mapped_builds_no_list_of_its_input(fn):
    # the map reads a memoryview: no list of Python floats, 4x the array
    x = np.random.default_rng(0).random(10**5) + 0.5
    args = (repeat(1.5),) if fn is pow else ()
    assert traced_peak(batch.mapped, fn, x, *args) <= 1.5 * x.nbytes
    # a strided view is mapped through one contiguous copy
    assert traced_peak(batch.mapped, fn, x[::2], *args) <= 1.5 * x.nbytes


def test_a_sweep_block_holds_a_few_times_its_uniforms():
    # K = 100 over one full block: the uniforms are scaled in place and
    # freed before the rates, and each kernel step writes into the array it
    # reads (3.8x here)
    k = 100
    block = (DEFAULT, k, 0, STREAM_BLOCK)
    _sweep_users_block(block)  # imports and first-call allocations
    uniform_bytes = STREAM_BLOCK * 2 * k * 8
    assert traced_peak(_sweep_users_block, block) <= 5 * uniform_bytes


# The region's fused kernels (sca_solve and its surrogate-root bisection,
# and the oracle's bisection of noma_wins) repeat rates' formulas inline.
# The reference below is the generic route they replace: noma_rate_at,
# tdma_rate_at, tdma_rate_slope, rate_gap_at and noma_wins through one
# bisection that takes the predicate it bisects. reference_oracle bisects
# the float rate_gap_at's sign and stays independent of region.py, so the
# oracle's bits are pinned to the log2 route's whatever its code becomes.

def _log_bisect(wins, lo, hi, lo_feasible, rel_width):
    while hi - lo > rel_width * hi:
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if wins(mid) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def reference_sca_solve(gamma, objective, seed):
    """(r, iterates, gaps, converged) of sca_solve by the generic route."""
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ValueError(gamma)
    gap_seed = rate_gap_at(gamma, seed)
    if not gap_seed >= 0.0:
        raise InfeasibleSeedError(seed)
    iterates, gaps, converged = [seed], [gap_seed], False
    inner_floor = max(TOLERANCE * 1e-4, 1e-13)
    inner_width = 1e-3
    r = seed
    for _ in range(MAX_ITERATIONS):
        q_r = tdma_rate_at(gamma, r)
        q_slope = tdma_rate_slope(gamma, r)
        anchor = r

        def surrogate_wins(x):
            return noma_rate_at(gamma, x) - (q_r + q_slope * (x - anchor)) >= 0.0

        if objective == "min":
            if surrogate_wins(1.0):
                nxt = 1.0
            else:
                nxt = _log_bisect(surrogate_wins, 1.0, r, False, inner_width)
        else:
            hi = r * 2.0
            while surrogate_wins(hi):
                hi *= 2.0
            nxt = _log_bisect(surrogate_wins, r, hi, True, inner_width)
        iterates.append(nxt)
        gaps.append(rate_gap_at(gamma, nxt))
        step = abs(nxt - r)
        r = nxt
        if step < TOLERANCE * max(1.0, abs(r)):
            converged = True
            break
        inner_width = min(1e-3, max(inner_floor, 0.01 * (step / max(1.0, abs(r)))))
    return r, iterates, gaps, converged


def reference_oracle(gamma):
    """oracle_region's (r_min, r_max), or None, by the generic route."""
    seed = feasibility_scan(gamma)
    if seed is None:
        return None

    def gap_wins(r):
        return rate_gap_at(gamma, r) >= 0.0

    if gap_wins(1.0):
        r_min = 1.0
    else:
        r_min = _log_bisect(gap_wins, 1.0, seed, False, ORACLE_REL_WIDTH)
    hi = max(seed * 2.0, SCAN_RANGE[1])
    while gap_wins(hi):
        hi *= 4.0
    return r_min, _log_bisect(gap_wins, seed, hi, gap_wins(seed), ORACLE_REL_WIDTH)


def fused_sca_solve(gamma, objective, seed):
    r, trace = sca_solve(gamma, objective, seed)
    return r, trace.iterates, trace.gaps, trace.converged


def oracle_endpoints(gamma):
    region = oracle_region(gamma)
    return None if region.is_empty else (region.r_min, region.r_max)


def outcome(fn, *args):
    """fn's result, or the class of the error it raises."""
    try:
        return fn(*args)
    except (RegionSolverError, ValueError) as exc:
        return type(exc)


def assert_kernels_equal_reference(gamma):
    seed = outcome(feasibility_scan, gamma)
    if not isinstance(seed, float):  # None, or ValueError past GAMMA_MAX
        seed = 10.0  # with no feasible scan point, a seed of 10 has a negative gap
    for objective in ("min", "max"):
        solved = outcome(fused_sca_solve, gamma, objective, seed)
        assert solved == outcome(reference_sca_solve, gamma, objective, seed), gamma
    assert outcome(oracle_endpoints, gamma) == outcome(reference_oracle, gamma), gamma


# -10..480 dB, where both routes give a region or an empty one, then the
# bound of the solver's range: 480 dB itself, where the brackets grow
# furthest, and the next float past it, which every route rejects.
WIDE_SNR_DB = np.random.default_rng(11).uniform(-10.0, 480.0, 2000).tolist()
EDGE_GAMMAS = [GAMMA_MAX, math.nextafter(GAMMA_MAX, math.inf)]


def test_region_kernels_equal_the_generic_route():
    for gamma in [10.0 ** (db / 10.0) for db in WIDE_SNR_DB] + EDGE_GAMMAS:
        assert_kernels_equal_reference(gamma)


def test_region_kernels_raise_where_the_generic_route_raises():
    # past GAMMA_MAX, at 485.9 dB where the r_max solve would not converge
    # and at 3000 dB where t*r*gamma would leave the float range, every
    # route rejects gamma at entry
    for gamma in (10.0 ** 48.5915, 1e300):
        for solve in (fused_sca_solve, reference_sca_solve):
            assert outcome(solve, gamma, "max", 10.0) is ValueError
        for oracle in (oracle_endpoints, reference_oracle, region_for_snr):
            assert outcome(oracle, gamma) is ValueError
    # a seed with a negative gap, at 0 dB (empty region) and at 20 dB (below r_min)
    for gamma, seed in ((1.0, 10.0), (100.0, 2.0)):
        for solve in (fused_sca_solve, reference_sca_solve):
            assert outcome(solve, gamma, "max", seed) is InfeasibleSeedError


# The r_min run's x = 1 test, where its surrogate set reaches the canonical
# bound r = 1, passes where the gap rounds to 0 between r = 1 and the seed:
# far below the -10 dB that WIDE_SNR_DB starts at, where the scan finds no
# seed. At 1e-17 a seed of 1e6 already has a negative gap. These cases pin
# the branch, not the last bit of its rate side, which rounds to 0.0 here.
# sca_solve's inline tdma_rate_slope (q_slope) and both bracket-growth tests
# decide signs far from 0 in every case of this file, so a one-ulp change to
# them still passes: they are pinned by review alone.
TINY_GAMMAS = [5e-324, 1e-300, 1e-200, 1e-17]


def test_sca_min_reaches_r_1_as_the_generic_route_does():
    for gamma in TINY_GAMMAS:
        for seed in (10.0, 1e6):
            solved = outcome(fused_sca_solve, gamma, "min", seed)
            assert solved == outcome(reference_sca_solve, gamma, "min", seed), (gamma, seed)
            if (gamma, seed) == (1e-17, 1e6):
                assert solved is InfeasibleSeedError
            else:
                assert solved == (1.0, [seed, 1.0, 1.0], [0.0, 0.0, 0.0], True), (gamma, seed)


# 200 seeded SNRs over 12..480 dB; then the threshold band 10.14..12 dB,
# where regions are narrowest, and GAMMA_MAX, where brackets grow furthest.
RESOLUTION_GAMMAS = [10.0 ** (db / 10.0) for db in
                     np.random.default_rng(12).uniform(12.0, 480.0, 200).tolist()
                     + np.random.default_rng(13).uniform(10.14, 12.0, 50).tolist()] + [GAMMA_MAX]


def test_bisection_kernels_equal_the_generic_bisection_at_float_resolution():
    # With rel_width 0 the surrogate-root bisection runs until its bracket
    # ends are adjacent floats, where the sign of a step rests on the
    # formula's last bit: a reordered or re-associated operation, or a step
    # decided other than by the sign of the generic route's difference,
    # shows up here.
    for gamma in RESOLUTION_GAMMAS:
        seed = feasibility_scan(gamma)
        q_r, q_slope = tdma_rate_at(gamma, seed), tdma_rate_slope(gamma, seed)

        def surrogate_wins(x):
            return noma_rate_at(gamma, x) - (q_r + q_slope * (x - seed)) >= 0.0

        hi = 2.0 * seed
        while surrogate_wins(hi):
            hi *= 2.0
        for lo, hi, lo_feasible in ((1.0, seed, False), (seed, hi, True)):
            assert (_surrogate_root(gamma, q_r, q_slope, seed, lo, hi, lo_feasible, 0.0)
                    == _log_bisect(surrogate_wins, lo, hi, lo_feasible, 0.0)), (gamma, lo, hi)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(db=st.floats(10.14, 480.0), below=st.floats(-16.0, 0.0), above=st.floats(-16.0, 0.0),
       rel_width=st.sampled_from([0.0, ORACLE_REL_WIDTH, 1e-3]))
def test_the_oracle_kernel_equals_the_generic_bisection_of_noma_wins(db, below, above, rel_width):
    # The oracle's bisection evaluates noma_wins inline with 1 + t*gamma
    # hoisted. On brackets from 1e-16 to 1 relative around each of its
    # endpoints, cut at 1 and at the scan seed, it must end where the
    # generic bisection of partial(noma_wins, gamma) ends, down to adjacent
    # floats at rel_width 0.
    gamma = 10.0 ** (db / 10.0)
    seed = feasibility_scan(gamma)
    region = oracle_region(gamma)
    wins = partial(noma_wins, gamma)
    for end, floor, ceiling, lo_feasible in ((region.r_min, 1.0, seed, False),
                                             (region.r_max, seed, math.inf, True)):
        lo = max(floor, end / (1.0 + 10.0 ** below))
        hi = min(ceiling, end * (1.0 + 10.0 ** above))
        assert (oracle_bisect(gamma, lo, hi, lo_feasible, rel_width)
                == _log_bisect(wins, lo, hi, lo_feasible, rel_width)), (gamma, lo, hi)
