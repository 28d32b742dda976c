"""The user sweep's lean paths and the region solver's fused kernels equal
the public route bit for bit.

floor_gains must give each user's los_channel_gain(...).channel_gain, the
block kernels block_floor_gains and block_sum_rates must give floor_gains and
scheme_sum_rates (evaluate_schedule over the TDMA, forced and adaptive plans)
row by row, a batched sweep shard must give _simulate_drop's rates for every
drop, and sca_solve and oracle_region must give what the rates functions
through a generic bisection give, compared with ==, never approximately.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlc_noma import batch
from vlc_noma.batch import block_floor_gains, block_sum_rates
from vlc_noma.channel import UserPosition, floor_gains, los_channel_gain
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import (
    STREAM_BLOCK,
    _simulate_drop,
    _sweep_users_shard,
    sample_user_positions,
)
from vlc_noma.rates import (
    CAPACITY_SNR_FACTOR,
    noma_rate_at,
    rate_gap_at,
    tdma_rate_at,
    tdma_rate_slope,
)
from vlc_noma.region import (
    MAX_ITERATIONS,
    ORACLE_REL_WIDTH,
    SCAN_RANGE,
    TOLERANCE,
    InfeasibleSeedError,
    RegionSolverError,
    _gap_root,
    _ratio_ceiling,
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
# oracle-checked solver regions (cross_check), which must pass and change no
# rate.
@pytest.mark.parametrize("validate", [False, True], ids=["gap_sign", "cross_check"])
@pytest.mark.parametrize("cfg", [DEFAULT, NARROW_FOV], ids=["default", "narrow_fov"])
def test_batched_shard_equals_simulate_drop(cfg, validate):
    cfg = dataclasses.replace(cfg, users_min=1, users_max=11)
    lo, hi = STREAM_BLOCK - 15, STREAM_BLOCK + 15  # spans a block boundary
    shard = _sweep_users_shard((cfg, lo, hi, validate))
    for k, drops in zip(cfg.user_counts(), shard):
        assert drops.shape == (hi - lo, 3)
        assert list(map(tuple, drops.tolist())) == [
            _simulate_drop(cfg, k, m) for m in range(lo, hi)], k


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


# Floor points within 200 ulps of the cone edge's radius, in four
# directions: each cosine lies within batch.FOV_MARGIN of cos(fov), so
# math.acos decides. At 75 degrees, comparing the cosines alone would kill
# receivers whose math.acos equals the fov.
EDGE_DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-1.0, 0.0)]


@pytest.mark.parametrize("fov_deg", [30.0, 75.0])
def test_block_floor_gains_equal_floor_gains_on_the_fov_edge(fov_deg):
    link = dataclasses.replace(DEFAULT, fov_deg=fov_deg).link()
    lx, ly, lz = link.led_position
    radius = lz * math.tan(link.fov)
    for _ in range(200):
        radius = math.nextafter(radius, 0.0)
    radii = [radius]
    while len(radii) < 401:
        radii.append(math.nextafter(radii[-1], math.inf))
    xs = np.array([[lx + c * d for d in radii] for c, _ in EDGE_DIRECTIONS])
    ys = np.array([[ly + s * d for d in radii] for _, s in EDGE_DIRECTIONS])
    cos_angle = lz / np.sqrt((xs - lx) ** 2 + (ys - ly) ** 2 + lz * lz)
    assert (np.abs(cos_angle - math.cos(link.fov)) <= batch.FOV_MARGIN).all()
    block = block_floor_gains(link, xs, ys)
    for x, y, got in zip(xs.tolist(), ys.tolist(), block.tolist()):
        assert got == floor_gains(link, zip(x, y))
    assert (block == 0.0).any() and (block > 0.0).any()


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


# Pairs whose rho lies inside batch.RHO_MARGIN but outside 1e-12 (|gap| about
# 1e-10): the first takes its partner, the second does not.
NEAR_ZERO_GAP_PAIRS = [[1e-6, 1.768351350096378e-06], [2e-6, 0.0003444656120533563]]


def log2_count(monkeypatch):
    """Count the elements batch.mapped passes to math.log2 from here on."""
    counted = [0]
    mapped = batch.mapped

    def spy(fn, values, *args):
        if fn is math.log2:
            counted[0] += values.size
        return mapped(fn, values, *args)

    monkeypatch.setattr(batch, "mapped", spy)
    return counted


@pytest.mark.parametrize("pair, rho_range, paired", [
    (ZERO_GAP_PAIRS[0], (1e-17, 1e-14), True),
    (ZERO_GAP_PAIRS[1], (1e-17, 1e-14), True),
    (NEAR_ZERO_GAP_PAIRS[0], (1e-12, batch.RHO_MARGIN), True),
    (NEAR_ZERO_GAP_PAIRS[1], (1e-12, batch.RHO_MARGIN), False),
    ([1e-6, 2e-6], (batch.RHO_MARGIN, math.inf), True),
    ([1e-6, 1e-3], (batch.RHO_MARGIN, math.inf), False),
])
def test_only_pairs_inside_the_rho_margin_take_the_float_gap(monkeypatch, pair, rho_range,
                                                              paired):
    weak, strong = pair
    gamma = weak * weak / 1e-14
    r = (strong / weak) ** 2
    x = CAPACITY_SNR_FACTOR * r * gamma
    rho = ((1.0 + x / (r + gamma + 1.0)) * (1.0 + x / (r + 1.0))) ** 2 / (
        (1.0 + CAPACITY_SNR_FACTOR * gamma) * (1.0 + x)) - 1.0
    assert rho_range[0] < abs(rho) <= rho_range[1]
    assert (rate_gap_at(gamma, r) >= 0.0) == paired
    counted = log2_count(monkeypatch)
    rates = block_sum_rates(np.array([pair]), 1.0, 1e-14)
    assert tuple(rates[0].tolist()) == scheme_sum_rates(pair, 1.0, 1e-14)
    # two solo units and the forced pair's two logs, the gap's four inside
    # the margin only, and the adaptive pair's two if it pairs
    assert counted[0] == 2 + 2 + 4 * (abs(rho) <= batch.RHO_MARGIN) + 2 * paired


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
    drops = _sweep_users_shard((DEFAULT, 0, 2000, False))
    for k_drops in drops:
        assert_mean_and_se_equal_the_folds(k_drops)

# The region solver's fused kernels (sca_solve's surrogate-root bisection and
# the oracle's gap-root bisection) repeat rates' formulas inline. The
# reference below is the generic route they replace: noma_rate_at,
# tdma_rate_at, tdma_rate_slope and rate_gap_at through one bisection that
# takes the function it bisects.

def _log_bisect(fn, lo, hi, lo_feasible, rel_width):
    while hi - lo > rel_width * hi:
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:
            break
        if (fn(mid) >= 0.0) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def reference_sca_solve(gamma, objective, seed):
    """(r, iterates, gaps, converged) of sca_solve by the generic route."""
    gap_seed = rate_gap_at(gamma, seed)
    if gap_seed < 0.0:
        raise InfeasibleSeedError(seed)
    iterates, gaps, converged = [seed], [gap_seed], False
    inner_floor = max(TOLERANCE * 1e-4, 1e-13)
    inner_width = 1e-3
    ceiling = _ratio_ceiling(gamma)
    r = seed
    for _ in range(MAX_ITERATIONS):
        q_r = tdma_rate_at(gamma, r)
        q_slope = tdma_rate_slope(gamma, r)
        anchor = r

        def surrogate(x):
            return noma_rate_at(gamma, x) - (q_r + q_slope * (x - anchor))

        if objective == "min":
            if surrogate(1.0) >= 0.0:
                nxt = 1.0
            else:
                nxt = _log_bisect(surrogate, 1.0, r, False, inner_width)
        else:
            hi = r * 2.0
            while hi <= ceiling and surrogate(hi) >= 0.0:
                hi *= 2.0
            if hi > ceiling:
                raise RegionSolverError(hi)
            nxt = _log_bisect(surrogate, r, hi, True, inner_width)
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
    gap = partial(rate_gap_at, gamma)
    if gap(1.0) >= 0.0:
        r_min = 1.0
    else:
        r_min = _log_bisect(gap, 1.0, seed, False, ORACLE_REL_WIDTH)
    hi = max(seed * 2.0, SCAN_RANGE[1])
    ceiling = _ratio_ceiling(gamma)
    while hi <= ceiling and gap(hi) >= 0.0:
        hi *= 4.0
    if hi > ceiling:
        raise RegionSolverError(hi)
    return r_min, _log_bisect(gap, seed, hi, gap(seed) >= 0.0, ORACLE_REL_WIDTH)


def fused_sca_solve(gamma, objective, seed):
    r, trace = sca_solve(gamma, objective, seed)
    return r, trace.iterates, trace.gaps, trace.converged


def fused_oracle(gamma):
    region = oracle_region(gamma)
    return None if region.is_empty else (region.r_min, region.r_max)


def outcome(fn, *args):
    """fn's result, or the class of the solver error it raises."""
    try:
        return fn(*args)
    except RegionSolverError as exc:
        return type(exc)


def assert_kernels_equal_reference(gamma):
    try:
        seed = feasibility_scan(gamma)
    except RegionSolverError:  # the scan grid overflows: seed the solver by hand
        seed = None
    # with no feasible scan point, a seed of 10 has a negative gap
    for objective in ("min", "max"):
        solved = outcome(fused_sca_solve, gamma, objective, seed or 10.0)
        assert solved == outcome(reference_sca_solve, gamma, objective, seed or 10.0), gamma
    assert outcome(fused_oracle, gamma) == outcome(reference_oracle, gamma), gamma


# -10..480 dB, where both routes give a region or an empty one, then the
# SNRs past 485 dB whose r_max solve does not converge, and SNRs where
# t*r*gamma leaves the float range in the solver's bracket and on the scan
# grid.
WIDE_SNR_DB = np.random.default_rng(11).uniform(-10.0, 480.0, 2000).tolist()
EDGE_SNR_DB = [485.915, 486.37, 486.565, 489.0, 1000.0, 3000.0]


def test_region_kernels_equal_the_generic_route():
    for db in WIDE_SNR_DB + EDGE_SNR_DB:
        assert_kernels_equal_reference(10.0 ** (db / 10.0))


def test_region_kernels_raise_where_the_generic_route_raises():
    # the SNRs above reach every outcome besides a region: an unconverged
    # solve, a bracket overflow and a scan-grid overflow
    assert not fused_sca_solve(10.0 ** 48.5915, "max", 10.0)[3]
    assert outcome(fused_sca_solve, 1e300, "max", 10.0) is RegionSolverError
    assert outcome(fused_oracle, 1e300) is RegionSolverError
    # a seed with a negative gap, at 0 dB (empty region) and at 20 dB (below r_min)
    for gamma, seed in ((1.0, 10.0), (100.0, 2.0)):
        for solve in (fused_sca_solve, reference_sca_solve):
            assert outcome(solve, gamma, "max", seed) is InfeasibleSeedError


def test_region_fails_at_the_same_snrs_past_480_db():
    grid = [480.0 + i * 0.013 for i in range(770)]
    failed = [db for db in grid
              if outcome(region_for_snr, 10.0 ** (db / 10.0)) is RegionSolverError]
    assert len(failed) == 26
    for db in failed:
        gamma = 10.0 ** (db / 10.0)
        assert not reference_sca_solve(gamma, "max", feasibility_scan(gamma))[3], db


def test_bisection_kernels_equal_the_generic_bisection_at_float_resolution():
    # With rel_width 0 each bisection runs until its bracket ends are
    # adjacent floats, where the sign of a step rests on the formula's last
    # bit: a reordered or re-associated operation shows up here.
    for db in np.random.default_rng(12).uniform(12.0, 480.0, 200).tolist():
        gamma = 10.0 ** (db / 10.0)
        seed = feasibility_scan(gamma)
        ref = oracle_region(gamma)
        gap = partial(rate_gap_at, gamma)
        for lo, hi, lo_feasible in ((1.0, seed, False), (seed, 4.0 * ref.r_max, True)):
            assert (_gap_root(gamma, lo, hi, lo_feasible, 0.0)
                    == _log_bisect(gap, lo, hi, lo_feasible, 0.0)), (gamma, lo, hi)

        q_r, q_slope = tdma_rate_at(gamma, seed), tdma_rate_slope(gamma, seed)

        def surrogate(x):
            return noma_rate_at(gamma, x) - (q_r + q_slope * (x - seed))

        hi = 2.0 * seed
        while surrogate(hi) >= 0.0:
            hi *= 2.0
        for lo, hi, lo_feasible in ((1.0, seed, False), (seed, hi, True)):
            assert (_surrogate_root(gamma, q_r, q_slope, seed, lo, hi, lo_feasible, 0.0)
                    == _log_bisect(surrogate, lo, hi, lo_feasible, 0.0)), (gamma, lo, hi)
