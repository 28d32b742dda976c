"""Property tests: the rate gap is non-negative exactly inside the region,
the solver agrees with the oracle, the pairing plan does not depend on how
regions are found or on input order, a region cross-check fails exactly
when a gap-sign pair lies outside it by more than the bound a solver
region is certified to (NomaRegion.admits) and otherwise leaves the plan
as it is, adaptive pairing never loses to TDMA, and oracle endpoints are
feasible.
The pairing rule itself is checked here once, not on every run: at seeded
SNRs up to 480 dB the gap sign that forms every pair wins on one interval
of ratios, the one the oracle region bounds.

Examples are derandomized, so a run is reproducible; each example builds
fresh region caches.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlc_noma.rates import noma_wins, rate_gap_at, squared_ratio
from vlc_noma.region import (
    CHECK_REL_WIDTH,
    ORACLE_REL_WIDTH,
    SNR_DB_MAX,
    NomaRegion,
    OracleMismatchError,
    RegionCache,
    oracle_region,
    region_for_snr,
)
from vlc_noma.scheduler import (
    PairingPlan,
    UserChannelSet,
    adaptive_pairing,
    evaluate_schedule,
    tdma_plan,
)

NOISE = 1e-14
PROPERTY = settings(deadline=None, derandomize=True, max_examples=100)

# Live gains span weak-user SNRs of 0..50 dB at 1 W; 0 is a dead link and
# 1e-170 a live gain whose SNR underflows to 0.
gain = st.one_of(
    st.floats(-7.0, -4.5).map(lambda e: 10.0 ** e),
    st.sampled_from([0.0, 1e-170]),
)
user_gains = st.lists(gain, min_size=1, max_size=10)


def users_of(gains, ids=None) -> UserChannelSet:
    return UserChannelSet.from_gains(gains, 1.0, NOISE, ids=ids)


def gap_sign_plan(users: UserChannelSet) -> PairingPlan:
    """adaptive_pairing's greedy with no region at all: pair on the sign of
    the rate gap at the exact SNR, as noma_wins decides it."""
    order = users.users
    paired = [False] * len(order)
    pairs = []
    for i, weak in enumerate(order[:-1]):
        if paired[i] or weak.snr <= 0.0:
            continue
        for j in range(len(order) - 1, i, -1):
            r = squared_ratio(order[j].gain, weak.gain)
            if not paired[j] and noma_wins(weak.snr, r):
                pairs.append((weak.user_id, order[j].user_id))
                paired[i] = paired[j] = True
                break
    singles = tuple(u.user_id for u, done in zip(order, paired) if not done)
    return PairingPlan(tuple(pairs), singles)


@PROPERTY
@given(user_gains)
def test_plan_does_not_depend_on_the_region_route(gains):
    users = users_of(gains)
    by_gap = adaptive_pairing(users)
    assert gap_sign_plan(users) == by_gap
    assert adaptive_pairing(users, RegionCache().region_of) == by_gap
    assert adaptive_pairing(users, oracle_region) == by_gap


@PROPERTY
@given(user_gains, st.floats(1.0, 1e3), st.floats(0.0, 1e4))
def test_cross_check_fails_exactly_when_a_gap_sign_pair_leaves_the_region(gains, r_min, width):
    def fixed_region(gamma):
        return NomaRegion(gamma, r_min, r_min + width)

    users = users_of(gains)
    by_id = {u.user_id: u for u in users}
    plan = gap_sign_plan(users)
    if all(fixed_region(by_id[w].snr).admits(squared_ratio(by_id[s].gain, by_id[w].gain))
           for w, s in plan.pairs):
        assert adaptive_pairing(users, fixed_region) == plan
    else:
        with pytest.raises(OracleMismatchError, match="outside the region"):
            adaptive_pairing(users, fixed_region)


@settings(PROPERTY, max_examples=300)  # about half the SNRs drawn have no region
@given(st.floats(0.0, 140.0), st.floats(0.0, 1.0))
def test_gap_sign_is_region_membership_up_to_140_db(snr_db, frac):
    gamma = 10.0 ** (snr_db / 10.0)
    # log10(r_max) is about snr_db / 10 + 5.3, so r spans both sides of it.
    r = 10.0 ** (frac * (snr_db / 10.0 + 6.0))
    region = region_for_snr(gamma)
    if not region.is_empty:
        for end in (region.r_min, region.r_max):
            if abs(r - end) <= 1e-6 * end:
                return  # too close to an endpoint to tell the solver's rounding apart
    assert (rate_gap_at(gamma, r) >= 0.0) == (
        not region.is_empty and region.r_min <= r <= region.r_max)


# The sweeps pair on noma_wins and read no region, so this is the check that
# the sign they pair on is region membership. Each grid runs from r = 1 to
# past r_max (below 0.19 * gamma**2), plus two probes just outside the
# ORACLE_REL_WIDTH band of each endpoint, within which its bisection stopped.
def test_noma_wins_is_one_interval_that_the_oracle_region_bounds():
    rng = np.random.default_rng(38)
    for db in [10.2, SNR_DB_MAX, *rng.uniform(10.2, SNR_DB_MAX, 1000).tolist()]:
        gamma = 10.0 ** (db / 10.0)
        region = oracle_region(gamma)
        assert not region.is_empty, db  # the threshold is 10.13 dB
        ends = (region.r_min, region.r_max)
        r = np.concatenate((
            np.logspace(0.0, math.log10(max(1e12, gamma * gamma)), 50_000),
            [end * f for end in ends for f in (1.0 - 2.0 * ORACLE_REL_WIDTH,
                                               1.0 + 2.0 * ORACLE_REL_WIDTH)]))
        r.sort()
        wins = noma_wins(gamma, r)
        assert not wins[0] and not wins[-1], db
        assert np.count_nonzero(wins[1:] != wins[:-1]) <= 2, db
        far = np.ones(len(r), dtype=bool)
        for end in ends:
            far &= np.abs(r - end) > ORACLE_REL_WIDTH * end
        inside = (r >= region.r_min) & (r <= region.r_max)
        assert np.array_equal(wins[far], inside[far]), db


# pair_once checks its pairs against oracle regions bisected to
# CHECK_REL_WIDTH: the reference's brackets and midpoints, stopped earlier,
# so each check region certifies and nests inside the reference region,
# CHECK_REL_WIDTH from each end up to one ulp of rounding, and the check
# admits no pair the reference region would refuse. The 10.13..10.2 dB band
# holds regions narrower than the scan's grid step.
def test_the_check_region_nests_inside_the_reference_region():
    rng = np.random.default_rng(39)
    w = CHECK_REL_WIDTH
    nonempty = 0
    for db in [10.13, SNR_DB_MAX, *rng.uniform(10.13, 10.2, 100).tolist(),
               *rng.uniform(10.2, SNR_DB_MAX, 300).tolist()]:
        gamma = 10.0 ** (db / 10.0)
        check, ref = oracle_region(gamma, w), oracle_region(gamma)  # each certified
        assert check.is_empty == ref.is_empty, db
        if ref.is_empty:
            continue
        nonempty += 1
        assert ref.r_min <= check.r_min <= math.nextafter(ref.r_min / (1.0 - w), math.inf), db
        assert math.nextafter(ref.r_max * (1.0 - w), 0.0) <= check.r_max <= ref.r_max, db
    assert nonempty == 397  # 96 of the band's 101 SNRs have a region


# 480 dB is the solver's whole range: past it every region function raises
# ValueError at entry.
@PROPERTY
@given(st.floats(0.0, 480.0))
def test_solver_matches_oracle_up_to_480_db(snr_db):
    gamma = 10.0 ** (snr_db / 10.0)
    found, ref = region_for_snr(gamma), oracle_region(gamma)
    assert found.is_empty == ref.is_empty
    if not ref.is_empty:
        assert abs(found.r_min - ref.r_min) <= 1e-3 * ref.r_min
        assert abs(found.r_max - ref.r_max) <= 1e-3 * ref.r_max


@PROPERTY
@given(st.data(), user_gains)
def test_plan_does_not_depend_on_input_order(data, gains):
    ids = list(range(1, len(gains) + 1))
    perm = data.draw(st.permutations(range(len(gains))))
    shuffled = users_of([gains[i] for i in perm], ids=[ids[i] for i in perm])
    base = adaptive_pairing(users_of(gains, ids=ids), RegionCache().region_of)
    assert adaptive_pairing(shuffled, RegionCache().region_of) == base


@PROPERTY
@given(user_gains)
def test_adaptive_never_loses_to_tdma(gains):
    users = users_of(gains)
    adaptive = evaluate_schedule(adaptive_pairing(users, RegionCache().region_of), users)
    assert adaptive.sum_rate >= evaluate_schedule(tdma_plan(users), users).sum_rate - 1e-9


@PROPERTY
@given(st.floats(0.0, 140.0))
def test_oracle_endpoints_are_feasible_up_to_140_db(snr_db):
    gamma = 10.0 ** (snr_db / 10.0)
    region = oracle_region(gamma)
    if not region.is_empty:
        assert rate_gap_at(gamma, region.r_min) >= -1e-9
        assert rate_gap_at(gamma, region.r_max) >= -1e-9
        assert math.isfinite(region.r_max)
