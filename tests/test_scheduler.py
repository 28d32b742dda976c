"""Pairing plans, their invariants, and schedule evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlc_noma.rates import (
    CAPACITY_SNR_FACTOR,
    noma_user_rates,
    rate_gap_at,
    squared_ratio,
)
from vlc_noma.region import (
    SOLVER_REL_BOUND,
    NomaRegion,
    OracleMismatchError,
    RegionCache,
    region_for_snr,
)
from vlc_noma.scheduler import (
    PairingPlan,
    UserChannel,
    UserChannelSet,
    adaptive_pairing,
    evaluate_schedule,
    forced_pairing,
    tdma_plan,
)

NOISE = 1e-14
CACHE = RegionCache()  # shared across the module; regions depend only on SNR


def users_from_gains(gains, p_led=1.0):
    return UserChannelSet.from_gains(gains, p_led, NOISE)


def gains_for_snrs(snrs):
    """Invert gamma = P h^2 / sigma^2 at P = 1 W."""
    return [math.sqrt(g * NOISE) for g in snrs]


def test_user_set_sorts_by_gain_then_id():
    users = UserChannelSet([
        UserChannel(3, 2e-6, 400.0),
        UserChannel(1, 1e-6, 100.0),
        UserChannel(2, 1e-6, 100.0),
    ])
    assert users.ids() == (1, 2, 3)
    with pytest.raises(ValueError):
        UserChannelSet([UserChannel(1, 1e-6, 1.0), UserChannel(1, 2e-6, 4.0)])
    with pytest.raises(ValueError):
        UserChannelSet([UserChannel(1, -1e-6, 1.0)])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            UserChannelSet([UserChannel(1, bad, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            UserChannelSet([UserChannel(1, 1e-6, bad)])
    with pytest.raises(ValueError):
        UserChannelSet([])


def test_from_gains_computes_snr():
    users = users_from_gains([1e-6, 2e-6])
    by_id = {u.user_id: u for u in users}
    assert by_id[1].snr == pytest.approx(100.0, rel=1e-12)
    assert by_id[2].snr == pytest.approx(400.0, rel=1e-12)
    # given strong first, the set still orders the pair weak then strong
    weak, strong = users_from_gains([2e-6, 1e-6]).users
    assert (weak.user_id, strong.user_id) == (2, 1)
    assert squared_ratio(strong.gain, weak.gain) == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("ids", [[1, 2], [1, 2, 3, 4]])
def test_from_gains_rejects_ids_that_do_not_match_the_gains(ids):
    with pytest.raises(ValueError):
        UserChannelSet.from_gains([1e-6, 2e-6, 3e-6], 1.0, NOISE, ids=ids)


# Gains with ties, dead links and an SNR that underflows to 0, each list
# with shuffled distinct ids; a power and noise that move every SNR.
gains_and_ids = st.lists(
    st.one_of(st.sampled_from([0.0, 1e-170, 1e-6, 2e-6]), st.floats(1e-7, 1e-4)),
    min_size=1, max_size=12,
).flatmap(lambda gains: st.tuples(
    st.just(gains),
    st.lists(st.integers(-50, 50), min_size=len(gains), max_size=len(gains), unique=True)))
powers = st.sampled_from([(1.0, NOISE), (0.05, NOISE), (2.0, 1e-10)])


def refusal(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(gains_and_ids, powers)
def test_from_gains_equals_the_set_of_its_records(gains_ids, power):
    gains, ids = gains_ids
    p_led, noise = power
    columns = UserChannelSet.from_gains(gains, p_led, noise, ids)
    records = UserChannelSet([UserChannel(i, h, p_led * h * h / noise)
                              for i, h in zip(ids, gains)])
    assert columns.ids() == records.ids() == tuple(i for _, i in sorted(zip(gains, ids)))
    assert columns.users == records.users
    assert list(columns) == list(records) == list(columns.users)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(gains_and_ids, powers, st.sampled_from(["negative", "nan", "inf", "snr inf", "repeat id"]),
       st.integers(0, 11))
def test_both_constructors_refuse_a_bad_user_alike(gains_ids, power, bad, at):
    gains, ids = list(gains_ids[0]), list(gains_ids[1])
    p_led, noise = power
    at %= len(gains)
    if bad == "repeat id":
        if len(ids) == 1:
            ids.append(ids[0])
            gains.append(gains[0])
        ids[at] = ids[at - 1]
    else:
        gains[at] = {"negative": -1e-6, "nan": math.nan, "inf": math.inf, "snr inf": 1e200}[bad]
    message = refusal(lambda: UserChannelSet.from_gains(gains, p_led, noise, ids))
    assert message == refusal(lambda: UserChannelSet(
        [UserChannel(i, h, p_led * h * h / noise) for i, h in zip(ids, gains)]))
    assert message == ("user ids must be unique" if bad == "repeat id"
                       else "gains and SNRs must be finite and non-negative")
    assert refusal(lambda: UserChannelSet.from_gains([], p_led, noise, [])) == refusal(
        lambda: UserChannelSet([])) == "need at least one user"


def test_forced_pairing_even_count():
    users = users_from_gains([1e-6 * (1 + 0.2 * i) for i in range(6)])
    plan = forced_pairing(users)
    assert plan.pairs == ((1, 6), (2, 5), (3, 4))
    assert plan.singletons == ()


def test_forced_pairing_odd_count():
    users = users_from_gains([1e-6 * (1 + 0.2 * i) for i in range(5)])
    plan = forced_pairing(users)
    assert plan.pairs == ((1, 5), (2, 4))
    assert plan.singletons == (3,)


def test_forced_pairing_single_user():
    plan = forced_pairing(users_from_gains([1e-6]))
    assert plan.pairs == ()
    assert plan.singletons == (1,)


def test_tdma_plan_all_singletons():
    for k in (1, 3, 6):
        users = users_from_gains([1e-6 * (1 + 0.1 * i) for i in range(k)])
        plan = tdma_plan(users)
        assert plan.pairs == ()
        assert len(plan.singletons) == k


def test_adaptive_single_user():
    plan = adaptive_pairing(users_from_gains([1e-6]), CACHE.region_of)
    assert plan.pairs == () and plan.singletons == (1,)


def test_adaptive_equal_gains_never_pair():
    # r = 1 lies below every region's lower endpoint
    for gamma in (1.0, 10.0, 100.0, 1000.0):
        users = users_from_gains(gains_for_snrs([gamma] * 4))
        plan = adaptive_pairing(users, CACHE.region_of)
        assert plan.pairs == ()
        assert len(plan.singletons) == 4


def test_adaptive_textbook_four_users():
    # weak user at gamma = 100; ratios r(1,4) = 10 inside its region,
    # r(2,3) = 1.2 outside every region
    h1 = 1e-6
    gains = [h1, 1.05e-6, 1.05e-6 * math.sqrt(1.2), h1 * math.sqrt(10.0)]
    users = users_from_gains(gains)
    asked = []

    def region_of(gamma):
        asked.append(gamma)
        return CACHE.region_of(gamma)

    plan = adaptive_pairing(users, region_of)
    assert plan.pairs == ((1, 4),)
    assert set(plan.singletons) == {2, 3}
    # a region is asked for once per pair formed, at the weak user's SNR
    assert asked == [users.users[0].snr]


def test_adaptive_zero_gain_users_stay_solo():
    users = UserChannelSet.from_gains([0.0, 0.0, 2e-6, 4e-6], 1.0, NOISE)
    plan = adaptive_pairing(users, CACHE.region_of)
    assert 1 in plan.singletons and 2 in plan.singletons
    # the two live users have r = 4 at gamma = 400, inside the region
    assert plan.pairs == ((3, 4),)


def test_adaptive_underflowed_snr_stays_solo():
    users = users_from_gains([1e-170, 1e-6, 2e-6])
    assert users.users[0].gain > 0.0 and users.users[0].snr == 0.0

    def region_of(gamma):
        assert gamma > 0.0, "region_of called for a dead link"
        return CACHE.region_of(gamma)

    plan = adaptive_pairing(users, region_of)
    assert 1 in plan.singletons
    assert plan.pairs == ((2, 3),)  # r = 4 at gamma = 100, inside the region


def test_adaptive_skips_the_region_when_no_candidate_beats_tdma():
    # equal gains (r = 1) lose to time-splitting at any SNR
    users = users_from_gains([1e-6, 1e-6, 1e-6])

    def region_of(gamma):
        raise AssertionError("region_of called with no candidate past the gap test")

    assert adaptive_pairing(users, region_of) == tdma_plan(users)


def test_gap_sign_cross_check_error_prints_exact_values():
    # A region whose r_min, less the solver's bound, starts one part in 1e9
    # above the pair's r: the message gives r and r_min exactly.
    users = users_from_gains([1e-6, 2e-6])
    weak, strong = users.users
    r = squared_ratio(strong.gain, weak.gain)
    r_min = r * (1.0 + 1e-9) / (1.0 - SOLVER_REL_BOUND)
    with pytest.raises(OracleMismatchError) as err:
        adaptive_pairing(users, lambda gamma: NomaRegion(gamma, r_min, 1e3))
    assert str(err.value) == (
        f"the gap sign pairs r={r!r} at gamma={weak.snr!r}, "
        f"outside the region [{r_min!r}, 1000.0]")


def test_cross_check_takes_the_solver_bound_but_not_a_one_percent_shrink():
    # At gamma = 400 the pair's exact gap is positive, but its r lies 2.5e-12
    # relative above the solver's r_max, an inner approximation.
    users = users_from_gains([2e-6, 0.00034446561201890974])
    weak, strong = users.users
    r = squared_ratio(strong.gain, weak.gain)
    region = region_for_snr(weak.snr)
    assert weak.snr == 400.0 and region.r_max < r
    assert not (not region.is_empty and region.r_min <= r <= region.r_max)
    assert adaptive_pairing(users, CACHE.region_of).pairs == ((1, 2),)

    def shrunk(gamma):
        return NomaRegion(gamma, region.r_min * 1.01, region.r_max * 0.99)

    with pytest.raises(OracleMismatchError, match="outside the region"):
        adaptive_pairing(users, shrunk)


def test_adaptive_pairs_lie_in_exact_region():
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(2, 9))
        gains = 10.0 ** rng.uniform(-6.2, -5.2, size=k)
        users = users_from_gains(list(gains))
        plan = adaptive_pairing(users, CACHE.region_of)
        by_id = {u.user_id: u for u in users}
        for weak_id, strong_id in plan.pairs:
            weak, strong = by_id[weak_id], by_id[strong_id]
            r = squared_ratio(strong.gain, weak.gain)
            region = region_for_snr(weak.snr)  # exact, uncached
            assert not region.is_empty
            assert region.r_min * (1 - 1e-6) <= r <= region.r_max * (1 + 1e-6)


def test_adaptive_dominates_tdma_per_drop():
    rng = np.random.default_rng(29)
    for _ in range(400):
        k = int(rng.integers(2, 11))
        gains = 10.0 ** rng.uniform(-6.5, -5.0, size=k)
        users = users_from_gains(list(gains))
        adaptive = evaluate_schedule(adaptive_pairing(users, CACHE.region_of), users)
        tdma = evaluate_schedule(tdma_plan(users), users)
        assert adaptive.sum_rate >= tdma.sum_rate - 1e-9


def test_adaptive_permutation_invariant():
    rng = np.random.default_rng(31)
    gains = list(10.0 ** rng.uniform(-6.2, -5.4, size=7))
    ids = list(range(1, 8))
    base = adaptive_pairing(
        UserChannelSet.from_gains(gains, 1.0, NOISE, ids=ids), CACHE.region_of
    )
    for _ in range(5):
        perm = rng.permutation(7)
        shuffled = UserChannelSet.from_gains(
            [gains[i] for i in perm], 1.0, NOISE, ids=[ids[i] for i in perm]
        )
        plan = adaptive_pairing(shuffled, CACHE.region_of)
        assert set(plan.pairs) == set(base.pairs)
        assert set(plan.singletons) == set(base.singletons)


def test_adaptive_matches_forced_when_all_ratios_in_region():
    # geometric gain ladder tuned so every forced pair's ratio is in-region
    c = 1.9
    gains = [1e-6 * c ** i for i in range(6)]
    users = users_from_gains(gains)
    forced = forced_pairing(users)
    by_id = {u.user_id: u for u in users}
    for weak_id, strong_id in forced.pairs:  # precondition of the property
        r = squared_ratio(by_id[strong_id].gain, by_id[weak_id].gain)
        region = region_for_snr(by_id[weak_id].snr)
        assert not region.is_empty and region.r_min <= r <= region.r_max
    adaptive = adaptive_pairing(users, CACHE.region_of)
    assert set(adaptive.pairs) == set(forced.pairs)
    assert adaptive.singletons == forced.singletons


def test_evaluate_two_user_pair_example():
    users = users_from_gains([1e-6, 2e-6])  # gamma = 100, r = 4
    outcome = evaluate_schedule(PairingPlan(((1, 2),), ()), users)
    assert outcome.sum_rate == pytest.approx(6.559181434762474, rel=1e-12)
    # K = 2: the pair holds the whole frame, so its rates are the unit-slot ones
    weak, strong = users.users
    rates = noma_user_rates(weak.snr, squared_ratio(strong.gain, weak.gain))
    assert outcome.per_user_rates == {1: rates[0], 2: rates[1]}


def test_evaluate_two_singletons_example():
    users = users_from_gains([1e-6, 2e-6])
    outcome = evaluate_schedule(tdma_plan(users), users)
    assert outcome.sum_rate == pytest.approx(6.45569534732018, rel=1e-12)


def test_evaluate_single_user_full_slot():
    users = users_from_gains([1e-6])  # gamma = 100
    outcome = evaluate_schedule(tdma_plan(users), users)
    assert outcome.sum_rate == pytest.approx(5.468022778172452, rel=1e-12)


def test_evaluate_bookkeeping_consistency():
    rng = np.random.default_rng(37)
    gains = list(10.0 ** rng.uniform(-6.3, -5.2, size=8))
    users = users_from_gains(gains)
    plan = adaptive_pairing(users, CACHE.region_of)
    assert plan.pairs and plan.singletons  # both kinds of group are checked
    outcome = evaluate_schedule(plan, users)
    k = len(gains)
    by_id = {u.user_id: u for u in users}
    assert sorted(outcome.per_user_rates) == sorted(by_id)
    group_rates = []
    for weak_id, strong_id in plan.pairs:
        weak, strong = by_id[weak_id], by_id[strong_id]
        unit_weak, unit_strong = noma_user_rates(weak.snr, squared_ratio(strong.gain, weak.gain))
        assert outcome.per_user_rates[weak_id] == (2 / k) * unit_weak
        assert outcome.per_user_rates[strong_id] == (2 / k) * unit_strong
        group_rates.append((2 / k) * unit_weak + (2 / k) * unit_strong)
    for uid in plan.singletons:
        rate = (1 / k) * math.log2(1.0 + CAPACITY_SNR_FACTOR * by_id[uid].snr)
        assert outcome.per_user_rates[uid] == rate
        group_rates.append(rate)
    # the sum-rate folds the group rates left to right from 0.0, pairs first
    fold = 0.0
    for rate in group_rates:
        fold += rate
    assert outcome.sum_rate == fold
    assert all(rate >= 0.0 for rate in outcome.per_user_rates.values())


def test_evaluate_rejects_inconsistent_plans():
    users = users_from_gains([1e-6, 2e-6, 3e-6])
    with pytest.raises(ValueError):
        evaluate_schedule(PairingPlan(((1, 2),), ()), users)  # user 3 missing
    with pytest.raises(ValueError):
        evaluate_schedule(PairingPlan(((1, 2),), (2, 3)), users)  # 2 twice
    with pytest.raises(ValueError):
        evaluate_schedule(PairingPlan(((3, 1),), (2,)), users)  # wrong order


def test_evaluate_zero_gain_forced_pair_earns_nothing():
    users = UserChannelSet.from_gains([0.0, 2e-6], 1.0, NOISE)
    outcome = evaluate_schedule(forced_pairing(users), users)
    assert outcome.sum_rate == 0.0


def test_plan_serialization_golden():
    users = users_from_gains([1e-6 * (1 + 0.3 * i) for i in range(5)])
    assert forced_pairing(users).serialize() == "PAIR 1 5\nPAIR 2 4\nSOLO 3\n"
    assert tdma_plan(users).serialize() == "SOLO 1\nSOLO 2\nSOLO 3\nSOLO 4\nSOLO 5\n"
