"""User grouping schemes and their sum-rate evaluation.

Three plans are supported for a set of downlink users: adaptive pairing
(pair weakest-with-strongest only when the rate gap at the weak user's SNR
is non-negative, which is the same as the gain ratio lying in that user's
beneficial region; a region may only cross-check the pairs), the
forced strongest-weakest baseline that always pairs, and plain
one-user-per-slot TDMA. Slot durations are proportional to group size,
which makes the per-pair unit-slot gap comparison exactly the system-level
comparison. A user set is held as sorted columns of ids, gains and SNRs;
the plans and evaluate_schedule read them and build no UserChannel record.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .rates import (CAPACITY_SNR_FACTOR, GAMMA_FLOOR, R_FLOOR, noma_user_rates, noma_wins,
                    squared_ratio)
from .region import NomaRegion, OracleMismatchError


@dataclass(frozen=True)
class UserChannel:
    """One user's downlink state."""

    user_id: int
    gain: float  # LoS channel gain h, >= 0 (0 means outside the FOV)
    snr: float   # gamma = P * h^2 / sigma^2


class UserChannelSet:
    """Users sorted ascending by gain, ties broken by id, as three parallel
    tuples: user_ids, gains and snrs. .users and iteration build the
    UserChannel records from them on each request."""

    __slots__ = ("user_ids", "gains", "snrs")

    def __init__(self, users: Iterable[UserChannel]):
        ordered = sorted(users, key=lambda u: (u.gain, u.user_id))
        self._set_columns(tuple(u.user_id for u in ordered), tuple(u.gain for u in ordered),
                          tuple(u.snr for u in ordered))

    def _set_columns(self, user_ids: tuple, gains: tuple, snrs: tuple) -> None:
        if not user_ids:
            raise ValueError("need at least one user")
        values = gains + snrs
        if not (all(map(math.isfinite, values)) and min(values) >= 0.0):
            raise ValueError("gains and SNRs must be finite and non-negative")
        if len(set(user_ids)) != len(user_ids):
            raise ValueError("user ids must be unique")
        self.user_ids, self.gains, self.snrs = user_ids, gains, snrs

    @classmethod
    def from_gains(cls, gains: Sequence[float], p_led: float, noise_power: float,
                   ids: Sequence[int] | None = None) -> "UserChannelSet":
        """Build the set from raw gains; SNR = P * h^2 / sigma^2. Given ids
        must match the gains one for one."""
        if ids is None:
            ids = range(1, len(gains) + 1)
        ordered = sorted(zip(gains, ids, strict=True))  # by (gain, id)
        sorted_gains, user_ids = zip(*ordered) if ordered else ((), ())
        users = cls.__new__(cls)
        users._set_columns(user_ids, sorted_gains,
                           tuple([p_led * h * h / noise_power for h in sorted_gains]))
        return users

    @property
    def users(self) -> tuple[UserChannel, ...]:
        return tuple(map(UserChannel, self.user_ids, self.gains, self.snrs))

    def __iter__(self):
        return iter(self.users)

    def ids(self) -> tuple[int, ...]:
        return self.user_ids


@dataclass(frozen=True)
class PairingPlan:
    """Disjoint cover of the users by (weak, strong) pairs and singletons."""

    pairs: tuple[tuple[int, int], ...]
    singletons: tuple[int, ...]

    def covered_ids(self) -> list[int]:
        out: list[int] = []
        for w, s in self.pairs:
            out.extend((w, s))
        out.extend(self.singletons)
        return out

    def serialize(self) -> str:
        """Line-based text form: 'PAIR i j' per pair, 'SOLO i' per singleton."""
        lines = [f"PAIR {w} {s}" for w, s in self.pairs]
        lines += [f"SOLO {u}" for u in self.singletons]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScheduleOutcome:
    per_user_rates: dict[int, float]
    sum_rate: float  # bits/s/Hz


def adaptive_pairing(
    users: UserChannelSet,
    region_of: Callable[[float], NomaRegion] | None = None,
) -> PairingPlan:
    """Greedy weakest-with-strongest pairing wherever sharing the slot wins.

    For each unpaired weak user (ascending gain), strong candidates are
    scanned from the top down; the first whose squared gain ratio r gives a
    non-negative rate gap at the weak user's exact SNR is taken, as
    rates.noma_wins decides it with + - * / alone. The gap is unimodal in r,
    so that sign test is the same as r lying in the region [r_min, r_max] at
    that SNR, and no region is needed. Users are sorted, so r never rises
    as j falls: a search stops at the first unpaired candidate with
    r < rates.R_FLOOR, where noma_wins is False. A weak user below
    rates.GAMMA_FLOOR (10 dB) is never paired, zero gains and SNRs that
    underflow to 0 among them: no ratio has a region there, and below about
    -78 dB noma_wins would read a rounding tie as a win. Both floors are
    tested on floats, not proved. batch.block_sum_rates tests the same
    pairs in the same order.

    A given region_of only cross-checks the plan: it is called once per pair
    formed, at the weak user's SNR, and a pair whose r lies outside that
    region by more than region.SOLVER_REL_BOUND of an endpoint (see
    NomaRegion.admits) raises OracleMismatchError. pair_once passes
    region.oracle_region bisected to region.CHECK_REL_WIDTH, which bisects
    the same noma_wins sign, nests inside the reference region and
    certifies each region's endpoints before the pair is checked;
    perfbench's traced replay passes solver regions from a
    region.RegionCache. It never changes the plan.
    """
    ids, gains, snrs = users.user_ids, users.gains, users.snrs
    k = len(ids)
    paired = [False] * k
    pairs: list[tuple[int, int]] = []
    for i in range(k - 1):
        gamma = snrs[i]
        if paired[i] or gamma < GAMMA_FLOOR:
            continue
        weak_gain = gains[i]
        for j in range(k - 1, i, -1):
            if paired[j]:
                continue
            r = squared_ratio(gains[j], weak_gain)
            if r < R_FLOOR:
                break
            if not noma_wins(gamma, r):
                continue
            if region_of is not None:
                region = region_of(gamma)
                if not region.admits(r):
                    bounds = ("empty" if region.is_empty
                              else f"[{region.r_min!r}, {region.r_max!r}]")
                    raise OracleMismatchError(
                        f"the gap sign pairs r={r!r} at gamma={gamma!r}, "
                        f"outside the region {bounds}")
            pairs.append((ids[i], ids[j]))
            paired[i] = paired[j] = True
            break
    return PairingPlan(
        tuple(pairs), tuple([uid for uid, done in zip(ids, paired) if not done]))


def forced_pairing(users: UserChannelSet) -> PairingPlan:
    """Always pair rank i with rank K+1-i; the median stays solo for odd K."""
    ids = users.user_ids
    k = len(ids)
    pairs = tuple(zip(ids[:k // 2], reversed(ids)))
    singles = (ids[k // 2],) if k % 2 == 1 else ()
    return PairingPlan(pairs, singles)


def tdma_plan(users: UserChannelSet) -> PairingPlan:
    """Every user in its own slot."""
    return PairingPlan((), users.user_ids)


def evaluate_schedule(plan: PairingPlan, users: UserChannelSet) -> ScheduleOutcome:
    """Rates under proportional slots: a group of n users gets n/K of the frame.

    Pairs earn the shared-slot sum-rate with the gain-inverse power split
    applied at their own ratio; singletons earn tau * log2(1 + t*gamma).
    """
    gains, snrs = users.gains, users.snrs
    k = len(gains)
    position = dict(zip(users.user_ids, range(k)))
    covered = plan.covered_ids()
    if len(covered) != k or position.keys() != set(covered):
        raise ValueError("plan does not cover the user set exactly once")

    per_user: dict[int, float] = {}
    # Each group's rate joins an explicit left-to-right fold from 0.0, pairs
    # first: CPython 3.11's builtin sum of the group rates bit for bit, where
    # 3.12 and later compensate a float sum.
    sum_rate = 0.0

    for weak_id, strong_id in plan.pairs:
        weak, strong = position[weak_id], position[strong_id]
        if gains[strong] < gains[weak]:
            raise ValueError(f"pair ({weak_id}, {strong_id}) is not weak/strong ordered")
        tau = 2.0 / k
        if gains[weak] <= 0.0:
            # the gain-inverse split sends all power to the unreachable user
            unit_weak = unit_strong = 0.0
        else:
            r = squared_ratio(gains[strong], gains[weak])
            if r == math.inf:
                # both unit rates tend to the weak user's solo rate as r grows
                unit_weak = unit_strong = math.log2(1.0 + CAPACITY_SNR_FACTOR * snrs[weak])
            else:
                unit_weak, unit_strong = noma_user_rates(snrs[weak], r)
        rate_weak, rate_strong = tau * unit_weak, tau * unit_strong
        per_user[weak_id] = rate_weak
        per_user[strong_id] = rate_strong
        sum_rate += rate_weak + rate_strong

    for uid in plan.singletons:
        tau = 1.0 / k
        rate = tau * math.log2(1.0 + CAPACITY_SNR_FACTOR * snrs[position[uid]])
        per_user[uid] = rate
        sum_rate += rate

    return ScheduleOutcome(per_user_rates=per_user, sum_rate=sum_rate)


def scheme_sum_rates(
    gains: Sequence[float], p_led: float, noise_power: float
) -> tuple[float, float, float]:
    """(TDMA, forced, adaptive) sum-rates of users 1..K with these gains:
    evaluate_schedule of tdma_plan, forced_pairing and adaptive_pairing over
    UserChannelSet.from_gains(gains, p_led, noise_power), with no region."""
    users = UserChannelSet.from_gains(gains, p_led, noise_power)
    plans = (tdma_plan(users), forced_pairing(users), adaptive_pairing(users))
    return tuple(evaluate_schedule(plan, users).sum_rate for plan in plans)
