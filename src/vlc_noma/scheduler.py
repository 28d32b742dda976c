"""User grouping schemes and their sum-rate evaluation.

Three plans are supported for a set of downlink users: adaptive pairing
(pair weakest-with-strongest only when the rate gap at the weak user's SNR
is non-negative, which is the same as the gain ratio lying in that user's
beneficial region; a region may only cross-check the pairs), the
forced strongest-weakest baseline that always pairs, and plain
one-user-per-slot TDMA. Slot durations are proportional to group size,
which makes the per-pair unit-slot gap comparison exactly the system-level
comparison.
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
    """Users stored sorted ascending by gain, ties broken by id."""

    __slots__ = ("users",)

    def __init__(self, users: Iterable[UserChannel]):
        ordered = sorted(users, key=lambda u: (u.gain, u.user_id))
        if not ordered:
            raise ValueError("need at least one user")
        if any(not 0.0 <= u.gain < math.inf or not 0.0 <= u.snr < math.inf
               for u in ordered):
            raise ValueError("gains and SNRs must be finite and non-negative")
        ids = [u.user_id for u in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError("user ids must be unique")
        self.users = tuple(ordered)

    @classmethod
    def from_gains(
        cls,
        gains: Sequence[float],
        p_led: float,
        noise_power: float,
        ids: Sequence[int] | None = None,
    ) -> "UserChannelSet":
        """Build the set from raw gains; SNR = P * h^2 / sigma^2. Given ids
        must match the gains one for one."""
        if ids is None:
            ids = range(1, len(gains) + 1)
        return cls(
            UserChannel(uid, h, p_led * h * h / noise_power)
            for uid, h in zip(ids, gains, strict=True)
        )

    def __iter__(self):
        return iter(self.users)

    def ids(self) -> tuple[int, ...]:
        return tuple(u.user_id for u in self.users)


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
    order = users.users
    k = len(order)
    paired = [False] * k
    pairs: list[tuple[int, int]] = []
    for i in range(k - 1):
        weak = order[i]
        if paired[i] or weak.snr < GAMMA_FLOOR:
            continue
        for j in range(k - 1, i, -1):
            if paired[j]:
                continue
            r = squared_ratio(order[j].gain, weak.gain)
            if r < R_FLOOR:
                break
            if not noma_wins(weak.snr, r):
                continue
            if region_of is not None:
                region = region_of(weak.snr)
                if not region.admits(r):
                    bounds = ("empty" if region.is_empty
                              else f"[{region.r_min!r}, {region.r_max!r}]")
                    raise OracleMismatchError(
                        f"the gap sign pairs r={r!r} at gamma={weak.snr!r}, "
                        f"outside the region {bounds}")
            pairs.append((weak.user_id, order[j].user_id))
            paired[i] = paired[j] = True
            break
    return PairingPlan(
        tuple(pairs), tuple(u.user_id for u, done in zip(order, paired) if not done))


def forced_pairing(users: UserChannelSet) -> PairingPlan:
    """Always pair rank i with rank K+1-i; the median stays solo for odd K."""
    order = users.users
    k = len(order)
    pairs = tuple(
        (order[i].user_id, order[k - 1 - i].user_id) for i in range(k // 2)
    )
    singles = (order[k // 2].user_id,) if k % 2 == 1 else ()
    return PairingPlan(pairs, singles)


def tdma_plan(users: UserChannelSet) -> PairingPlan:
    """Every user in its own slot."""
    return PairingPlan((), users.ids())


def evaluate_schedule(plan: PairingPlan, users: UserChannelSet) -> ScheduleOutcome:
    """Rates under proportional slots: a group of n users gets n/K of the frame.

    Pairs earn the shared-slot sum-rate with the gain-inverse power split
    applied at their own ratio; singletons earn tau * log2(1 + t*gamma).
    """
    lookup = {u.user_id: u for u in users}
    covered = plan.covered_ids()
    if sorted(covered) != sorted(lookup):
        raise ValueError("plan does not cover the user set exactly once")

    k = len(lookup)
    per_user: dict[int, float] = {}
    # Each group's rate joins an explicit left-to-right fold from 0.0, pairs
    # first: CPython 3.11's builtin sum of the group rates bit for bit, where
    # 3.12 and later compensate a float sum.
    sum_rate = 0.0

    for weak_id, strong_id in plan.pairs:
        weak, strong = lookup[weak_id], lookup[strong_id]
        if strong.gain < weak.gain:
            raise ValueError(f"pair ({weak_id}, {strong_id}) is not weak/strong ordered")
        tau = 2.0 / k
        if weak.gain <= 0.0:
            # the gain-inverse split sends all power to the unreachable user
            unit_weak = unit_strong = 0.0
        else:
            r = squared_ratio(strong.gain, weak.gain)
            if r == math.inf:
                # both unit rates tend to the weak user's solo rate as r grows
                unit_weak = unit_strong = math.log2(1.0 + CAPACITY_SNR_FACTOR * weak.snr)
            else:
                unit_weak, unit_strong = noma_user_rates(weak.snr, r)
        rate_weak, rate_strong = tau * unit_weak, tau * unit_strong
        per_user[weak_id] = rate_weak
        per_user[strong_id] = rate_strong
        sum_rate += rate_weak + rate_strong

    for uid in plan.singletons:
        tau = 1.0 / k
        rate = tau * math.log2(1.0 + CAPACITY_SNR_FACTOR * lookup[uid].snr)
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
