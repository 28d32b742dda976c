"""User grouping schemes and their sum-rate evaluation.

Three plans are supported for a set of downlink users: adaptive pairing
(pair weakest-with-strongest only when the gain ratio falls in the weak
user's beneficial region), the forced strongest-weakest baseline that always
pairs, and plain one-user-per-slot TDMA. Slot durations are proportional to
group size, which makes the per-pair unit-slot gap comparison exactly the
system-level comparison.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .rates import CAPACITY_SNR_FACTOR, noma_user_rates, rate_gap_at
from .region import NomaRegion


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
        """Build the set from raw gains; SNR = P * h^2 / sigma^2."""
        if ids is None:
            ids = range(1, len(gains) + 1)
        return cls(
            UserChannel(uid, h, p_led * h * h / noise_power)
            for uid, h in zip(ids, gains)
        )

    def __len__(self) -> int:
        return len(self.users)

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
class ScheduleGroup:
    """One TDMA slot: its members, slot fraction, and sum-rate."""

    member_ids: tuple[int, ...]
    slot_fraction: float
    rate: float  # bits/s/Hz


@dataclass(frozen=True)
class ScheduleOutcome:
    groups: tuple[ScheduleGroup, ...]
    per_user_rates: dict[int, float]
    sum_rate: float  # bits/s/Hz


def adaptive_pairing(
    users: UserChannelSet,
    region_of: Callable[[float], NomaRegion],
) -> PairingPlan:
    """Greedy weakest-with-strongest pairing gated by the gain-ratio region.

    For each unpaired weak user (ascending gain), strong candidates are
    scanned from the top down; the first whose squared ratio lies in the
    region computed at the weak user's SNR is taken. Users with zero gain or
    zero SNR (a gain so small that P * h^2 underflows) are never paired. On
    top of the interval test, the rate gap itself is confirmed non-negative:
    region_of may serve cached intervals from a slightly different SNR
    bucket, and the direct check keeps every kept pair at least as good as
    splitting the slot.

    The gap is tested first, and region_of is called only once a candidate
    passes it: a weak user whose candidates all lose to time-splitting never
    costs a region solve. Both tests must hold, so the order does not change
    the decision for a given region_of.
    """
    order = users.users
    k = len(order)
    paired = [False] * k
    pairs: list[tuple[int, int]] = []
    for i in range(k - 1):
        weak = order[i]
        if paired[i] or weak.gain <= 0.0 or weak.snr <= 0.0:
            continue
        region = None
        for j in range(k - 1, i, -1):
            if paired[j]:
                continue
            r = (order[j].gain / weak.gain) ** 2
            if rate_gap_at(weak.snr, r) < 0.0:
                continue
            if region is None:
                region = region_of(weak.snr)
            if region.contains(r):
                pairs.append((weak.user_id, order[j].user_id))
                paired[i] = paired[j] = True
                break
    singles = tuple(order[i].user_id for i in range(k) if not paired[i])
    return PairingPlan(tuple(pairs), singles)


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
    t = CAPACITY_SNR_FACTOR
    groups: list[ScheduleGroup] = []
    per_user: dict[int, float] = {}

    for weak_id, strong_id in plan.pairs:
        weak, strong = lookup[weak_id], lookup[strong_id]
        if strong.gain < weak.gain:
            raise ValueError(f"pair ({weak_id}, {strong_id}) is not weak/strong ordered")
        tau = 2.0 / k
        if weak.gain <= 0.0:
            # gain-inverse split sends all power to the unreachable user
            unit_weak = unit_strong = 0.0
        else:
            unit_weak, unit_strong = noma_user_rates(weak.snr, (strong.gain / weak.gain) ** 2)
        rate_weak = tau * unit_weak
        rate_strong = tau * unit_strong
        per_user[weak_id] = rate_weak
        per_user[strong_id] = rate_strong
        groups.append(ScheduleGroup((weak_id, strong_id), tau, rate_weak + rate_strong))

    for uid in plan.singletons:
        tau = 1.0 / k
        rate = tau * math.log2(1.0 + t * lookup[uid].snr)
        per_user[uid] = rate
        groups.append(ScheduleGroup((uid,), tau, rate))

    return ScheduleOutcome(
        groups=tuple(groups),
        per_user_rates=per_user,
        sum_rate=sum(g.rate for g in groups),
    )
