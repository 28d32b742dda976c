"""The user sweep's block kernels: channel gains and scheme sum-rates for a
block of drops at once, equal (==) to the scalar route drop by drop.

channel.floor_gains and scheduler.scheme_sum_rates are the reference: the
kernels run their + - * / and sqrt as numpy array operations in the same
order, which round as Python's floats do, and map math's own acos and log2
and builtin pow over the block, since numpy's arccos, log2 and power can
differ from math's in the last bit. tests/test_bit_identity.py pins both
kernels == to the scalar route.

This is the only module besides streams that imports numpy at load time,
and only the user sweep imports it, so the region map, the power sweep and
pair start without numpy.
"""

import math
from itertools import repeat

import numpy as np

from .channel import _TWO_PI, LinkConstants
from .rates import CAPACITY_SNR_FACTOR, squared_ratio


def mapped(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element v of a float array, by the scalar
    function itself (math's or a builtin) mapped at C speed: numpy's own
    transcendentals can differ from math's in the last bit."""
    return np.fromiter(map(fn, values.ravel().tolist(), *args), float,
                       count=values.size).reshape(values.shape)


def block_floor_gains(link: LinkConstants, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """channel.floor_gains over an array of floor points (x, y): equal (==)
    to it element by element. channel._los_link's +, -, *, / and sqrt are
    IEEE-exact in numpy in the same order; its acos and powers are
    math.acos and builtin pow (what ** calls), mapped over the block."""
    lx, ly, lz = link.led_position
    dx = xs - lx
    dy = ys - ly
    dz = 0.0 - lz
    distance = np.sqrt(dx * dx + dy * dy + dz * dz)
    if (distance == 0.0).any():
        raise ValueError("receiver is collocated with the LED")
    cos_angle = -dz / distance
    angle = mapped(math.acos, np.maximum(-1.0, np.minimum(1.0, cos_angle)))
    live = ~((cos_angle <= 0.0) | (angle > link.fov))
    cos_live = cos_angle[live]
    gains = np.zeros(distance.shape)
    gains[live] = (
        link.scale / (_TWO_PI * mapped(pow, distance[live], repeat(2)))
        * mapped(pow, cos_live, repeat(link.m)) * link.filter_gain * link.concentrator
        * cos_live
    )
    return gains


# Ratios below this square without overflow (sqrt of the float max is 1.34e154).
_SAFE_RATIO = 1e154


def _block_squared_ratios(strong: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """squared_ratio of each (strong, weak > 0) pair: builtin pow (what **
    calls) mapped over the ratios that cannot overflow, squared_ratio
    itself on the rest."""
    ratio = strong / weak
    safe = ratio < _SAFE_RATIO
    r = np.empty(ratio.shape)
    r[safe] = mapped(pow, ratio[safe], repeat(2.0))
    for n in np.flatnonzero(~safe).tolist():
        r[n] = squared_ratio(strong[n].item(), weak[n].item())
    return r


def _block_noma_logs(gamma: np.ndarray, r: np.ndarray):
    """noma_user_rates(gamma, r) elementwise, and x = t*r*gamma."""
    x = CAPACITY_SNR_FACTOR * r * gamma
    return (mapped(math.log2, 1.0 + x / (r + gamma + 1.0)),
            mapped(math.log2, 1.0 + x / (r + 1.0)),
            x)


def block_sum_rates(gains: np.ndarray, p_led: float, noise_power: float) -> np.ndarray:
    """scheduler.scheme_sum_rates of each row of a (B, K) gain block, as a
    (B, 3) array equal (==) to it row by row: the user sweep's batched form
    of the public plans and evaluate_schedule.

    The arithmetic runs in numpy in evaluate_schedule's order, and every
    log2 and power is math.log2 or builtin pow mapped over the block (see
    mapped). The greedy is adaptive_pairing's own two loops, run over
    every drop of the block at once: for weak index i ascending, the drops
    whose user i is unpaired and live search j from K-1 down to i+1; at
    each j the drops still searching whose j is unpaired test the gap, and
    those with gap >= 0 pair (i, j) and stop searching. So each drop
    evaluates exactly the gaps the scalar greedy reaches, in its order. A
    weak user's solo log2(1 + t*gamma) is tdma_rate_at's first term, bit
    for bit.

    Each scheme's group rates are summed by column-wise left-to-right adds
    from 0.0, as evaluate_schedule folds them. Adaptive adds each weak
    index's pair rates after its search, then the singletons by index,
    with 0.0 for a drop that has no such pair or singleton: adding 0.0 to
    a sum that starts from 0.0 changes no bit.
    """
    g = np.sort(np.asarray(gains, dtype=float), axis=1)
    b, k = g.shape
    if k == 0:
        raise ValueError("need at least one user")
    with np.errstate(all="ignore"):
        snrs = p_led * g * g / noise_power
        if not ((0.0 <= g) & (g < math.inf) & (0.0 <= snrs) & (snrs < math.inf)).all():
            raise ValueError("gains and SNRs must be finite and non-negative")
        solo_tau, pair_tau = 1.0 / k, 2.0 / k
        units = mapped(math.log2, 1.0 + CAPACITY_SNR_FACTOR * snrs)
        solo = solo_tau * units
        out = np.zeros((b, 3))
        for col in solo.T:
            out[:, 0] += col

        # Forced pairs (i, k - 1 - i): a dead weak user earns (0, 0), an
        # overflowed ratio the r -> inf limit of both unit rates.
        half = k // 2
        weak, strong = g[:, :half], g[:, ::-1][:, :half]
        forced = np.zeros((b, half))
        live = weak > 0.0
        r = _block_squared_ratios(strong[live], weak[live])
        unit_weak, unit_strong, _ = _block_noma_logs(snrs[:, :half][live], r)
        limit = r == math.inf
        unit_weak[limit] = unit_strong[limit] = units[:, :half][live][limit]
        forced[live] = pair_tau * unit_weak + pair_tau * unit_strong
        for col in forced.T:
            out[:, 1] += col
        if k % 2:
            out[:, 1] += solo[:, half]

        # Adaptive: adaptive_pairing's two loops over the whole block.
        paired = np.zeros((b, k), dtype=bool)
        for i in range(k - 1):
            searching = ~paired[:, i] & (g[:, i] > 0.0) & (snrs[:, i] > 0.0)
            pair_rates = np.zeros(b)
            for j in range(k - 1, i, -1):
                drops = np.flatnonzero(searching & ~paired[:, j])
                gamma = snrs[drops, i]
                r = _block_squared_ratios(g[drops, j], g[drops, i])
                unit_weak, unit_strong, x = _block_noma_logs(gamma, r)
                gap = (unit_weak + unit_strong) - 0.5 * (
                    units[drops, i] + mapped(math.log2, 1.0 + x))
                # The gap tends to -inf as r grows, so an overflowed r never pairs.
                take = ~((r == math.inf) | (gap < 0.0))
                won = drops[take]
                paired[won, i] = paired[won, j] = True
                searching[won] = False
                pair_rates[won] = pair_tau * unit_weak[take] + pair_tau * unit_strong[take]
            out[:, 2] += pair_rates
        for col in np.where(paired, 0.0, solo).T:
            out[:, 2] += col
    return out
