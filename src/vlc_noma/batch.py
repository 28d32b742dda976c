"""The user sweep's block kernels: channel gains and scheme sum-rates for a
block of drops at once, equal (==) to the scalar route drop by drop.

channel.floor_gains and scheduler.scheme_sum_rates are the reference: the
kernels run their + - * / and sqrt as numpy array operations in the same
order, which round as Python's floats do, squares among them as x * x
(libm's pow need not be correctly rounded). Every log2 and cos**m whose
value reaches an output is math.log2 or builtin pow, mapped over the block
(see mapped), since numpy's log2 and power can differ from math's in the
last bit. The field-of-view and pairing decisions are IEEE-basic on both
routes (a cosine compared with cos(fov), and rates.noma_wins), so the
kernels decide as the scalar route does with no margin and no fallback.
tests/test_bit_identity.py pins both kernels == to the scalar route, and
mean_and_se == to left-to-right Python loops.

Every sum of the user sweep is np.add.accumulate along one axis, its last
partial sum kept. That is the loops' fold from 0.0, bit for bit:

* numpy defines accumulate on a 1-D array as t = op(t, A[i]) for i
  ascending, applied along the chosen axis: evaluate_schedule's order, and
  the order of a loop over a column.
* Every term is >= +0.0 (slot fractions times log2 of values >= 1, and
  squared deviations), so starting from the first term instead of 0.0
  changes no bit.
* numpy's * / and sqrt are IEEE correctly rounded, as Python's are.

np.sum and np.mean add pairwise along a contiguous axis: summed column by
column, the default 10**4-drop sweep's 27 columns give 24 sums that differ
from the fold's, so neither may reach an output.

This is the only module besides streams that imports numpy at load time,
and only the user sweep imports it, so the region map, the power sweep and
pair start without numpy.
"""

import math
from itertools import repeat

import numpy as np

from .channel import _TWO_PI, LinkConstants
from .rates import CAPACITY_SNR_FACTOR, noma_wins, squared_ratio


def mapped(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element v of a float array, by the scalar
    function itself (math's or a builtin) mapped at C speed: numpy's own
    transcendentals can differ from math's in the last bit."""
    return np.fromiter(map(fn, values.ravel().tolist(), *args), float,
                       count=values.size).reshape(values.shape)


def block_floor_gains(link: LinkConstants, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """channel.floor_gains over an array of floor points (x, y): equal (==)
    to it element by element. channel._los_link's +, -, *, / and sqrt (d*d
    too) and its cosine test are IEEE-exact in numpy in the same order, and
    overflow to inf silently as Python's floats do; its cos**m is builtin
    pow mapped over the live cosines."""
    lx, ly, lz = link.led_position
    with np.errstate(over="ignore"):
        dx = xs - lx
        dy = ys - ly
        dz = 0.0 - lz
        distance = np.sqrt(dx * dx + dy * dy + dz * dz)
        if (distance == 0.0).any():
            raise ValueError("receiver is collocated with the LED")
        cos_angle = -dz / distance
        live = cos_angle >= link.cos_fov
        cos_live = cos_angle[live]
        gains = np.zeros(distance.shape)
        gains[live] = (
            link.scale / (_TWO_PI * (distance[live] * distance[live]))
            * mapped(pow, cos_live, repeat(link.m)) * link.filter_gain * link.concentrator
            * cos_live
        )
    return gains


def _block_pair_rates(weak, strong, gamma, solo_unit, tau) -> np.ndarray:
    """evaluate_schedule's sum-rate of each pair with weak > 0: tau times
    each of noma_user_rates(gamma, r) at r = squared_ratio(strong, weak),
    an r overflowed to inf earning the r -> inf limit of both unit rates,
    the weak user's solo_unit."""
    r = squared_ratio(strong, weak)
    x = CAPACITY_SNR_FACTOR * r * gamma
    unit_weak = mapped(math.log2, 1.0 + x / (r + gamma + 1.0))
    unit_strong = mapped(math.log2, 1.0 + x / (r + 1.0))
    limit = r == math.inf
    unit_weak[limit] = unit_strong[limit] = solo_unit[limit]
    return tau * unit_weak + tau * unit_strong


def block_sum_rates(gains: np.ndarray, p_led: float, noise_power: float) -> np.ndarray:
    """scheduler.scheme_sum_rates of each row of a (B, K) gain block, as a
    (B, 3) array equal (==) to it row by row: the user sweep's batched form
    of the public plans and evaluate_schedule.

    The arithmetic runs in numpy in evaluate_schedule's order, and every
    log2 that reaches the output is math.log2 mapped over the block (see
    mapped). The greedy is adaptive_pairing's own two loops, run over every
    drop of the block at once: for weak index i ascending, the drops whose
    user i is unpaired and live search j from K-1 down to i+1; at each j
    the drops still searching whose j is unpaired test the gap with
    adaptive_pairing's own rates.noma_wins on the arrays, and those with
    gap >= 0 pair (i, j) and stop searching. So each drop tests exactly the
    pairs the scalar greedy reaches, in its order, and only the pairs formed
    have their rates computed, after each i's search. Each pair
    (i, k-1-i) is rated once, by _block_pair_rates (evaluate_schedule's
    pair branch): the forced kernel rates it for every live weak user, the
    only users the greedy searches for, and the drops whose winner at i is
    k-1-i copy forced[:, i]. Only winners at another partner are rated
    again, by the same kernel on the same operands, so either route gives
    the same bits. A weak user's solo log2(1 + t*gamma) is tdma_rate_at's
    first term, bit for bit.

    Each scheme's group rates are laid out in evaluate_schedule's group
    order and summed once by np.add.accumulate: TDMA's solo rates; forced's
    pair rates, then the median's solo rate when K is odd; adaptive's pair
    rate per weak index (0.0 where the drop formed none there), then each
    user's solo rate where it stayed single (0.0 where it paired). A 0.0
    term adds no bit to a sum of terms >= +0.0.
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

        # Forced pairs (i, k - 1 - i): a dead weak user earns (0, 0).
        half = k // 2
        weak, strong = g[:, :half], g[:, ::-1][:, :half]
        forced = np.zeros((b, half))
        live = weak > 0.0
        forced[live] = _block_pair_rates(weak[live], strong[live], snrs[:, :half][live],
                                         units[:, :half][live], pair_tau)

        # Adaptive: adaptive_pairing's two loops over the whole block.
        paired = np.zeros((b, k), dtype=bool)
        pair_rates = np.zeros((b, k - 1))  # column i: weak index i's pair
        for i in range(k - 1):
            searching = ~paired[:, i] & (g[:, i] > 0.0) & (snrs[:, i] > 0.0)
            partner = np.zeros(b, dtype=np.intp)  # 0: no partner, as j > i >= 0
            for j in range(k - 1, i, -1):
                drops = np.flatnonzero(searching & ~paired[:, j])
                won = drops[noma_wins(snrs[drops, i], squared_ratio(g[drops, j], g[drops, i]))]
                paired[won, i] = paired[won, j] = True
                searching[won] = False
                partner[won] = j
            won = np.flatnonzero(partner)
            if i < half:  # the forced kernel has rated the pair (i, k - 1 - i)
                mate = partner[won] == k - 1 - i
                pair_rates[won[mate], i] = forced[won[mate], i]
                won = won[~mate]
            if won.size:
                pair_rates[won, i] = _block_pair_rates(g[won, i], g[won, partner[won]],
                                                       snrs[won, i], units[won, i], pair_tau)
    return np.stack([np.add.accumulate(terms, axis=1)[:, -1] for terms in (
        solo,
        np.hstack((forced, solo[:, half:half + k % 2])),
        np.hstack((pair_rates, np.where(paired, 0.0, solo))),
    )], axis=1)


def mean_and_se(drops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of the columns of an (n, 3) array
    of sum-rates, each sum by np.add.accumulate: the sample standard
    deviation (n - 1 denominator) over sqrt(n), and 0.0 for a single drop."""
    n = len(drops)
    means = np.add.accumulate(drops)[-1] / n
    if n == 1:
        return means, np.zeros(3)
    dev = drops - means
    return means, np.sqrt(np.add.accumulate(dev * dev)[-1] / (n - 1)) / math.sqrt(n)
