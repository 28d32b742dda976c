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

Every sum of the user sweep is a left fold from its first term, in the
loops' order. block_sum_rates holds its block user-major, one row per
sorted user, and adds a scheme's group rates row by row
(total = rows[0].copy(), then total += row for each later row);
mean_and_se keeps np.add.accumulate's last partial sum down each column.
Both are the loops' fold from 0.0, bit for bit:

* numpy defines accumulate on a 1-D array as t = op(t, A[i]) for i
  ascending, applied along the chosen axis: evaluate_schedule's order, and
  the order of a loop over a column. The row fold is that definition
  written out, one elementwise IEEE add per row, so it gives the bits
  np.add.accumulate gives along the user axis.
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
from functools import partial
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


def _on_live(live: np.ndarray, fn, *arrays: np.ndarray) -> np.ndarray:
    """fn's elementwise result over the arrays where live, 0.0 elsewhere.
    fn runs on the live elements only: on the arrays themselves when every
    element is live, so a block with no dead element copies nothing."""
    if live.all():
        return fn(*arrays)
    out = np.zeros(live.shape)
    out[live] = fn(*(a[live] for a in arrays))
    return out


def block_floor_gains(link: LinkConstants, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """channel.floor_gains over an array of floor points (x, y): equal (==)
    to it element by element. channel._los_link's +, -, *, / and sqrt (d*d
    too) and its cosine test are IEEE-exact in numpy in the same order, and
    overflow to inf silently as Python's floats do; its cos**m is builtin
    pow mapped over the live cosines (see _on_live)."""
    lx, ly, lz = link.led_position
    with np.errstate(over="ignore"):
        dx = xs - lx
        dy = ys - ly
        dz = 0.0 - lz
        distance = np.sqrt(dx * dx + dy * dy + dz * dz)
        if (distance == 0.0).any():
            raise ValueError("receiver is collocated with the LED")
        cos_angle = -dz / distance

        def gain(d, cos):
            return (link.scale / (_TWO_PI * (d * d))
                    * mapped(pow, cos, repeat(link.m)) * link.filter_gain * link.concentrator
                    * cos)

        return _on_live(cos_angle >= link.cos_fov, gain, distance, cos_angle)


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
    if limit.any():
        unit_weak[limit] = unit_strong[limit] = solo_unit[limit]
    return tau * unit_weak + tau * unit_strong


def _fold(rows) -> np.ndarray:
    """The left fold of equal-length rows, rows[0] + rows[1] + ... in that
    order: np.add.accumulate's last partial sum along the rows."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def block_sum_rates(gains: np.ndarray, p_led: float, noise_power: float) -> np.ndarray:
    """scheduler.scheme_sum_rates of each row of a (B, K) gain block, as a
    (B, 3) array equal (==) to it row by row: the user sweep's batched form
    of the public plans and evaluate_schedule.

    The arithmetic runs in numpy in evaluate_schedule's order, and every
    log2 that reaches the output is math.log2 mapped over the block (see
    mapped). The block is sorted drop by drop and then held user-major, a
    C-contiguous (K, B) array whose row i is every drop's sorted user i, so
    each step reads a user as a contiguous row and gathers drops with 1-D
    indices. The greedy is adaptive_pairing's own two loops, run over every
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
    k-1-i copy forced[i]. Only winners at another partner are rated
    again, by the same kernel on the same operands, so either route gives
    the same bits. A weak user's solo log2(1 + t*gamma) is tdma_rate_at's
    first term, bit for bit.

    Each scheme's group rates are rows in evaluate_schedule's group order,
    summed by _fold, np.add.accumulate's left fold written out row by row:
    TDMA's solo rates; forced's pair rates, then the median's solo rate
    when K is odd; adaptive's pair rate per weak index (0.0 where the drop
    formed none there), then each user's solo rate where it stayed single
    (0.0 where it paired). A 0.0 term adds no bit to a sum of terms >= +0.0.

    The forced kernel maps log2 over the live weak users alone, and
    _block_pair_rates overwrites the rates of an r overflowed to inf. A
    block with no dead weak user, or no such r, skips those masked copies:
    the arithmetic is elementwise, so each drop gets the same bits either
    way.
    """
    g = np.sort(np.asarray(gains, dtype=float), axis=1)
    b, k = g.shape
    if k == 0:
        raise ValueError("need at least one user")
    g = g.T.copy()  # user-major: row i is sorted user i of every drop
    with np.errstate(all="ignore"):
        snrs = p_led * g * g / noise_power
        if not ((0.0 <= g) & (g < math.inf) & (0.0 <= snrs) & (snrs < math.inf)).all():
            raise ValueError("gains and SNRs must be finite and non-negative")
        solo_tau, pair_tau = 1.0 / k, 2.0 / k
        units = mapped(math.log2, 1.0 + CAPACITY_SNR_FACTOR * snrs)
        solo = solo_tau * units

        # Forced pairs (i, k - 1 - i): a dead weak user earns (0, 0).
        half = k // 2
        forced = _on_live(g[:half] > 0.0, partial(_block_pair_rates, tau=pair_tau),
                          g[:half], g[::-1][:half], snrs[:half], units[:half])

        # Adaptive: adaptive_pairing's two loops over the whole block.
        paired = np.zeros((k, b), dtype=bool)
        pair_rates = np.zeros((k - 1, b))  # row i: weak index i's pair
        for i in range(k - 1):
            g_i, snr_i = g[i], snrs[i]
            searching = ~paired[i] & (g_i > 0.0) & (snr_i > 0.0)
            partner = np.zeros(b, dtype=np.intp)  # 0: no partner, as j > i >= 0
            for j in range(k - 1, i, -1):
                drops = np.flatnonzero(searching & ~paired[j])
                won = drops[noma_wins(snr_i[drops], squared_ratio(g[j][drops], g_i[drops]))]
                paired[i, won] = paired[j, won] = True
                searching[won] = False
                partner[won] = j
            won = np.flatnonzero(partner)
            if i < half:  # the forced kernel has rated the pair (i, k - 1 - i)
                mate = partner[won] == k - 1 - i
                pair_rates[i, won[mate]] = forced[i, won[mate]]
                won = won[~mate]
            if won.size:
                pair_rates[i, won] = _block_pair_rates(g_i[won], g[partner[won], won],
                                                       snr_i[won], units[i, won], pair_tau)
    return np.stack([_fold(solo), _fold([*forced, *solo[half:half + k % 2]]),
                     _fold([*pair_rates, *np.where(paired, 0.0, solo)])], axis=1)


def mean_and_se(drops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of the columns of an (n, 3) array
    of sum-rates, each sum by np.add.accumulate: the sample standard
    deviation (n - 1 denominator) over sqrt(n), and 0.0 for a single drop."""
    n = len(drops)
    means = np.add.accumulate(drops)[-1] / n
    if n == 1:
        return means, np.zeros(3)
    dev = drops - means
    dev *= dev  # squared and folded in place: no second n x 3 buffer
    np.add.accumulate(dev, out=dev)
    return means, np.sqrt(dev[-1] / (n - 1)) / math.sqrt(n)
