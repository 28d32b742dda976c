"""The user sweep's block kernels: channel gains and scheme sum-rates for a
block of drops at once, equal (==) to the scalar route drop by drop.

channel.floor_gains and scheduler.scheme_sum_rates are the reference: the
kernels run their + - * / and sqrt as numpy array operations in the same
order, which round as Python's floats do, squares among them as x * x
(libm's pow need not be correctly rounded). Every log2 and cos**m whose
value reaches an output is math.log2 or builtin pow, mapped over the block
(see mapped), since numpy's log2 and power can differ from math's in the
last bit. A transcendental that only decides a comparison is replaced by
IEEE-basic arithmetic wherever a proven margin settles the comparison, and
is evaluated as the scalar route does inside the margin.
tests/test_bit_identity.py pins both kernels == to the scalar route, and
mean_and_se == to left-to-right Python loops.

The two margins, with u = 2**-53 the unit roundoff:

* Field of view. A receiver is outside when acos(c) > fov, with c its
  cosine. acos falls with slope at least 1 in magnitude, math.cos(fov) is
  within an ulp of cos(fov) and math.acos within an ulp of acos, so where
  |c - math.cos(fov)| > FOV_MARGIN (1e-12) the test is c < math.cos(fov),
  and math.acos decides only inside that band.
* Pairing. The gap is 0.5*log2((A*B)**2 / (C*D)), with x = t*r*gamma,
  A = 1 + x/(r+gamma+1), B = 1 + x/(r+1), C = 1 + t*gamma and D = 1 + x,
  the arguments of its four log2 calls. So rho = (A*B)**2/(C*D) - 1 has
  the gap's sign and needs only * and /. At the scalar route's own
  r = ratio*ratio, 1 + rho carries a relative error of at most about 32u
  (4e-15): up to 6u in A, 5u in B, 2u in C and 3u in D, those of A, B and
  A*B doubled by the square, and the roundings of the square, C*D and the
  quotient (the - 1 is exact for |rho| <= 0.5). |rho| > RHO_MARGIN (1e-9)
  therefore puts the exact gap at the float arguments beyond 7e-10 in
  magnitude, while the float gap, four log2 values below 1024 of an ulp
  each and three roundings, lies within 2e-12 of it: the float gap is
  non-zero and has rho's sign. Where |rho| <= RHO_MARGIN or (A*B)**2 or
  C*D overflows (an r overflowed to inf among them), rates.rate_gap_at,
  mapped over those pairs, decides as in the scalar greedy. Over all 1.65M
  live pairs of the default 10**4-drop sweep the smallest |rho| was
  3.4e-7, so the fallback never runs there.

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
from .rates import CAPACITY_SNR_FACTOR, rate_gap_at


def mapped(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element v of a float array, by the scalar
    function itself (math's or a builtin) mapped at C speed: numpy's own
    transcendentals can differ from math's in the last bit."""
    return np.fromiter(map(fn, values.ravel().tolist(), *args), float,
                       count=values.size).reshape(values.shape)


FOV_MARGIN = 1e-12
RHO_MARGIN = 1e-9


def block_floor_gains(link: LinkConstants, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """channel.floor_gains over an array of floor points (x, y): equal (==)
    to it element by element. channel._los_link's +, -, *, / and sqrt (d*d
    too) are IEEE-exact in numpy in the same order; its cos**m is builtin
    pow mapped over the live cosines, and its acos > fov test compares the
    cosines outside FOV_MARGIN and takes math.acos inside it."""
    lx, ly, lz = link.led_position
    dx = xs - lx
    dy = ys - ly
    dz = 0.0 - lz
    distance = np.sqrt(dx * dx + dy * dy + dz * dz)
    if (distance == 0.0).any():
        raise ValueError("receiver is collocated with the LED")
    cos_angle = -dz / distance
    cos_fov = math.cos(link.fov)
    outside = cos_angle < cos_fov
    band = np.abs(cos_angle - cos_fov) <= FOV_MARGIN
    outside[band] = mapped(
        math.acos, np.maximum(-1.0, np.minimum(1.0, cos_angle[band]))) > link.fov
    live = ~((cos_angle <= 0.0) | outside)
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
    each of noma_user_rates(gamma, r) at squared_ratio's r = ratio * ratio,
    an r overflowed to inf earning the r -> inf limit of both unit rates,
    the weak user's solo_unit."""
    ratio = strong / weak
    r = ratio * ratio
    x = CAPACITY_SNR_FACTOR * r * gamma
    unit_weak = mapped(math.log2, 1.0 + x / (r + gamma + 1.0))
    unit_strong = mapped(math.log2, 1.0 + x / (r + 1.0))
    limit = r == math.inf
    unit_weak[limit] = unit_strong[limit] = solo_unit[limit]
    return tau * unit_weak + tau * unit_strong


def _gap_non_negative(gamma, strong, weak) -> np.ndarray:
    """Whether rate_gap_at(gamma, r) >= 0 at squared_ratio's r = ratio * ratio
    for each pair with weak > 0 and gamma > 0, an r overflowed to inf never
    passing: the sign of rho where |rho| > RHO_MARGIN, else rate_gap_at
    itself (see the module docstring)."""
    ratio = strong / weak
    r = ratio * ratio
    x = CAPACITY_SNR_FACTOR * r * gamma
    ab = (1.0 + x / (r + gamma + 1.0)) * (1.0 + x / (r + 1.0))
    num = ab * ab
    den = (1.0 + CAPACITY_SNR_FACTOR * gamma) * (1.0 + x)
    rho = num / den - 1.0
    take = rho > 0.0
    near = np.flatnonzero(~((np.abs(rho) > RHO_MARGIN) & (num < math.inf) & (den < math.inf)))
    if near.size:
        # The gap tends to -inf as r grows, so an overflowed r never pairs.
        take[near] = ~((r[near] == math.inf)
                       | (mapped(rate_gap_at, gamma[near], r[near].tolist()) < 0.0))
    return take


def block_sum_rates(gains: np.ndarray, p_led: float, noise_power: float) -> np.ndarray:
    """scheduler.scheme_sum_rates of each row of a (B, K) gain block, as a
    (B, 3) array equal (==) to it row by row: the user sweep's batched form
    of the public plans and evaluate_schedule.

    The arithmetic runs in numpy in evaluate_schedule's order, and every
    log2 that reaches the output is math.log2 mapped over the block (see
    mapped). The greedy is adaptive_pairing's own two loops, run over every
    drop of the block at once: for weak index i ascending, the drops whose
    user i is unpaired and live search j from K-1 down to i+1; at each j
    the drops still searching whose j is unpaired test the gap
    (_gap_non_negative), and those with gap >= 0 pair (i, j) and stop
    searching. So each drop tests exactly the pairs the scalar greedy
    reaches, in its order, and only the pairs formed have their rates
    computed, after each i's search. The forced pairs of live weak users
    and the greedy's winners are rated by one kernel, _block_pair_rates:
    evaluate_schedule's pair branch. A weak user's solo log2(1 + t*gamma)
    is tdma_rate_at's first term, bit for bit.

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
                won = drops[_gap_non_negative(snrs[drops, i], g[drops, j], g[drops, i])]
                paired[won, i] = paired[won, j] = True
                searching[won] = False
                partner[won] = j
            won = np.flatnonzero(partner)
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
