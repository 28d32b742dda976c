"""The user sweep's block kernels: channel gains and scheme sum-rates for a
block of drops at once, equal (==) to the scalar route drop by drop.

channel.floor_gains and scheduler.scheme_sum_rates are the reference: the
kernels run their + - * / and sqrt as numpy array operations in the same
order, which round as Python's floats do. Every log2 or power whose value
reaches an output is math.log2 or builtin pow, mapped over the block (see
mapped), since numpy's log2 and power can differ from math's in the last
bit. A transcendental that only decides a comparison is replaced by
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
  the gap's sign and needs only * and /. Computed at r = ratio*ratio in
  place of pow(ratio, 2), which may differ by an ulp, 1 + rho carries a
  relative error of at most about 70u (8e-15): five roundings of its own,
  plus those of x, A, B and D and the ulp in r, each squared where A and
  B are. |rho| > RHO_MARGIN (1e-9) therefore puts the exact gap at the
  float arguments beyond 7e-10 in magnitude, while the float gap, four
  log2 values below 1024 of an ulp each and three roundings, lies within
  2e-12 of it: the float gap is non-zero and has rho's sign. Where
  |rho| <= RHO_MARGIN, where A*B or C*D overflows, or where the ratio
  may overflow its square, the float gap decides as the scalar greedy
  does. Over all 1.65M live pairs of the default 10**4-drop sweep the
  smallest |rho| was 3.4e-7, so the fallback never runs there.

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
from .rates import CAPACITY_SNR_FACTOR, squared_ratio


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
    to it element by element. channel._los_link's +, -, *, / and sqrt are
    IEEE-exact in numpy in the same order; its powers are builtin pow (what
    ** calls) mapped over the block, and its acos > fov test compares the
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


def _gap_non_negative(gamma, strong, weak) -> np.ndarray:
    """Whether rate_gap_at(gamma, squared_ratio(strong, weak)) >= 0 for each
    pair with weak > 0 and gamma > 0, an overflowed squared ratio never
    passing: the sign of rho where |rho| > RHO_MARGIN, else the float gap
    (see the module docstring)."""
    ratio = strong / weak
    rr = ratio * ratio
    x = CAPACITY_SNR_FACTOR * rr * gamma
    solo = 1.0 + CAPACITY_SNR_FACTOR * gamma
    ab = (1.0 + x / (rr + gamma + 1.0)) * (1.0 + x / (rr + 1.0))
    num = ab * ab
    den = solo * (1.0 + x)
    rho = num / den - 1.0
    take = rho > 0.0
    near = np.flatnonzero(~((np.abs(rho) > RHO_MARGIN) & (num < math.inf)
                            & (den < math.inf) & (ratio < _SAFE_RATIO)))
    if near.size:
        r = _block_squared_ratios(strong[near], weak[near])
        unit_weak, unit_strong, x = _block_noma_logs(gamma[near], r)
        gap = (unit_weak + unit_strong) - 0.5 * (
            mapped(math.log2, solo[near]) + mapped(math.log2, 1.0 + x))
        # The gap tends to -inf as r grows, so an overflowed r never pairs.
        take[near] = ~((r == math.inf) | (gap < 0.0))
    return take


def block_sum_rates(gains: np.ndarray, p_led: float, noise_power: float) -> np.ndarray:
    """scheduler.scheme_sum_rates of each row of a (B, K) gain block, as a
    (B, 3) array equal (==) to it row by row: the user sweep's batched form
    of the public plans and evaluate_schedule.

    The arithmetic runs in numpy in evaluate_schedule's order, and every
    log2 and power that reaches the output is math.log2 or builtin pow
    mapped over the block (see mapped). The greedy is adaptive_pairing's
    own two loops, run over every drop of the block at once: for weak index
    i ascending, the drops whose user i is unpaired and live search j from
    K-1 down to i+1; at each j the drops still searching whose j is
    unpaired test the gap (_gap_non_negative), and those with gap >= 0
    pair (i, j) and stop searching. So each drop tests exactly the pairs
    the scalar greedy reaches, in its order, and only the pairs formed
    have their rates computed, after each i's search. A weak user's solo
    log2(1 + t*gamma) is tdma_rate_at's first term, bit for bit.

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
            r = _block_squared_ratios(g[won, partner[won]], g[won, i])
            unit_weak, unit_strong, _ = _block_noma_logs(snrs[won, i], r)
            pair_rates[won, i] = pair_tau * unit_weak + pair_tau * unit_strong
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
