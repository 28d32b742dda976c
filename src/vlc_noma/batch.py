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
mean_and_se keeps np.add.accumulate's last partial sum down each column,
taken FOLD_ROWS rows at a time, each block accumulated behind the partial
sums before it. Both are the loops' fold from 0.0, bit for bit:

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
from .rates import CAPACITY_SNR_FACTOR, GAMMA_FLOOR, R_FLOOR, noma_wins, squared_ratio

# Rows mean_and_se folds at a time, so its memory does not grow with n.
FOLD_ROWS = 2048


def mapped(fn, values: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) for each element v of a float array, by the scalar
    function itself (math's or a builtin) mapped at C speed: numpy's own
    transcendentals can differ from math's in the last bit. The map reads
    the elements through a memoryview, one Python float at a time, so it
    builds no list of them."""
    flat = memoryview(np.ascontiguousarray(values).ravel())
    return np.fromiter(map(fn, flat, *args), float, count=values.size).reshape(values.shape)


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
    pow mapped over the live cosines (see _on_live). Each full-size step
    after the first writes into the array it reads."""
    lx, ly, lz = link.led_position
    with np.errstate(over="ignore"):
        dz = 0.0 - lz
        # sqrt(dx * dx + dy * dy + dz * dz), left to right in one buffer
        distance = xs - lx
        distance *= distance
        dy = ys - ly
        dy *= dy
        distance += dy
        del dy
        distance += dz * dz
        np.sqrt(distance, out=distance)
        if (distance == 0.0).any():
            raise ValueError("receiver is collocated with the LED")
        cos_angle = -dz / distance

        def gain(d, cos):
            # scale / (2 pi (d * d)) * cos**m * filter_gain * concentrator * cos
            out = d * d
            out *= _TWO_PI
            np.divide(link.scale, out, out=out)
            out *= mapped(pow, cos, repeat(link.m))
            out *= link.filter_gain
            out *= link.concentrator
            out *= cos
            return out

        return _on_live(cos_angle >= link.cos_fov, gain, distance, cos_angle)


def _block_pair_rates(weak, strong, gamma, solo_unit, tau) -> np.ndarray:
    """evaluate_schedule's sum-rate of each pair with weak > 0: tau times
    each of noma_user_rates(gamma, r) at r = squared_ratio(strong, weak),
    an r overflowed to inf earning the r -> inf limit of both unit rates,
    the weak user's solo_unit."""
    r = squared_ratio(strong, weak)
    x = CAPACITY_SNR_FACTOR * r
    x *= gamma
    # 1 + x / (r + gamma + 1) and 1 + x / (r + 1), each in its divisor's buffer
    weak_arg = r + gamma
    weak_arg += 1.0
    np.divide(x, weak_arg, out=weak_arg)
    weak_arg += 1.0
    strong_arg = r + 1.0
    np.divide(x, strong_arg, out=strong_arg)
    strong_arg += 1.0
    del x
    unit_weak = mapped(math.log2, weak_arg)
    unit_strong = mapped(math.log2, strong_arg)
    limit = r == math.inf
    if limit.any():
        unit_weak[limit] = unit_strong[limit] = solo_unit[limit]
    unit_weak *= tau
    unit_strong *= tau
    unit_weak += unit_strong
    return unit_weak


def _search_below(g, taken, g_i, snr_i, i, drops, j):
    """adaptive_pairing's search for weak index i below each drop's top,
    from partner j down, over the drops that lost at their top: a compacted
    loop, one step of every drop still searching per pass. A drop skips a
    taken j, stops at j = i or at its first free j with r < R_FLOOR, and
    pairs (i, j) at its first j where noma_wins. Returns the drops that
    paired and their partners."""
    won, mates = [drops[:0]], [j[:0]]
    searching = j > i
    drops, j = drops[searching], j[searching]
    while drops.size:
        r = squared_ratio(g[j, drops], g_i[drops])
        free = ~taken[j, drops]
        tested = r >= R_FLOOR
        tested &= free
        tested = np.flatnonzero(tested)
        wins = noma_wins(snr_i[drops[tested]], r[tested])
        won.append(drops[tested[wins]])
        mates.append(j[tested[wins]])
        free[tested[~wins]] = False  # a loser searches on, as a taken j does
        j -= 1
        searching = ~free
        searching &= j > i
        drops, j = drops[searching], j[searching]
    return np.concatenate(won), np.concatenate(mates)


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
    indices. The greedy is adaptive_pairing's, one pass per weak index i
    ascending over every drop of the block at once. Each drop keeps top,
    its highest index no pair has taken, and top's gain. At weak index i
    the drops whose user i is untaken, at or above rates.GAMMA_FLOOR and
    below top take r = squared_ratio(top's gain, user i's); those with
    r < R_FLOOR stop, as the scalar j loop breaks; the rest test the gap
    with adaptive_pairing's own rates.noma_wins on the arrays, and the
    winners pair (i, top) and move their top down past the indices taken.
    Each loser searches on below its top, one step per pass over the drops
    still searching (_search_below), as the scalar loop goes on. The last
    weak index moves no top. So each drop tests exactly the pairs the
    scalar greedy tests, in its order, and a drop whose pairs all form at
    its top needs no look at the indices taken below it: tangled marks the
    first pair below a top in the block.

    Each pair is rated after the search, once, by _block_pair_rates
    (evaluate_schedule's pair branch): the forced kernel rates the pair
    (i, k-1-i) for every live weak user, the only users the greedy
    searches for, and the drops whose partner of i is k-1-i copy forced[i].
    Only pairs at another partner are rated again, by the same kernel on
    the same operands, so either route gives the same bits. A weak user's
    solo log2(1 + t*gamma) is tdma_rate_at's first term, bit for bit.

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
        snrs = p_led * g
        snrs *= g
        snrs /= noise_power
        if not ((0.0 <= g) & (g < math.inf) & (0.0 <= snrs) & (snrs < math.inf)).all():
            raise ValueError("gains and SNRs must be finite and non-negative")
        solo_tau, pair_tau = 1.0 / k, 2.0 / k
        arg = CAPACITY_SNR_FACTOR * snrs
        arg += 1.0
        units = mapped(math.log2, arg)
        del arg
        solo = solo_tau * units

        # Forced pairs (i, k - 1 - i): a dead weak user earns (0, 0).
        half = k // 2
        forced = _on_live(g[:half] > 0.0, partial(_block_pair_rates, tau=pair_tau),
                          g[:half], g[::-1][:half], snrs[:half], units[:half])

        # Adaptive: adaptive_pairing's greedy, one pass per weak index i.
        partner = np.zeros((k - 1, b), dtype=np.int32)  # row i: i's partner, 0 for none
        taken = np.zeros((k, b), dtype=bool)  # the partners taken so far
        top = np.full(b, k - 1, dtype=np.intp)  # each drop's highest index not taken
        g_top = g[k - 1].copy()
        tangled = False  # whether a drop has paired below its top
        for i in range(k - 1):
            g_i, snr_i = g[i], snrs[i]
            live = snr_i >= GAMMA_FLOOR
            if i:
                live &= top > i
                if tangled:  # else no index below top is taken
                    live &= ~taken[i]
            drops = np.flatnonzero(live)
            if not drops.size:
                continue
            r = squared_ratio(g_top[drops], g_i[drops])
            near = r >= R_FLOOR
            drops, r = drops[near], r[near]
            wins = noma_wins(snr_i[drops], r)
            won = drops[wins]
            mate = top[won]
            partner[i, won] = mate
            taken[mate, won] = True
            if i == k - 2:  # no later weak index reads top
                break
            lost = drops[~wins]
            if lost.size:
                won_below, mate_below = _search_below(g, taken, g_i, snr_i, i,
                                                      lost, top[lost] - 1)
                if won_below.size:
                    tangled = True
                    partner[i, won_below] = mate_below
                    taken[mate_below, won_below] = True
            # Each winner's top moves down past the indices taken; no later
            # weak index reads a top at i + 1 or below.
            step = mate - 1
            while tangled:
                skip = taken[step, won]
                skip &= step > i + 1
                if not skip.any():
                    break
                step[skip] -= 1
            top[won] = step
            g_top[won] = g[step, won]

        # Each pair's rate, after the search: forced[i] where i's partner is
        # k - 1 - i, else _block_pair_rates on the same operands.
        weak = partner > 0
        paired = taken  # from here on: every user paired
        paired[:-1] |= weak
        pair_rates = np.zeros((k - 1, b))  # row i: weak index i's pair
        if half:
            at_forced = partner[:half] == np.arange(k - 1, k - 1 - half, -1)[:, None]
            np.copyto(pair_rates[:half], forced, where=at_forced)
            weak[:half] &= ~at_forced
        if weak.any():
            rows, drops = np.nonzero(weak)
            pair_rates[rows, drops] = _block_pair_rates(
                g[rows, drops], g[partner[rows, drops], drops], snrs[rows, drops],
                units[rows, drops], pair_tau)
        del partner, weak, snrs, units  # every rate is in: free them before the folds
    return np.stack([_fold(solo), _fold([*forced, *solo[half:half + k % 2]]),
                     _fold([*pair_rates, *np.where(paired, 0.0, solo)])], axis=1)


def _column_fold(drops: np.ndarray, mean=None) -> np.ndarray:
    """np.add.accumulate's last partial sum down each column of the terms:
    the rows of drops, or with mean each row's squared deviation
    (row - mean) * (row - mean). The terms are made and folded FOLD_ROWS
    rows at a time, each block after the first behind the partial sums
    before it, as [carry, *block]: numpy's left fold continued, bit for
    bit, in one block-size buffer."""
    buf = np.empty((FOLD_ROWS + 1, drops.shape[1]))  # row 0: the carry
    for lo in range(0, len(drops), FOLD_ROWS):
        block = drops[lo:lo + FOLD_ROWS]
        terms = buf[1:len(block) + 1]
        if mean is None:
            terms[...] = block
        else:
            np.subtract(block, mean, out=terms)
            terms *= terms
        run = buf[:len(block) + 1] if lo else terms
        np.add.accumulate(run, out=run)
        buf[0] = run[-1]
    return buf[0].copy()


def mean_and_se(drops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample means and standard errors of the columns of an (n, 3) array
    of sum-rates, each sum np.add.accumulate's fold (see _column_fold): the
    sample standard deviation (n - 1 denominator) over sqrt(n), and 0.0
    for a single drop. Beyond the input it holds a few FOLD_ROWS-row
    buffers, whatever n."""
    n = len(drops)
    if n == 0:
        raise ValueError("need at least one drop")
    means = _column_fold(drops) / n
    if n == 1:
        return means, np.zeros(3)
    return means, np.sqrt(_column_fold(drops, means) / (n - 1)) / math.sqrt(n)
