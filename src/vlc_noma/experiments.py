"""Config-driven experiment runners producing reproducible CSV tables.

Three studies: the region map over weak-user SNR, the Monte Carlo sum-rate
sweep over user counts, and the deterministic sum-rate sweep over LED power
at six fixed receiver positions. Every row is re-derivable by calling the
library directly; the runners hold no hidden state, and a fixed seed yields
byte-identical CSV output regardless of worker count.

Only the user sweep loads numpy, when it runs: the region map, the power
sweep and pair_once are scalar math from end to end, so they, and importing
the package, start without it.

The user sweep's only unit of work is a block: one user count and a range
of at most STREAM_BLOCK trials. Each block's positions come from one batch
of uniforms (streams.uniform_streams): the SeedSequence/PCG64 chain is
integer arithmetic, so numpy's uint32/uint64 array operations reproduce
every drop's stream exactly. Gains and rates are block-evaluated as well
(batch.block_floor_gains, batch.block_sum_rates): + - * / and sqrt run as
numpy array operations, which round as Python's floats do, squares among
them as x * x; every log2 and cos**m whose value reaches the output is
math.log2 or builtin pow mapped over the block, since numpy's log2 and
power differ from math's in the last bit on some hosts; and the
field-of-view and pairing tests are + - * / on both routes (a cosine
against cos(fov), and rates.noma_wins). So each drop equals the per-drop
route _simulate_drop: floor_gains, then scheme_sum_rates, which evaluates
the public TDMA, forced and adaptive plans. The block's greedy makes one
pass per weak index from each drop's highest free partner, and both
greedies stop a search at rates.R_FLOOR and skip weak users below
rates.GAMMA_FLOOR, so the block tests the scalar greedy's pairs in its
order, and its cost at large K follows the pairs tested, not K(K-1)/2:
users_min = users_max = K runs any single user count up to
config.USER_LIMIT.

Every route decides each pair by the sign of the rate gap at the weak
user's exact SNR, and the sweeps read no region at all. Only pair_once
cross-checks its plan: adaptive_pairing raises if a pair lies outside the
oracle region at its weak user's SNR by more than
region.SOLVER_REL_BOUND. The oracle bisects the same exact gap sign, here
only to region.CHECK_REL_WIDTH, a quarter of that bound, so its region
nests inside the reference region; it certifies both of its endpoints
within the bound by two more such sign tests, and runs no solver.
tests/test_properties.py checks that the reference regions agree with the
gap sign and that the check's nest inside them, so no sweep re-checks that
on every run.
Only the region map runs the solver. Every region is computed at the exact
SNR that asks for it, and none is cached, so no result depends on the
order of the lookups or on the worker count.

block_sum_rates holds a block user-major, one contiguous row per sorted
user, and adds each scheme's group rates row by row in evaluate_schedule's
order: the left fold np.add.accumulate defines, written out. A block's
sum-rates come back as one (n, 3) array. The blocks are mapped lazily and
each user count's are joined in trial order once they are in, so a serial
sweep holds one user count's rates at a time, as one array up to the CSV:
batch.mean_and_se sums them with np.add.accumulate, a left-to-right fold,
never with numpy's pairwise np.sum or np.mean (batch's docstring says why
the bytes hold).
"""

import itertools
import numbers
import os
from dataclasses import dataclass
from functools import lru_cache, partial

from . import region as region_module
from .channel import RoomGeometry, floor_gains, snr_db
from .config import ExperimentConfig
from .scheduler import UserChannelSet, adaptive_pairing, evaluate_schedule, scheme_sum_rates

# Trials per block of the user sweep: enough that numpy's per-call overhead
# is a small part of each call, while a K = 10 block's tracemalloc peak is
# 1.3 MB, 4.0 times its 2048 x 20 uniforms, so memory stays bounded
# whatever the trial count.
STREAM_BLOCK = 2048


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one (taskset and cgroup cpusets narrow it), os.cpu_count() elsewhere,
    and 1 where neither is known."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):  # int, bool and numpy's integers
        return str(int(value))
    return repr(float(value))  # round-trip-exact floats


@dataclass
class ResultTable:
    """Column names plus rows of str/int/float cells."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"


def sample_user_positions(rng, room: RoomGeometry, k: int):
    """k i.i.d. uniform points on the floor rectangle, drawn from a
    numpy.random.Generator, as a (k, 3) numpy array (z = 0)."""
    import numpy as np

    xy = rng.random((k, 2))
    out = np.zeros((k, 3))
    out[:, 0] = xy[:, 0] * room.length
    out[:, 1] = xy[:, 1] * room.width
    return out


def run_region_map(cfg: ExperimentConfig, validate: bool = False) -> ResultTable:
    """Region endpoints per weak-user SNR, with strong-user SNR bounds in dB
    for plotting both axes of the decision map. region_for_snr certifies
    every endpoint, so validate is accepted and ignored."""
    columns = (
        "weak_snr_db", "gamma", "status", "r_min", "r_max",
        "strong_snr_db_min", "strong_snr_db_max", "width_db",
    )
    rows = []
    for db in cfg.snr_db_grid():
        gamma = 10.0 ** (db / 10.0)
        region = region_module.region_for_snr(gamma)
        if region.is_empty:
            rows.append((db, gamma, region.status, "", "", "", "", ""))
        else:
            rows.append((
                db, gamma, region.status, region.r_min, region.r_max,
                snr_db(gamma * region.r_min), snr_db(gamma * region.r_max),
                region.width_db(),
            ))
    return ResultTable(columns, rows)


@lru_cache(maxsize=1)
def _drop_devices(cfg: ExperimentConfig):
    """cfg's room and link, built once for the consecutive drops of one
    config."""
    return cfg.room(), cfg.link()


def _simulate_drop(cfg: ExperimentConfig, k: int, trial: int, cache=None):
    """One seeded user drop; returns (tdma, forced, adaptive) sum-rates.

    Pairs are decided by the sign of the rate gap, so the rates need no
    region: a given cache (a region.RegionCache) is accepted and ignored."""
    import numpy as np

    room, link = _drop_devices(cfg)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k, trial))
    # The generator default_rng(seq) returns, without its argument dispatch.
    rng = np.random.Generator(np.random.PCG64(seq))
    positions = sample_user_positions(rng, room, k)
    gains = floor_gains(link, positions.tolist())
    return scheme_sum_rates(gains, cfg.led_power, cfg.noise_power)


def _sweep_users_block(args):
    """Worker entry: simulate trials [lo, hi) of user count k, drop for drop
    equal to _simulate_drop; returns one (hi - lo, 3) array of (tdma,
    forced, adaptive) sum-rates."""
    from .batch import block_floor_gains, block_sum_rates
    from .streams import uniform_streams

    cfg, k, lo, hi = args
    link, room = cfg.link(), cfg.room()
    u = uniform_streams(cfg.seed, k, lo, hi)
    # sample_user_positions' multiplies, in place on the same uniforms
    u[:, 0::2] *= room.length
    u[:, 1::2] *= room.width
    gains = block_floor_gains(link, u[:, 0::2], u[:, 1::2])
    del u  # the positions are spent: the rates need only the gains
    return block_sum_rates(gains, cfg.led_power, cfg.noise_power)


def run_sweep_users(cfg: ExperimentConfig, workers: int = 1) -> ResultTable:
    """Mean sum-rate (and standard error) of the three schemes per user count.

    Trials are independent with per-trial RNG streams keyed by (K, trial).
    The work is a stream of blocks, trials [m * STREAM_BLOCK, (m + 1) *
    STREAM_BLOCK) of each K, and each block's rates depend only on its K and
    range, which no worker count moves. The blocks run serially, or in a pool
    of min(workers, _usable_cpus(), number of blocks) processes, and each K's
    blocks are joined in trial order as soon as they are in, so the output
    bytes are identical for any worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    import numpy as np

    from .batch import mean_and_se

    columns = (
        "k", "tdma_mean", "tdma_se", "forced_mean", "forced_se",
        "adaptive_mean", "adaptive_se",
    )
    starts = range(0, cfg.trials, STREAM_BLOCK)
    blocks = ((cfg, k, lo, min(lo + STREAM_BLOCK, cfg.trials))
              for k in cfg.user_counts() for lo in starts)

    def table(outputs):
        rows = []
        for k in cfg.user_counts():  # K's block list is freed once joined
            means, ses = mean_and_se(np.concatenate(list(itertools.islice(outputs, len(starts)))))
            rows.append((k, *np.stack((means, ses), axis=1).ravel().tolist()))
        return ResultTable(columns, rows)

    processes = min(workers, _usable_cpus(), len(cfg.user_counts()) * len(starts))
    if processes == 1:
        return table(map(_sweep_users_block, blocks))
    import multiprocessing

    with multiprocessing.Pool(processes=processes) as pool:
        return table(pool.imap(_sweep_users_block, blocks))


def run_sweep_power(cfg: ExperimentConfig) -> ResultTable:
    """Deterministic sum-rates of the three schemes at the fixed receiver
    cluster, per LED power, each from scheme_sum_rates' one greedy per
    power, which pairs on the gap sign and reads no region."""
    columns = ("p_led", "tdma", "forced", "adaptive", "adaptive_minus_forced")
    gains = floor_gains(cfg.link(), cfg.fixed_positions)
    rows = []
    for p_led in cfg.power_grid:
        rate_tdma, rate_forced, rate_adaptive = scheme_sum_rates(gains, p_led, cfg.noise_power)
        rows.append((
            p_led, rate_tdma, rate_forced, rate_adaptive,
            rate_adaptive - rate_forced,
        ))
    return ResultTable(columns, rows)


def pair_once(gains, cfg: ExperimentConfig):
    """One-shot adaptive pairing for explicit gains, each pair cross-checked
    against region.oracle_region at its weak user's SNR, bisected to
    region.CHECK_REL_WIDTH, which nests inside the reference region and
    certifies both of its endpoints within region.SOLVER_REL_BOUND, each by
    two exact gap-sign tests; returns (plan, outcome)."""
    users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
    plan = adaptive_pairing(
        users, partial(region_module.oracle_region, rel_width=region_module.CHECK_REL_WIDTH))
    return plan, evaluate_schedule(plan, users)
