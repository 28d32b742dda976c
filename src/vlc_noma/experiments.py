"""Config-driven experiment runners producing reproducible CSV tables.

Three studies: the region map over weak-user SNR, the Monte Carlo sum-rate
sweep over user counts, and the deterministic sum-rate sweep over LED power
at six fixed receiver positions. Every row is re-derivable by calling the
library directly; the runners hold no hidden state, and a fixed seed yields
byte-identical CSV output regardless of worker count.
"""

import math
import multiprocessing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import RoomGeometry, UserPosition, los_channel_gain, snr_db
from .config import ExperimentConfig
from .region import NomaRegion, RegionCache, region_for_snr
from .scheduler import (
    UserChannelSet,
    adaptive_pairing,
    evaluate_schedule,
    forced_pairing,
    tdma_plan,
)


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
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

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())


def sample_user_positions(rng: np.random.Generator, room: RoomGeometry, k: int) -> np.ndarray:
    """k i.i.d. uniform points on the floor rectangle, as a (k, 3) array (z = 0)."""
    xy = rng.random((k, 2))
    out = np.zeros((k, 3))
    out[:, 0] = xy[:, 0] * room.length
    out[:, 1] = xy[:, 1] * room.width
    return out


def _floor_gains(cfg: ExperimentConfig, positions) -> list[float]:
    led = cfg.led()
    pd = cfg.photodiode()
    return [
        los_channel_gain(led, pd, UserPosition((float(p[0]), float(p[1]), 0.0)),
                         cfg.noise_power).channel_gain
        for p in positions
    ]


def run_region_map(cfg: ExperimentConfig, validate: bool = False) -> ResultTable:
    """Region endpoints per weak-user SNR, with strong-user SNR bounds in dB
    for plotting both axes of the decision map."""
    columns = (
        "weak_snr_db", "gamma", "status", "r_min", "r_max",
        "strong_snr_db_min", "strong_snr_db_max", "width_db",
    )
    rows = []
    for db in cfg.snr_db_grid():
        gamma = 10.0 ** (db / 10.0)
        region = region_for_snr(gamma, validate)
        if region.is_empty:
            rows.append((db, gamma, region.status, "", "", "", "", ""))
        else:
            rows.append((
                db, gamma, region.status, region.r_min, region.r_max,
                snr_db(gamma * region.r_min), snr_db(gamma * region.r_max),
                region.width_db(),
            ))
    return ResultTable(columns, rows)


def _scheme_rates(
    users: UserChannelSet, region_of: Callable[[float], NomaRegion]
) -> tuple[float, float, float]:
    """(tdma, forced, adaptive) sum-rates of one user set."""
    return (
        evaluate_schedule(tdma_plan(users), users).sum_rate,
        evaluate_schedule(forced_pairing(users), users).sum_rate,
        evaluate_schedule(adaptive_pairing(users, region_of), users).sum_rate,
    )


def _simulate_drop(cfg: ExperimentConfig, k: int, trial: int, cache: RegionCache):
    """One seeded user drop; returns (tdma, forced, adaptive) sum-rates."""
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k, trial))
    rng = np.random.default_rng(seq)
    positions = sample_user_positions(rng, cfg.room(), k)
    gains = _floor_gains(cfg, positions)
    users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
    return _scheme_rates(users, cache.region_of)


def _sweep_users_shard(args):
    """Worker entry: simulate trials [lo, hi) of every user count, with one
    region cache for the whole shard."""
    cfg, lo, hi, validate = args
    cache = RegionCache(validate)
    return [[_simulate_drop(cfg, k, m, cache) for m in range(lo, hi)]
            for k in cfg.user_counts()]


def run_sweep_users(
    cfg: ExperimentConfig, validate: bool = False, workers: int = 1
) -> ResultTable:
    """Mean sum-rate (and standard error) of the three schemes per user count.

    Trials are independent with per-trial RNG streams keyed by (K, trial), so
    parallel execution cannot change any drawn value; chunks are reduced in
    trial order to keep the output bytes identical for any worker count.
    """
    columns = (
        "k", "tdma_mean", "tdma_se", "forced_mean", "forced_se",
        "adaptive_mean", "adaptive_se",
    )
    per_k: dict[int, list] = {}
    if workers <= 1:
        cache = RegionCache(validate)
        for k in cfg.user_counts():
            per_k[k] = [_simulate_drop(cfg, k, m, cache) for m in range(cfg.trials)]
    else:
        # One shard per worker, each a trial range across every K: a shard's
        # output depends only on its range, never on which process ran it.
        chunk = max(1, math.ceil(cfg.trials / workers))
        shards = [(cfg, lo, min(lo + chunk, cfg.trials), validate)
                  for lo in range(0, cfg.trials, chunk)]
        with multiprocessing.Pool(processes=workers) as pool:
            outputs = pool.map(_sweep_users_shard, shards)
        for k_index, k in enumerate(cfg.user_counts()):
            per_k[k] = [drop for out in outputs for drop in out[k_index]]

    rows = []
    for k in cfg.user_counts():
        arr = np.asarray(per_k[k])
        means = arr.mean(axis=0)
        if len(arr) > 1:
            ses = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
        else:
            ses = np.zeros(3)
        rows.append((
            k, means[0], ses[0], means[1], ses[1], means[2], ses[2],
        ))
    return ResultTable(columns, rows)


def run_sweep_power(cfg: ExperimentConfig, validate: bool = False) -> ResultTable:
    """Deterministic sum-rates of the three schemes at the fixed receiver
    cluster, per LED power."""
    columns = ("p_led", "tdma", "forced", "adaptive", "adaptive_minus_forced")
    gains = _floor_gains(cfg, cfg.fixed_positions)
    cache = RegionCache(validate)
    rows = []
    for p_led in cfg.power_grid:
        users = UserChannelSet.from_gains(gains, p_led, cfg.noise_power)
        rate_tdma, rate_forced, rate_adaptive = _scheme_rates(users, cache.region_of)
        rows.append((
            p_led, rate_tdma, rate_forced, rate_adaptive,
            rate_adaptive - rate_forced,
        ))
    return ResultTable(columns, rows)


def pair_once(gains, cfg: ExperimentConfig, validate: bool = False):
    """One-shot adaptive pairing for explicit gains; returns (plan, outcome)."""
    users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
    cache = RegionCache(validate)
    plan = adaptive_pairing(users, cache.region_of)
    return plan, evaluate_schedule(plan, users)
