"""Experiment runners: reproducibility, row semantics, statistics."""

import functools
import hashlib
import math
import multiprocessing
import os
import weakref
from collections import Counter

import numpy as np
import pytest

from vlc_noma.channel import RoomGeometry, floor_gains
from vlc_noma import experiments, region, scheduler
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import (
    STREAM_BLOCK,
    pair_once,
    run_region_map,
    run_sweep_power,
    run_sweep_users,
    sample_user_positions,
)
from vlc_noma.rates import squared_ratio
from vlc_noma.region import NomaRegion, OracleMismatchError, oracle_region
from vlc_noma.scheduler import UserChannelSet, adaptive_pairing

from test_bit_identity import reference_oracle

# Frozen end-to-end values for the six fixed receivers at P = 1 W.
SWEEP_POWER_P1 = {
    "tdma": 6.190549592318156,
    "forced": 6.063253257657085,
    "adaptive": 6.226430566850473,
}


def small_cfg(**kw):
    base = dict(trials=40, users_min=2, users_max=4, seed=9)
    base.update(kw)
    return ExperimentConfig(**base)


def test_sample_positions_deterministic():
    room = RoomGeometry()
    a = sample_user_positions(np.random.default_rng(7), room, 5)
    b = sample_user_positions(np.random.default_rng(7), room, 5)
    assert np.array_equal(a, b)


def test_sample_positions_cover_floor_uniformly():
    room = RoomGeometry()
    pts = sample_user_positions(np.random.default_rng(123), room, 100_000)
    assert pts.shape == (100_000, 3)
    assert np.all(pts[:, 2] == 0.0)
    assert np.all((pts[:, 0] >= 0.0) & (pts[:, 0] <= room.length))
    assert np.all((pts[:, 1] >= 0.0) & (pts[:, 1] <= room.width))
    se = room.length / math.sqrt(12.0) / math.sqrt(len(pts))
    assert abs(pts[:, 0].mean() - 3.0) < 3.0 * se
    assert abs(pts[:, 1].mean() - 3.0) < 3.0 * se


def test_region_map_rows():
    cfg = ExperimentConfig(snr_db_min=0.0, snr_db_max=30.0, snr_db_step=10.0)
    table = run_region_map(cfg)
    assert table.columns[0] == "weak_snr_db"
    rows = {row[0]: row for row in table.rows}
    assert rows[0.0][2] == "empty"
    assert rows[0.0][3] == ""  # no endpoints on empty rows
    row20 = rows[20.0]
    assert row20[2] == "nonempty"
    assert row20[3] == pytest.approx(3.1270665, rel=1e-3)
    assert row20[4] == pytest.approx(1799.69251, rel=1e-3)
    # strong-user SNR bounds in dB are 10*log10(gamma * r)
    assert row20[5] == pytest.approx(20.0 + 10.0 * math.log10(row20[3]), abs=1e-9)
    assert row20[6] == pytest.approx(20.0 + 10.0 * math.log10(row20[4]), abs=1e-9)
    assert row20[7] == pytest.approx(row20[6] - row20[5], abs=1e-9)


def test_region_map_rows_below_the_snr_floor_are_empty():
    # Without rates.GAMMA_FLOOR, 10 of these 11 rows read nonempty with
    # width 0.0 dB, from scan seeds on rounding ties.
    cfg = ExperimentConfig(snr_db_min=-85.0, snr_db_max=-75.0, snr_db_step=1.0)
    rows = run_region_map(cfg).rows
    assert len(rows) == 11 and all(row[2] == "empty" for row in rows)


def test_region_map_reproducible():
    cfg = ExperimentConfig(snr_db_min=5.0, snr_db_max=25.0, snr_db_step=5.0)
    assert run_region_map(cfg).csv_text() == run_region_map(cfg).csv_text()


def test_sweep_users_byte_identical_across_runs_and_workers():
    cfg = small_cfg()
    serial = run_sweep_users(cfg).csv_text()
    assert run_sweep_users(cfg).csv_text() == serial
    parallel = run_sweep_users(cfg, workers=2).csv_text()
    assert parallel == serial


@pytest.fixture
def pools(monkeypatch):
    """Replace multiprocessing.Pool by a pool that records its size and the
    items it maps, and maps them in this process, so no worker process
    starts; return the (size, items) records."""
    records = []

    class SerialPool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            items = list(items)
            records.append((self.processes, items))
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    return records


def test_sweep_users_pool_is_sized_by_its_blocks(pools, monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 16)
    cfg = small_cfg(trials=10)
    table = run_sweep_users(cfg, workers=64)
    assert [size for size, _ in pools] == [3]  # one block for each K = 2..4
    assert table.csv_text() == run_sweep_users(cfg).csv_text()
    run_sweep_users(small_cfg(trials=5000), workers=4)  # three blocks for each K
    run_sweep_users(small_cfg(trials=10, users_max=2), workers=64)  # one block: no pool
    assert [size for size, _ in pools] == [3, 4]


@pytest.mark.parametrize("cpus, processes", [(3, [3]), (1, []), (None, [])])
def test_sweep_users_starts_at_most_one_process_per_cpu(pools, monkeypatch,
                                                         cpus, processes):
    # 100,000 workers over 1,000 trials used to ask for 1,000 processes;
    # None: an OS with no affinity mask that cannot count its CPUs
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert experiments._usable_cpus() == (cpus or 1)
    cfg = small_cfg(trials=1000, users_max=6)  # five blocks
    table = run_sweep_users(cfg, workers=100_000)
    assert [size for size, _ in pools] == processes  # no pool where one process is left
    assert table.csv_text() == run_sweep_users(cfg).csv_text()


def test_sweep_users_starts_at_most_one_process_per_cpu_it_may_run_on(pools, monkeypatch):
    # taskset -c 0 on a 16-CPU host: two workers used to share the one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    assert experiments._usable_cpus() == 1
    cfg = small_cfg(trials=1000, users_max=6)  # five blocks
    run_sweep_users(cfg, workers=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7})
    run_sweep_users(cfg, workers=8)
    assert [size for size, _ in pools] == [3]


def test_sweep_users_blocks_do_not_depend_on_the_worker_count(pools, monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 16)
    cfg = small_cfg(trials=5000)
    run_sweep_users(cfg, workers=2)
    run_sweep_users(cfg, workers=3)
    (two, blocks_two), (three, blocks_three) = pools
    assert (two, three) == (2, 3)
    assert blocks_two == blocks_three == [
        (cfg, k, lo, hi) for k in (2, 3, 4)
        for lo, hi in ((0, STREAM_BLOCK), (STREAM_BLOCK, 2 * STREAM_BLOCK),
                       (2 * STREAM_BLOCK, 5000))]


def test_serial_sweep_holds_one_user_counts_blocks_at_a_time(monkeypatch):
    # Each block's output is tracked until it is freed: when a block is
    # made, no block of another user count may still be alive.
    cfg = small_cfg(trials=5000)  # three blocks for each K = 2..4
    expected = run_sweep_users(cfg).csv_text()
    alive, made = Counter(), []
    true_block = experiments._sweep_users_block

    def block(args):
        k, rates = args[1], true_block(args)
        made.append((k, +alive))  # the live blocks of each K before this one
        alive[k] += 1
        weakref.finalize(rates, alive.subtract, [k])
        return rates

    monkeypatch.setattr(experiments, "_sweep_users_block", block)
    assert run_sweep_users(cfg).csv_text() == expected
    assert [k for k, _ in made] == [2, 2, 2, 3, 3, 3, 4, 4, 4]
    assert all(set(live) <= {k} for k, live in made), made
    assert not +alive


# Seed 2, 3,000 trials: each K's second block holds the 952 trials past the
# first 2048, and the serial run and a three-process pool compute the same
# blocks.
SWEEP_USERS_SEED2_3000 = "d868b0e96283f4f4a4531691f83453564016cdc256731ae40a8b3126985d7261"


@pytest.mark.parametrize("workers", [1, 3])
def test_sweep_users_digest_with_partial_blocks(workers):
    text = run_sweep_users(ExperimentConfig(seed=2, trials=3000), workers=workers).csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_USERS_SEED2_3000


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_users_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_sweep_users(small_cfg(), workers=workers)


def test_sweep_users_seed_changes_output():
    a = run_sweep_users(small_cfg()).csv_text()
    b = run_sweep_users(small_cfg(seed=10)).csv_text()
    assert a != b


def test_sweep_users_single_user_degenerate():
    cfg = ExperimentConfig(trials=20, users_min=1, users_max=1, seed=4)
    table = run_sweep_users(cfg)
    (row,) = table.rows
    assert row[1] == pytest.approx(row[3], rel=1e-12)  # tdma == forced
    assert row[1] == pytest.approx(row[5], rel=1e-12)  # tdma == adaptive


def test_sweep_users_mean_ordering_small_sample():
    table = run_sweep_users(ExperimentConfig(trials=400, users_min=2,
                                             users_max=5, seed=21))
    for row in table.rows:
        k, tdma_mean, _, forced_mean, _, adaptive_mean, _ = row
        assert adaptive_mean >= tdma_mean - 1e-9
        assert adaptive_mean >= forced_mean - 1e-9


def test_sweep_users_standard_error_scaling():
    cfg_small = ExperimentConfig(trials=100, users_min=4, users_max=4, seed=2)
    cfg_big = ExperimentConfig(trials=10_000, users_min=4, users_max=4, seed=2)
    se_small = run_sweep_users(cfg_small).rows[0][2]
    se_big = run_sweep_users(cfg_big).rows[0][2]
    ratio = se_small / se_big  # expect ~sqrt(100) = 10
    assert 5.0 < ratio < 20.0


def test_sweep_power_frozen_values():
    table = run_sweep_power(ExperimentConfig())
    rows = {row[0]: row for row in table.rows}
    assert set(rows) == {0.25, 0.5, 1.0, 2.0, 4.0}
    row1 = rows[1.0]
    assert row1[1] == pytest.approx(SWEEP_POWER_P1["tdma"], rel=1e-12)
    assert row1[2] == pytest.approx(SWEEP_POWER_P1["forced"], rel=1e-12)
    assert row1[3] == pytest.approx(SWEEP_POWER_P1["adaptive"], rel=1e-12)
    for row in table.rows:
        assert row[3] >= row[1] - 1e-9          # adaptive >= tdma
        assert row[4] == pytest.approx(row[3] - row[2], abs=1e-12)
    # every scheme's rate grows with LED power
    powers = sorted(rows)
    for lo, hi in zip(powers, powers[1:]):
        for col in (1, 2, 3):
            assert rows[hi][col] > rows[lo][col]


def test_sweep_power_deterministic():
    cfg = ExperimentConfig()
    assert run_sweep_power(cfg).csv_text() == run_sweep_power(cfg).csv_text()


def test_csv_cells_roundtrip_exactly():
    table = run_sweep_power(ExperimentConfig(power_grid=(1.0,)))
    text = table.csv_text()
    header, line = text.strip().split("\n")
    cells = line.split(",")
    for cell, value in zip(cells, table.rows[0]):
        assert float(cell) == value


def test_pair_once_matches_library_pairing():
    gains = [1e-6, 1.05e-6, 1.05e-6 * math.sqrt(1.2), 1e-6 * math.sqrt(10.0)]
    plan, outcome = pair_once(gains, ExperimentConfig())
    assert plan.pairs == ((1, 4),)
    assert set(plan.singletons) == {2, 3}
    assert outcome.sum_rate > 0.0


def test_the_region_map_certifies_each_solver_endpoint(monkeypatch):
    # The region map certifies each solver endpoint against the gap sign,
    # so an r_min 1% too high raises.
    cfg = ExperimentConfig(snr_db_min=20.0, snr_db_max=22.0, snr_db_step=1.0)
    true_solve = region.sca_solve

    def skewed_solve(gamma, objective, seed):
        r, trace = true_solve(gamma, objective, seed)
        return (r * 1.01 if objective == "min" else r), trace

    monkeypatch.setattr(region, "sca_solve", skewed_solve)
    with pytest.raises(OracleMismatchError, match="^r_min .* is not within"):
        run_region_map(cfg)


def test_the_sweeps_read_no_region(monkeypatch):
    # Regions that end at r = 1.5 leave out pairs the gap sign takes: pair
    # checks its plan against them and raises, the sweeps never read one.
    users_cfg, power_cfg = small_cfg(), ExperimentConfig()
    users, power = run_sweep_users(users_cfg), run_sweep_power(power_cfg)
    monkeypatch.setattr(region, "oracle_region",
                        lambda gamma, rel_width=region.ORACLE_REL_WIDTH:
                        NomaRegion(gamma, 1.0, 1.5))
    with pytest.raises(OracleMismatchError, match="outside the region"):
        pair_once([1e-6, 2e-6], power_cfg)
    assert run_sweep_users(users_cfg) == users
    assert run_sweep_power(power_cfg) == power


def test_the_power_sweep_runs_one_greedy_per_power(monkeypatch):
    # scheme_sum_rates runs the greedy whose plan it rates, with no region
    calls = []
    true_pairing = adaptive_pairing

    def counted(users, region_of=None):
        calls.append(region_of)
        return true_pairing(users, region_of)

    monkeypatch.setattr(scheduler, "adaptive_pairing", counted)
    monkeypatch.setattr(experiments, "adaptive_pairing", counted)
    cfg = ExperimentConfig()
    run_sweep_power(cfg)
    assert calls == [None] * len(cfg.power_grid)


@functools.cache
def pair_pool(seed, count=2000):
    """The benchmark's pair_stream requests: each the gains of K in [2, 10]
    users at seeded uniform floor positions."""
    cfg = ExperimentConfig(seed=seed)
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(count):
        k = int(rng.integers(2, 11))
        pool.append(floor_gains(cfg.link(), sample_user_positions(rng, cfg.room(), k).tolist()))
    return tuple(pool)


def formed_pairs(gains, cfg):
    """(weak-user SNR, r) of each pair adaptive_pairing forms, in order."""
    users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
    snrs = {u.user_id: u.snr for u in users}
    plan = adaptive_pairing(users)
    return [(snrs[w], squared_ratio(gains[s - 1], gains[w - 1])) for w, s in plan.pairs]


@pytest.fixture
def solver_runs(monkeypatch):
    """Record each sca_solve run as (gamma, objective, width), each oracle
    run as (gamma, "oracle", width) and each certificate as (gamma,
    "certify <objective>", width), where width is the rel_width of the
    oracle run that makes the call, or None outside one."""
    runs = []
    width = [None]
    true_solve, true_oracle, true_certify = (
        region.sca_solve, region.oracle_region, region._certify)

    def solve(gamma, objective, seed):
        runs.append((gamma, objective, width[-1]))
        return true_solve(gamma, objective, seed)

    def oracle(gamma, rel_width=region.ORACLE_REL_WIDTH):
        runs.append((gamma, "oracle", rel_width))
        width.append(rel_width)
        try:
            return true_oracle(gamma, rel_width)
        finally:
            width.pop()

    def certify(gamma, objective, r, seed):
        runs.append((gamma, f"certify {objective}", width[-1]))
        return true_certify(gamma, objective, r, seed)

    monkeypatch.setattr(region, "sca_solve", solve)
    monkeypatch.setattr(region, "oracle_region", oracle)
    monkeypatch.setattr(region, "_certify", certify)
    return runs


def test_pair_once_reads_one_oracle_region_per_pair_and_runs_no_solver(solver_runs):
    # each oracle region is bisected to the check's width and certifies both
    # endpoints, r_min first
    cfg = ExperimentConfig(seed=1)
    checks = ["oracle", "certify min", "certify max"]
    expected = []
    for gains in pair_pool(1):
        pair_once(gains, cfg)
        expected += [(gamma, check, region.CHECK_REL_WIDTH)
                     for gamma, _ in formed_pairs(gains, cfg) for check in checks]
    assert solver_runs == expected  # and no sca_solve
    assert len(expected) == 3438 * len(checks)  # counted in advance


@pytest.fixture
def log2_calls(monkeypatch):
    """Count math.log2 calls by the region stage that makes them: "scan",
    "r_min", "r_max", "oracle", or "other" outside them."""
    calls = Counter()
    stage = ["other"]
    true_log2 = math.log2

    def log2(x):
        calls[stage[-1]] += 1
        return true_log2(x)

    def staged(fn, name):
        def run(*args, **kwargs):
            stage.append(name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        return run

    monkeypatch.setattr(math, "log2", log2)
    monkeypatch.setattr(region, "feasibility_scan",
                        staged(region.feasibility_scan, lambda gamma: "scan"))
    monkeypatch.setattr(region, "sca_solve",
                        staged(region.sca_solve, lambda gamma, objective, seed: f"r_{objective}"))
    monkeypatch.setattr(region, "oracle_region",
                        staged(region.oracle_region,
                               lambda gamma, rel_width=None: "oracle"))
    return calls


def test_validated_region_map_log2_calls(log2_calls):
    # counted in advance: the scan keeps the gap its bisection last compared
    # (16 gaps, not 17), and each r_min run takes its NOMA side at r = 1 once,
    # not in each of the map's 557 r_min iterations; down from 57,138 calls
    # (scan 3,172, r_min 22,535). Validation certifies each endpoint by
    # + - * / gap signs, so it takes no log2; the oracle took 9,495. The
    # map's ten rows from 0 to 9 dB lie below rates.GAMMA_FLOOR, where the
    # scan returns None with no log2: 49 calls each, 2,989 calls before.
    cfg = ExperimentConfig()
    log2_calls.clear()  # the config's Lambertian order takes two
    run_region_map(cfg)
    assert log2_calls == {"scan": 2499, "r_min": 21521, "r_max": 21936}


def test_plain_pair_pool_log2_calls(log2_calls):
    # counted in advance: one oracle region per formed pair, whose scan
    # takes log2 and whose bisection, on noma_wins, takes none; "other" is
    # evaluate_schedule's. Bisecting rate_gap_at took 1,037,113 in all.
    cfg = ExperimentConfig(seed=1)
    pool = pair_pool(1)
    log2_calls.clear()
    for gains in pool:
        pair_once(gains, cfg)
    assert log2_calls == {"scan": 168462, "other": 11895}


def test_the_pair_check_bisects_about_half_the_reference_steps(monkeypatch):
    # counted in advance: _log_bisect looks math.sqrt up on each call and
    # takes one per bisection step, and nothing else in pair_once takes one.
    # A seed-1 pool pass bisects its 3,438 check regions to CHECK_REL_WIDTH;
    # the same regions at the reference width, ORACLE_REL_WIDTH, take
    # 210,751 steps.
    cfg = ExperimentConfig(seed=1)
    pool = pair_pool(1)
    steps = [0]
    true_sqrt = math.sqrt

    def sqrt(x):
        steps[0] += 1
        return true_sqrt(x)

    monkeypatch.setattr(math, "sqrt", sqrt)
    for gains in pool:
        pair_once(gains, cfg)
    assert steps == [109847]
    steps[0] = 0
    for gains in pool:
        adaptive_pairing(UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power),
                         oracle_region)
    assert steps == [210751]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_pool_pair_lies_in_its_unwidened_oracle_region(seed):
    # No pool pair needs the widening, in the reference region or in the
    # check region pair_once reads. admits keeps SOLVER_REL_BOUND all the
    # same: solver regions can reach it, and an oracle endpoint may lie up to
    # its bisection width inside the gap's sign change, as the r_max at
    # gamma = 400 lies 5.9e-10 (reference) and 4.8e-5 (check) below a pair
    # tests/test_cli.py forms.
    cfg = ExperimentConfig(seed=seed)
    pairs = [pair for gains in pair_pool(seed) for pair in formed_pairs(gains, cfg)]
    assert len(pairs) == {1: 3438, 2: 3384}[seed]  # counted in advance
    for gamma, r in pairs:
        for width in (region.ORACLE_REL_WIDTH, region.CHECK_REL_WIDTH):
            found = oracle_region(gamma, width)
            assert not found.is_empty and found.r_min <= r <= found.r_max, (gamma, r, width)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_oracle_equals_the_log2_gap_bisection_at_every_pool_pair(seed):
    # The oracle bisects noma_wins, the sign that forms each pair; at every
    # SNR a pair check reads, its endpoints are those a bisection of the
    # float gap, rate_gap_at through math.log2, gives.
    cfg = ExperimentConfig(seed=seed)
    for gains in pair_pool(seed):
        for gamma, _ in formed_pairs(gains, cfg):
            region = oracle_region(gamma)
            assert (region.r_min, region.r_max) == reference_oracle(gamma), gamma
