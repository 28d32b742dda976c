"""The benchmark's three workloads, driven through vlc_noma's public API.

Each workload has an untraced run, timed only at the boundary of the
public call it measures, and a traced run that replays the same work stage
by stage with a span around each call into a layer. The traced replay must
reproduce the untraced output exactly, which shows it measures the same
program. Every output is checked; checks count toward the error rate.
"""

import dataclasses
import hashlib
import math
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from vlc_noma import (
    ExperimentConfig,
    NomaRegion,
    RegionCache,
    UserChannelSet,
    UserPosition,
    adaptive_pairing,
    evaluate_schedule,
    feasibility_scan,
    forced_pairing,
    los_channel_gain,
    oracle_region,
    parse_config_text,
    sca_solve,
    snr_db,
    tdma_plan,
)
from vlc_noma.experiments import (
    ResultTable,
    pair_once,
    run_region_map,
    run_sweep_users,
    sample_user_positions,
)

from tracer import Tracer

DEFAULT_SEED = 1  # the config's default seed; the digests below hold for it

# Tolerances the repository's acceptance gate uses for the same properties.
DOMINANCE_TOL = 1e-9   # adaptive sum-rate >= TDMA sum-rate - tol, per drop
ORACLE_TOL = 1e-3      # solver vs bisection oracle, relative, per endpoint


@dataclass(frozen=True)
class Sizes:
    """Fixed input sizes of one benchmark configuration."""

    trials: int        # sweep_users drops per user count K
    pool: int          # pair_stream distinct requests, cycled in order
    traced_maps: int   # region_map maps replayed by a traced run
    setup_probes: int  # fresh interpreters timed for setup_s


# 2,000 trials per K puts 98% of the distinct SNR buckets of a 3,000-trial
# sweep in the region cache (4,026 of 4,108 at seed 1): the hit ratio is
# 0.95, near the plateau the published 10^4-trial run sits on.
FULL = Sizes(trials=2000, pool=2000, traced_maps=20, setup_probes=9)
SMOKE = Sizes(trials=10, pool=40, traced_maps=2, setup_probes=2)

# sha256 of the sweep_users CSV at DEFAULT_SEED, keyed by trials per K.
SWEEP_DIGESTS = {
    2000: "1530225117f5ac8bb840b4cb4da2d5ff3d9baad8e039ce7deec00ecad5cd7091",
    10: "967ac67fe0ad948d06a1ed337d38476e504ef54300a78df4aff0a8b1cd6e432d",
}
# sha256 of the default region map (61 SNRs, validated); it has no seed.
REGION_DIGEST = "4e3435b510220a648b55a504281445b17c19e5fa4b0a02ed8f7256a0276ad79a"

SWEEP_COLUMNS = (
    "k", "tdma_mean", "tdma_se", "forced_mean", "forced_se",
    "adaptive_mean", "adaptive_se",
)
REGION_COLUMNS = (
    "weak_snr_db", "gamma", "status", "r_min", "r_max",
    "strong_snr_db_min", "strong_snr_db_max", "width_db",
)

# The default config as a key = value file, parsed by the traced config probe.
DEFAULT_CONFIG_TEXT = """\
# vlc-noma defaults; the parser takes whole-line comments only
room_length = 6.0
room_width = 6.0
room_height = 3.0
led_power = 1.0
semi_angle_deg = 60.0
dc_offset = 0.0
conversion_efficiency = 0.44
pd_area = 1e-4
pd_responsivity = 0.54
fov_deg = 60.0
filter_gain = 1.0
refractive_index = 1.5
noise_power = 1e-14

trials = 10000
seed = 1
snr_db_min = 0.0
snr_db_max = 60.0
snr_db_step = 1.0
users_min = 2
users_max = 10
power_grid = 0.25, 0.5, 1, 2, 4
fixed_positions = 2.5,5.5,0; 4,0,0; 5,1,0; 5,5.5,0; 5,6,0; 6,1,0
"""
CONFIG_PARSES = 20


class Checks:
    """Output checks attempted and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def floor_gains(cfg: ExperimentConfig, positions) -> list[float]:
    """LoS gains of floor points, as the sweep computes them per drop."""
    led = cfg.led()
    pd = cfg.photodiode()
    return [
        los_channel_gain(led, pd, UserPosition((float(p[0]), float(p[1]), 0.0)),
                         cfg.noise_power).channel_gain
        for p in positions
    ]


def pair_requests(seed: int, count: int, cfg: ExperimentConfig) -> list[list[float]]:
    """Gains of K in [2, 10] users at seeded uniform floor positions."""
    rng = np.random.default_rng(seed)
    room = cfg.room()
    requests = []
    for _ in range(count):
        k = int(rng.integers(2, 11))
        requests.append(floor_gains(cfg, sample_user_positions(rng, room, k)))
    return requests


class Calls:
    """Wall-clock start and end of each timed call, its input and the pass
    it belongs to. A pass serves every distinct input of the workload once.
    Flat arrays keep the bookkeeping from moving the process's peak memory."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.inputs = array("q")
        self.passes = array("q")
        self.busy = 0.0
        self._pass = 0

    def time(self, input_id: int, call, *args, **kwargs):
        start = time.perf_counter()
        out = call(*args, **kwargs)
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.inputs.append(input_id)
        self.passes.append(self._pass)
        self.busy += end - start
        return out

    def end_pass(self) -> None:
        self._pass += 1


def _check_sweep_rows(table: ResultTable, checks: Checks) -> None:
    for row in table.rows:
        values = row[1:]
        checks.expect(
            all(math.isfinite(v) for v in values) and row[5] >= row[1],
            f"sweep_users K={row[0]}: non-finite cell or adaptive_mean < tdma_mean",
        )


def _check_sweep_digest(text: str, seed: int, trials: int, checks: Checks) -> None:
    if seed == DEFAULT_SEED and trials in SWEEP_DIGESTS:
        checks.expect(sha256(text) == SWEEP_DIGESTS[trials],
                      f"sweep_users CSV digest changed at seed {seed}")


# ---------------------------------------------------------------- untraced
#
# Each returns (ops per call, Calls). Whole passes run back to back until
# the calls add up to `seconds` of wall time; outputs are checked outside
# the timed calls.


def sweep_users(seed: int, seconds: float, sizes: Sizes, checks: Checks):
    """Default-config sweeps through run_sweep_users. A pass is one call:
    one sweep of trials x 9 drops."""
    cfg = ExperimentConfig(seed=seed, trials=sizes.trials)
    calls = Calls()
    first = None
    while calls.busy < seconds:
        table = calls.time(0, run_sweep_users, cfg)
        calls.end_pass()
        text = table.csv_text()
        if first is None:
            first = text
            _check_sweep_rows(table, checks)
            _check_sweep_digest(text, seed, cfg.trials, checks)
        else:
            checks.expect(text == first, "sweep_users: a repeated sweep changed its CSV")
    return cfg.trials * len(cfg.user_counts()), calls


def pair_stream(seed: int, seconds: float, sizes: Sizes, checks: Checks):
    """Closed loop, one client: pair_once on each pooled request in turn. A
    pass serves the whole pool.

    A request's first plan must cover its users once and reach the TDMA
    sum-rate; each repeat must return the same plan."""
    cfg = ExperimentConfig(seed=seed)
    requests = pair_requests(seed, sizes.pool, cfg)
    calls = Calls()
    first: list[tuple] = []
    while calls.busy < seconds:
        for index, gains in enumerate(requests):
            plan, outcome = calls.time(index, pair_once, gains, cfg)
            result = (plan, outcome.sum_rate)
            if index < len(first):
                checks.expect(result == first[index],
                              f"pair_stream request {index}: a repeat changed its plan")
                continue
            first.append(result)
            users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
            tdma = evaluate_schedule(tdma_plan(users), users).sum_rate
            checks.expect(
                sorted(plan.covered_ids()) == list(range(1, len(gains) + 1))
                and outcome.sum_rate >= tdma - DOMINANCE_TOL,
                f"pair_stream request {index}: plan misses a user or loses to TDMA",
            )
        calls.end_pass()
    return 1, calls


def region_map(seed: int, seconds: float, sizes: Sizes, checks: Checks):
    """The default validated region map, whole maps back to back. A pass is
    one map.

    Each SNR point is its own run_region_map call, so every op is timed;
    the rows of one map, joined, must give the published map. The map has
    no random input, so the seed only names the run."""
    cfg = ExperimentConfig(seed=seed)
    points = [dataclasses.replace(cfg, snr_db_min=db, snr_db_max=db)
              for db in cfg.snr_db_grid()]
    calls = Calls()
    while calls.busy < seconds:
        rows = []
        for index, point in enumerate(points):
            rows.extend(calls.time(index, run_region_map, point, validate=True).rows)
        calls.end_pass()
        checks.expect(sha256(ResultTable(REGION_COLUMNS, rows).csv_text()) == REGION_DIGEST,
                      "region_map CSV digest changed")
    return 1, calls


# ------------------------------------------------------------------ traced


class _LookupProbe:
    """Timing wrapper around RegionCache.region_of, passed to adaptive_pairing.

    A lookup that grows the cache was a miss: its span is renamed and its
    SNR kept, so the solve can be replayed stage by stage afterwards.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cache = RegionCache()
        self.lookups = 0
        self.misses: list[tuple[float, NomaRegion]] = []

    def region_of(self, gamma: float) -> NomaRegion:
        cache = self.cache
        before = len(cache)
        self.tracer.begin("region.lookup")
        region = cache.region_of(gamma)
        span = self.tracer.end()
        self.lookups += 1
        if len(cache) > before:
            span[0] = "region.lookup_miss"
            self.misses.append((gamma, region))
        return region


def _solve_stages(tracer: Tracer, gamma: float, counters, checks: Checks,
                  validate: bool) -> NomaRegion:
    """region_for_snr with default settings, one span per stage."""
    tracer.begin("region.scan")
    seed = feasibility_scan(gamma)
    tracer.end()
    if seed is None:
        return NomaRegion.empty(gamma)
    tracer.begin("region.solver")
    r_min, trace_min = sca_solve(gamma, "min", seed)
    r_max, trace_max = sca_solve(gamma, "max", seed)
    tracer.end()
    counters["solver_iterations"] += trace_min.iterations + trace_max.iterations
    checks.expect(trace_min.converged and trace_max.converged,
                  f"solver did not converge at gamma={gamma!r}")
    found = NomaRegion(gamma, r_min, r_max)
    if validate:
        tracer.begin("region.oracle")
        ref = oracle_region(gamma)
        tracer.end()
        if ref.is_empty:
            err = math.inf
        else:
            err = max(abs(r_min - ref.r_min) / ref.r_min, abs(r_max - ref.r_max) / ref.r_max)
        counters["oracle_max_rel_err"] = max(counters["oracle_max_rel_err"], err)
        checks.expect(err <= ORACLE_TOL, f"solver and oracle disagree at gamma={gamma!r}")
    return found


def _replay_misses(probe: _LookupProbe, counters, checks: Checks) -> None:
    """Re-time each cache miss of the last operation stage by stage, outside
    the operation's spans, and confirm it yields the cached region."""
    for gamma, region in probe.misses:
        found = _solve_stages(probe.tracer, gamma, counters, checks, validate=False)
        checks.expect(found == region, f"replayed solve differs at gamma={gamma!r}")
    probe.misses.clear()


def _count_plan(counters, plan, users: int) -> None:
    counters["pairs"] += len(plan.pairs)
    counters["pair_slots"] += users // 2


def sweep_users_traced(seed: int, sizes: Sizes, checks: Checks, tracer: Tracer):
    """One sweep untraced, then _simulate_drop replayed stage by stage.

    Returns (counters, untraced (start, end), names of the spans that
    together time the same work traced)."""
    cfg = ExperimentConfig(seed=seed, trials=sizes.trials)
    start = time.perf_counter()
    reference = run_sweep_users(cfg).csv_text()
    untraced = (start, time.perf_counter())
    _check_sweep_digest(reference, seed, cfg.trials, checks)

    counters = Counter()
    probe = _LookupProbe(tracer)
    per_k: dict[int, list] = {}
    for k in cfg.user_counts():
        drops = per_k[k] = []
        for m in range(cfg.trials):
            tracer.op += 1
            tracer.begin("experiments.drop")
            tracer.begin("experiments.rng")
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(k, m)))
            tracer.end()
            tracer.begin("experiments.sample")
            positions = sample_user_positions(rng, cfg.room(), k)
            tracer.end()
            tracer.begin("channel.gain")
            gains = floor_gains(cfg, positions)
            tracer.end()
            tracer.begin("scheduler.build")
            users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
            tracer.end()
            tracer.begin("scheduler.baseline_plans")
            baselines = (tdma_plan(users), forced_pairing(users))
            tracer.end()
            tracer.begin("scheduler.adaptive")
            adaptive = adaptive_pairing(users, probe.region_of)
            tracer.end()
            tracer.begin("scheduler.evaluate")
            rates = tuple(evaluate_schedule(plan, users).sum_rate
                          for plan in (*baselines, adaptive))
            tracer.end()
            tracer.end()
            drops.append(rates)
            counters["gain_calls"] += k
            counters["dead_links"] += sum(1 for h in gains if h <= 0.0)
            _count_plan(counters, adaptive, k)
            checks.expect(rates[2] >= rates[0] - DOMINANCE_TOL,
                          f"sweep_users K={k} trial {m}: adaptive < TDMA")
            _replay_misses(probe, counters, checks)

    tracer.begin("experiments.reduce")
    rows = []
    for k in cfg.user_counts():
        arr = np.asarray(per_k[k])
        means = arr.mean(axis=0)
        if len(arr) > 1:
            ses = arr.std(axis=0, ddof=1) / math.sqrt(len(arr))
        else:
            ses = np.zeros(3)
        rows.append((k, means[0], ses[0], means[1], ses[1], means[2], ses[2]))
    table = ResultTable(SWEEP_COLUMNS, rows)
    tracer.end()
    tracer.begin("experiments.csv")
    text = table.csv_text()
    tracer.end()
    checks.expect(text == reference, "traced sweep_users replay changed the CSV")

    counters["lookups"] = probe.lookups
    counters["misses"] = len(probe.cache)
    return counters, untraced, ("experiments.drop", "experiments.reduce", "experiments.csv")


def pair_stream_traced(seed: int, sizes: Sizes, checks: Checks, tracer: Tracer):
    """The request pool once untraced, then pair_once replayed stage by stage.

    Returns (counters, untraced (start, end), names of the spans that
    together time the same work traced)."""
    cfg = ExperimentConfig(seed=seed)
    requests = pair_requests(seed, sizes.pool, cfg)
    start = time.perf_counter()
    reference = [pair_once(gains, cfg) for gains in requests]
    untraced = (start, time.perf_counter())

    counters = Counter()
    probe = _LookupProbe(tracer)
    for index, gains in enumerate(requests):
        tracer.op = index
        tracer.begin("experiments.pair_once")
        tracer.begin("scheduler.build")
        users = UserChannelSet.from_gains(gains, cfg.led_power, cfg.noise_power)
        tracer.end()
        probe.cache = RegionCache()
        tracer.begin("scheduler.adaptive")
        plan = adaptive_pairing(users, probe.region_of)
        tracer.end()
        tracer.begin("scheduler.evaluate")
        outcome = evaluate_schedule(plan, users)
        tracer.end()
        tracer.end()
        ref_plan, ref_outcome = reference[index]
        checks.expect(plan == ref_plan and outcome.sum_rate == ref_outcome.sum_rate,
                      f"traced pair_stream replay changed request {index}")
        _count_plan(counters, plan, len(gains))
        counters["misses"] += len(probe.cache)
        _replay_misses(probe, counters, checks)

    counters["lookups"] = probe.lookups
    return counters, untraced, ("experiments.pair_once",)


def _region_row(db: float, gamma: float, region: NomaRegion) -> tuple:
    if region.is_empty:
        return (db, gamma, region.status, "", "", "", "", "")
    return (
        db, gamma, region.status, region.r_min, region.r_max,
        snr_db(gamma * region.r_min), snr_db(gamma * region.r_max),
        region.width_db(),
    )


def region_map_traced(seed: int, sizes: Sizes, checks: Checks, tracer: Tracer):
    """Maps untraced, then the same maps replayed SNR point by SNR point.

    Returns (counters, untraced (start, end), names of the spans that
    together time the same work traced)."""
    cfg = ExperimentConfig(seed=seed)
    start = time.perf_counter()
    for _ in range(sizes.traced_maps):
        reference = run_region_map(cfg, validate=True).csv_text()
    untraced = (start, time.perf_counter())
    checks.expect(sha256(reference) == REGION_DIGEST, "region_map CSV digest changed")

    counters = Counter()
    for _ in range(sizes.traced_maps):
        rows = []
        for db in cfg.snr_db_grid():
            tracer.op += 1
            tracer.begin("experiments.region_point")
            gamma = 10.0 ** (db / 10.0)
            region = _solve_stages(tracer, gamma, counters, checks, validate=True)
            tracer.begin("experiments.reduce")
            rows.append(_region_row(db, gamma, region))
            tracer.end()
            tracer.end()
        tracer.begin("experiments.csv")
        text = ResultTable(REGION_COLUMNS, rows).csv_text()
        tracer.end()
        checks.expect(text == reference, "traced region_map replay changed the CSV")
    return counters, untraced, ("experiments.region_point", "experiments.csv")


def time_config_parse(tracer: Tracer, checks: Checks) -> None:
    """Parse the documented default config file a few times, one span each."""
    for _ in range(CONFIG_PARSES):
        tracer.begin("config.parse")
        cfg = parse_config_text(DEFAULT_CONFIG_TEXT)
        tracer.end()
    checks.expect(cfg == ExperimentConfig(), "default config text does not parse to the defaults")


def layer_metrics(tracer: Tracer, durations: list[float], counters) -> dict[str, float]:
    """Every per-layer metric from the spans' durations. A layer the
    workload never enters reads 0."""
    totals = tracer.totals(durations)

    def busy(name: str) -> float:
        return totals[name][1] if name in totals else 0.0

    def self_time(name: str) -> float:
        return totals[name][2] if name in totals else 0.0

    lookups, misses = counters["lookups"], counters["misses"]
    parses = [d for span, d in zip(tracer.spans, durations) if span[0] == "config.parse"]
    return {
        "experiments.rng_s": busy("experiments.rng"),
        "experiments.sample_s": busy("experiments.sample"),
        "experiments.reduce_s": busy("experiments.reduce"),
        "experiments.csv_s": busy("experiments.csv"),
        "channel.gain_s": busy("channel.gain"),
        "channel.gain_calls": counters["gain_calls"],
        "channel.dead_links": counters["dead_links"],
        "scheduler.build_s": busy("scheduler.build"),
        "scheduler.adaptive_self_s": self_time("scheduler.adaptive"),
        "scheduler.baseline_plans_s": busy("scheduler.baseline_plans"),
        "scheduler.evaluate_s": busy("scheduler.evaluate"),
        "scheduler.pairs_admitted": counters["pairs"],
        "scheduler.pair_ratio": counters["pairs"] / counters["pair_slots"]
        if counters["pair_slots"] else 0.0,
        "region.lookups": lookups,
        "region.misses": misses,
        "region.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "region.lookup_s": busy("region.lookup") + busy("region.lookup_miss"),
        "region.solve_s": busy("region.lookup_miss"),
        "region.scan_s": busy("region.scan"),
        "region.solver_s": busy("region.solver"),
        "region.oracle_s": busy("region.oracle"),
        "region.solver_iterations": counters["solver_iterations"],
        "region.oracle_max_rel_err": counters["oracle_max_rel_err"],
        "config.parse_s": statistics.median(parses),
    }


WORKLOADS = {
    "sweep_users": (sweep_users, sweep_users_traced),
    "pair_stream": (pair_stream, pair_stream_traced),
    "region_map": (region_map, region_map_traced),
}
