"""Region solver vs the bisection oracle, plus solver-specific behaviour."""

import hashlib
import math
import random

import numpy as np
import pytest

from vlc_noma import region as region_module
from vlc_noma.config import ExperimentConfig
from vlc_noma.experiments import run_region_map
from vlc_noma.rates import GAMMA_FLOOR, noma_wins, rate_gap_at, rate_gap_curve
from vlc_noma.region import (
    GAMMA_MAX,
    SCAN_POINTS,
    SCAN_RANGE,
    InfeasibleSeedError,
    NomaRegion,
    OracleMismatchError,
    ORACLE_REL_WIDTH,
    RegionSolverError,
    SOLVER_REL_BOUND,
    TOLERANCE,
    RegionCache,
    _SCAN_GRID,
    feasibility_scan,
    oracle_region,
    region_for_snr,
    sca_solve,
)

# Frozen from the bisection oracle at gamma = 100.
RMIN_100 = 3.1270665
RMAX_100 = 1799.69251
NADIR_GAMMA = 3282.8063500117482


def test_feasibility_scan_finds_positive_gap_at_100():
    seed = feasibility_scan(100.0)
    assert seed is not None
    assert rate_gap_at(100.0, seed) > 0.0
    assert RMIN_100 < seed < RMAX_100


def test_feasibility_scan_empty_at_unit_snr():
    assert feasibility_scan(1.0) is None


def test_the_snr_floor_lies_below_the_threshold():
    # Regions first appear at gamma* = 10.3119 (10.13 dB), above the floor.
    assert oracle_region(10.31).is_empty
    assert not oracle_region(10.312).is_empty
    # Below the floor the scan returns None at once. Without the floor its
    # float log2 gaps round to ties at tiny SNRs, and it seeded r = 1.000196
    # at 1e-8 (-80 dB), a region of width 0.0 dB.
    assert [feasibility_scan(g) for g in (1e-8, 1e-3, GAMMA_FLOOR * (1 - 2**-52))] == [None] * 3
    assert feasibility_scan(GAMMA_FLOOR) is None  # the gap is negative at 10 dB too


# sha256 of ",".join(repr(v) for v in _SCAN_GRID): the grid np.logspace(0,
# 12, 256) gave when the published maps were recorded.
SCAN_GRID_SHA = "c77348f958d94cb905a6aa86e70fbf6d3f1e6b66b5bda619857969744dcb4f33"


def test_scan_grid_is_the_frozen_logspace():
    grid = _SCAN_GRID
    assert len(grid) == SCAN_POINTS
    assert all(type(v) is float for v in grid)
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert (grid[0], grid[-1]) == SCAN_RANGE == (1.0, 1e12)
    # linspace's exponent i * step, step = 12 / 255; libm's pow of it may
    # differ in the last bit, which is why the grid is frozen
    step = 12 / 255
    for i, v in enumerate(grid):
        assert abs(v - 10.0 ** (i * step)) <= math.ulp(v), i
    digest = hashlib.sha256(",".join(repr(v) for v in grid).encode()).hexdigest()
    assert digest == SCAN_GRID_SHA


def reference_scan(gamma, grid=np.array(_SCAN_GRID)):
    """The scan as it was: numpy's gap curve over the whole grid, its first
    argmax, and None when that gap is <= 0."""
    gaps = rate_gap_curve(gamma, grid)
    best = int(np.argmax(gaps))
    return None if gaps[best] <= 0.0 else float(grid[best])


def test_scalar_scan_equals_the_argmax_of_the_gap_curve():
    # -10..480 dB, then the band where regions first appear (10.1334 dB)
    # and are narrower than the grid step
    dense = [-10.0 + 0.0233 * i for i in range(21_031)]
    band = [10.1334 + 0.0005 * i for i in range(1_201)]
    seeds, refined = set(), []
    for db in dense + band:
        gamma = 10.0 ** (db / 10.0)
        seed = feasibility_scan(gamma)
        expected = reference_scan(gamma)
        if expected is None and seed is not None:
            # the refine found a region between grid points
            assert seed not in _SCAN_GRID and rate_gap_at(gamma, seed) > 0.0, db
            refined.append(db)
        else:
            assert seed == expected, db
        if seed is not None and band[0] <= db <= band[-1]:
            # the narrowest regions; at 10.1334 dB the region is the seed
            # alone, and the certificate rests on the seed at both ends
            region = region_for_snr(gamma)
            assert not region.is_empty and region.r_min <= seed <= region.r_max, db
        seeds.add(seed)
    assert None in seeds and len(seeds) > 200  # empty maps and nearly every grid point
    assert refined == band[:3]  # 10.1334, 10.1339 and 10.1344 dB


def test_bisection_oracle_at_100():
    region = oracle_region(100.0)
    assert region.r_min == pytest.approx(RMIN_100, rel=1e-6)
    assert region.r_max == pytest.approx(RMAX_100, rel=1e-6)


def test_bisection_oracle_empty_cases():
    assert oracle_region(1.0).is_empty
    assert oracle_region(1e-3).is_empty


def test_oracle_endpoints_sit_on_roots():
    for g in (100.0, 1e4):
        region = oracle_region(g)
        assert abs(rate_gap_at(g, region.r_min)) < 1e-6
        assert abs(rate_gap_at(g, region.r_max)) < 1e-6
        # feasible-side bracket ends: endpoints never leave the true region
        assert rate_gap_at(g, region.r_min) >= 0.0
        assert rate_gap_at(g, region.r_max) >= 0.0


def test_sca_min_converges_to_lower_endpoint():
    value, trace = sca_solve(100.0, "min", seed=10.0)
    assert trace.converged
    assert value == pytest.approx(RMIN_100, rel=1e-3)
    steps = np.diff(trace.iterates)
    assert np.all(steps <= 1e-12)  # non-increasing toward r_min


def test_sca_max_converges_to_upper_endpoint():
    value, trace = sca_solve(100.0, "max", seed=10.0)
    assert trace.converged
    assert value == pytest.approx(RMAX_100, rel=1e-3)
    steps = np.diff(trace.iterates)
    assert np.all(steps >= -1e-12)  # non-decreasing toward r_max


def seeded_gammas(seed, count):
    """count SNRs drawn uniformly in dB over 10.2..480 dB, where every
    region is nonempty."""
    rng = random.Random(seed)
    return [10.0 ** (rng.uniform(10.2, 480.0) / 10.0) for _ in range(count)]


def test_sca_runs_never_cross_the_scan_seed():
    # _certify's side-of-seed condition rests on this, exactly: from its scan
    # seed the r_min run never rises and the r_max run never falls.
    for gamma in seeded_gammas(7, 200):
        seed = feasibility_scan(gamma)
        r_min, low = sca_solve(gamma, "min", seed)
        r_max, high = sca_solve(gamma, "max", seed)
        assert all(b <= a for a, b in zip(low.iterates, low.iterates[1:])), gamma
        assert all(b >= a for a, b in zip(high.iterates, high.iterates[1:])), gamma
        assert r_min == low.iterates[-1] <= seed <= high.iterates[-1] == r_max, gamma


def test_sca_iterates_stay_feasible():
    for objective in ("min", "max"):
        _, trace = sca_solve(1e4, objective, seed=50.0)
        assert all(g >= -1e-12 for g in trace.gaps)


def test_sca_seed_on_root_is_fixed_point():
    root = oracle_region(100.0).r_max
    value, trace = sca_solve(100.0, "max", seed=root)
    assert trace.converged
    assert value == pytest.approx(root, rel=1e-6)


def test_sca_rejects_infeasible_seed():
    with pytest.raises(InfeasibleSeedError) as err:
        sca_solve(100.0, "min", seed=2.0)  # gap(100, 2) < 0
    assert str(err.value) == "seed r=2 has gap -1.808e-01 < 0 at gamma=100"
    with pytest.raises(ValueError):
        sca_solve(100.0, "both", seed=10.0)


def test_sca_trace_termination_distance():
    _, trace = sca_solve(1000.0, "max", seed=30.0)
    assert trace.converged
    last, prev = trace.iterates[-1], trace.iterates[-2]
    assert abs(last - prev) < TOLERANCE * max(1.0, abs(last))


def test_region_for_snr_matches_oracle_across_decades():
    for g in (10.0, 100.0, 1e3, 1e4, 1e5):
        ref = oracle_region(g)
        region = region_for_snr(g)
        assert region.status == ref.status
        if ref.is_empty:
            continue
        assert region.r_min == pytest.approx(ref.r_min, rel=1e-3)
        assert region.r_max == pytest.approx(ref.r_max, rel=1e-3)


def test_region_is_oracle_checked_up_to_480_db():
    for db in range(0, 490, 10):
        gamma = 10.0 ** (db / 10.0)
        assert region_for_snr(gamma).is_empty == (db <= 10), db  # certified as solved
    assert 10.0 ** (480 / 10.0) == GAMMA_MAX


ENTRY_POINTS = pytest.mark.parametrize("entry", [
    feasibility_scan, oracle_region, region_for_snr,
    lambda gamma: sca_solve(gamma, "max", 10.0),
], ids=["feasibility_scan", "oracle_region", "region_for_snr", "sca_solve"])


@ENTRY_POINTS
@pytest.mark.parametrize("gamma", [math.nextafter(GAMMA_MAX, math.inf), 1e49, 1e300])
def test_region_api_rejects_a_gamma_past_480_db(entry, gamma):
    # no SNR past the bound reaches a search
    with pytest.raises(ValueError, match=r"and at most 1e48 \(480 dB\)"):
        entry(gamma)


def test_region_interior_is_nonnegative():
    for g in (15.0, 100.0, NADIR_GAMMA, 1e5):
        region = region_for_snr(g)
        assert not region.is_empty
        interior = np.logspace(
            math.log10(region.r_min), math.log10(region.r_max), 32
        )
        for r in interior:
            assert rate_gap_at(g, float(r)) >= -1e-9


def test_region_at_nadir_snr():
    region = region_for_snr(NADIR_GAMMA)
    assert not region.is_empty
    assert region.r_min > 1.0
    assert region.r_min == pytest.approx(3.0502, rel=1e-3)


def test_region_empty_outcomes():
    assert region_for_snr(1e-3).is_empty
    assert region_for_snr(10.0).is_empty
    with pytest.raises(ValueError):
        region_for_snr(0.0)


@ENTRY_POINTS
@pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0])
def test_region_api_rejects_a_gamma_that_is_not_finite_and_positive(entry, gamma):
    with pytest.raises(ValueError, match="gamma must be finite and positive"):
        entry(gamma)


@pytest.mark.parametrize("seed", [math.nan, math.inf])
def test_sca_solve_rejects_a_seed_that_is_not_finite(seed):
    with pytest.raises(ValueError, match="seed must be finite"):
        sca_solve(100.0, "max", seed)


def test_sca_solve_min_reaches_one_where_every_gap_rounds_to_zero():
    # At gamma = 1e-17 each gap is 0.0, so the surrogate holds at x = 1 and
    # the r_min run stops there; the root bisection alone would end above 1.
    r, trace = sca_solve(1e-17, "min", 5.0)
    assert r == 1.0 and trace.converged


@pytest.mark.parametrize("objective", ["min", "max"])
@pytest.mark.parametrize("gamma, seed", [(1e10, 1e300), (100.0, 1.7e308)])
def test_sca_solve_rejects_a_seed_whose_gap_is_nan(gamma, seed, objective):
    # t*seed*gamma overflows to inf, so the seed's gap is inf - inf: the
    # solver must not take that seed for a feasible one, nor call NaN < 0
    with pytest.raises(InfeasibleSeedError) as err:
        sca_solve(gamma, objective, seed)
    assert str(err.value) == (
        f"seed r={seed:g} has gap nan (t*r*gamma overflows) at gamma={gamma:g}")


def test_region_validate_against_oracle():
    region = region_for_snr(100.0)
    assert not region.is_empty


def test_region_width_expands_with_snr():
    gammas = np.logspace(1.0, 5.0, 30)
    widths = [region_for_snr(float(g)).width_db() for g in gammas]
    assert np.all(np.diff(widths) >= -1e-9)
    assert widths[0] == 0.0          # empty at gamma = 10
    assert widths[-1] > 80.0         # tens of dB wide at gamma = 1e5


def test_noma_region_construction_rules():
    with pytest.raises(ValueError):
        NomaRegion(100.0, r_min=2.0, r_max=None)
    with pytest.raises(ValueError):
        NomaRegion(100.0, r_min=0.5, r_max=2.0)
    with pytest.raises(ValueError):
        NomaRegion(100.0, r_min=5.0, r_max=2.0)
    empty = NomaRegion.empty(7.0)
    assert empty.is_empty and empty.status == "empty"
    assert not (not empty.is_empty and empty.r_min <= 1.0 <= empty.r_max)
    assert empty.width_db() == 0.0
    full = NomaRegion(100.0, 3.0, 30.0)
    for r, inside in ((3.0, True), (30.0, True), (31.0, False)):
        assert (not full.is_empty and full.r_min <= r <= full.r_max) == inside, r
    assert full.width_db() == pytest.approx(10.0)


def test_admits_widens_each_end_by_the_solver_bound():
    assert SOLVER_REL_BOUND == 1e-3
    region = NomaRegion(100.0, 4.0, 1000.0)
    assert region.admits(3.996) and region.admits(1000.9)
    assert not region.admits(3.9959) and not region.admits(1001.1)
    assert not NomaRegion.empty(100.0).admits(1.0)


def test_an_oracle_region_admits_a_gap_sign_pair_only_widened():
    # tests/test_cli.py's pair at gamma = 400 has a positive exact gap, but
    # the oracle's bisection stops within ORACLE_REL_WIDTH below it
    r = 29664.13946589052
    assert noma_wins(400.0, r)
    ref = oracle_region(400.0)
    assert ref.r_max < r <= ref.r_max * (1.0 + ORACLE_REL_WIDTH)
    assert ref.admits(r)


def test_a_solve_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(region_module, "MAX_ITERATIONS", 1)
    with pytest.raises(RegionSolverError) as err:
        region_for_snr(100.0)
    assert str(err.value) == "r_min solve did not converge at gamma=100"
    with pytest.raises(RegionSolverError) as err:
        region_module._solve(100.0, "max", feasibility_scan(100.0))
    assert str(err.value) == "r_max solve did not converge at gamma=100"


def test_region_cache_solves_each_lookup_at_its_own_snr():
    # A gap-sign pair of the seed-3 user sweep (K=6, trial 6510); a region
    # solved at the nearby SNR of K=2, trial 927 starts just above its r.
    gamma, r = 326.7925876006048, 3.071063161588703
    cache = RegionCache()
    first = cache.region_of(326.6070345154696)
    assert not (not first.is_empty and first.r_min <= r <= first.r_max)
    region = cache.region_of(gamma)
    assert region == region_for_snr(gamma)
    assert not region.is_empty and region.r_min <= r <= region.r_max
    assert cache.region_of(gamma) is region
    assert len(cache) == 2


def test_region_cache_miss_equals_a_fresh_solve():
    cache = RegionCache()
    for gamma in (1.0, 100.0, 3.7e4):
        assert cache.region_of(gamma) == region_for_snr(gamma)


def test_region_for_snr_validate_refuses_a_skewed_solver_endpoint(monkeypatch):
    # region_for_snr certifies each of the solver's own endpoints as it is
    # solved, so the skewed r_max raises, and so do the acceptance gate's
    # plain run_region_map(cfg) and a RegionCache miss, which solve through it
    true_solve = region_module.sca_solve

    def skewed_solve(gamma, objective, seed):
        r, trace = true_solve(gamma, objective, seed)
        return (r * 1.01 if objective == "max" else r), trace

    monkeypatch.setattr(region_module, "sca_solve", skewed_solve)
    with pytest.raises(OracleMismatchError, match="^r_max "):
        region_for_snr(100.0)
    with pytest.raises(OracleMismatchError, match="^r_max "):
        run_region_map(ExperimentConfig(snr_db_min=20.0, snr_db_max=20.0))
    with pytest.raises(OracleMismatchError, match="^r_max "):
        RegionCache().region_of(100.0)


def test_the_oracle_certifies_its_endpoints_with_no_argument(monkeypatch):
    # oracle_region has one form: every region it returns is certified, r_min
    # first, so endpoints bisected 1% too high raise on r_min
    true_bisect = region_module._log_bisect

    def skewed_bisect(gamma, lo, hi, lo_feasible, rel_width):
        return true_bisect(gamma, lo, hi, lo_feasible, rel_width) * 1.01

    monkeypatch.setattr(region_module, "_log_bisect", skewed_bisect)
    with pytest.raises(OracleMismatchError, match="^r_min "):
        oracle_region(100.0)


def certify(gamma, r_min, r_max):
    """region_module._certify on each given endpoint, r_min first, from
    gamma's scan seed."""
    seed = feasibility_scan(gamma)
    region_module._certify(gamma, "min", r_min, seed)
    region_module._certify(gamma, "max", r_max, seed)


@pytest.mark.parametrize("db", [10.1335, 30.0, 480.0])
def test_the_certificate_refuses_an_endpoint_off_by_2e_3_and_takes_one_off_by_5e_4(db):
    # 10.1335 dB holds a region about 1.5% wide, narrower than the scan's
    # grid step (11.4%)
    gamma = 10.0 ** (db / 10.0)
    region = region_for_snr(gamma)
    for f in (1.0 - 2e-3, 1.0 + 2e-3):
        with pytest.raises(OracleMismatchError, match="^r_min "):
            certify(gamma, region.r_min * f, region.r_max)
        with pytest.raises(OracleMismatchError, match="^r_max "):
            certify(gamma, region.r_min, region.r_max * f)
    for f in (1.0 - 5e-4, 1.0 + 5e-4):
        certify(gamma, region.r_min * f, region.r_max)
        certify(gamma, region.r_min, region.r_max * f)


@pytest.mark.parametrize("db, r_min_factor, r_max_factor, message", [
    # At 10.13444 dB the seed is a grid point on the region's lower edge,
    # where the solver's r_min equals it: 1e-4 above it every gap sign
    # passes, and only the seed's order refuses the endpoint.
    (10.13444, 1.0001, 1.0, "r_min 7.03238 is not within 0.001 of the gap's "
     "sign change at gamma=10.3144 (scan seed 7.03168)"),
    # At 10.1334 dB the region is the seed alone; 1e-4 below it, the same
    # holds for r_max.
    (10.1334, 0.9998, 0.9999, "r_max 7.19261 is not within 0.001 of the gap's "
     "sign change at gamma=10.3119 (scan seed 7.19333)"),
])
def test_the_certificate_refuses_an_endpoint_across_the_scan_seed(
        db, r_min_factor, r_max_factor, message):
    gamma = 10.0 ** (db / 10.0)
    seed = feasibility_scan(gamma)
    region = region_for_snr(gamma)
    assert seed in (region.r_min, region.r_max)
    with pytest.raises(OracleMismatchError) as err:
        certify(gamma, region.r_min * r_min_factor, region.r_max * r_max_factor)
    assert str(err.value) == message


def test_just_above_the_threshold_the_certified_region_is_the_seed_alone():
    # At 10.1334 dB the tangent surrogate around the scan seed admits only
    # the seed, so both solver runs stop after one iterate: a one-point
    # region that passes the certificate, within the bound of the oracle's.
    gamma = 10.0 ** (10.1334 / 10.0)
    assert gamma == 10.31193103870687
    seed = feasibility_scan(gamma)
    assert seed == 7.193325771080542
    for objective in ("min", "max"):
        r, trace = sca_solve(gamma, objective, seed)
        assert (r, trace.iterates, trace.converged) == (seed, [seed, seed], True)
    region = region_for_snr(gamma)
    assert (region.r_min, region.r_max) == (seed, seed)
    certify(gamma, region.r_min, region.r_max)
    ref = oracle_region(gamma)
    assert (ref.r_min, ref.r_max) == (7.192712288096711, 7.1981037914385375)
    assert abs(region.r_min - ref.r_min) <= SOLVER_REL_BOUND * ref.r_min
    assert abs(region.r_max - ref.r_max) <= SOLVER_REL_BOUND * ref.r_max
    # so the map prints a certified non-empty row of width 0.0 dB
    cfg = ExperimentConfig(snr_db_min=10.1334, snr_db_max=10.1334)
    (row,) = run_region_map(cfg).rows
    assert row[1:] == (gamma, "nonempty", seed, seed, row[5], row[5], 0.0)


def test_solver_endpoints_lie_within_the_bound_of_the_oracles_and_are_certified():
    # the independent bisection route, at seeded SNRs across the range
    for gamma in seeded_gammas(17, 50):
        found, ref = region_for_snr(gamma), oracle_region(gamma)
        assert abs(found.r_min - ref.r_min) <= SOLVER_REL_BOUND * ref.r_min, gamma
        assert abs(found.r_max - ref.r_max) <= SOLVER_REL_BOUND * ref.r_max, gamma
