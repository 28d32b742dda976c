"""NOMA-beneficial ratio interval [r_min, r_max] for a given weak-user SNR.

Two independent routes compute the interval: an iterative solver that
linearizes the concave TDMA side and shrinks/grows a surrogate feasible set
(an inner approximation, so every iterate stays inside the true region), and
a brute-force bisection oracle licensed by the gap's unimodality. The solver
is the production path; the oracle exists to cross-check it.
"""

import csv
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .rates import (
    CAPACITY_SNR_FACTOR,
    noma_rate_at,
    rate_gap_at,
    rate_gap_curve,
    tdma_rate_at,
    tdma_rate_slope,
)

# Abort geometric bracket growth beyond EXPANSION_GUARD * max(1, gamma^2):
# r_max grows as about 0.19 * gamma^2.
EXPANSION_GUARD = 1e30

# Solver stopping rule: consecutive iterates closer than TOLERANCE * max(1, r),
# relative so it stays meaningful when r_max spans many decades.
TOLERANCE = 1e-9
MAX_ITERATIONS = 60
SCAN_POINTS = 256             # log-spaced feasibility grid over SCAN_RANGE
SCAN_RANGE = (1.0, 1e12)
ORACLE_REL_WIDTH = 1e-8       # bracket width at which the oracle's bisection stops
CACHE_BUCKET = 1e-3           # RegionCache key width in log(gamma)


class RegionSolverError(RuntimeError):
    """Solver failed structurally (bracket overflow, exhausted iterations)."""


class InfeasibleSeedError(RegionSolverError):
    """The starting ratio does not satisfy the gap constraint."""


class OracleMismatchError(RegionSolverError):
    """Solver endpoints disagree with the oracle, or a gap-sign pair with them."""


@dataclass(frozen=True)
class NomaRegion:
    """Interval of squared gain ratios where pairing beats time-splitting.

    Empty regions are a first-class outcome (never pair at this SNR), not an
    error; they carry no endpoints.
    """

    gamma: float
    r_min: float | None = None
    r_max: float | None = None

    def __post_init__(self):
        if (self.r_min is None) != (self.r_max is None):
            raise ValueError("endpoints must both be present or both absent")
        if self.r_min is not None and not 1.0 <= self.r_min <= self.r_max:
            raise ValueError("need 1 <= r_min <= r_max")

    @classmethod
    def empty(cls, gamma: float) -> "NomaRegion":
        return cls(gamma=gamma)

    @property
    def is_empty(self) -> bool:
        return self.r_min is None

    @property
    def status(self) -> str:
        return "empty" if self.is_empty else "nonempty"

    def contains(self, r: float) -> bool:
        return not self.is_empty and self.r_min <= r <= self.r_max

    def width_db(self) -> float:
        """Interval width 10*log10(r_max/r_min); 0 for an empty region."""
        if self.is_empty:
            return 0.0
        return 10.0 * math.log10(self.r_max / self.r_min)


@dataclass
class ScaTrace:
    """Iterate history of one solver run."""

    gamma: float
    objective: str                      # "min" or "max"
    iterates: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return max(0, len(self.iterates) - 1)


_X_LIMIT = sys.float_info.max / 4.0  # bound on t*r*gamma, so every rate formula stays finite


def _ratio_ceiling(gamma: float) -> float:
    """Largest ratio a search may evaluate at this SNR: the bracket guard,
    EXPANSION_GUARD * max(1, gamma^2), capped where t*r*gamma would pass
    _X_LIMIT."""
    if gamma <= 1.0:
        return EXPANSION_GUARD
    return min(EXPANSION_GUARD * gamma * gamma, _X_LIMIT / (CAPACITY_SNR_FACTOR * gamma))


_SCAN_GRID = np.logspace(math.log10(SCAN_RANGE[0]), math.log10(SCAN_RANGE[1]), SCAN_POINTS)
_SCAN_GRID.flags.writeable = False


def feasibility_scan(gamma: float) -> float | None:
    """Best (largest-gap) ratio on a log-spaced grid, or None if the gap is
    nowhere positive at scan resolution."""
    if SCAN_RANGE[1] > _ratio_ceiling(gamma):
        raise RegionSolverError(f"t*r*gamma overflows the scan grid at gamma={gamma:g}")
    gaps = rate_gap_curve(gamma, _SCAN_GRID)
    best = int(np.argmax(gaps))
    if gaps[best] <= 0.0:
        return None
    return float(_SCAN_GRID[best])


def _log_bisect(fn, lo: float, hi: float, lo_feasible: bool, rel_width: float) -> float:
    """Root of fn >= 0 inside [lo, hi], where exactly one end is feasible.

    Log-space bisection; returns the feasible-side bracket end so the result
    always lies inside the feasible set.
    """
    while hi - lo > rel_width * hi:
        mid = math.sqrt(lo * hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        if (fn(mid) >= 0.0) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def oracle_region(gamma: float) -> NomaRegion:
    """Brute-force region: grid seed plus bisection toward both endpoints.

    Valid because the gap has a single interior maximum, so each side of the
    seed crosses zero at most once.
    """
    seed = feasibility_scan(gamma)
    if seed is None:
        return NomaRegion.empty(gamma)

    gap = partial(rate_gap_at, gamma)
    floor = max(1.0, SCAN_RANGE[0])
    if gap(floor) >= 0.0:
        r_min = floor  # region reaches the canonical lower bound r = 1
    else:
        r_min = _log_bisect(gap, floor, seed, False, ORACLE_REL_WIDTH)

    hi = max(seed * 2.0, SCAN_RANGE[1])
    ceiling = _ratio_ceiling(gamma)
    while hi <= ceiling and gap(hi) >= 0.0:
        hi *= 4.0
    if hi > ceiling:
        raise RegionSolverError(f"upper bracket exceeded {ceiling:g} at gamma={gamma:g}")
    r_max = _log_bisect(gap, seed, hi, gap(seed) >= 0.0, ORACLE_REL_WIDTH)
    return NomaRegion(gamma, r_min, r_max)


def sca_solve(gamma: float, objective: str, seed: float) -> tuple[float, ScaTrace]:
    """Push a feasible ratio to the region boundary in the requested direction.

    Each iteration replaces the concave TDMA side q by its tangent at the
    current iterate. The tangent over-estimates q, so the surrogate set
    {p - q_tangent >= 0} sits inside the true region and every iterate stays
    feasible; the surrogate is one-dimensional with a concave constraint, so
    its extreme point is found by root bisection from the iterate outward.
    Stops when consecutive iterates differ by less than
    TOLERANCE * max(1, r).
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")

    gap_seed = rate_gap_at(gamma, seed)
    if gap_seed < 0.0:
        raise InfeasibleSeedError(
            f"seed r={seed:g} has gap {gap_seed:.3e} < 0 at gamma={gamma:g}"
        )

    trace = ScaTrace(gamma=gamma, objective=objective)
    trace.iterates.append(seed)
    trace.gaps.append(gap_seed)

    # Root precision tracks the outer progress: iterates home in
    # quadratically, so early surrogate roots need little accuracy.
    inner_floor = max(TOLERANCE * 1e-4, 1e-13)
    inner_width = 1e-3
    ceiling = _ratio_ceiling(gamma)
    r = seed
    for _ in range(MAX_ITERATIONS):
        q_r = tdma_rate_at(gamma, r)
        q_slope = tdma_rate_slope(gamma, r)
        anchor = r

        def surrogate(x: float) -> float:
            return noma_rate_at(gamma, x) - (q_r + q_slope * (x - anchor))

        if objective == "min":
            if surrogate(1.0) >= 0.0:
                nxt = 1.0  # surrogate set reaches the canonical bound
            else:
                nxt = _log_bisect(surrogate, 1.0, r, False, inner_width)
        else:
            hi = r * 2.0
            while hi <= ceiling and surrogate(hi) >= 0.0:
                hi *= 2.0
            if hi > ceiling:
                raise RegionSolverError(
                    f"surrogate bracket exceeded {ceiling:g} at gamma={gamma:g}")
            nxt = _log_bisect(surrogate, r, hi, True, inner_width)

        trace.iterates.append(nxt)
        trace.gaps.append(rate_gap_at(gamma, nxt))
        step = abs(nxt - r)
        r = nxt
        if step < TOLERANCE * max(1.0, abs(r)):
            trace.converged = True
            break
        rel_step = step / max(1.0, abs(r))
        inner_width = min(1e-3, max(inner_floor, 0.01 * rel_step))
    return r, trace


def region_for_snr(gamma: float, validate: bool = False) -> NomaRegion:
    """Full region computation: feasibility scan, then one solver run toward
    each endpoint from the scan's best point; optional oracle cross-check."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")

    seed = feasibility_scan(gamma)
    if seed is None:
        return NomaRegion.empty(gamma)

    ends = []
    for objective in ("min", "max"):
        r, trace = sca_solve(gamma, objective, seed)
        if not trace.converged:
            raise RegionSolverError(
                f"r_{objective} solve did not converge at gamma={gamma:g}"
            )
        ends.append(r)
    found = NomaRegion(gamma, *ends)

    if validate:
        ref = oracle_region(gamma)
        if ref.is_empty:
            raise OracleMismatchError(f"oracle found no region at gamma={gamma:g}")
        err_min = abs(found.r_min - ref.r_min) / ref.r_min
        err_max = abs(found.r_max - ref.r_max) / ref.r_max
        if max(err_min, err_max) > 1e-3:
            raise OracleMismatchError(
                f"solver/oracle mismatch at gamma={gamma:g}: "
                f"r_min {found.r_min:g} vs {ref.r_min:g}, "
                f"r_max {found.r_max:g} vs {ref.r_max:g}"
            )
    return found


def write_trace_csv(trace: ScaTrace, path: str) -> None:
    """Dump one solver run as CSV with columns (iter, r, gap)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "r", "gap"])
        for i, (r, gap) in enumerate(zip(trace.iterates, trace.gaps)):
            writer.writerow([i, repr(r), repr(gap)])


class RegionCache:
    """Memoizes solver regions per SNR bucket (1e-3 relative in log space).

    A miss runs region_for_snr at the SNR that missed, so every cached
    region equals a fresh region_for_snr call at that SNR; with validate on,
    each miss is also cross-checked against the oracle.

    A bucket serves the region of the first SNR that filled it, so a test
    on a cached region depends on the lookup order near the region's ends.
    Lookups from threads may race but at worst recompute the same value.
    pair_once gates on a cache; the sweeps use one only to cross-check.
    """

    def __init__(self, validate: bool = False):
        self.validate = validate
        self._regions: dict[int, NomaRegion] = {}

    def __len__(self) -> int:
        return len(self._regions)

    def region_of(self, gamma: float) -> NomaRegion:
        key = round(math.log(gamma) / CACHE_BUCKET)
        hit = self._regions.get(key)
        if hit is None:
            hit = region_for_snr(gamma, self.validate)
            self._regions[key] = hit
        return hit
