"""NOMA-beneficial ratio interval [r_min, r_max] for a given weak-user SNR.

Two independent routes compute the interval: an iterative solver that
linearizes the concave TDMA side and shrinks/grows a surrogate feasible set
(an inner approximation, so every iterate stays inside the true region), and
a brute-force bisection oracle licensed by the gap's unimodality. The solver
is the production path; the oracle exists to cross-check it.

Both run as fused kernels: each bisection step and bracket test evaluates
rates' formulas (noma_rate_at, tdma_rate_at, tdma_rate_slope, rate_gap_at)
inline, in rates' operation order, with only left-prefix subexpressions such
as t*gamma in t*gamma*r hoisted per SNR. Every value is therefore the one
the rates functions give; tests/test_bit_identity.py pins the kernels == to
that generic route.
"""

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .rates import _LN2, CAPACITY_SNR_FACTOR, rate_gap_at, rate_gap_curve

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


_T = CAPACITY_SNR_FACTOR
_X_LIMIT = sys.float_info.max / 4.0  # bound on t*r*gamma, so every rate formula stays finite


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be finite and positive")


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
    nowhere positive at scan resolution. A gamma that is not finite and
    positive raises ValueError."""
    _check_gamma(gamma)
    if SCAN_RANGE[1] > _ratio_ceiling(gamma):
        raise RegionSolverError(f"t*r*gamma overflows the scan grid at gamma={gamma:g}")
    gaps = rate_gap_curve(gamma, _SCAN_GRID)
    best = int(np.argmax(gaps))
    if gaps[best] <= 0.0:
        return None
    return float(_SCAN_GRID[best])


# The two bisections below are log-space root searches inside [lo, hi],
# where exactly one end is feasible; each returns the feasible-side bracket
# end, so the result always lies inside the feasible set.

def _surrogate_root(gamma: float, q_r: float, q_slope: float, anchor: float,
                    lo: float, hi: float, lo_feasible: bool, rel_width: float) -> float:
    """Root of sca_solve's surrogate
    noma_rate_at(gamma, x) - (q_r + q_slope * (x - anchor)) >= 0."""
    log2, sqrt, t = math.log2, math.sqrt, _T
    while hi - lo > rel_width * hi:
        mid = sqrt(lo * hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        x = t * mid * gamma
        if (log2(1.0 + x / (mid + gamma + 1.0)) + log2(1.0 + x / (mid + 1.0))
                - (q_r + q_slope * (mid - anchor)) >= 0.0) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def _gap_root(gamma: float, lo: float, hi: float, lo_feasible: bool, rel_width: float) -> float:
    """Root of rate_gap_at(gamma, x) >= 0."""
    log2, sqrt, t = math.log2, math.sqrt, _T
    log_1tg = log2(1.0 + t * gamma)
    while hi - lo > rel_width * hi:
        mid = sqrt(lo * hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        x = t * mid * gamma
        if (log2(1.0 + x / (mid + gamma + 1.0)) + log2(1.0 + x / (mid + 1.0))
                - 0.5 * (log_1tg + log2(1.0 + x)) >= 0.0) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def oracle_region(gamma: float) -> NomaRegion:
    """Brute-force region: grid seed plus bisection toward both endpoints.

    Valid because the gap has a single interior maximum, so each side of the
    seed crosses zero at most once.
    """
    return _oracle_region(gamma, feasibility_scan(gamma))


def _oracle_region(gamma: float, seed: float | None) -> NomaRegion:
    """oracle_region from the feasibility_scan(gamma) seed."""
    if seed is None:
        return NomaRegion.empty(gamma)

    floor = max(1.0, SCAN_RANGE[0])
    if rate_gap_at(gamma, floor) >= 0.0:
        r_min = floor  # region reaches the canonical lower bound r = 1
    else:
        r_min = _gap_root(gamma, floor, seed, False, ORACLE_REL_WIDTH)

    log2, t = math.log2, _T
    log_1tg = log2(1.0 + t * gamma)
    hi = max(seed * 2.0, SCAN_RANGE[1])
    ceiling = _ratio_ceiling(gamma)
    while hi <= ceiling:
        x = t * hi * gamma
        if not (log2(1.0 + x / (hi + gamma + 1.0)) + log2(1.0 + x / (hi + 1.0))
                - 0.5 * (log_1tg + log2(1.0 + x)) >= 0.0):
            break
        hi *= 4.0
    if hi > ceiling:
        raise RegionSolverError(f"upper bracket exceeded {ceiling:g} at gamma={gamma:g}")
    r_max = _gap_root(gamma, seed, hi, rate_gap_at(gamma, seed) >= 0.0, ORACLE_REL_WIDTH)
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
    _check_gamma(gamma)
    if not math.isfinite(seed):
        raise ValueError("seed must be finite")

    log2, t = math.log2, _T
    tg = t * gamma
    half_tg = 0.5 * t * gamma
    log_1tg = log2(1.0 + tg)
    # q is tdma_rate_at(gamma, r) at the current iterate r: the tangent's
    # value, and the TDMA side of the iterate's gap.
    x = t * seed * gamma
    q = 0.5 * (log_1tg + log2(1.0 + x))
    gap_seed = log2(1.0 + x / (seed + gamma + 1.0)) + log2(1.0 + x / (seed + 1.0)) - q
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
        q_slope = half_tg / (_LN2 * (1.0 + tg * r))  # tdma_rate_slope(gamma, r)
        if objective == "min":
            # the surrogate at x = 1, where t*x*gamma is tg
            if (log2(1.0 + tg / (1.0 + gamma + 1.0)) + log2(1.0 + tg / 2.0)
                    - (q + q_slope * (1.0 - r)) >= 0.0):
                nxt = 1.0  # surrogate set reaches the canonical bound
            else:
                nxt = _surrogate_root(gamma, q, q_slope, r, 1.0, r, False, inner_width)
        else:
            hi = r * 2.0
            while hi <= ceiling:
                x = t * hi * gamma
                if not (log2(1.0 + x / (hi + gamma + 1.0)) + log2(1.0 + x / (hi + 1.0))
                        - (q + q_slope * (hi - r)) >= 0.0):
                    break
                hi *= 2.0
            if hi > ceiling:
                raise RegionSolverError(
                    f"surrogate bracket exceeded {ceiling:g} at gamma={gamma:g}")
            nxt = _surrogate_root(gamma, q, q_slope, r, r, hi, True, inner_width)

        x = t * nxt * gamma
        q = 0.5 * (log_1tg + log2(1.0 + x))
        trace.iterates.append(nxt)
        trace.gaps.append(log2(1.0 + x / (nxt + gamma + 1.0)) + log2(1.0 + x / (nxt + 1.0)) - q)
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
    each endpoint from the scan's best point; optional oracle cross-check
    from the same scan. A gamma that is not finite and positive raises
    ValueError."""
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
        ref = _oracle_region(gamma, seed)
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
