"""NOMA-beneficial ratio interval [r_min, r_max] for a given weak-user SNR.

Two independent routes compute the interval: an iterative solver that
linearizes the concave TDMA side and shrinks/grows a surrogate feasible set
(an inner approximation, so every iterate stays inside the true region), and
a brute-force bisection oracle licensed by the gap's unimodality. The
solver, the paper's method, serves only the region map (region_for_snr and
RegionCache); the oracle is the reference the tests compare it with, and
the region pair_once's check reads. The oracle bisects the exact gap sign,
rates.noma_wins, in + - * / alone: the same predicate that forms every
pair, so past the scan it takes no log2. The same unimodality lets two
exact gap-sign tests prove an endpoint of either route within
SOLVER_REL_BOUND of the gap's sign change, with no second bisection:
every oracle region is certified so, and a solver region when
region_for_snr is asked to validate it.

Both routes run as fused kernels: each bisection step and bracket test
evaluates rates' formulas (noma_rate_at, tdma_rate_at, tdma_rate_slope,
rate_gap_at, and for the oracle noma_wins) inline, in rates' operation
order, with only left-prefix subexpressions such as t*gamma in t*gamma*r,
or noma_wins' 1 + t*gamma, hoisted per SNR, and the r_min run's NOMA side
at r = 1 hoisted per run. Every value is therefore the one the rates
functions give. The surrogate-root bisection branches once on which
bracket end is feasible and runs one loop per direction, and a solver step
compares the NOMA side with the TDMA tangent as p >= c where the generic
route tests p - c >= 0.0: for finite floats a rounded difference is zero
only when its operands are equal, and rounding never flips its sign, so
every step takes the same branch. tests/test_bit_identity.py pins both kernels == to that
generic route, down to brackets of adjacent floats, and the oracle == to a
bisection of rates.rate_gap_at's float sign. The oracle's bisection,
_log_bisect, shares no code with the solver it checks; its bracket growth
and certificates call noma_wins itself.

The feasibility scan that seeds both routes is scalar too: a bisection on
the sign of the gap's forward difference over a frozen 256-point grid, and
near the threshold a golden-section refine between grid points, with
math.log2 in rates' operation order. So the module needs no numpy, and its
results do not depend on which of numpy's SIMD loops a CPU gets.
"""

import math
from dataclasses import dataclass, field

from .rates import _LN2, CAPACITY_SNR_FACTOR, GAMMA_FLOOR, noma_wins

# The solver's range: weak-user SNRs up to 480 dB. Inside it every bracket
# stops within 4 * r_max (r_max grows as about 0.19 * gamma^2), so t*r*gamma
# stays below about 3.3e143, far inside the float range.
SNR_DB_MAX = 480.0
GAMMA_MAX = 10.0 ** (SNR_DB_MAX / 10.0)

# Solver stopping rule: consecutive iterates closer than TOLERANCE * max(1, r),
# relative so it stays meaningful when r_max spans many decades.
TOLERANCE = 1e-9
MAX_ITERATIONS = 60
SCAN_POINTS = 256             # log-spaced feasibility grid over SCAN_RANGE
SCAN_RANGE = (1.0, 1e12)
ORACLE_REL_WIDTH = 1e-8       # bracket width at which the oracle's bisection stops
# Largest relative error a validated solver endpoint may have against the
# true one, the gap's sign change. The solver's endpoints lie inside the true
# ones, so a ratio in the true region may lie outside [r_min, r_max], but by
# no more than this.
SOLVER_REL_BOUND = 1e-3
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step of the scan's refine
_REFINE_WIDTH = 1e-12         # ln r bracket width at which the scan's refine stops


class RegionSolverError(RuntimeError):
    """Solver failed: an infeasible seed, exhausted iterations or a failed certificate."""


class InfeasibleSeedError(RegionSolverError):
    """The starting ratio does not satisfy the gap constraint."""


class OracleMismatchError(RegionSolverError):
    """A region endpoint fails its certificate, or a gap-sign pair falls
    outside the region that checks it."""


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

    def admits(self, r: float) -> bool:
        """Whether r lies in [r_min, r_max] widened at each end by
        SOLVER_REL_BOUND of that end: the ratios a true region can hold
        when this one is a validated solver region. pair_once's check
        passes oracle regions, bisected on the noma_wins sign that forms
        each pair, whose endpoints may lie up to ORACLE_REL_WIDTH inside that
        sign's change, so a pair nearer to it than that can fall just
        outside one unwidened; solver regions reach it through perfbench's
        traced replay."""
        return (not self.is_empty
                and self.r_min * (1.0 - SOLVER_REL_BOUND) <= r
                <= self.r_max * (1.0 + SOLVER_REL_BOUND))

    def width_db(self) -> float:
        """Interval width 10*log10(r_max/r_min); 0 for an empty region."""
        if self.is_empty:
            return 0.0
        return 10.0 * math.log10(self.r_max / self.r_min)


@dataclass
class ScaTrace:
    """Iterate history of one solver run."""

    iterates: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return max(0, len(self.iterates) - 1)


_T = CAPACITY_SNR_FACTOR


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= GAMMA_MAX:
        raise ValueError(
            f"gamma must be finite and positive, and at most 1e48 (480 dB), not {gamma!r}")


# np.logspace(0, 12, SCAN_POINTS) as recorded on x86-64 with numpy 2.4:
# each value is within one ulp of 10.0 ** (i * (12 / 255)), but 11 of them
# differ from libm's pow in the last bit, and 10 of those seed a region
# somewhere in -10..480 dB. Frozen, the scan seeds and hence the published
# bytes stay the same on any host; tests/test_region.py pins the values.
_SCAN_GRID = (
    1.0, 1.114445470753563, 1.2419887072831304, 1.3841286895587572, 1.5425359490188215,
    1.7190722018585745, 1.915812229259643, 2.1350682617126955, 2.379417154015396,
    2.651730670325791, 2.955209235202887, 3.2934195473009575, 3.670336497780802,
    4.09038988609331, 4.5585164821728705, 5.0802180469130205, 5.661625992822727,
    6.309573444801933, 7.0316755479464685, 7.836418966217519, 8.733261623828433,
    9.732743861581504, 10.846612314544045, 12.087957966963433, 13.471370006941845,
    15.013107289081734, 16.73128942025444, 18.64610971426956, 20.780072518241727,
    23.15825769988508, 25.808615404180742, 28.762294543609865, 32.054008882605935,
    35.72244501871466, 39.810717055349734, 44.366873309786115, 49.444461011588274,
    55.10315562821569, 61.40946221409365, 68.43749702590874, 76.26985859023443,
    84.9985984609015, 94.72630307515246, 105.56729942333291, 117.64899870201853,
    131.11339374215643, 146.1187278110747, 162.841354401325, 181.47780986393232,
    202.24712324513558, 225.39339047347912, 251.18864315095797, 279.93604566431827,
    311.9734581912619, 347.67740747657774, 387.4675120456132, 431.81141386338504,
    481.2302743997416, 536.3048996942865, 597.6825664072413, 666.0846290809154,
    742.3149980177936, 827.2695874133698, 921.9468447849993, 1027.45948544618,
    1145.0475699382812, 1276.0930781150919, 1422.136151165336, 1584.893192461114,
    1766.2770399664428, 1968.4194472866113, 2193.696137571797, 2444.754724726473,
    2724.5458300747905, 3036.3577601873585, 3383.8551534282333, 3771.1220494241957,
    4202.709887639691, 4683.690999171267, 5219.718220435652, 5817.091329374358,
    6482.831084981072, 7224.761740317567, 8051.602998770539, 8973.072494285638, 10000.0,
    11144.454707535624, 12419.887072831294, 13841.286895587557, 15425.359490188222,
    17190.722018585744, 19158.122292596425, 21350.682617126942, 23794.171540153937,
    26517.306703257927, 29552.092352028878, 32934.195473009575, 36703.36497780801,
    40903.89886093306, 45585.164821728744, 50802.180469130224, 56616.25992822727,
    63095.7344480193, 70316.75547946464, 78364.18966217527, 87332.61623828438,
    97327.43861581504, 108466.12314544045, 120879.57966963426, 134713.70006941832,
    150131.07289081742, 167312.8942025444, 186461.09714269562, 207800.72518241717,
    231582.57699885056, 258086.15404180766, 287622.9454360988, 320540.0888260593,
    357224.45018714643, 398107.1705534969, 443668.73309786065, 494444.610115883,
    551031.5562821568, 614094.6221409366, 684374.970259087, 762698.5859023436,
    849985.9846090154, 947263.0307515245, 1055672.994233329, 1176489.9870201852,
    1311133.937421563, 1461187.2781107486, 1628413.54401325, 1814778.0986393234,
    2022471.2324513558, 2253933.904734789, 2511886.4315095823, 2799360.4566431823,
    3119734.581912619, 3476774.074765777, 3874675.1204561284, 4318114.138633846,
    4812302.74399742, 5363048.996942866, 5976825.664072413, 6660846.2908091545,
    7423149.980177929, 8272695.874133706, 9219468.447849993, 10274594.8544618,
    11450475.699382812, 12760930.781150905, 14221361.511653347, 15848931.924611142,
    17662770.399664428, 19684194.472866114, 21936961.37571795, 24447547.247264706,
    27245458.30074793, 30363577.601873584, 33838551.534282334, 37711220.49424196,
    42027098.87639687, 46836909.99171273, 52197182.20435652, 58170913.29374358,
    64828310.84981073, 72247617.40317559, 80516029.98770547, 89730724.94285637, 100000000.0,
    111444547.07535625, 124198870.72831295, 138412868.95587558, 154253594.9018819,
    171907220.18585712, 191581222.92596385, 213506826.17126983, 237941715.40153986,
    265173067.03257927, 295520923.52028877, 329341954.73009574, 367033649.77808005,
    409038988.6093306, 455851648.2172865, 508021804.6913012, 566162599.2822716,
    630957344.4801943, 703167554.7946478, 783641896.6217527, 873326162.3828437,
    973274386.1581504, 1084661231.4544046, 1208795796.6963427, 1347137000.694183,
    1501310728.9081712, 1673128942.025441, 1864610971.4269524, 2078007251.8241758,
    2315825769.98851, 2580861540.4180765, 2876229454.3609877, 3205400888.2605934,
    3572244501.8714643, 3981071705.5349693, 4436687330.978606, 4944446101.15882,
    5510315562.821558, 6140946221.409377, 6843749702.590884, 7626985859.023452,
    8499859846.090155, 9472630307.515245, 10556729942.33329, 11764899870.201853,
    13111339374.21563, 14611872781.107456, 16284135440.132465, 18147780986.393196,
    20224712324.5136, 22539339047.347935, 25118864315.09582, 27993604566.431824,
    31197345819.12619, 34767740747.657776, 38746751204.56128, 43181141386.33846,
    48123027439.974106, 53630489969.42855, 59768256640.72401, 66608462908.091675,
    74231499801.77943, 82726958741.33707, 92194684478.49992, 102745948544.61801,
    114504756993.82812, 127609307811.50905, 142213615116.53348, 158489319246.11108,
    176627703996.64392, 196841944728.66074, 219369613757.17993, 244475472472.64755,
    272454583007.4793, 303635776018.73584, 338385515342.8233, 377112204942.41956,
    420270988763.9687, 468369099917.1263, 521971822043.56415, 581709132937.4346,
    648283108498.1086, 722476174031.7574, 805160299877.0547, 897307249428.5637,
    1000000000000.0,
)


def feasibility_scan(gamma: float) -> float | None:
    """Best (largest-gap, first on ties) ratio on a log-spaced grid; where
    that gap is not positive, a ratio between grid points with a positive
    gap, or None if the refine finds none. A gamma that is not finite and
    positive, or that exceeds GAMMA_MAX, raises ValueError. Below
    rates.GAMMA_FLOOR (10 dB, under the 10.13 dB threshold) it returns None
    with no gap evaluated: far below it the float gaps round to ties, and
    the refine would seed a region of width 0.

    The gap is unimodal in r, so its first maximum on the grid is where the
    forward difference first stops rising: a bisection on that sign finds
    it with 16 gap evaluations instead of 256. Each gap is rate_gap_at's
    value, computed inline in its operation order with log2(1 + t*gamma)
    hoisted.
    """
    _check_gamma(gamma)
    if gamma < GAMMA_FLOOR:
        return None
    log2, t, grid = math.log2, _T, _SCAN_GRID
    log_1tg = log2(1.0 + t * gamma)

    def gap(r):
        x = t * r * gamma
        return (log2(1.0 + x / (r + gamma + 1.0)) + log2(1.0 + x / (r + 1.0))
                - 0.5 * (log_1tg + log2(1.0 + x)))

    lo, hi = 0, SCAN_POINTS - 1
    while lo < hi:  # the last step moves an end onto the argmax, keeping its gap
        mid = (lo + hi) // 2
        gap_mid, gap_next = gap(grid[mid]), gap(grid[mid + 1])
        if gap_mid < gap_next:
            lo, best_gap = mid + 1, gap_next
        else:
            hi, best_gap = mid, gap_mid
    best = grid[lo]
    if best_gap > 0.0:
        return best
    # Just above the threshold (10.13 dB) a region can be narrower than the
    # grid step, where the grid maximum falls short of the gap's own by at
    # most 6.4e-5; every empty row of the published maps reads <= -8e-3.
    # So a golden-section search on the unimodal gap in ln r between the
    # argmax's neighbours runs only near the threshold, and returns the
    # first ratio it meets with a positive gap.
    if best_gap <= -1e-3:
        return None
    a = math.log(grid[max(lo - 1, 0)])
    b = math.log(grid[min(lo + 1, SCAN_POINTS - 1)])
    while b - a > _REFINE_WIDTH:
        c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
        r_c, r_d = math.exp(c), math.exp(d)
        gap_c, gap_d = gap(r_c), gap(r_d)
        if gap_c > 0.0:
            return r_c
        if gap_d > 0.0:
            return r_d
        if gap_c < gap_d:
            a = c
        else:
            b = d
    return None


# The two bisections below are log-space root searches inside [lo, hi],
# where exactly one end is feasible; each returns the feasible-side bracket
# end, so the result always lies inside the feasible set.

def _surrogate_root(gamma: float, q_r: float, q_slope: float, anchor: float,
                    lo: float, hi: float, lo_feasible: bool, rel_width: float) -> float:
    """Root of sca_solve's surrogate
    noma_rate_at(gamma, x) - (q_r + q_slope * (x - anchor)) >= 0."""
    log2, sqrt, t = math.log2, math.sqrt, _T
    if lo_feasible:
        while hi - lo > rel_width * hi:
            mid = sqrt(lo * hi)
            if mid <= lo or mid >= hi:  # bracket at float resolution
                break
            x = t * mid * gamma
            if (log2(1.0 + x / (mid + gamma + 1.0)) + log2(1.0 + x / (mid + 1.0))
                    >= q_r + q_slope * (mid - anchor)):
                lo = mid
            else:
                hi = mid
        return lo
    while hi - lo > rel_width * hi:
        mid = sqrt(lo * hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        x = t * mid * gamma
        if (log2(1.0 + x / (mid + gamma + 1.0)) + log2(1.0 + x / (mid + 1.0))
                >= q_r + q_slope * (mid - anchor)):
            hi = mid
        else:
            lo = mid
    return hi


def _log_bisect(gamma: float, lo: float, hi: float, lo_feasible: bool,
                rel_width: float) -> float:
    """Bracket end on the feasible side of the one point in [lo, hi] where
    rates.noma_wins(gamma, r) changes value: noma_wins inline, in its
    operation order, with 1 + t*gamma hoisted."""
    sqrt, t = math.sqrt, _T
    c = 1.0 + t * gamma
    while hi - lo > rel_width * hi:
        mid = sqrt(lo * hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        x = t * mid * gamma
        a = 1.0 + x / (mid + gamma + 1.0)
        b = 1.0 + x / (mid + 1.0)
        if (a / c * b >= (1.0 + x) / b / a) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return lo if lo_feasible else hi


def oracle_region(gamma: float) -> NomaRegion:
    """Brute-force region: grid seed plus bisection of the exact gap sign,
    rates.noma_wins, toward both endpoints (_log_bisect, which evaluates it
    inline), each endpoint then certified from the seed (_certify), r_min
    first, or OracleMismatchError.

    Valid because the gap has a single interior maximum, so each side of the
    seed crosses zero at most once. Past the scan it takes no log2.
    """
    seed = feasibility_scan(gamma)
    if seed is None:
        return NomaRegion.empty(gamma)
    # The gap at r = 1 is negative at every SNR (t < 1), so r_min lies above 1.
    r_min = _log_bisect(gamma, 1.0, seed, False, ORACLE_REL_WIDTH)
    hi = max(seed * 2.0, SCAN_RANGE[1])
    while noma_wins(gamma, hi):
        hi *= 4.0
    r_max = _log_bisect(gamma, seed, hi, True, ORACLE_REL_WIDTH)  # a scan seed has gap > 0
    _certify(gamma, "min", r_min, seed)
    _certify(gamma, "max", r_max, seed)
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
    if not gap_seed >= 0.0:  # a NaN gap, where t*seed*gamma overflows, is infeasible too
        sign = "< 0" if gap_seed < 0.0 else "(t*r*gamma overflows)"
        raise InfeasibleSeedError(
            f"seed r={seed:g} has gap {gap_seed:.3e} {sign} at gamma={gamma:g}")

    trace = ScaTrace()
    trace.iterates.append(seed)
    trace.gaps.append(gap_seed)

    # Root precision tracks the outer progress: iterates home in
    # quadratically, so early surrogate roots need little accuracy.
    inner_floor = max(TOLERANCE * 1e-4, 1e-13)
    inner_width = 1e-3
    if objective == "min":
        # noma_rate_at(gamma, 1), where t*x*gamma is tg: the surrogate's
        # rate side at x = 1, the same in every iteration
        p_1 = log2(1.0 + tg / (1.0 + gamma + 1.0)) + log2(1.0 + tg / 2.0)
    r = seed
    for _ in range(MAX_ITERATIONS):
        q_slope = half_tg / (_LN2 * (1.0 + tg * r))  # tdma_rate_slope(gamma, r)
        if objective == "min":
            if p_1 >= q + q_slope * (1.0 - r):
                nxt = 1.0  # surrogate set reaches the canonical bound
            else:
                nxt = _surrogate_root(gamma, q, q_slope, r, 1.0, r, False, inner_width)
        else:
            hi = r * 2.0
            while True:
                x = t * hi * gamma
                if not (log2(1.0 + x / (hi + gamma + 1.0)) + log2(1.0 + x / (hi + 1.0))
                        - (q + q_slope * (hi - r)) >= 0.0):
                    break
                hi *= 2.0
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


def _certify(gamma: float, objective: str, r: float, seed: float) -> None:
    """Raise OracleMismatchError, naming the endpoint, unless
    r_<objective> = r lies within SOLVER_REL_BOUND of the gap's sign change
    on its side of the scan seed.

    The gap is unimodal in r and positive at the seed s, so it is >= 0
    exactly on the true region around s. With b = SOLVER_REL_BOUND, a ratio
    the gap refuses at r_min/(1+b) puts the true r_min above it, and one it
    takes at r_min/(1-b), or s itself where s <= r_min/(1-b), puts the true
    r_min at or below it; r_max mirrors this. rates.noma_wins decides each
    sign with + - * / alone, the predicate the oracle bisects, so two sign
    tests bound an endpoint of either route with no bisection of their
    own. The endpoint must also lie on its side of s, as solver runs and
    oracle bisections from s never cross it.
    """
    b = SOLVER_REL_BOUND
    if objective == "min":
        inside = r / (1.0 - b)
        certified = (r <= seed and not noma_wins(gamma, r / (1.0 + b))
                     and (seed <= inside or noma_wins(gamma, inside)))
    else:
        inside = r / (1.0 + b)
        certified = (seed <= r and not noma_wins(gamma, r / (1.0 - b))
                     and (seed >= inside or noma_wins(gamma, inside)))
    if not certified:
        raise OracleMismatchError(
            f"r_{objective} {r:g} is not within {b:g} of the gap's sign change "
            f"at gamma={gamma:g} (scan seed {seed:g})")


def _solve(gamma: float, objective: str, seed: float, validate: bool) -> float:
    """r_<objective> by one sca_solve run from the scan seed, to convergence,
    or RegionSolverError; with validate, certified by _certify, or
    OracleMismatchError."""
    r, trace = sca_solve(gamma, objective, seed)
    if not trace.converged:
        raise RegionSolverError(f"r_{objective} solve did not converge at gamma={gamma:g}")
    if validate:
        _certify(gamma, objective, r, seed)
    return r


def region_for_snr(gamma: float, validate: bool = False) -> NomaRegion:
    """The solver region: the scan seed, then r_min and r_max each solved
    from it (_solve), r_min first, so with validate each is certified by two
    gap-sign tests. A gamma that is not finite and positive, or that exceeds
    GAMMA_MAX, raises ValueError."""
    seed = feasibility_scan(gamma)
    if seed is None:
        return NomaRegion.empty(gamma)
    return NomaRegion(gamma, _solve(gamma, "min", seed, validate),
                      _solve(gamma, "max", seed, validate))


class RegionCache:
    """Memoizes solver regions per exact SNR.

    A miss runs region_for_snr at the SNR that missed, so every cached
    region equals a fresh region_for_snr call at the SNR that asks for it.
    Lookups from threads may race but at worst recompute the same value.
    No route of the package uses one: pair_once checks each pair against
    oracle_region, certified, at its weak user's own SNR, and the sweeps
    read no region.
    """

    def __init__(self):
        self._regions: dict[float, NomaRegion] = {}

    def __len__(self) -> int:
        return len(self._regions)

    def region_of(self, gamma: float) -> NomaRegion:
        hit = self._regions.get(gamma)
        if hit is None:
            hit = region_for_snr(gamma)
            self._regions[gamma] = hit
        return hit
