"""Pair sum-rates in reduced (gamma, r) form and the NOMA-minus-TDMA gap.

Everything the pairing decision needs is two scalars: the weak user's linear
SNR gamma and the squared channel-gain ratio r = h_strong^2 / h_weak^2 >= 1.
Rates use the capacity lower bound log2(1 + t * SNR) with t = e/(2*pi), and
the power split between paired users follows the gain-inverse fractional rule
with unit exponent.
"""

import math
from dataclasses import dataclass

CAPACITY_SNR_FACTOR = math.e / (2.0 * math.pi)  # t in log2(1 + t * SNR)

_LN2 = math.log(2.0)
_T = CAPACITY_SNR_FACTOR

# The pairing floors, tested on floats (tests/test_rates.py), not proved.
# GAMMA_FLOOR: a weak user below 10 dB never pairs, and has no region. The
# exact gap first turns non-negative at gamma* = 10.3119 (10.13 dB), and
# noma_wins is False below the floor down to gamma = 1e-7; below about
# 1.6e-8 its four arguments all round to 1.0, so it would read that tie as
# a win.
GAMMA_FLOOR = 10.0
# R_FLOOR: noma_wins is False for r < 3 wherever gamma >= GAMMA_FLOOR (the
# smallest r_min over 10.14-480 dB is 3.048 at 118 dB, near its asymptote
# 3.0479512). Users are sorted, so r never rises as a weak user's partner
# index falls, and both greedies stop its search at the first unpaired
# partner with r < R_FLOOR.
R_FLOOR = 3.0


def squared_ratio(strong_gain: float, weak_gain: float) -> float:
    """r = ratio * ratio with ratio = strong_gain / weak_gain, correctly rounded
    (libm's pow need not be), and inf past a ratio of about 1.34e154."""
    ratio = strong_gain / weak_gain
    return ratio * ratio


@dataclass(frozen=True)
class PairState:
    """Weak-user SNR and squared gain ratio of a canonicalized pair."""

    gamma: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if not 1.0 <= self.r < math.inf:
            raise ValueError("r must be finite and >= 1 (pair is sorted weak/strong)")


@dataclass(frozen=True)
class QuarticCoefficients:
    """Coefficients of the quartic numerator of the gap derivative in
    fractional form, ordered from r^4 down to the constant term.

    For gamma > 0 the signs are (-, -, -, +, +), which is what forces the
    derivative to cross zero exactly once on r >= 0. The displayed
    coefficient formulas do not reproduce the finite-difference-verified
    derivative exactly (see rate_gap_derivative); only the sign pattern is
    load-bearing.
    """

    f1: float
    f2: float
    f3: float
    f4: float
    f5: float


def noma_user_rates(gamma: float, r: float) -> tuple[float, float]:
    """Unit-slot (weak, strong) rates when both users share the slot.

    The weak user decodes under the strong user's interference,
    log2(1 + t*r*g/(r+g+1)); the strong user cancels the weak signal first,
    log2(1 + t*r*g/(r+1)).
    """
    x = _T * r * gamma
    return math.log2(1.0 + x / (r + gamma + 1.0)), math.log2(1.0 + x / (r + 1.0))


def noma_rate_at(gamma: float, r: float) -> float:
    """Unit-slot pair sum-rate when both users share the slot (bits/s/Hz):
    the sum of noma_user_rates."""
    weak, strong = noma_user_rates(gamma, r)
    return weak + strong


def tdma_rate_at(gamma: float, r: float) -> float:
    """Unit-slot pair sum-rate when the slot is split evenly (bits/s/Hz)."""
    return 0.5 * (math.log2(1.0 + _T * gamma) + math.log2(1.0 + _T * r * gamma))


def tdma_rate_slope(gamma: float, r: float) -> float:
    """d/dr of tdma_rate_at: 0.5 * t * gamma / (ln2 * (1 + t*gamma*r))."""
    return 0.5 * _T * gamma / (_LN2 * (1.0 + _T * gamma * r))


def rate_gap_at(gamma: float, r: float) -> float:
    """NOMA minus TDMA unit-slot sum-rate; positive means pair the users."""
    return noma_rate_at(gamma, r) - tdma_rate_at(gamma, r)


def noma_wins(gamma, r):
    """Whether rate_gap_at(gamma, r) >= 0, by + - * / alone, so Python floats
    and numpy arrays give the same bits.

    The gap is 0.5*log2((A*B)**2 / (C*D)) with the arguments of its four
    log2 calls, x = t*r*gamma, A = 1 + x/(r+gamma+1), B = 1 + x/(r+1),
    C = 1 + t*gamma and D = 1 + x, so it is >= 0 exactly when
    A/C*B >= D/B/A. Each side carries at most about 16 roundings (u = 2**-53),
    so the test matches the exact one wherever |(A*B)**2/(C*D) - 1| exceeds
    about 32u. In this order no step overflows while x is finite (A and B
    are below C); an r of inf makes A NaN, so it never wins, as the gap
    tends to -inf as r grows.
    """
    x = _T * r * gamma
    a = 1.0 + x / (r + gamma + 1.0)
    b = 1.0 + x / (r + 1.0)
    return a / (1.0 + _T * gamma) * b >= (1.0 + x) / b / a


def rate_gap_curve(gamma: float, r_values):
    """Vectorized rate_gap_at over an array of ratios (any r > 0), as a numpy
    array. numpy's log2 can differ from math's in the last bit, so no
    published value comes from this curve; it serves diagnostics and tests.
    """
    import numpy as np

    r = np.asarray(r_values, dtype=float)
    x = _T * r * gamma
    p = np.log2(1.0 + x / (r + gamma + 1.0)) + np.log2(1.0 + x / (r + 1.0))
    q = 0.5 * (np.log2(1.0 + _T * gamma) + np.log2(1.0 + x))
    return p - q


def rate_gap_derivative(state: PairState) -> float:
    """Analytic d/dr of the gap, derived term by term:

        f'(r) = (t*g/ln2) * [ 1/((1+r+t*g*r)(1+r))
                              + (1+g)/((1+r+g+t*g*r)(1+r+g))
                              - 0.5/(1+t*g*r) ]

    Agrees with central finite differences of rate_gap_at to better than 1e-6
    relative error; see rate_gap_derivative_variant for the superseded form.
    """
    return _gap_derivative(state, 1.0 + state.gamma)


def rate_gap_derivative_variant(state: PairState) -> float:
    """Superseded closed form whose middle numerator carries (1 + t*g)
    instead of (1 + g). Finite differences contradict it; kept only so the
    discrepancy stays measurable in diagnostics.
    """
    return _gap_derivative(state, 1.0 + _T * state.gamma)


def _gap_derivative(state: PairState, middle: float) -> float:
    """rate_gap_derivative's form with the given middle numerator."""
    g, r = state.gamma, state.r
    tg = _T * g
    a = 1.0 / ((1.0 + r + tg * r) * (1.0 + r))
    b = middle / ((1.0 + r + g + tg * r) * (1.0 + r + g))
    c = 0.5 / (1.0 + tg * r)
    return tg * (a + b - c) / _LN2


def quartic_coefficients(gamma: float) -> QuarticCoefficients:
    """Closed-form coefficients of the quartic numerator u(r) of the gap
    derivative, as functions of the weak-user SNR."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    g = gamma
    t = _T
    f1 = -0.5 * (t * g + 1.0) ** 2
    f2 = (t * g + 1.0) * ((t * t - 0.5 * t) * g * g + (t - 1.0) * g - 2.0)
    f3 = (
        (t**3 + 0.5 * t * t - 0.5 * t) * g**3
        + (4.5 * t * t - t - 0.5) * g * g
        + (4.0 * t - 3.0) * g
        - 1.0
    )
    f4 = 0.5 * t * g**3 + (2.0 * t * t + 1.5 * t - 1.0) * g * g + (5.0 * t - 1.0) * g + 2.0
    f5 = 0.5 * (g + 1.0) ** 2 + t * g
    return QuarticCoefficients(f1, f2, f3, f4, f5)
