"""Rate-model checks: pair rates, the gap, its derivative, the quartic."""

import dataclasses
import math

import numpy as np
import pytest

from vlc_noma.rates import (
    CAPACITY_SNR_FACTOR,
    PairState,
    noma_rate_at,
    quartic_coefficients,
    rate_gap_at,
    rate_gap_curve,
    rate_gap_derivative,
    rate_gap_derivative_variant,
    squared_ratio,
    tdma_rate_at,
)
from vlc_noma.scheduler import UserChannelSet

# Frozen from direct evaluation of the closed forms with t = e/(2*pi).
NOMA_100_1 = 5.01035002753258
NOMA_100_4 = 6.559181434762474
TDMA_100_1 = 5.468022778172452
TDMA_100_4 = 6.45569534732018
GAP_100_1 = -0.45767275063987256
GAP_100_4 = 0.1034860874422936
QUARTIC_AT_1 = (
    -1.0262114784590435,
    -3.7198458348506627,
    -2.4016214650696224,
    3.402729882984572,
    2.4326279897161327,
)


def test_t_constant_is_exact():
    assert CAPACITY_SNR_FACTOR == math.e / (2.0 * math.pi)


def test_noma_rate_examples():
    assert noma_rate_at(100.0, 1.0) == pytest.approx(NOMA_100_1, rel=1e-12)
    assert noma_rate_at(100.0, 4.0) == pytest.approx(NOMA_100_4, rel=1e-12)


def test_noma_rate_vanishes_at_low_snr():
    assert noma_rate_at(1e-12, 5.0) < 1e-10


def test_tdma_rate_examples():
    assert tdma_rate_at(100.0, 1.0) == pytest.approx(TDMA_100_1, rel=1e-12)
    assert tdma_rate_at(100.0, 4.0) == pytest.approx(TDMA_100_4, rel=1e-12)


def test_tdma_rate_equal_gains_reduces_to_single_log():
    for g in (3.0, 50.0, 1234.0):
        expect = math.log2(1.0 + CAPACITY_SNR_FACTOR * g)
        assert tdma_rate_at(g, 1.0) == pytest.approx(expect, rel=1e-12)


def test_rate_gap_examples():
    assert rate_gap_at(100.0, 1.0) == pytest.approx(GAP_100_1, rel=1e-12)
    assert rate_gap_at(100.0, 4.0) == pytest.approx(GAP_100_4, rel=1e-12)


def test_rate_gap_negative_at_unit_snr():
    for r in (1.0, 1.5, 2.0):
        assert rate_gap_at(1.0, r) < 0.0


def test_rate_gap_limits():
    for g in (10.0, 100.0, 1e4):
        assert rate_gap_at(g, 1e-9) < 0.0       # r -> 0 limit
        assert rate_gap_at(g, 1e8) < -1.0       # unbounded decay at large r


def test_rate_gap_curve_matches_scalar():
    rs = np.logspace(-2, 6, 50)
    curve = rate_gap_curve(123.0, rs)
    for r, v in zip(rs, curve):
        assert v == pytest.approx(rate_gap_at(123.0, float(r)), rel=1e-12, abs=1e-15)


def _pair_state(gains):
    weak, strong = UserChannelSet.from_gains(gains, p_led=1.0, noise_power=1e-14).users
    return PairState(weak.snr, squared_ratio(strong.gain, weak.gain))


@pytest.mark.parametrize("ratio, r", [
    # glibc 2.36's pow gives 28.341043828837496, an ulp above x * x
    (5.323630699892461, 28.341043828837492),
    (1.34e154, 1.7956e308),              # the square still fits a float
    (1.35e154, math.inf),                # it overflows on its own, no exception
])
def test_squared_ratio_multiplies(ratio, r):
    assert squared_ratio(ratio, 1.0) == r


def test_pair_state_from_gains_canonicalizes():
    state = _pair_state([2e-6, 1e-6])
    assert state.gamma == pytest.approx(100.0, rel=1e-12)
    assert state.r == pytest.approx(4.0, rel=1e-12)
    flipped = _pair_state([1e-6, 2e-6])
    assert flipped == state


def test_pair_state_validation():
    with pytest.raises(ValueError):
        PairState(0.0, 2.0)
    with pytest.raises(ValueError):
        PairState(10.0, 0.5)
    for gamma, r in [(math.nan, 2.0), (math.inf, 2.0), (10.0, math.nan), (10.0, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            PairState(gamma, r)


def _central_difference(gamma, r):
    # fourth-order central stencil; plain two-point differences lose too much
    # accuracy in relative terms near the derivative's zero crossing
    h = r * 8e-4
    return (
        rate_gap_at(gamma, r - 2 * h)
        - 8.0 * rate_gap_at(gamma, r - h)
        + 8.0 * rate_gap_at(gamma, r + h)
        - rate_gap_at(gamma, r + 2 * h)
    ) / (12.0 * h)


def test_derivative_matches_stated_slope_at_100_3():
    slope = (rate_gap_at(100.0, 3.001) - rate_gap_at(100.0, 2.999)) / 0.002
    assert rate_gap_derivative(PairState(100.0, 3.0)) == pytest.approx(slope, rel=1e-6)


def test_derivative_matches_central_difference_randomly():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        g = 10.0 ** rng.uniform(-3.0, 6.0)
        r = 10.0 ** rng.uniform(0.0, 6.0)
        analytic = rate_gap_derivative(PairState(g, r))
        numeric = _central_difference(g, r)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric))
        worst = max(worst, rel)
    assert worst <= 1e-6


def test_derivative_sign_structure():
    assert rate_gap_derivative(PairState(100.0, 1.0)) > 0.0
    assert rate_gap_derivative(PairState(100.0, 1e4)) < 0.0


def test_derivative_vanishes_at_gap_maximum():
    # ternary search on the unimodal gap locates its peak independently
    for g in (20.0, 100.0, 3283.0, 1e5):
        lo, hi = 1.0, 1e10
        for _ in range(200):
            m1 = lo * (hi / lo) ** (1.0 / 3.0)
            m2 = lo * (hi / lo) ** (2.0 / 3.0)
            if rate_gap_at(g, m1) < rate_gap_at(g, m2):
                lo = m1
            else:
                hi = m2
        peak = math.sqrt(lo * hi)
        scale = abs(rate_gap_derivative(PairState(g, 1.0)))
        assert abs(rate_gap_derivative(PairState(g, peak))) < 1e-6 * scale


def test_variant_derivative_disagrees_with_finite_difference():
    # the superseded closed form is kept only to keep this mismatch visible
    state = PairState(100.0, 10.0)
    numeric = _central_difference(100.0, 10.0)
    assert rate_gap_derivative(state) == pytest.approx(numeric, rel=1e-6)
    variant = rate_gap_derivative_variant(state)
    rel = abs(variant - numeric) / abs(numeric)
    print(f"variant-derivative relative deviation at (100, 10): {rel:.3e}")
    assert rel > 1e-2


def test_quartic_values_at_unit_snr():
    coeffs = quartic_coefficients(1.0)
    assert dataclasses.astuple(coeffs) == pytest.approx(QUARTIC_AT_1, rel=1e-12)


def test_quartic_sign_pattern():
    rng = np.random.default_rng(3)
    for g in 10.0 ** rng.uniform(-6.0, 6.0, size=1000):
        c = quartic_coefficients(float(g))
        assert c.f1 < 0.0 and c.f2 < 0.0 and c.f3 < 0.0
        assert c.f4 > 0.0 and c.f5 > 0.0


def test_quartic_rejects_nonpositive_snr():
    with pytest.raises(ValueError):
        quartic_coefficients(0.0)


def test_quartic_has_single_positive_root_diagnostic():
    # the sign pattern forces exactly one positive root; where that root sits
    # relative to the true gap peak is recorded but not asserted, since the
    # displayed coefficients do not reproduce the verified derivative
    for g in (10.0, 100.0, 1e4):
        coeffs = quartic_coefficients(g)
        roots = np.roots(dataclasses.astuple(coeffs))
        positive = [
            z.real for z in roots
            if abs(z.imag) < 1e-9 * max(1.0, abs(z.real)) and z.real > 0.0
        ]
        assert len(positive) == 1
        lo, hi = 1.0, 1e10
        for _ in range(200):
            m1 = lo * (hi / lo) ** (1.0 / 3.0)
            m2 = lo * (hi / lo) ** (2.0 / 3.0)
            if rate_gap_at(g, m1) < rate_gap_at(g, m2):
                lo = m1
            else:
                hi = m2
        peak = math.sqrt(lo * hi)
        rel = abs(positive[0] - peak) / peak
        print(f"quartic root vs gap peak at gamma={g:g}: rel diff {rel:.3e}")


def test_noma_and_tdma_sides_are_concave_in_ratio():
    rng = np.random.default_rng(17)
    n = 10_000
    gammas = 10.0 ** rng.uniform(-3.0, 6.0, size=n)
    r1 = 10.0 ** rng.uniform(-3.0, 8.0, size=n)
    r2 = 10.0 ** rng.uniform(-3.0, 8.0, size=n)
    lam = rng.uniform(0.0, 1.0, size=n)
    for p_fn in (noma_rate_at, tdma_rate_at):
        for g, a, b, w in zip(gammas, r1, r2, lam):
            mid = p_fn(g, w * a + (1.0 - w) * b)
            chord = w * p_fn(g, a) + (1.0 - w) * p_fn(g, b)
            assert mid >= chord - 1e-9


def test_gap_is_unimodal_on_log_grid():
    rng = np.random.default_rng(23)
    grid = np.logspace(-3.0, 8.0, 10_000)
    for g in 10.0 ** rng.uniform(-3.0, 6.0, size=50):
        diffs = np.diff(rate_gap_curve(float(g), grid))
        signs = np.sign(diffs[diffs != 0.0])
        flips = np.nonzero(np.diff(signs) != 0.0)[0]
        assert len(flips) <= 1
        if len(flips) == 1:
            assert signs[flips[0]] > 0.0 > signs[flips[0] + 1]
