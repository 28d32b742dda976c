"""Channel-gain and SNR checks against hand-evaluated reference values."""

import math

import numpy as np
import pytest

from vlc_noma.channel import (
    DEFAULT_NOISE_POWER,
    LedConfig,
    LinkBudget,
    LinkConstants,
    PhotodiodeConfig,
    RoomGeometry,
    UserPosition,
    concentrator_gain,
    floor_gains,
    lambertian_order,
    los_channel_gain,
    snr,
    snr_db,
)
from vlc_noma.scheduler import UserChannelSet

LED = LedConfig()          # (3, 3, 3), 1 W, 60 deg semi-angle
PD = PhotodiodeConfig()    # 1 cm^2, 0.54 A/W, 60 deg FOV, T_s = 1, kappa = 1.5

# Hand-evaluated: 2 * 1e-4 * 0.54 / (2*pi*9) * 3  (nadir, d = 3 m)
NADIR_GAIN = 5.729577951308236e-06
# Hand-evaluated at d = sqrt(22), cos = 3/sqrt(22), LED (3,3,3), user (5,6,0)
OFFSET_GAIN = 9.588756488759648e-07


def test_lambertian_order_60_deg_is_one():
    assert lambertian_order(math.radians(60.0)) == pytest.approx(1.0, rel=1e-12)


def test_lambertian_order_30_deg():
    assert lambertian_order(math.radians(30.0)) == pytest.approx(4.818841679306421, rel=1e-12)


def test_lambertian_order_rejects_degenerate_angles():
    for bad in (0.0, math.pi / 2, -0.1, math.pi):
        with pytest.raises(ValueError):
            lambertian_order(bad)


def test_concentrator_gain_inside_fov():
    g = concentrator_gain(math.radians(60.0), 1.5)
    assert g == pytest.approx(3.0, rel=1e-12)  # 2.25 / sin^2(60)


def test_concentrator_gain_outside_fov_is_zero():
    # the concentrator constant holds inside the FOV; the link cuts the rest
    narrow = PhotodiodeConfig(fov=math.radians(20.0))
    link = LinkConstants.of(LED, narrow)
    assert link.concentrator > 0.0
    off_axis, nadir = floor_gains(link, [(5.0, 6.0), (3.0, 3.0)])
    assert off_axis == 0.0  # 50 degrees off axis
    assert nadir > 0.0


def test_concentrator_gain_unit_index_full_fov():
    assert concentrator_gain(math.radians(90.0), 1.0) == pytest.approx(1.0)


def test_concentrator_gain_preconditions():
    for fov in (0.0, -0.1, math.radians(91.0)):
        with pytest.raises(ValueError):
            concentrator_gain(fov, 1.5)
    for index in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="concentrator_index must be finite and >= 1"):
            concentrator_gain(math.radians(60.0), index)


def test_nadir_gain_matches_hand_value():
    link = los_channel_gain(LED, PD, UserPosition.at(3.0, 3.0))
    assert link.channel_gain == pytest.approx(NADIR_GAIN, rel=1e-12)


def test_offset_user_gain_matches_hand_value():
    link = los_channel_gain(LED, PD, UserPosition.at(5.0, 6.0))
    assert link.channel_gain == pytest.approx(OFFSET_GAIN, rel=1e-12)


def test_outside_fov_gain_is_exactly_zero():
    narrow = PhotodiodeConfig(fov=math.radians(20.0))
    link = los_channel_gain(LED, narrow, UserPosition.at(5.0, 6.0))
    assert link.channel_gain == 0.0  # zero gain is an outcome, not an error


def test_snr_example_values():
    link = LinkBudget(5.73e-06, 1e-14)
    gamma = snr(link, 1.0)
    assert gamma == pytest.approx(3.28329e3, rel=1e-5)
    assert snr_db(gamma) == pytest.approx(35.163, abs=1e-3)


def test_snr_zero_gain():
    link = LinkBudget(0.0, 1e-14)
    assert snr(link, 1.0) == 0.0
    assert snr_db(0.0) == float("-inf")


def test_snr_equals_the_schedulers_snr():
    # P * h**2 (libm pow) would give 813.5235295081204 here
    link = LinkBudget(2.8522333872040003e-06, 1e-14)
    assert snr(link, 1.0) == 813.5235295081205
    (user,) = UserChannelSet.from_gains([link.channel_gain], 1.0, 1e-14)
    assert snr(link, 1.0) == user.snr


def test_snr_equals_the_schedulers_snr_on_random_floor_points():
    rng = np.random.default_rng(71)
    links = [los_channel_gain(LED, PD, UserPosition.at(x, y))
             for x, y in (rng.random((20_000, 2)) * 6.0).tolist()]
    users = UserChannelSet.from_gains([link.channel_gain for link in links], 1.0,
                                      DEFAULT_NOISE_POWER)
    by_id = {user.user_id: user.snr for user in users}
    assert [snr(link, 1.0) for link in links] == [by_id[uid] for uid in range(1, len(links) + 1)]


def test_snr_linear_in_power():
    link = los_channel_gain(LED, PD, UserPosition.at(4.0, 2.0))
    assert snr(link, 2.0) == pytest.approx(2.0 * snr(link, 1.0), rel=1e-14)


def test_snr_db_shift_on_power_doubling():
    link = los_channel_gain(LED, PD, UserPosition.at(2.0, 5.0))
    shift = snr_db(snr(link, 2.0)) - snr_db(snr(link, 1.0))
    assert shift == pytest.approx(3.0103, abs=1e-4)


def test_gain_monotone_in_horizontal_distance():
    radii = np.linspace(0.0, 4.2, 100)
    gains = [
        los_channel_gain(LED, PD, UserPosition.at(3.0 + r, 3.0)).channel_gain
        for r in radii
    ]
    diffs = np.diff(gains)
    assert np.all(diffs <= 1e-18)


def test_gain_continuous_inside_fov_and_zero_outside():
    # 40 deg FOV puts the cone edge at radius 3*tan(40deg) ~ 2.517 m
    pd40 = PhotodiodeConfig(fov=math.radians(40.0))
    edge = 3.0 * math.tan(math.radians(40.0))
    inside = np.linspace(0.0, edge - 1e-6, 400)
    gains = np.array([
        los_channel_gain(LED, pd40, UserPosition.at(3.0 + r, 3.0)).channel_gain
        for r in inside
    ])
    assert np.all(gains > 0.0)
    # no jumps inside: neighbouring samples stay within a small relative step
    rel_steps = np.abs(np.diff(gains)) / gains[:-1]
    assert rel_steps.max() < 0.01
    outside = los_channel_gain(LED, pd40, UserPosition.at(3.0 + edge + 1e-6, 3.0))
    assert outside.channel_gain == 0.0


def test_gain_scales_linearly_with_area():
    big = PhotodiodeConfig(active_area=PD.active_area * 7.0)
    base = los_channel_gain(LED, PD, UserPosition.at(4.0, 4.0)).channel_gain
    scaled = los_channel_gain(LED, big, UserPosition.at(4.0, 4.0)).channel_gain
    assert scaled == pytest.approx(7.0 * base, rel=1e-12)


def test_gain_distance_square_law_at_nadir():
    # doubling the LED height at nadir keeps angles fixed and scales 1/d^2
    tall = LedConfig(position=(3.0, 3.0, 6.0))
    base = los_channel_gain(LED, PD, UserPosition.at(3.0, 3.0)).channel_gain
    far = los_channel_gain(tall, PD, UserPosition.at(3.0, 3.0)).channel_gain
    assert far == pytest.approx(base / 4.0, rel=1e-12)


def test_room_geometry_led_position_and_bounds():
    room = RoomGeometry()
    assert room.led_position() == (3.0, 3.0, 3.0)
    assert room.contains_floor_point(0.0, 6.0)
    assert not room.contains_floor_point(6.1, 3.0)
    with pytest.raises(ValueError):
        RoomGeometry(length=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        LedConfig(semi_angle=math.pi / 2)
    # cos(1e-9) rounds to 1, so the Lambertian order would divide by zero
    with pytest.raises(ValueError, match="cosine rounds to 1"):
        lambertian_order(1e-9)
    with pytest.raises(ValueError, match="cosine rounds to 1"):
        los_channel_gain(LedConfig(semi_angle=1e-9), PD, UserPosition.at(3.0, 3.0))
    with pytest.raises(ValueError):
        PhotodiodeConfig(concentrator_index=0.5)
    with pytest.raises(ValueError):
        UserPosition((1.0, 1.0, 0.3))
    with pytest.raises(ValueError):
        LinkBudget(-1e-9, 1e-14)
    with pytest.raises(ValueError):
        LinkBudget(1e-6, 0.0)
    with pytest.raises(ValueError, match="finite"):  # d^2 is subnormal, so h overflows
        los_channel_gain(LedConfig(position=(3.0, 3.0, 1e-160)), PD, UserPosition.at(3.0, 3.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda v: PhotodiodeConfig(active_area=v),
    lambda v: PhotodiodeConfig(responsivity=v),
    lambda v: PhotodiodeConfig(filter_gain=v),
    lambda v: PhotodiodeConfig(concentrator_index=v),
    lambda v: RoomGeometry(length=v),
    lambda v: RoomGeometry(width=v),
    lambda v: RoomGeometry(height=v),
    lambda v: LedConfig(position=(3.0, v, 3.0)),
    lambda v: UserPosition.at(v, 3.0),
    lambda v: UserPosition.at(3.0, v),
    lambda v: LinkBudget(v, 1e-14),
    lambda v: los_channel_gain(LED, PD, UserPosition.at(4.0, 4.0), noise_power=v),
], ids=["active_area", "responsivity", "filter_gain", "concentrator_index", "length",
        "width", "height", "led_position", "user_x", "user_y", "channel_gain", "noise_power"])
def test_device_fields_must_be_finite(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


@pytest.mark.parametrize("field", ["active_area", "responsivity", "filter_gain"])
@pytest.mark.parametrize("value", [0.0, -1e-4])
def test_photodiode_fields_must_be_positive(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        PhotodiodeConfig(**{field: value})


def test_link_constants_are_built_once_per_device_pair():
    led, pd = LedConfig(), PhotodiodeConfig()
    assert LinkConstants.of(led, pd) is LinkConstants.of(LedConfig(), PhotodiodeConfig())
    assert LinkConstants.of(led, PhotodiodeConfig(fov=0.5)).cos_fov == math.cos(0.5)
