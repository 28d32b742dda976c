"""Line-of-sight channel gains and SNR for a single-LED indoor optical downlink.

The transmitter is a ceiling-mounted Lambertian LED pointing straight down;
receivers are upward-facing photodiodes on the floor plane, so the irradiance
and incidence angles coincide. Gains include the photodiode responsivity, so
the electrical SNR is simply P_LED * h^2 / sigma^2.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

DEFAULT_NOISE_POWER = 1e-14  # W, combined shot + thermal noise


@dataclass(frozen=True)
class RoomGeometry:
    """Rectangular room; origin at a floor corner, z pointing up."""

    length: float = 6.0  # m, x extent
    width: float = 6.0   # m, y extent
    height: float = 3.0  # m, ceiling z

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.length, self.width, self.height)):
            raise ValueError("room dimensions must be finite and positive")

    def led_position(self) -> tuple[float, float, float]:
        """Ceiling center, where the transmitter is mounted."""
        return (0.5 * self.length, 0.5 * self.width, self.height)

    def contains_floor_point(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.length and 0.0 <= y <= self.width


@dataclass(frozen=True)
class LedConfig:
    """Transmitter parameters."""

    position: tuple[float, float, float] = (3.0, 3.0, 3.0)  # m
    semi_angle: float = math.radians(60.0)        # rad, half-illuminance semi-angle

    def __post_init__(self):
        if not all(map(math.isfinite, self.position)):
            raise ValueError("LED position must be finite")
        lambertian_order(self.semi_angle)  # rejects an angle with no finite order


@dataclass(frozen=True)
class PhotodiodeConfig:
    """Receiver parameters."""

    active_area: float = 1e-4                     # m^2
    responsivity: float = 0.54                    # A/W
    fov: float = math.radians(60.0)               # rad, field of view
    filter_gain: float = 1.0                      # optical filter, dimensionless
    concentrator_index: float = 1.5               # refractive index of concentrator

    def __post_init__(self):
        for name in ("active_area", "responsivity", "filter_gain"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        concentrator_gain(self.fov, self.concentrator_index)  # rejects a bad fov or index


@dataclass(frozen=True)
class UserPosition:
    """Receiver location on the floor plane (z = 0), photodiode facing up."""

    position: tuple[float, float, float]

    def __post_init__(self):
        if self.position[2] != 0.0:
            raise ValueError("receivers sit on the z = 0 plane")
        if not all(map(math.isfinite, self.position)):
            raise ValueError("receiver position must be finite")

    @classmethod
    def at(cls, x: float, y: float) -> "UserPosition":
        return cls((x, y, 0.0))


@dataclass(frozen=True)
class LinkBudget:
    """One LED-to-photodiode link."""

    channel_gain: float     # dimensionless, includes responsivity
    noise_power: float      # W

    def __post_init__(self):
        if not 0.0 <= self.channel_gain < math.inf:
            raise ValueError("channel gain must be finite and non-negative")
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise power must be finite and positive")


def lambertian_order(semi_angle: float) -> float:
    """Radiation-lobe exponent m = -1 / log2(cos(semi_angle)).

    A 60 degree semi-angle gives the ideal Lambertian source's m = 1 (in
    floats 1.0000000000000004, as math.cos(math.radians(60)) is an ulp
    above 0.5). An angle whose cosine rounds to 1 has no finite order.
    """
    if not 0.0 < semi_angle < 0.5 * math.pi:
        raise ValueError("semi_angle must lie in (0, pi/2)")
    cos_semi = math.cos(semi_angle)
    if cos_semi == 1.0:
        raise ValueError("semi_angle is too small: its cosine rounds to 1")
    return -1.0 / math.log2(cos_semi)


def concentrator_gain(fov: float, concentrator_index: float) -> float:
    """Non-imaging concentrator gain kappa^2 / sin^2(FOV) of a receiver inside
    the FOV; the links outside it are cut where the cosine is known.

    The FOV-based constant is used rather than dividing by sin(incidence),
    which would diverge at normal incidence.
    """
    if not 0.0 < fov <= 0.5 * math.pi:
        raise ValueError("fov must lie in (0, pi/2]")
    if not 1.0 <= concentrator_index < math.inf:
        raise ValueError("concentrator_index must be finite and >= 1")
    sin_fov = math.sin(fov)
    return concentrator_index * concentrator_index / (sin_fov * sin_fov)


class LinkConstants(NamedTuple):
    """The factors of the LoS gain that only the LED and the photodiode set,
    so a batch of receivers under one LED computes them once."""

    led_position: tuple[float, float, float]  # m
    cos_fov: float       # cosine of the field of view
    m: float             # Lambertian order
    scale: float         # (m + 1) * A * R, multiplied in that order
    filter_gain: float   # T_s
    concentrator: float  # T_f inside the field of view

    @classmethod
    def of(cls, led: LedConfig, pd: PhotodiodeConfig) -> "LinkConstants":
        m = lambertian_order(led.semi_angle)
        return cls(
            led.position, math.cos(pd.fov), m, (m + 1.0) * pd.active_area * pd.responsivity,
            pd.filter_gain, concentrator_gain(pd.fov, pd.concentrator_index),
        )


_TWO_PI = 2.0 * math.pi


def _los_link(link: LinkConstants, x: float, y: float, z: float) -> float:
    """LoS gain of a receiver at (x, y, z); see los_channel_gain. The
    receiver is outside the field of view when the cosine of its angle is
    below cos(fov), which is positive for every fov <= pi/2, so a receiver
    at or above the LED's height is outside too."""
    lx, ly, lz = link.led_position
    dx = x - lx
    dy = y - ly
    dz = z - lz
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    if distance == 0.0:
        raise ValueError("receiver is collocated with the LED")

    # LED axis points down (-z), photodiode axis up (+z): both cosines equal.
    cos_angle = -dz / distance
    if cos_angle < link.cos_fov:
        return 0.0
    return (
        link.scale / (_TWO_PI * (distance * distance))
        * cos_angle**link.m * link.filter_gain * link.concentrator * cos_angle
    )


def los_channel_gain(
    led: LedConfig,
    pd: PhotodiodeConfig,
    user: UserPosition,
    noise_power: float = DEFAULT_NOISE_POWER,
) -> LinkBudget:
    """Line-of-sight gain

        h = (m+1) A R / (2 pi d^2) * cos^m(phi) * T_s * T_f * cos(psi)

    for a downward LED and an upward photodiode (phi = psi). Links outside
    the field of view get h = 0, not an error. Only h is kept: the
    distance and the angle enter it through d^2 and cos(phi), never on
    their own.
    """
    return LinkBudget(_los_link(LinkConstants.of(led, pd), *user.position), noise_power)


def floor_gains(link: LinkConstants, points) -> list[float]:
    """los_channel_gain's h for each floor point (x, y, ...), with the link
    constants computed once and no per-receiver objects."""
    return [_los_link(link, p[0], p[1], 0.0) for p in points]


def snr_db(gamma: float) -> float:
    """Linear SNR in dB; -inf for a dead (zero-gain) link."""
    if gamma <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(gamma)
