"""Experiment configuration: flat key/value files over simulation defaults.

The file format is one `key = value` assignment per line, `#` comments, and
nothing else. Keys mirror the standard simulation-parameter names; unknown
keys are rejected so a typo in a physical constant cannot silently fall back
to a default.
"""

import math
from dataclasses import dataclass, field, fields

from .channel import LedConfig, LinkConstants, PhotodiodeConfig, RoomGeometry, floor_gains
from .region import GAMMA_MAX, SNR_DB_MAX


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


DEFAULT_POWER_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)  # W

# Trials per user count stay at or below this: streams.uniform_streams keys
# trial m by spawn_key (k, m), and index 2**32 would add a second key word.
TRIAL_LIMIT = 2**32

# SNR grid values are rounded to 9 decimals (1e-9 dB); a finer step would
# round distinct grid points onto the same row.
SNR_DB_RESOLUTION = 1e-9

# Region-map rows stay at or below this, 100 times the widest published map
# (981 rows): snr_db_grid() builds every row before the first solve.
SNR_ROW_LIMIT = 100_000

# users_max stays at or below this: the user sweep builds its blocks one at
# a time, and a K = 1000 block's tracemalloc peak is 125 MB, 3.8 times its
# 2048 x 2000 uniforms (+120 MiB RSS).
USER_LIMIT = 1000

# Six-receiver cluster with deliberately similar gains (corner-origin frame).
DEFAULT_FIXED_POSITIONS = (
    (2.5, 5.5, 0.0),
    (4.0, 0.0, 0.0),
    (5.0, 1.0, 0.0),
    (5.0, 5.5, 0.0),
    (5.0, 6.0, 0.0),
    (6.0, 1.0, 0.0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical parameters plus run controls; defaults reproduce the desk-scale
    experiments. Frozen, so every value passes __post_init__: derive variants
    with dataclasses.replace."""

    room_length: float = 6.0          # m
    room_width: float = 6.0           # m
    room_height: float = 3.0          # m
    led_power: float = 1.0            # W
    semi_angle_deg: float = 60.0      # LED semi-angle at half illuminance
    dc_offset: float = 0.0            # W, brightness bias; stored only, no rate effect
    conversion_efficiency: float = 0.44  # stored only; SNR is P*h^2/sigma^2
    pd_area: float = 1e-4             # m^2
    pd_responsivity: float = 0.54     # A/W
    fov_deg: float = 60.0             # photodiode field of view
    filter_gain: float = 1.0
    refractive_index: float = 1.5     # concentrator
    noise_power: float = 1e-14        # W

    trials: int = 10000               # Monte Carlo drops per sweep point
    seed: int = 1
    snr_db_min: float = 0.0           # region-map grid, weak-user SNR in dB
    snr_db_max: float = 60.0
    snr_db_step: float = 1.0
    users_min: int = 2                # user-count sweep grid
    users_max: int = 10
    power_grid: tuple[float, ...] = DEFAULT_POWER_GRID
    fixed_positions: tuple[tuple[float, float, float], ...] = DEFAULT_FIXED_POSITIONS

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.trials > TRIAL_LIMIT:
            raise ConfigError("trials must be <= 2**32")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # The device classes check these too, but name their own fields.
        for name in ("room_length", "room_width", "room_height", "led_power", "noise_power",
                     "pd_area", "pd_responsivity", "filter_gain"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        if not 1.0 <= self.refractive_index < math.inf:
            raise ConfigError("refractive_index must be finite and >= 1")
        if not 0.0 < self.semi_angle_deg < 90.0:
            raise ConfigError("semi_angle_deg must lie in (0, 90) degrees")
        if not 0.0 < self.fov_deg <= 90.0:
            raise ConfigError("fov_deg must lie in (0, 90] degrees")
        # The link constants divide by log2(cos(semi_angle)) and sin(fov) squared.
        if math.cos(math.radians(self.semi_angle_deg)) == 1.0:
            raise ConfigError("semi_angle_deg is too small: its cosine rounds to 1")
        sin_fov = math.sin(math.radians(self.fov_deg))
        if sin_fov * sin_fov == 0.0:
            raise ConfigError("fov_deg is too small: the square of its sine underflows to 0")
        for name in ("dc_offset", "conversion_efficiency", "snr_db_min", "snr_db_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not SNR_DB_RESOLUTION <= self.snr_db_step < math.inf:
            raise ConfigError(f"snr_db_step must be finite and >= {SNR_DB_RESOLUTION:g}")
        if self.snr_db_max < self.snr_db_min:
            raise ConfigError("snr_db_max must be >= snr_db_min")
        # The region map solves at the linear SNR 10**(dB/10) of each grid point.
        if self.snr_db_max > SNR_DB_MAX:
            raise ConfigError(
                f"snr_db_max must be at most {SNR_DB_MAX:g}, the region solver's range")
        if 10.0 ** (self.snr_db_min / 10.0) == 0.0:
            raise ConfigError("snr_db_min is too small: its linear SNR underflows to 0")
        rows = self._snr_row_count()
        if rows > SNR_ROW_LIMIT:
            raise ConfigError(
                f"snr_db_step is too fine: snr_db_min to snr_db_max would take {rows} "
                f"region-map rows, more than {SNR_ROW_LIMIT}")
        if not 1 <= self.users_min <= self.users_max:
            raise ConfigError("users_min and users_max must satisfy 1 <= users_min <= users_max")
        if self.users_max > USER_LIMIT:
            raise ConfigError(f"users_max must be at most {USER_LIMIT}")
        if not self.power_grid or list(self.power_grid) != sorted(self.power_grid):
            raise ConfigError("power_grid must be non-empty and sorted")
        if not all(0.0 < p < math.inf for p in self.power_grid):
            raise ConfigError("power_grid values must be finite and > 0")
        if not self.fixed_positions:
            raise ConfigError("fixed_positions needs at least one position")
        room = self.room()
        for pos in self.fixed_positions:
            if not room.contains_floor_point(pos[0], pos[1]):
                raise ConfigError(f"fixed_positions point {pos} lies outside the room")
            # floor_gains evaluates every receiver at z = 0, as UserPosition requires
            if pos[2] != 0.0:
                raise ConfigError(f"fixed_positions must lie on the floor (z = 0), got {pos}")
        self._check_link_under_led()

    def _check_link_under_led(self) -> None:
        """The floor point under the LED has the room's largest gain and
        SNR: it must have a finite positive gain, or every drop is silently
        dead, and at the largest LED power an SNR within the pairing rule's
        tested range, region.GAMMA_MAX (480 dB), which an overflow exceeds.
        That gain is scale / (2 pi h^2) * T_s * T_f, so a photodiode factor
        outside (0, inf) names its keys, and room_height is named last."""
        link = self.link()
        for keys, factor in (
                ("pd_area and pd_responsivity", link.scale),
                ("refractive_index and fov_deg", link.concentrator),
                ("pd_area, pd_responsivity, filter_gain, refractive_index and fov_deg",
                 link.scale * link.filter_gain * link.concentrator)):
            if not 0.0 < factor < math.inf:
                raise ConfigError(f"{keys} give the photodiode no finite positive gain factor")
        x, y, _ = self.room().led_position()
        try:
            gain = floor_gains(link, [(x, y)])[0]
        except (ValueError, ArithmeticError):  # distance or its square is 0 or inf
            gain = 0.0
        if not 0.0 < gain < math.inf:
            raise ConfigError(
                "room_height leaves the floor under the LED no finite positive channel gain")
        if max(self.led_power, *self.power_grid) * gain * gain / self.noise_power > GAMMA_MAX:
            raise ConfigError(
                f"noise_power is too small: the SNR under the LED exceeds {SNR_DB_MAX:g} dB, "
                "the pairing rule's tested range")

    def room(self) -> RoomGeometry:
        return RoomGeometry(self.room_length, self.room_width, self.room_height)

    def led(self) -> LedConfig:
        return LedConfig(
            position=self.room().led_position(),
            semi_angle=math.radians(self.semi_angle_deg),
        )

    def photodiode(self) -> PhotodiodeConfig:
        return PhotodiodeConfig(
            active_area=self.pd_area,
            responsivity=self.pd_responsivity,
            fov=math.radians(self.fov_deg),
            filter_gain=self.filter_gain,
            concentrator_index=self.refractive_index,
        )

    def link(self) -> LinkConstants:
        return LinkConstants.of(self.led(), self.photodiode())

    def snr_db_grid(self) -> tuple[float, ...]:
        """snr_db_min + i * snr_db_step up to snr_db_max, rounded to
        SNR_DB_RESOLUTION. Built by index, so no rounding error accumulates;
        the 1e-9-step slack keeps an endpoint that lands a few ulps past max,
        clamped to the region solver's range, SNR_DB_MAX."""
        return tuple(min(round(self.snr_db_min + i * self.snr_db_step, 9), SNR_DB_MAX)
                     for i in range(self._snr_row_count()))

    def _snr_row_count(self) -> int:
        """Length of snr_db_grid(), which __post_init__ caps at SNR_ROW_LIMIT."""
        return math.floor((self.snr_db_max - self.snr_db_min) / self.snr_db_step + 1e-9) + 1

    def user_counts(self) -> tuple[int, ...]:
        return tuple(range(self.users_min, self.users_max + 1))


def parse_float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated floats, as power_grid and `pair --gains` take them.
    An empty item is a bad value, not skipped: skipping one would renumber
    the items after it."""
    return tuple(map(float, raw.split(",")))


def _parse_positions(raw: str) -> tuple[tuple[float, float, float], ...]:
    """Semicolon-separated x,y,z triplets: '2.5,5.5,0; 4,0,0'. An empty
    group is a bad value, not skipped: skipping one would renumber the
    positions after it. A blank value is no positions at all."""
    if not raw:
        return ()
    out = []
    for group in raw.split(";"):
        if not group.strip():
            raise ValueError(f"empty position in {raw!r}")
        parts = parse_float_list(group)
        if len(parts) != 3:
            raise ValueError(f"position needs 3 coordinates, got {group!r}")
        out.append(parts)
    return tuple(out)


_PARSERS = {
    "power_grid": parse_float_list,
    "fixed_positions": _parse_positions,
    "trials": int,
    "seed": int,
    "users_min": int,
    "users_max": int,
}
_SCALAR_KEYS = {
    f.name for f in fields(ExperimentConfig) if f.name not in _PARSERS
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse `key = value` lines into a config; unknown keys are errors."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser = _PARSERS.get(key, float if key in _SCALAR_KEYS else None)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            overrides[key] = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> ExperimentConfig:
    # utf-8-sig drops the byte-order mark some editors write before the first key
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config_text(fh.read())
