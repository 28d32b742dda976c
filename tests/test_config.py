"""Config file parsing: typed keys, defaults, and typo rejection."""

import math
import re
from pathlib import Path

import pytest

from vlc_noma.config import (
    SNR_ROW_LIMIT,
    USER_LIMIT,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_text,
)


def test_defaults_match_simulation_table():
    cfg = ExperimentConfig()
    assert cfg.room_length == 6.0 and cfg.room_width == 6.0 and cfg.room_height == 3.0
    assert cfg.led_power == 1.0
    assert cfg.semi_angle_deg == 60.0
    assert cfg.conversion_efficiency == 0.44
    assert cfg.pd_area == 1e-4
    assert cfg.pd_responsivity == 0.54
    assert cfg.fov_deg == 60.0
    assert cfg.filter_gain == 1.0
    assert cfg.refractive_index == 1.5
    assert cfg.noise_power == 1e-14
    assert len(cfg.fixed_positions) == 6


def test_derived_objects_mirror_scalars():
    cfg = ExperimentConfig(led_power=2.0, fov_deg=45.0)
    assert cfg.room().led_position() == (3.0, 3.0, 3.0)
    led = cfg.led()
    assert led.semi_angle == pytest.approx(math.radians(60.0))
    pd = cfg.photodiode()
    assert pd.fov == pytest.approx(math.radians(45.0))
    assert pd.concentrator_index == 1.5


def test_stored_only_keys_reach_no_device():
    plain = ExperimentConfig()
    stored = parse_config_text("dc_offset = 0.5\nconversion_efficiency = 0.1\n")
    assert (stored.dc_offset, stored.conversion_efficiency) == (0.5, 0.1)
    assert (stored.led(), stored.photodiode()) == (plain.led(), plain.photodiode())


def test_grids():
    cfg = ExperimentConfig(snr_db_min=10.0, snr_db_max=12.0, snr_db_step=1.0,
                           users_min=2, users_max=4)
    assert cfg.snr_db_grid() == (10.0, 11.0, 12.0)
    assert cfg.user_counts() == (2, 3, 4)


def test_snr_grid_stops_at_the_region_solver_range():
    assert parse_config_text("snr_db_max = 480\n").snr_db_grid()[-1] == 480.0
    # the step's 1e-9 slack admits 0 + 1 * step = 480.00000024, past the range
    past = parse_config_text("snr_db_min = 0\nsnr_db_max = 480\nsnr_db_step = 480.00000024\n")
    assert past.snr_db_grid() == (0.0, 480.0)
    with pytest.raises(ConfigError, match="^snr_db_max must be at most 480, "):
        parse_config_text("snr_db_max = 480.000001\n")


def test_snr_grid_is_built_by_index():
    fine = ExperimentConfig(snr_db_min=0.0, snr_db_max=1e-8, snr_db_step=1e-9)
    grid = fine.snr_db_grid()
    assert len(grid) == len(set(grid)) == fine._snr_row_count() == 11
    assert grid == tuple(sorted(grid))
    tenth = ExperimentConfig(snr_db_min=0.0, snr_db_max=60.0, snr_db_step=0.1).snr_db_grid()
    assert len(tenth) == 601 and tenth[-1] == 60.0
    for step in (1e-10, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="snr_db_step"):
            ExperimentConfig(snr_db_min=0.0, snr_db_max=1e-8, snr_db_step=step)
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(snr_db_max=math.inf)


# These build the configs only: a grid or a sweep past either cap would
# exhaust memory before its first solve or drop.
def test_a_config_past_the_row_cap_is_refused_before_its_grid_is_built():
    assert SNR_ROW_LIMIT == 100_000
    # an exact binary step, so the row count is exact: 0 .. (n - 1) steps
    step = 2.0 ** -10
    at_cap = ExperimentConfig(snr_db_max=(SNR_ROW_LIMIT - 1) * step, snr_db_step=step)
    assert at_cap._snr_row_count() == SNR_ROW_LIMIT
    with pytest.raises(ConfigError, match=r"^snr_db_step is too fine: .* 100001 .*100000$"):
        ExperimentConfig(snr_db_max=SNR_ROW_LIMIT * step, snr_db_step=step)
    with pytest.raises(ConfigError, match=r"^snr_db_step is too fine: .* 60000000001 "):
        ExperimentConfig(snr_db_step=1e-9)
    with pytest.raises(ConfigError, match="^snr_db_step "):
        parse_config_text("snr_db_step = 1e-9\n")


def test_a_config_past_the_user_cap_is_refused_before_its_blocks_are_listed():
    assert USER_LIMIT == 1000
    assert ExperimentConfig(users_max=USER_LIMIT).user_counts()[-1] == USER_LIMIT
    for users_max in (USER_LIMIT + 1, 10**9):
        with pytest.raises(ConfigError, match="^users_max must be at most 1000$"):
            ExperimentConfig(users_max=users_max)
    with pytest.raises(ConfigError, match="^users_max "):
        parse_config_text("users_max = 1000000000\n")


@pytest.mark.parametrize("name", ["led_power", "noise_power", "power_grid"])
@pytest.mark.parametrize("value", ["0", "-1e-14", "inf", "nan"])
def test_physical_power_must_be_finite_and_positive(name, value):
    with pytest.raises(ConfigError, match=f"^{name}( values)? must be finite and > 0"):
        parse_config_text(f"{name} = {value}\n")


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        ExperimentConfig().trials = 0


def test_readme_config_example_parses_to_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config_text(block) == ExperimentConfig()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith(("PAIR ", "SOLO "))


def test_parse_overrides_and_comments():
    cfg = parse_config_text(
        """
        # physical overrides
        led_power = 2.5
        noise_power = 2e-14

        trials = 32
        seed = 99
        power_grid = 0.5, 1, 2
        fixed_positions = 1,1,0; 2,2,0
        """
    )
    assert cfg.led_power == 2.5
    assert cfg.noise_power == 2e-14
    assert cfg.trials == 32
    assert cfg.seed == 99
    assert cfg.power_grid == (0.5, 1.0, 2.0)
    assert cfg.fixed_positions == ((1.0, 1.0, 0.0), (2.0, 2.0, 0.0))
    assert cfg.room_length == 6.0  # untouched default


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("led_povver = 1.0\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_bad_value_is_an_error():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("led_power = bright\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("fixed_positions = 1,2\n")
    for raw in ("1,,2", "1,", ",1"):  # an empty item is not skipped
        with pytest.raises(ConfigError, match="bad value for 'power_grid'"):
            parse_config_text(f"power_grid = {raw}\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_semantic_validation():
    with pytest.raises(ConfigError):
        parse_config_text("trials = 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("power_grid = 2, 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("users_min = 5\nusers_max = 3\n")
    with pytest.raises(ConfigError, match="outside the room"):
        parse_config_text("fixed_positions = 7,1,0\n")


# A skipped group would renumber the receivers after it.
@pytest.mark.parametrize("raw", ["1,1,0;;2,2,0", "1,1,0;", ";1,1,0", "1,1,0; ;2,2,0"])
def test_an_empty_fixed_positions_group_is_an_error(raw):
    with pytest.raises(ConfigError, match="bad value for 'fixed_positions': empty position"):
        parse_config_text(f"fixed_positions = {raw}\n")


@pytest.mark.parametrize("z", ["1", "-0.5", "2.9", "nan"])
def test_fixed_positions_must_lie_on_the_floor(z):
    # floor_gains evaluates every receiver at z = 0
    with pytest.raises(ConfigError, match="^fixed_positions "):
        parse_config_text(f"fixed_positions = 2.5,5.5,0; 4,0,{z}\n")
    parse_config_text("fixed_positions = 2.5,5.5,-0.0\n")


@pytest.mark.parametrize("text, key", [
    ("room_height = 1e-300\n", "room_height"),   # every link would be dead
    ("noise_power = 1e-320\n", "noise_power"),   # the SNR under the LED overflows
    # the SNR under the LED passes 480 dB: 2,901 and 501 dB
    ("noise_power = 1e-300\n", "noise_power"),
    ("noise_power = 1e-60\n", "noise_power"),
    ("refractive_index = 1e200\n", "refractive_index and fov_deg"),  # concentrator gain is inf
    ("fov_deg = 1e-155\n", "refractive_index and fov_deg"),  # sin(fov)^2 is subnormal
    ("pd_responsivity = 1e-320\n", "pd_area and pd_responsivity"),  # (m+1)*A*R is 0
    ("pd_area = 1e-200\nfilter_gain = 1e-200\n",   # each factor is live, their product is 0
     "pd_area, pd_responsivity, filter_gain, refractive_index and fov_deg"),
])
def test_degenerate_channels_are_config_errors(text, key):
    with pytest.raises(ConfigError, match=f"^{key} "):
        parse_config_text(text)


@pytest.mark.parametrize("key, values, message", [
    ("semi_angle_deg", ["0", "90", "95", "-10", "nan"], "must lie in (0, 90) degrees"),
    ("fov_deg", ["0", "90.5", "-1", "nan"], "must lie in (0, 90] degrees"),
    ("semi_angle_deg", ["1e-7"], "is too small: its cosine rounds to 1"),
    ("fov_deg", ["1e-300"], "is too small: the square of its sine underflows to 0"),
    ("refractive_index", ["0.5", "inf", "nan"], "must be finite and >= 1"),
    *((key, ["0", "-1", "inf", "nan"], "must be finite and > 0")
      for key in ("room_length", "room_width", "room_height", "pd_area",
                  "pd_responsivity", "filter_gain")),
    # stored only, so any finite value loads
    ("dc_offset", ["nan", "inf", "-inf"], "must be finite"),
    ("conversion_efficiency", ["nan", "inf", "-inf"], "must be finite"),
])
def test_device_bounds_name_the_config_key(key, values, message):
    for value in values:
        with pytest.raises(ConfigError) as exc:
            parse_config_text(f"{key} = {value}\n")
        assert str(exc.value) == f"{key} {message}", value


@pytest.mark.parametrize("text", ["", "semi_angle_deg = 1\n", "fov_deg = 90\n", "fov_deg = 30\n",
                                  "room_height = 0.01\n"])
def test_extreme_but_live_channels_load(text):
    parse_config_text(text)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\ntrials = 10\nled_power = 0.5\n")
    cfg = load_config(str(path))
    assert (cfg.seed, cfg.trials, cfg.led_power) == (5, 10, 0.5)


def test_load_config_skips_a_byte_order_mark(tmp_path):
    # some editors start a UTF-8 file with a BOM, which would be read as
    # part of the first key
    path = tmp_path / "run.cfg"
    path.write_text("trials = 10\nseed = 5\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    cfg = load_config(str(path))
    assert (cfg.trials, cfg.seed) == (10, 5)
