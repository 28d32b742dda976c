"""End-to-end CLI checks through the argparse entry point."""

import math

import pytest

from vlc_noma import region
from vlc_noma.cli import build_parser, main
from vlc_noma.region import NomaRegion

SMALL_SWEEP = "trials = 30\nusers_min = 2\nusers_max = 3\nseed = 11\n"


def test_region_subcommand_writes_csv(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db_min = 10\nsnr_db_max = 20\nsnr_db_step = 5\n")
    out = tmp_path / "region.csv"
    assert main(["region", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("weak_snr_db,gamma,status")
    assert len(lines) == 4  # header + 10, 15, 20 dB


def test_region_exits_2_on_a_skewed_solver_endpoint(tmp_path, monkeypatch, capsys):
    # region certifies each endpoint it solves, so a solver r_min 1% too
    # high fails its certificate
    true_solve = region.sca_solve

    def skewed_solve(gamma, objective, seed):
        r, trace = true_solve(gamma, objective, seed)
        return (r * 1.01 if objective == "min" else r), trace

    monkeypatch.setattr(region, "sca_solve", skewed_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db_min = 20\nsnr_db_max = 22\nsnr_db_step = 1\n")
    assert main(["region", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: r_min ") and " is not within " in captured.err
    assert captured.err.count("\n") == 1


def assert_pair_exits_2_on_a_skewed_oracle(objective, monkeypatch, capsys):
    """pair, with each oracle r_<objective> bisected 1% too high, prints
    nothing to stdout and one error line naming that endpoint."""
    true_bisect = region._log_bisect

    def skewed_bisect(gamma, lo, hi, lo_feasible, rel_width):
        r = true_bisect(gamma, lo, hi, lo_feasible, rel_width)
        return r * 1.01 if lo_feasible == (objective == "max") else r

    monkeypatch.setattr(region, "_log_bisect", skewed_bisect)
    assert main(["pair", "--gains", "1e-6,1.05e-6,1.1502173707608487e-6,"
                 "3.162277660168379e-6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (captured.err.startswith(f"error: r_{objective} ")
            and " is not within " in captured.err)
    assert captured.err.count("\n") == 1


def test_pair_exits_2_on_a_skewed_oracle_endpoint(monkeypatch, capsys):
    # pair certifies both endpoints of each oracle region it checks a pair
    # against, so an oracle r_min bisected 1% too high, by the bisection's
    # lo_feasible=False branch, fails its certificate
    assert_pair_exits_2_on_a_skewed_oracle("min", monkeypatch, capsys)


def test_pair_exits_2_on_a_skewed_oracle_r_max(monkeypatch, capsys):
    # the same for an r_max from the lo_feasible=True branch, certified
    # after an r_min that passes
    assert_pair_exits_2_on_a_skewed_oracle("max", monkeypatch, capsys)


@pytest.mark.parametrize("command", [
    ["region"], ["sweep-power"], ["pair", "--gains", "1e-6,2e-6"]])
def test_validate_oracle_is_a_usage_error_outside_sweep_users(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--validate-oracle"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --validate-oracle" in capsys.readouterr().err


def test_sweep_users_has_no_validate_oracle_flag(capsys):
    # the sweep reads no region; tests/test_properties.py checks the oracle
    # regions against the gap sign the sweep pairs on
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep-users", "--validate-oracle"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --validate-oracle" in capsys.readouterr().err


def test_sweep_users_workers_do_not_change_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_SWEEP)
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["sweep-users", "--config", str(cfg), "--out", str(one)]) == 0
    assert main(["sweep-users", "--config", str(cfg), "--out", str(two),
                 "--workers", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_users_rejects_fewer_than_one_worker(workers, capsys):
    assert main(["sweep-users", "--trials", "2", "--workers", workers]) == 2
    assert capsys.readouterr().err == "error: workers must be >= 1\n"


def test_cli_overrides_seed_and_trials(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_SWEEP)
    base = tmp_path / "a.csv"
    override = tmp_path / "b.csv"
    main(["sweep-users", "--config", str(cfg), "--out", str(base)])
    main(["sweep-users", "--config", str(cfg), "--out", str(override),
          "--seed", "12", "--trials", "31"])
    assert base.read_bytes() != override.read_bytes()


def test_sweep_power_to_stdout(capsys):
    assert main(["sweep-power"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p_led,tdma,forced,adaptive,adaptive_minus_forced")
    assert len(out.strip().split("\n")) == 6


def test_pair_subcommand_emits_plan(capsys):
    rc = main(["pair", "--gains", "1e-6,1.05e-6,1.1502173707608487e-6,3.162277660168379e-6"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "PAIR 1 4"
    assert set(lines[1:3]) == {"SOLO 2", "SOLO 3"}
    assert lines[3].startswith("SUM_RATE ")


def test_bad_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("led_powr = 1\n")
    assert main(["region", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_bad_gains_fail_cleanly(capsys):
    assert main(["pair", "--gains", " "]) == 2
    assert "error" in capsys.readouterr().err


# An empty item is a bad value: skipping it would renumber the users after it.
@pytest.mark.parametrize("gains, token", [
    ("abc", "abc"), ("1e-6,x", "x"), ("1e-6,,2e-6", ""), ("1e-6,", ""), (",1e-6", ""),
])
def test_unparsable_gains_name_the_option(gains, token, capsys):
    assert main(["pair", "--gains", gains]) == 2
    assert capsys.readouterr().err == (
        f"error: --gains has a bad value: could not convert string to float: '{token}'\n")


@pytest.mark.parametrize("gains", ["inf,1e-6", "nan,1e-6", "1e200,1e-6"])
def test_non_finite_gains_fail_cleanly(gains, capsys):
    assert main(["pair", "--gains", gains]) == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--gains", "--gain"])
def test_leading_negative_gain_reaches_the_gains_check(option, capsys):
    assert main(["pair", option, "-1e-6,1e-6"]) == 2
    assert capsys.readouterr().err == "error: gains and SNRs must be finite and non-negative\n"


def test_underflowed_snr_is_a_dead_link(capsys):
    # P * h^2 underflows to 0 for h = 1e-170: a live gain with zero SNR
    assert main(["pair", "--gains=1e-170,1e-6"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[:2] == ["SOLO 1", "SOLO 2"]
    assert lines[2].startswith("SUM_RATE ")


def test_trials_override_is_validated(capsys):
    assert main(["sweep-users", "--trials", "0"]) == 2
    assert capsys.readouterr().err == "error: trials must be >= 1\n"


@pytest.mark.parametrize("command", [["sweep-users"]])
@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-1", "seed must be >= 0"),
    ("--trials", str(2**32 + 1), "trials must be <= 2**32"),
])
def test_seed_and_trial_bounds_are_config_errors(command, option, value, message, capsys):
    assert main([*command, option, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["region", "--seed", "1"],
    ["sweep-power", "--trials", "5"],
    ["pair", "--gains", "1e-6", "--seed", "1"],
])
def test_seed_and_trials_are_usage_errors_outside_sweep_users(argv, capsys):
    # only sweep-users draws random drops; the other commands have no use for either
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_narrow_beam_sweep_has_finite_cells(tmp_path, capsys):
    # At a 1 degree semi-angle live gains differ by more than 1e154, so the
    # squared ratio of a pair overflows.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("semi_angle_deg = 1\ntrials = 300\n")
    assert main(["sweep-users", "--config", str(cfg)]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert header.startswith("k,tdma_mean") and len(rows) == 9
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_zero_noise_power_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise_power = 0\n")
    assert main(["sweep-power", "--config", str(cfg)]) == 2
    assert "noise_power must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("room_height = 1e-300\n", "room_height"),
    ("noise_power = 1e-320\n", "noise_power"),
    # receivers off the floor, which floor_gains would evaluate at z = 0
    ("fixed_positions = 2.5,5.5,1; 4,0,2.9\n", "fixed_positions"),
    ("fixed_positions =\n", "fixed_positions"),
    ("fixed_positions = 7,1,0\n", "fixed_positions"),
    ("users_min = 5\nusers_max = 3\n", "users_min"),
    ("users_min = 0\n", "users_min"),
])
def test_degenerate_channel_configs_fail_cleanly(text, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["sweep-users", "--config", str(cfg), "--trials", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and err.count("\n") == 1


# pair builds no grid and lists no blocks, so a config the caps failed to
# refuse would run a short pair instead of exhausting memory.
@pytest.mark.parametrize("text, key", [
    ("snr_db_step = 1e-9\n", "snr_db_step"),
    ("users_max = 1000000000\n", "users_max"),
])
def test_configs_past_the_run_size_caps_exit_2(text, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["pair", "--gains", "1e-6,2e-6", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {key} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text, key", [
    ("snr_db_min = 3500\nsnr_db_max = 3500\n", "snr_db_max"),  # 10**350 overflows
    ("snr_db_min = -4000\n", "snr_db_min"),                     # 10**-400 underflows to 0
    ("snr_db_max = inf\n", "snr_db_max"),
    ("snr_db_min = nan\n", "snr_db_min"),
    ("snr_db_min = 20\nsnr_db_max = 10\n", "snr_db_max"),
    ("snr_db_min = 3000\nsnr_db_max = 3000\n", "snr_db_max"),  # past the solver's 480 dB
])
def test_snr_grid_bounds_past_the_float_range_fail_cleanly(text, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main(["region", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {key} ")
    assert captured.err.count("\n") == 1


# Past 480 dB, the range the pairing rule is tested over, pair's oracle
# region refuses a weak-user SNR, and the config refuses a sweep whose SNR
# under the LED, the room's largest, lies there: the sweeps read no region.
PAST_480_DB = {
    "pair": "error: gamma must be finite and positive, and at most 1e48 (480 dB), not ",
    "sweep-users": "error: noise_power is too small: the SNR under the LED exceeds 480 dB",
    "sweep-power": "error: noise_power is too small: the SNR under the LED exceeds 480 dB",
}


@pytest.mark.parametrize("text, command", [
    # a weak-user SNR of 1.0201e48, 480.09 dB
    ("", ["pair", "--gains", "1.01e17,2e17"]),
    # a 1e301 weak-user SNR
    ("led_power = 1e9\nnoise_power = 1e-20\n", ["pair", "--gains", "1e136,2e136"]),
    # SNRs of up to 2,401 dB
    ("noise_power = 1e-250\n", ["sweep-users", "--trials", "20"]),
    # fixed receivers past 480 dB: 501 dB under the LED
    ("noise_power = 1e-60\n", ["sweep-power"]),
])
def test_region_solver_failures_exit_2(text, command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([*command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(PAST_480_DB[command[0]])
    assert captured.err.count("\n") == 1


# region runs the solver, pair the oracle region, and the sweep no region
@pytest.mark.parametrize("text, command", [
    # 160 dB, where r_max is about 2e31
    ("snr_db_min = 160\nsnr_db_max = 160\n", ["region"]),
    ("", ["pair", "--gains", "1e3,2e3"]),  # weak-user SNR 1e20
    # weak-user SNRs of about 1e17
    ("led_power = 1e9\nnoise_power = 1e-20\n", ["sweep-users", "--trials", "20"]),
    # the solver's bound: a weak-user SNR of exactly 1e48
    ("", ["pair", "--gains", "1e17,2e17"]),
], ids=["region_160_db", "pair_200_db", "sweep_170_db", "pair_480_db"])
def test_region_solver_runs_at_high_snr(text, command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert main([*command, "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "inf" not in captured.out


# pair checks its pairs against region.oracle_region, so regions that end at
# r = 1.5 make it exit 2; the sweeps pair on the gap sign and read no region,
# so the same regions leave their bytes as they are (tests/test_properties.py
# checks the oracle regions against the gap sign)
@pytest.mark.parametrize("command, code", [
    pytest.param(["sweep-users", "--trials", "20"], 0, id="sweep-users"),
    pytest.param(["sweep-power"], 0, id="sweep-power"),
    pytest.param(["pair", "--gains", "1e-6,2e-6"], 2, id="pair"),
])
def test_only_pair_exits_2_when_a_region_disagrees_with_the_gap_sign(
        command, code, monkeypatch, capsys):
    assert main(command) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(region, "oracle_region",
                        lambda gamma, rel_width=region.ORACLE_REL_WIDTH:
                        NomaRegion(gamma, 1.0, 1.5))
    assert main(command) == code
    captured = capsys.readouterr()
    if code == 0:
        assert (captured.out, captured.err) == (plain, "")
        return
    assert captured.out == ""
    assert captured.err.startswith("error: the gap sign pairs r=")
    assert captured.err.count("\n") == 1


def test_region_exits_2_when_its_solve_does_not_converge(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(region, "MAX_ITERATIONS", 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("snr_db_min = 20\nsnr_db_max = 20\n")
    assert main(["region", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r_min solve did not converge at gamma=100\n"
    # pair checks its pair (1, 4), r = 10 at gamma = 100, against the
    # oracle region, so it runs no solver
    gains = "1e-6,1.05e-6,1.1502173707608487e-6,3.162277660168379e-6"
    assert main(["pair", "--gains", gains]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("PAIR 1 4\n") and captured.err == ""


def test_pair_leaves_a_pair_single_whose_float_gap_is_zero_but_exact_gap_negative(capsys):
    # At gamma = 100 this r lies 14,460 ulps below the solver's r_min. Its
    # float gap rounds to 0.0, but the exact gap is negative (rho is about
    # -6.2e-16), so the users stay single and the cross-check has no pair.
    assert main(["pair", "--gains", "1e-6,1.7683513499195429e-06"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "SOLO 1\nSOLO 2\nSUM_RATE 6.279256311674917\n"
    assert captured.err == ""


def test_pair_takes_a_gap_sign_pair_just_past_the_solver_r_max(capsys):
    # At gamma = 400 this pair's exact gap is positive, but its
    # r = 29664.13946589052 lies 2.5e-12 relative above the solver's inner
    # r_max, 29664.1394658151, and 5.9e-10 above the oracle's,
    # 29664.139448351045, which pair checks it against: inside the bound a
    # region is certified to.
    assert main(["pair", "--gains", "2e-6,0.00034446561201890974"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PAIR 1 2\nSUM_RATE 14.867427805084258\n"
    assert captured.err == ""


def test_pair_takes_a_gap_sign_pair_whose_region_is_narrower_than_the_scan_grid(capsys):
    # The weak user sits at 10.1344 dB, where the feasibility scan's grid
    # finds no positive gap although the gap at this pair's r is positive:
    # its refine finds the region, and the pair lies inside it.
    assert main(["pair", "--gains", "3.211589282887969e-07,8.616109156911085e-07"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PAIR 1 2\nSUM_RATE 3.749563150320988\n"
    assert captured.err == ""


# Weak users below rates.GAMMA_FLOOR (10 dB) never pair. Without the floor,
# noma_wins read a rounding tie as a win below about 1.6e-8 (-78 dB), the
# greedy paired there, and the scan seeded regions of width 0.0 dB.
def test_pair_leaves_users_below_the_snr_floor_single(capsys):
    # gamma = 1e-16 and r = 1.96, a tie noma_wins takes: without the floor the
    # greedy paired it and its region check exited 2
    assert main(["pair", "--gains", "1e-15,1.4e-15"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "SOLO 1\nSOLO 2\nSUM_RATE 0.0\n"
    assert captured.err == ""


def test_a_sweep_below_the_snr_floor_pairs_nobody(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("led_power = 1e-12\nusers_max = 4\n")
    assert main(["sweep-users", "--config", str(cfg), "--trials", "200"]) == 0
    plain = capsys.readouterr().out
    rows = [line.split(",") for line in plain.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["2", "3", "4"]
    for row in rows:
        assert row[5:7] == row[1:3]  # adaptive's mean and SE are TDMA's
        assert float(row[3]) < float(row[1])  # forced pairs lose there


def test_region_rows_below_the_snr_floor_are_empty(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("snr_db_min = -100\nsnr_db_max = -75\nsnr_db_step = 5\n")
    assert main(["region", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["-100.0", "-95.0", "-90.0", "-85.0", "-80.0", "-75.0"]
    assert all(row[2:] == ["empty", "", "", "", "", ""] for row in rows)
    assert captured.err == ""
