"""Command-line front end: the three experiment tables plus one-shot pairing."""

import argparse
import dataclasses
import re
import sys

from .config import ConfigError, ExperimentConfig, load_config, parse_float_list
from .experiments import pair_once, run_region_map, run_sweep_power, run_sweep_users
from .region import RegionSolverError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file (defaults otherwise)")
    parser.add_argument("--out", metavar="PATH",
                        help="output file (stdout if omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlc-noma",
        description="NOMA-vs-TDMA pairing experiments for an indoor optical downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser("region", help="region endpoints per weak-user SNR")
    _add_common(p_region)

    p_users = sub.add_parser("sweep-users", help="mean sum-rate vs number of users")
    _add_common(p_users)
    p_users.add_argument("--seed", type=int, metavar="N",
                         help="RNG seed (overrides the config's seed)")
    p_users.add_argument("--trials", type=int, metavar="M",
                         help="Monte Carlo drops per user count (overrides the config's trials)")
    p_users.add_argument("--workers", type=int, default=1, metavar="N",
                         help="parallel worker processes, at most the CPU count "
                              "(output bytes unaffected)")

    p_power = sub.add_parser("sweep-power", help="sum-rate vs LED power, fixed users")
    _add_common(p_power)

    p_pair = sub.add_parser("pair", help="one-shot pairing for explicit channel gains")
    _add_common(p_pair)
    p_pair.add_argument("--gains", required=True, metavar="H1,H2,...",
                        help="comma-separated channel gains")
    # argparse reads a token that starts with '-' as an option unless it is a
    # plain decimal, so `--gains -1e-6,1e-6` would be a usage error; count
    # any '-digit' or '-.digit' start as a value, so the gains check rejects it.
    p_pair._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    # only sweep-users has --seed and --trials
    overrides = {name: getattr(args, name) for name in ("seed", "trials")
                 if getattr(args, name, None) is not None}
    return dataclasses.replace(cfg, **overrides)  # re-runs the config's validation


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "region":
            table = run_region_map(cfg)
            _emit(table.csv_text(), args.out)
        elif args.command == "sweep-users":
            table = run_sweep_users(cfg, workers=args.workers)
            _emit(table.csv_text(), args.out)
        elif args.command == "sweep-power":
            table = run_sweep_power(cfg)
            _emit(table.csv_text(), args.out)
        elif args.command == "pair":
            try:
                gains = parse_float_list(args.gains)
            except ValueError as exc:
                raise ConfigError(f"--gains has a bad value: {exc}") from None
            plan, outcome = pair_once(gains, cfg)
            text = plan.serialize() + f"SUM_RATE {outcome.sum_rate!r}\n"
            _emit(text, args.out)
    except (ConfigError, ValueError, OSError, RegionSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
