"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark untraced once per seed (first-seed, first-seed + 1, ...)
on each workload and prints, per metric, the median and the distance
between the first and third quartile as a share of the median, next to a
third of the metric's bound in BENCHMARK.json. Raw results go to
.perfbench/spread_<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            results.append(json.loads(lines[-1]) | {"log": lines[:-1]})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()), flush=True)
        (out_dir / f"spread_{workload}.json").write_text(json.dumps(results), encoding="utf-8")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {workload:12s} {name:15s} median={median:.5g} "
                  f"spread={spread:.4f} bound/3={bound / 3:.4f} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
