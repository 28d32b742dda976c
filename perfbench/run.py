"""vlc-noma benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. With
--trace 0 the workload runs untraced for S seconds and the end-to-end
metrics are printed; with --trace 1 a fixed-size replay records spans and
the per-layer metrics are printed. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is
1 when any output check failed and 2 when the package is missing.
"""

import os

# Pin native thread pools before numpy is imported: one thread, one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# What setup_s times: a fresh interpreter importing the package and building
# the default config.
SETUP_PROBE = "import vlc_noma; vlc_noma.ExperimentConfig()"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_users", "pair_stream", "region_map"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(probes: int) -> tuple[float, float]:
    """Median time of fresh interpreters running SETUP_PROBE, in nominal and
    in wall seconds.

    One unrecorded probe first, so byte-compiling the package is not timed.
    The child inherits this process's CPU, so the kernel timed around each
    probe measures the speed it ran at.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-s", "-c", SETUP_PROBE]
    nominal, wall = [], []
    for n in range(probes + 1):
        before = speed.kernel_seconds()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        kernel = 0.5 * (before + speed.kernel_seconds())
        if n:
            wall.append(elapsed)
            nominal.append(elapsed * speed.REF_KERNEL_S / kernel)
    return statistics.median(nominal), statistics.median(wall)


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(calls, latencies, ops_per_call: float) -> dict[str, float]:
    """Throughput as the median over passes (a pass serves every distinct
    input once); latency percentiles over the distinct inputs of each
    input's median latency across its repeats.

    A burst on the host that the speed correction misses spoils a pass or
    one repeat of an input, not these medians.
    """
    by_pass: dict[int, list[float]] = {}
    by_input: dict[int, list[float]] = {}
    for pass_no, input_id, latency in zip(calls.passes, calls.inputs, latencies):
        by_pass.setdefault(pass_no, []).append(latency)
        by_input.setdefault(input_id, []).append(latency)
    per_input = sorted(statistics.median(v) for v in by_input.values())
    return {
        "ops_per_s": statistics.median(len(v) * ops_per_call / sum(v) for v in by_pass.values()),
        "latency_p50_ms": nearest_rank(per_input, 0.50) * 1e3,
        "latency_p99_ms": nearest_rank(per_input, 0.99) * 1e3,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vlc_noma" / "__init__.py").is_file():
        print(f"error: no vlc_noma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vlc_noma
    if Path(vlc_noma.__file__).resolve().parent != SRC / "vlc_noma":
        print(f"error: vlc_noma imported from {vlc_noma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    # One CPU for this process and its children: the speed probe and the
    # work it corrects must run on the same processor.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    untraced, traced = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} threads=1 workers=1")

    if args.trace == 0:
        declared = spec["end_to_end"]
        setup_s, setup_wall_s = measure_setup(sizes.setup_probes)
        with speed.SpeedProbe() as probe:
            ops_per_call, calls = untraced(args.seed, args.seconds, sizes, checks)
        # Read before the post-processing below allocates per-call lists.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        latencies = probe.nominal(calls.starts, calls.ends)
        values = summarize(calls, latencies, ops_per_call)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        wall = [end - start for start, end in zip(calls.starts, calls.ends)]
        raw = summarize(calls, wall, ops_per_call)
        print(f"# {args.workload} seed={args.seed}: {len(wall) * ops_per_call:g} ops in "
              f"{len(wall)} timed calls (latency samples) on {len(set(calls.inputs))} distinct "
              f"inputs over {calls.passes[-1] + 1} passes; "
              f"{sum(latencies):.3f} nominal s, {sum(wall):.3f} wall s; "
              f"{len(probe.samples)} speed samples")
        print("# wall-clock equivalents: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f" setup_s={setup_wall_s:.6g} (median of {sizes.setup_probes} probes)")
    else:
        declared = spec["per_layer"]
        tracer = Tracer()
        with speed.SpeedProbe() as probe:
            counters, untraced_interval, top_spans = traced(args.seed, sizes, checks, tracer)
            workloads.time_config_parse(tracer, checks)
        untraced_s, *durations = probe.nominal([untraced_interval[0], *tracer.starts()],
                                               [untraced_interval[1], *tracer.ends()])
        values = workloads.layer_metrics(tracer, durations, counters)
        traced_s = sum(d for span, d in zip(tracer.spans, durations) if span[0] in top_spans)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace_{args.workload}.csv"
        tracer.write_csv(trace_path, durations)
        print(f"# tracing overhead on {args.workload}: traced {traced_s:.4f} s vs untraced "
              f"{untraced_s:.4f} s ({100.0 * (traced_s / untraced_s - 1.0):+.1f}%), "
              f"nominal seconds")
        print(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares")
    error_rate = checks.failed / checks.attempted
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, "
          f"error_rate={error_rate!r}")
    for failure in checks.failures[:20]:
        print(f"# FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
