"""rtksim benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Runs the program from `src/` of the checkout this file sits in.  The
workload's scenario text is generated from the seed, then simulated
end to end again and again, exactly as `rtk-sim run` would, until
``--seconds`` have passed.  Every run's artifacts are checked (see
`harness.Bench`); the last line of standard output is one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
an instrumented run (``--trace 1``).

Each end-to-end time is the best of the run's repetitions, not their
median, scaled to a reference host speed (see calibration.py).  On a
shared 2-vCPU virtual machine the host alternated, for seconds at a
time, between a fast state and one ~45% slower, and drifted up to 2x
over minutes.  Other tenants only ever add time, so the fastest
repetition is the estimate that repeats best within a run, and the
calibration removes most of the drift between runs.  The workloads'
windows are short (a repetition takes well under a second) so that one
timed run holds dozens of repetitions.  The raw best times and the
scale factor go to standard error.

Exit status is 0 when a result was printed, and 2 when the program
cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "rtksim" / "__init__.py").is_file():
    # measure this checkout's program or nothing, before any output
    print(f"perfbench: no rtksim package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(SRC), str(HERE)]

import harness  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="window multiplier; digests are checked only at 1.0")
    p.add_argument("--rss-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child mode: one run, print RSS
    return p.parse_args(argv)


def _probe_main(bench):
    run = pipeline.simulate(bench.text, bench.filename, bench.artifacts,
                            bench.outdir)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "digests": run.digests()}))
    return 0


def _end_to_end(bench, seconds):
    peak_mb = bench.rss_probe()
    bench.attempt(full_check=True)   # warm-up, fully checked
    runs = harness.timed_runs(bench, seconds)
    if not runs or peak_mb is None:
        return {}
    best = {
        "wall_s": min(r.wall_s for r in runs),
        "ticks_per_s": max(bench.window / r.run_s for r in runs),
        "setup_s": min(r.setup_s for r in runs),
        "artifacts_s": min(r.artifacts_s for r in runs),
    }
    scale = bench.host_scale()
    print(f"perfbench: {bench.name}: {len(runs)} runs, best raw "
          + ", ".join(f"{k} {v:.6g}" for k, v in best.items())
          + f"; host scale {scale:.4f}", file=sys.stderr)
    metric = harness.metric
    return {
        "wall_s": metric(best["wall_s"] * scale, "s"),
        "ticks_per_s": metric(best["ticks_per_s"] / scale, "1/s"),
        "setup_s": metric(best["setup_s"] * scale, "s"),
        "artifacts_s": metric(best["artifacts_s"] * scale, "s"),
        "peak_rss_mb": metric(peak_mb, "MiB"),
    }


def main(argv=None):
    args = _parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        print("perfbench: --seconds and --scale must be > 0", file=sys.stderr)
        return 2
    bench = harness.Bench(args.workload, args.seed, args.scale)
    if args.rss_probe:
        return _probe_main(bench)
    if args.trace:
        import layers
        metrics = layers.traced(bench, args.seconds)
    else:
        metrics = _end_to_end(bench, args.seconds)
    for line in bench.problems[:20]:
        print(f"perfbench: {bench.name}: {line}", file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0 and bool(metrics),
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
