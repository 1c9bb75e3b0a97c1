"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

1. Runs every workload through run.py, untraced and traced, at a tiny
   window and checks that each metric BENCHMARK.json names is printed
   with its unit, on a correct result.
2. Feeds the output checks corrupted artifacts and confirms that each
   is counted as a failed run, so the checks can fail.
3. Runs the benchmark from a directory that holds only BENCHMARK.json
   and the benchmark's own files, where it must exit non-zero without a
   result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.02"


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def check_metrics(spec):
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--scale", SCALE])
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace {trace}: exit {proc.returncode}"
                                 f"\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{name} trace {trace}: {result}\n{proc.stderr}")
            got = result["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    raise SystemExit(f"{name} trace {trace}: no {m['name']}")
                if got[m["name"]]["unit"] != m["unit"]:
                    raise SystemExit(f"{name}: {m['name']} unit "
                                     f"{got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                raise SystemExit(f"{name} trace {trace}: unlisted {sorted(extra)}")
            print(f"ok  {name} trace {trace}: {len(got)} metrics")


def check_interactions(spec):
    """interactions.json covers exactly the workloads and layers listed."""
    table = json.loads((HERE / "interactions.json").read_text())
    for key, listed in (("workloads", spec["workloads"]),
                        ("layers", spec["per_layer"])):
        names = {m["name"] for m in listed}
        if set(table[key]) != names:
            raise SystemExit(f"interactions.json {key} differ from "
                             f"BENCHMARK.json: {sorted(set(table[key]) ^ names)}")
    ends = {m["name"] for m in spec["end_to_end"]}
    for layer, row in table["layers"].items():
        if row["moves"] not in ends:
            raise SystemExit(f"{layer} moves unknown metric {row['moves']}")
    print("ok  interactions.json matches BENCHMARK.json")


def check_corruption():
    """Each corrupted artifact must be counted as a failed run."""
    def corrupt_digit(text):
        i = next(i for i, ch in enumerate(text) if ch.isdigit())
        return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]

    def truncate(text):
        return text[: len(text) // 2]

    for kind, corrupt in (("trace", corrupt_digit), ("dump", corrupt_digit),
                          ("dump", truncate), ("gantt_svg", truncate)):
        bench = harness.Bench("steady", seed=7, scale=float(SCALE))
        if bench.attempt(full_check=True) is None:
            raise SystemExit(f"clean run failed: {bench.problems}")
        run = pipeline.simulate(bench.text, bench.filename, bench.artifacts,
                                bench.outdir)
        run.texts[kind] = corrupt(run.texts[kind])
        if bench.count(bench.check(run.digests(), run)):
            raise SystemExit(f"a corrupted {kind} passed the output checks")
        if bench.failed != 1:
            raise SystemExit(f"corrupted {kind}: failed = {bench.failed}")
        print(f"ok  corrupted {kind} ({corrupt.__name__}) counted as failed: "
              f"{bench.problems}")
    if not pipeline.check_dump("Debug Support (DS)\n"):
        raise SystemExit("a truncated dump round-trips")


def check_without_program():
    bare = harness.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "steady", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"without src/ the benchmark exited "
                         f"{proc.returncode} with {proc.stdout!r}")
    print(f"ok  without src/: exit {proc.returncode}, no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_interactions(spec)
    check_metrics(spec)
    check_corruption()
    check_without_program()
    print("selftest passed")


if __name__ == "__main__":
    main()
