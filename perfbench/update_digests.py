"""Rewrite digests.json from one run of every workload at the default seed.

    python3 perfbench/update_digests.py

Only for a change that alters rtksim's artifacts on purpose: the
benchmark fails every run whose artifacts differ from these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402


def main():
    table = {}
    for name in workloads.WORKLOADS:
        bench = harness.Bench(name)
        run = pipeline.simulate(bench.text, bench.filename, bench.artifacts,
                                bench.outdir)
        problems = pipeline.check_run(run, bench.window)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        table[name] = run.digests()
    (HERE / "digests.json").write_text(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
