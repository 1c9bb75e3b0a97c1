"""Shared bookkeeping of one benchmark invocation: inputs, runs, checks."""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from pathlib import Path

import calibration
import pipeline
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
MIN_REPS = 3


class Bench:
    """One workload at one seed: its generated text, runs and failures.

    A run fails when it raises or when any output check finds a problem:
    the model invariants of `pipeline.check_run` (on the fully checked
    runs), artifacts that differ from the first run of the same seed, or,
    at the default seed and scale, from the digests committed in
    `digests.json`.
    """

    def __init__(self, name, seed=DEFAULT_SEED, scale=1.0):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.text = workloads.generate(name, seed, scale)
        self.window = workloads.window(name, scale)
        self.filename = f"{name}.yaml"
        self.artifacts = workloads.ARTIFACTS[name]
        self.outdir = OUT / name
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None     # digests every run must reproduce
        self.calibration = []     # calibration.sample() before each timed run

    def host_scale(self) -> float:
        """Factor that scales this run's times to the reference host speed."""
        return calibration.REFERENCE_S / min(self.calibration)

    def committed_digests(self):
        if self.seed != DEFAULT_SEED or self.scale != 1.0:
            return None
        return json.loads((HERE / "digests.json").read_text())[self.name]

    def attempt(self, probe=None, full_check=False):
        """One simulation plus its output checks; None when it failed.

        Automatic garbage collection is off while the simulation runs and
        a full collection comes before it: where an automatic collection
        would land depends on the seed, and it moved up to 15 ms from one
        phase to another.
        """
        self.attempted += 1
        gc.collect()
        gc.disable()
        try:
            run = pipeline.simulate(self.text, self.filename, self.artifacts,
                                    self.outdir, probe)
            problems = self.check(run.digests(), run if full_check else None)
        except Exception as exc:  # a failing run is counted, not fatal
            run, problems = None, [f"raised {exc!r}"]
        finally:
            gc.enable()
        return run if self.count(problems) else None

    def check(self, digests, run=None) -> list:
        problems = []
        if run is not None:
            problems.extend(pipeline.check_run(run, self.window))
        if self.reference is None:
            self.reference = digests
            committed = self.committed_digests()
            if committed is not None:
                problems.extend(pipeline.check_digests(
                    digests, committed, "the committed digest"))
        else:
            problems.extend(pipeline.check_digests(
                digests, self.reference, "the first run of this seed"))
        return problems

    def count(self, problems) -> bool:
        """Record a finished attempt's problems; True when there were none."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def too_many_failures(self) -> bool:
        return self.failed > self.attempted // 2

    def rss_probe(self):
        """Peak RSS (MiB) of a fresh process that runs the workload once."""
        cmd = [sys.executable, str(HERE / "run.py"), "--rss-probe",
               "--workload", self.name, "--seed", str(self.seed),
               "--scale", repr(self.scale)]
        self.attempted += 1
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            self.count([f"RSS probe exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}"])
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not self.count(self.check(out["digests"])):
            return None
        return out["maxrss_kb"] / 1024


def timed_runs(bench, seconds):
    """Back-to-back runs until ``seconds`` passed; returns the good ones."""
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        if bench.too_many_failures():
            break
        gc.collect()  # the last run's garbage must not slow the sample
        bench.calibration.append(calibration.sample())
        run = bench.attempt()
        if run is not None:
            run.kernel = run.records = run.texts = None  # keep the times
            runs.append(run)
    return runs


def metric(value, unit):
    return {"value": value, "unit": unit}
