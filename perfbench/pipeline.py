"""One simulation, scenario text to written artifacts, as `rtk-sim run` does it.

The sequence and the renderer calls mirror `rtksim.cli._cmd_run`: parse,
build_kernel, a buffering ListSink, boot, run, finish, then the
requested artifacts in the CLI's order.  The phases are timed with
`time.perf_counter`; the output checks run afterwards, outside every
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from pathlib import Path

from rtksim.debugds import dump_listing, parse_listing, take_snapshot
from rtksim.errors import ConsistencyError, ValidationError
from rtksim.gantt import render_svg_gantt
from rtksim.report import build_report, render_json, render_text, usage_from_records
from rtksim.scenario import build_kernel, parse_scenario_text
from rtksim.trace import ListSink, records_to_csv, running_vector

# artifact kind -> (file name, per-layer metric that times it, renderer)
RENDERERS = {
    "trace": ("trace.csv", "trace.csv_s",
              lambda run: records_to_csv(run.records)),
    "device_log": ("devlog.csv", "bfm.log_csv_s",
                   lambda run: run.kernel.devices.log_csv()),
    "dump": ("dump.txt", "debugds.dump_s",
             lambda run: dump_listing(take_snapshot(run.kernel))),
    "report_text": ("report.txt", "report.s",
                    lambda run: render_text(_report(run))),
    "report_json": ("report.json", "report.s",
                    lambda run: render_json(_report(run))),
    "gantt_svg": ("gantt.svg", "gantt.svg_s",
                  lambda run: render_svg_gantt(run.records, run.elapsed)),
}


def _report(run):
    return build_report(usage_from_records(run.records),
                        run_ticks=run.elapsed, tick_us=run.kernel.tick_us,
                        battery_uj=run.scenario.battery_uj)


class Run:
    """What one simulation produced, with its phase times in seconds."""

    def __init__(self):
        self.scenario = None
        self.kernel = None
        self.records = None
        self.elapsed = 0
        self.texts = {}          # artifact kind -> text as written
        self.setup_s = 0.0       # parse + build_kernel + boot
        self.run_s = 0.0         # run + finish
        self.artifacts_s = 0.0   # render + write every requested artifact
        self.wall_s = 0.0        # all of the above

    def digests(self) -> dict:
        return {kind: hashlib.sha256(text.encode("utf-8")).hexdigest()
                for kind, text in self.texts.items()}


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8", newline="\n")


def setup(text: str, filename: str, sink, probe=None):
    """Parse, build and boot; returns (scenario, kernel)."""
    span = probe.span if probe else contextlib.nullcontext
    with span("parse"):
        scn = parse_scenario_text(text, filename)
    with span("build"):
        kernel = build_kernel(scn)
        kernel.attach_sinks(trace_sink=sink, report_sink=None)
    if probe:
        probe.built(kernel)
    with span("boot"):
        kernel.boot()
    return scn, kernel


def simulate(text: str, filename: str, artifacts, outdir: Path,
             probe=None) -> Run:
    """Run one scenario end to end and write ``artifacts`` into ``outdir``.

    ``probe`` is the traced run's instrumentation; the end-to-end runs
    pass None and execute the program unchanged.
    """
    clock = time.perf_counter
    span = probe.span if probe else contextlib.nullcontext
    run = Run()
    records = ListSink()
    sink = probe.sink(records) if probe else records
    t0 = clock()
    run.scenario, run.kernel = setup(text, filename, sink, probe)
    if probe:
        probe.booted(run.kernel)
    t1 = clock()
    with span("run"):
        run.kernel.run(run.scenario.run_ticks)
        run.kernel.finish()
    t2 = clock()
    run.records = records.records
    run.elapsed = run.kernel.engine.now
    for kind in artifacts:
        fname, layer, render = RENDERERS[kind]
        with span(layer):
            text_out = render(run)
            _write(outdir / fname, text_out)
        run.texts[kind] = text_out
    t3 = clock()
    run.setup_s = t1 - t0
    run.run_s = t2 - t1
    run.artifacts_s = t3 - t2
    run.wall_s = t3 - t0
    return run


# ----------------------------------------------------------------------
# output checks

def check_run(run: Run, window: int) -> list:
    """Model invariants of one finished run; returns a list of problems."""
    problems = []
    kernel = run.kernel
    if run.elapsed != window:
        problems.append(f"ran {run.elapsed} of {window} ticks")
    if kernel.deadlock_report is not None:
        problems.append(f"deadlock reported: {kernel.deadlock_report!r}")
    cet = sum(th.token.cet for th in kernel.engine.threads())
    if cet != window:
        problems.append(f"thread CETs sum to {cet}, not the window {window}")
    try:
        vec = running_vector(run.records, window)
    except ConsistencyError as exc:
        problems.append(f"running_vector rejects the trace: {exc}")
    else:
        if None in vec:
            problems.append(f"tick {vec.index(None)} is claimed by no thread")
    listing = run.texts.get("dump")
    if listing is None:
        listing = dump_listing(take_snapshot(kernel))
    problems.extend(check_dump(listing))
    return problems


def check_dump(listing: str) -> list:
    """The dump must parse back and re-render to the same bytes."""
    try:
        again = dump_listing(parse_listing(listing))
    except ValidationError as exc:
        return [f"dump does not parse back: {exc}"]
    if again != listing:
        return ["dump does not round-trip through parse_listing"]
    return []


def check_digests(digests: dict, expected: dict, what: str) -> list:
    """Compare artifact digests; ``expected`` may name a subset."""
    problems = []
    for kind in sorted(set(digests) | set(expected)):
        if digests.get(kind) != expected.get(kind):
            problems.append(f"{kind} differs from {what}")
    return problems
