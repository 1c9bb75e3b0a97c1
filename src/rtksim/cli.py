"""Command-line front end.

`rtk-sim run <scenario>` simulates one scenario file and emits whichever
artifacts were requested: trace CSV, usage/battery report, Gantt chart,
kernel-state dump, device output log.  `rtk-sim demo-path` prints where
the bundled demo scenario lives.

Exit codes: 0 clean completion, 2 validation or usage error (boot
included, and a scenario that cannot be read or is not UTF-8, or an
artifact path that cannot be written), 3 deadlock, 4 any other error
during the run.  On 3 and 4 the artifacts are still flushed first, up to
the tick the run stopped at.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .debugds import dump_listing, take_snapshot
from .errors import DeadlockError, ScenarioError, SimError
from .gantt import render_svg_gantt, render_text_gantt
from .report import build_report, render_json, render_text, usage_from_records
from .scenario import build_kernel, demo_scenario_path, load_scenario
from .trace import ListSink, records_to_csv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DEADLOCK = 3
EXIT_RUN_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rtk-sim",
        description="Deterministic RTOS simulator: run scenario files and "
                    "collect traces, usage reports, and kernel-state dumps.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario file")
    run.add_argument("scenario", help="path to a scenario YAML file")
    run.add_argument("--until", type=int, metavar="TICKS",
                     help="override the scenario's run length")
    run.add_argument("--mode", choices=("run", "step"), default="run",
                     help="free-run to the end, or advance tick by tick")
    run.add_argument("--steps", type=int, metavar="N",
                     help="step mode: advance N ticks without prompting")
    run.add_argument("--tick-us", type=int, metavar="N", dest="tick_us",
                     help="override the simulated tick length in microseconds")
    run.add_argument("--trace", metavar="PATH",
                     help="write the execution trace CSV here")
    run.add_argument("--report", choices=("text", "json"),
                     help="emit the time/energy distribution report")
    run.add_argument("--report-out", metavar="PATH",
                     help="write the report here instead of stdout")
    run.add_argument("--gantt", choices=("text", "svg"),
                     help="emit a Gantt chart of the run")
    run.add_argument("--gantt-out", metavar="PATH",
                     help="write the Gantt chart here instead of stdout")
    run.add_argument("--ds-dump", metavar="PATH", dest="ds_dump",
                     help="write the final kernel-state listing here")
    run.add_argument("--device-log", metavar="PATH", dest="device_log",
                     help="write the peripheral output log CSV here")

    sub.add_parser("demo-path",
                   help="print the path of the bundled demo scenario")
    return p


def _fail(message: str) -> int:
    print(f"rtk-sim: {message}", file=sys.stderr)
    return EXIT_INVALID


class _WriteError(Exception):
    """An artifact path that cannot be written."""


def _write_artifact(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from None


def _step_loop(kernel, window: int, steps) -> None:
    """Advance tick by tick, from --steps or interactive commands."""
    if steps is not None:
        for _ in range(min(steps, window)):
            kernel.step()
        return
    prompt = ""
    if sys.stdin.isatty():
        prompt = "(s)tep  (ds) state dump  (q)uit > "
    while kernel.engine.now < window:
        try:
            line = input(prompt)
        except EOFError:
            break
        cmd = line.strip().lower()
        if cmd in ("", "s", "step"):
            kernel.step()
        elif cmd == "ds":
            sys.stdout.write(dump_listing(take_snapshot(kernel)))
        elif cmd in ("q", "quit"):
            break
        else:
            print(f"unknown command {cmd!r} (expected s, ds, or q)",
                  file=sys.stderr)


def _run_error(engine, exc) -> str:
    """Describe an error raised mid-run by the tick and the running thread."""
    cur = engine.current_id
    who = (f"while thread {engine.thread(cur).name} was running"
           if cur is not None else "with no thread running")
    return f"error at tick {engine.now} {who}: {exc}"


def _write_artifacts(args, scn, kernel, records, elapsed: int) -> None:
    """Write or print every artifact the arguments ask for."""
    if args.trace:
        _write_artifact(args.trace, records_to_csv(records))
    if args.device_log:
        _write_artifact(args.device_log, kernel.devices.log_csv())
    if args.ds_dump:
        _write_artifact(args.ds_dump, dump_listing(take_snapshot(kernel)))

    if args.report or args.report_out:
        if elapsed < 1:
            print("rtk-sim: no ticks elapsed, skipping report",
                  file=sys.stderr)
        else:
            rep = build_report(usage_from_records(records),
                               run_ticks=elapsed, tick_us=kernel.tick_us,
                               battery_uj=scn.battery_uj)
            text = render_json(rep) if args.report == "json" else render_text(rep)
            if args.report_out:
                _write_artifact(args.report_out, text)
            else:
                sys.stdout.write(text)

    if args.gantt or args.gantt_out:
        if elapsed < 1:
            print("rtk-sim: no ticks elapsed, skipping Gantt chart",
                  file=sys.stderr)
        else:
            render = (render_svg_gantt if args.gantt == "svg"
                      else render_text_gantt)
            chart = render(records, elapsed)
            if args.gantt_out:
                _write_artifact(args.gantt_out, chart)
            else:
                sys.stdout.write(chart)


def _cmd_run(args) -> int:
    try:
        scn = load_scenario(args.scenario)
    except OSError as exc:
        return _fail(f"cannot read scenario: {exc}")
    except ScenarioError as exc:
        print(f"rtk-sim: {exc}", file=sys.stderr)
        return EXIT_INVALID

    window = args.until if args.until is not None else scn.run_ticks
    if window < 1:
        return _fail("--until must be >= 1")
    if args.steps is not None:
        if args.mode != "step":
            return _fail("--steps only applies to --mode step")
        if args.steps < 0:
            return _fail("--steps must be >= 0")
    if args.tick_us is not None:
        if args.tick_us < 1:
            return _fail("--tick-us must be >= 1")
        scn = scn._replace(tick_us=args.tick_us)

    sink = ListSink()
    try:
        kernel = build_kernel(scn)
        kernel.attach_sinks(trace_sink=sink)
        kernel.boot()
    except SimError as exc:
        return _fail(str(exc))

    deadlock = None
    failure = None
    wall0 = time.perf_counter()
    try:
        if args.mode == "run":
            kernel.run(window)
        else:
            _step_loop(kernel, window, args.steps)
    except DeadlockError as exc:
        deadlock = (exc.tick, exc.blocked)
    except SimError as exc:
        failure = _run_error(kernel.engine, exc)
    wall = time.perf_counter() - wall0
    kernel.finish()
    if deadlock is None:
        deadlock = kernel.deadlock_report

    # artifacts cover exactly the ticks that actually elapsed
    elapsed = kernel.engine.now
    try:
        _write_artifacts(args, scn, kernel, sink.records, elapsed)
    except _WriteError as exc:
        return _fail(str(exc))

    rate = int(elapsed / wall) if wall > 0 else elapsed
    print(f"simulated {elapsed} ticks in {wall:.3f} s wall "
          f"({rate} ticks/s)")

    if failure is not None:
        print(f"rtk-sim: {failure}", file=sys.stderr)
        return EXIT_RUN_ERROR
    if deadlock is not None:
        tick, blocked = deadlock
        names = ", ".join(f"{tid}:{name} ({why})" for tid, name, why in blocked)
        print(f"rtk-sim: deadlock at tick {tick}: {names}", file=sys.stderr)
        return EXIT_DEADLOCK
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo-path":
        print(demo_scenario_path())
        return EXIT_OK
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
