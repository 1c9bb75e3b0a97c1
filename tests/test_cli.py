"""Command-line behavior: exit codes, artifacts, step mode, overrides."""

import io
import json
from xml.dom import minidom

import pytest

from rtksim.bfm import DEVICE_LOG_HEADER
from rtksim.cli import EXIT_DEADLOCK, EXIT_INVALID, EXIT_OK, EXIT_RUN_ERROR, main
from rtksim.errors import ValidationError
from rtksim.kernel import Kernel
from rtksim.scenario import demo_scenario_path
from rtksim.trace import CSV_HEADER


DEMO = str(demo_scenario_path())

DEADLOCKED = """\
run_ticks: 20
tasks:
  - id: 1
    name: A
    priority: 5
    behavior:
      - {call: sleep}
  - id: 2
    name: B
    priority: 6
    behavior:
      - {call: sleep}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_demo_path_prints_the_bundled_scenario(capsys):
    assert main(["demo-path"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == DEMO and out.endswith("demo.yaml")


def test_run_writes_every_requested_artifact(tmp_path, capsys):
    paths = {name: str(tmp_path / name) for name in
             ("trace.csv", "report.txt", "gantt.svg", "state.txt", "dev.csv")}
    rc = main([
        "run", DEMO, "--until", "50",
        "--trace", paths["trace.csv"],
        "--report", "text", "--report-out", paths["report.txt"],
        "--gantt", "svg", "--gantt-out", paths["gantt.svg"],
        "--ds-dump", paths["state.txt"],
        "--device-log", paths["dev.csv"],
    ])
    assert rc == EXIT_OK
    trace = (tmp_path / "trace.csv").read_text()
    assert trace.startswith(CSV_HEADER + "\n")
    report = (tmp_path / "report.txt").read_text()
    assert report.startswith("Consumed Time/Energy Distribution\n")
    assert "Window : 50 ticks" in report
    svg = (tmp_path / "gantt.svg").read_text()
    minidom.parseString(svg)
    listing = (tmp_path / "state.txt").read_text()
    assert listing.startswith("Debug Support (DS)\nSnapshot Tick : 50\n")
    devlog = (tmp_path / "dev.csv").read_text()
    assert devlog.startswith(DEVICE_LOG_HEADER + "\n")
    out = capsys.readouterr().out
    assert "simulated 50 ticks" in out


def test_report_and_gantt_go_to_stdout_by_default(capsys):
    rc = main(["run", DEMO, "--until", "20", "--report", "text",
               "--gantt", "text"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "Consumed Time/Energy Distribution" in out
    assert "Execution Trace (ticks 0..19)" in out
    assert "legend: # task" in out


def test_json_report_round_trips(tmp_path):
    out = str(tmp_path / "rep.json")
    rc = main(["run", DEMO, "--until", "30", "--report", "json",
               "--report-out", out])
    assert rc == EXIT_OK
    data = json.loads((tmp_path / "rep.json").read_text())
    assert data["run_ticks"] == 30
    assert data["battery"]["capacity_mj"] == "36000000"


def test_unreadable_scenario_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.yaml")])
    assert rc == EXIT_INVALID
    assert "cannot read scenario" in capsys.readouterr().err


def test_non_utf8_scenario_is_a_located_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"run_ticks: 5\nname: caf\xe9\n")
    assert main(["run", str(path)]) == EXIT_INVALID
    assert f"{path}:2: not UTF-8 text" in capsys.readouterr().err


def test_invalid_scenario_lists_problems(tmp_path, capsys):
    path = write(tmp_path, "bad.yaml", "run_ticks: 0\ntasks: []\n")
    rc = main(["run", path])
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert "scenario validation failed" in err
    assert "bad.yaml:1" in err


def test_a_merge_key_is_a_located_usage_error(tmp_path, capsys):
    path = write(tmp_path, "merge.yaml",
                 DEADLOCKED.replace("run_ticks: 20\n", "<<: {run_ticks: 20}\n"))
    assert main(["run", path]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path}:1: merge keys are not supported" in err
    assert "Traceback" not in err and "missing" not in err


@pytest.mark.parametrize("argv_extra,fragment", [
    (["--until", "0"], "--until must be >= 1"),
    (["--steps", "5"], "--steps only applies"),
    (["--mode", "step", "--steps", "-1"], "--steps must be >= 0"),
    (["--tick-us", "0"], "--tick-us must be >= 1"),
])
def test_flag_validation(capsys, argv_extra, fragment):
    rc = main(["run", DEMO] + argv_extra)
    assert rc == EXIT_INVALID
    assert fragment in capsys.readouterr().err


def test_deadlock_exits_three_but_flushes_artifacts(tmp_path, capsys):
    scn = write(tmp_path, "dl.yaml", DEADLOCKED)
    trace = str(tmp_path / "trace.csv")
    rc = main(["run", scn, "--trace", trace])
    assert rc == EXIT_DEADLOCK
    err = capsys.readouterr().err
    assert "deadlock at tick 3" in err
    assert "1:A (sleep)" in err and "2:B (sleep)" in err
    assert (tmp_path / "trace.csv").read_text().startswith(CSV_HEADER)


@pytest.mark.parametrize("flag,name,reason", [
    ("--trace", "missing/t.csv", "No such file or directory"),
    ("--ds-dump", ".", "Is a directory"),
])
def test_unwritable_artifact_path_exits_two(tmp_path, capsys, flag, name,
                                            reason):
    path = tmp_path / name
    assert main(["run", DEMO, "--until", "50", flag, str(path)]) == EXIT_INVALID
    assert f"rtk-sim: cannot write {path}: {reason}" in capsys.readouterr().err


def test_run_time_error_exits_four_but_flushes_artifacts(tmp_path, capsys):
    # the demo's lcd output FIFO holds 128 bytes and is never drained
    trace = tmp_path / "trace.csv"
    rc = main(["run", DEMO, "--until", "2000", "--trace", str(trace)])
    assert rc == EXIT_RUN_ERROR
    err = capsys.readouterr().err
    assert ("error at tick 1291 while thread LCD was running: "
            "device lcd: out FIFO overflow at 128") in err
    clean = tmp_path / "clean.csv"
    assert main(["run", DEMO, "--until", "1291", "--trace", str(clean)]) == EXIT_OK
    assert trace.read_bytes() == clean.read_bytes()


def test_a_handler_that_waits_exits_four(monkeypatch, tmp_path, capsys):
    # a scenario cannot declare a handler that waits, so declare one in
    # Python: its semaphore is empty
    def waiting_kernel(scn):
        kernel = Kernel()
        kernel.declare_semaphore(1, 0)

        def handler(ctx):
            yield from ctx.kernel.sem_wait(1)
        kernel.declare_cyclic(1, "H", 5, handler)
        return kernel
    monkeypatch.setattr("rtksim.cli.build_kernel", waiting_kernel)
    scn = write(tmp_path, "scn.yaml", DEADLOCKED)
    trace = tmp_path / "trace.csv"
    assert main(["run", scn, "--trace", str(trace)]) == EXIT_RUN_ERROR
    assert ("rtk-sim: error at tick 5 while thread H was running: "
            "H: a handler cannot wait (semaphore 1)") in capsys.readouterr().err
    # refused at the call: no service segment was charged
    assert trace.read_text().splitlines()[-1] == (
        "5,5,1,H,CYC_HANDLER,INT_ENTER,0,0,STARTUP")


def test_boot_error_exits_two(monkeypatch, capsys):
    def failing_boot(self):
        raise ValidationError("boot refused")
    monkeypatch.setattr(Kernel, "boot", failing_boot)
    assert main(["run", DEMO]) == EXIT_INVALID
    assert "rtk-sim: boot refused" in capsys.readouterr().err


def test_report_mode_deadlock_still_exits_three(tmp_path, capsys):
    scn = write(tmp_path, "dl.yaml", DEADLOCKED + "on_deadlock: report\n")
    rc = main(["run", scn])
    assert rc == EXIT_DEADLOCK
    captured = capsys.readouterr()
    assert "simulated 20 ticks" in captured.out    # the run completed
    assert "deadlock at tick 3" in captured.err


def test_step_mode_reproduces_the_free_run(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", DEMO, "--until", "40", "--trace", a]) == EXIT_OK
    assert main(["run", DEMO, "--until", "40", "--mode", "step",
                 "--steps", "40", "--trace", b]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_steps_clamp_to_the_window(capsys):
    rc = main(["run", DEMO, "--until", "25", "--mode", "step",
               "--steps", "500"])
    assert rc == EXIT_OK
    assert "simulated 25 ticks" in capsys.readouterr().out


def test_overrides_show_up_in_the_state_dump(tmp_path):
    dump = str(tmp_path / "state.txt")
    rc = main(["run", DEMO, "--until", "30", "--tick-us", "500",
               "--ds-dump", dump])
    assert rc == EXIT_OK
    listing = (tmp_path / "state.txt").read_text()
    assert "Snapshot Tick : 30" in listing
    assert "Run Time Unit : tick (500 us)" in listing


def test_interactive_step_commands(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("s\n\nds\nx\nq\n"))
    rc = main(["run", DEMO, "--until", "10", "--mode", "step"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    # "s" and the blank line each advance one tick before "q" stops the run
    assert "simulated 2 ticks" in captured.out
    assert "Debug Support (DS)" in captured.out
    assert "unknown command 'x'" in captured.err


@pytest.mark.parametrize("option, skipped, heading", [
    (["--report", "text"], "report", "Consumed Time/Energy Distribution"),
    (["--gantt", "text"], "Gantt chart", "Execution Trace"),
], ids=["report", "gantt"])
def test_zero_elapsed_ticks_skips_the_report(monkeypatch, capsys,
                                             option, skipped, heading):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rc = main(["run", DEMO, "--mode", "step", *option])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert f"no ticks elapsed, skipping {skipped}" in captured.err
    assert heading not in captured.out
