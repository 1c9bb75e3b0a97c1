"""The bundled demo's artifacts keep their bytes.

Runs `rtk-sim run` in process on the demo scenario and compares the
sha256 of every artifact it writes with the digests pinned below: the
full run's trace CSV, SVG and text Gantt charts, text and JSON reports,
kernel-state dump and device log; the 2000-tick run that stops with
exit 4 at the LCD's FIFO overflow; and the 500-tick step-mode run.  It
also pins the text `scenario_to_yaml` writes for the demo and for the
benchmark workloads at seed 1.  A change that moves a digest on purpose
updates it here and says which one moved, and why.
"""

import hashlib

import pytest

from rtksim.cli import EXIT_OK, EXIT_RUN_ERROR, main
from rtksim.scenario import (
    demo_scenario_path,
    parse_scenario_text,
    scenario_to_yaml,
)
from test_bench_digests import SEED, workloads

# artifact file -> the flags that write it, before its path
_FLAGS = {
    "trace.csv": ("--trace",),
    "gantt.svg": ("--gantt", "svg", "--gantt-out"),
    "gantt.txt": ("--gantt", "text", "--gantt-out"),
    "report.txt": ("--report", "text", "--report-out"),
    "report.json": ("--report", "json", "--report-out"),
    "dump.txt": ("--ds-dump",),
    "devlog.csv": ("--device-log",),
}

# run -> (its options, exit code, artifact -> sha256)
RUNS = {
    "demo": ((), EXIT_OK, {
        "trace.csv": "73961d20008900de74bc8db111f310c491eae0cf8cc84d7a43714ff068bbe240",
        "gantt.svg": "aa920445dd2936805282f0a9d075e781f602eacd6563bc5cb5f8cb1b8316152d",
        "report.txt": "8e06f8ab44dc6882403c6b38bdd8299dbe6fbd7d97c6a8f3f5607cc7f645c68a",
        "dump.txt": "ac9098a3c92a068524b93e9585caa3e6cf3196d2f39c9de8e1a5eb5edb98b5d7",
        "devlog.csv": "eb8ebe8569857f53291a44fb237c7d6bb2ab6b164fbae4f73f941ce5c507c8eb",
    }),
    "demo-text-gantt-json-report": ((), EXIT_OK, {
        "gantt.txt": "5134169bde6e8912a2edd1207c8292163813000e18da4d6f0b251ecd393693f4",
        "report.json": "4c59d98f9e7f1c71095d05195aae2fa19664c7fcbbdde8cacb7340260d8c2fb9",
    }),
    "until-2000": (("--until", "2000"), EXIT_RUN_ERROR, {
        "trace.csv": "420ac443a0ba8c26b1daec3fa2cab8796b1efbaff7be3fbe41a95077b2bd757d",
        "dump.txt": "5316ca946588c12910f36185a15ba7cd7c74b018b8fbee5418fb0f49b14fe8c1",
    }),
    "step-500": (("--until", "500", "--mode", "step", "--steps", "500"),
                 EXIT_OK, {
        "trace.csv": "d5890e12aa4aa5c7c43baf912138b5a414385493113efde4df9af85d791166e4",
        "dump.txt": "eaa60a146090042973c56a0277ce7f8e74d7dcd2d7ca5cb9df3ed5149a9e80c9",
    }),
}


@pytest.mark.parametrize("run", RUNS)
def test_demo_artifacts_match_their_digests(run, tmp_path, capsys):
    options, code, digests = RUNS[run]
    argv = ["run", str(demo_scenario_path()), *options]
    for name in digests:
        argv += [*_FLAGS[name], str(tmp_path / name)]
    assert main(argv) == code
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
    if code == EXIT_RUN_ERROR:
        assert capsys.readouterr().err == (
            "rtk-sim: error at tick 1291 while thread LCD was running: "
            "device lcd: out FIFO overflow at 128\n")


# scenario -> sha256 of scenario_to_yaml(parse_scenario_text(its text))
SERIALIZED = {
    "demo": "790f0a31b644c91e958abf4e12a25b93c02e2e6695090e689239c91b97c78956",
    "steady": "6dd56da5b5aafc1898cf833db0a4c248ca24f87f759360a07c1da1cb65c81618",
    "sparse": "06432bba0b3c95a3440b3bac386831a4a7ca6a32241b5a749f47bff9f27c9ae1",
    "wide": "9451543034fd5736b97ea11f46328a426b35fabcafdec36e5ae96affbdb3f519",
}


@pytest.mark.parametrize("name", SERIALIZED)
def test_serialized_scenarios_match_their_digests(name):
    if name == "demo":
        text = demo_scenario_path().read_text(encoding="utf-8")
    else:
        text = workloads.generate(name, SEED)
    out = scenario_to_yaml(parse_scenario_text(text))
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SERIALIZED[name]
