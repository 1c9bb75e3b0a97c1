"""A deterministic tripwire for the run phase's Python call count.

Wall-clock speed on a shared host is too noisy for a unit test, but the
number of Python-level calls a run makes repeats exactly.  This runs the
untraced `steady` and `wide` workloads of `perfbench/` at seed 1 under
cProfile, from boot to finish, and bounds the calls per simulated tick.
Compiled behavior programs and ready-made segment requests brought them
from 58.4 to 43.7 on steady and from 81.1 to 61.1 on wide (Python 3.11);
a change that puts a generator frame back on every resume trips it.
"""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

from rtksim.scenario import build_kernel, parse_scenario_text
from rtksim.trace import ListSink

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _import_workloads():
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True   # write nothing under perfbench/
    try:
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return workloads


workloads = _import_workloads()


@pytest.mark.parametrize("name, limit", [("steady", 46), ("wide", 64)])
def test_run_phase_calls_per_tick(name, limit):
    scn = parse_scenario_text(workloads.generate(name, SEED), f"{name}.yaml")
    kernel = build_kernel(scn)
    kernel.attach_sinks(trace_sink=ListSink())
    kernel.boot()
    profile = cProfile.Profile()
    profile.enable()
    kernel.run(scn.run_ticks)
    kernel.finish()
    profile.disable()
    assert kernel.engine.now == workloads.window(name)
    per_tick = pstats.Stats(profile).total_calls / scn.run_ticks
    assert per_tick <= limit, f"{name}: {per_tick:.1f} calls per tick"
