"""Deterministic tripwires for the Python call counts of a run and of
its artifacts.

Wall-clock speed on a shared host is too noisy for a unit test, but the
number of Python-level calls a run makes repeats exactly.  This runs the
untraced workloads of `perfbench/` at seed 1 under cProfile, from boot
to finish, and bounds the calls per simulated tick.
Compiled behavior programs and ready-made segment requests brought them
from 58.4 to 43.7 on steady and from 81.1 to 61.1 on wide (Python 3.11,
read through pstats).  Moving thread start, activation and return into
the engine, which removed the kernel's wrapper frame, brought them from
46.4 to 41.7 on steady and from 61.8 to 56.8 on wide, counted per code
object as below.  The limits sit below the parent's figures, so a change
that puts a generator frame back on every resume trips them.  Coasting
through the ticks that need no scheduling decision, with no tick hook,
brought `sparse` from 12.7 calls per tick to 2.6: what was left was the
record of each idle tick and the ~260 ticks that are stepped.
Making each kernel service one generator frame, with no ``_svc`` or
``_block`` frame under it, and keeping a charged segment's state on its
thread brought steady from 40.0 to 35.8 and wide from 55.6 to 49.3.
Their limits of 38 and 52 trip if the ``_svc`` frame comes back, which
costs ~2.5 calls per tick on steady.
Writing each coasted idle stretch as one record with a ``repeat`` count,
not one record per tick, brought `sparse` from 2.6 to 0.2: what is left
is the ~260 stepped ticks.  Its limit of 0.5 trips if idle goes back to
a record per tick.  ``ListSink`` appending through the list's own
method, with no Python frame per record, brought steady to 33.4 and wide
to 45.9.  Building each record where it is written, stepping a tick in
``run_one_tick`` with the gate called only when it has work, and sharing
one valueless service result brought steady from 32.3 to 25.4 and wide
from 43.7 to 34.6; their limits of 29 and 39 sit below the earlier
figures, so bringing back both the gate call and the record-building
frame on every tick trips them.  Running idle as one segment that never
ends, written as two records when it is preempted, interrupted or
finished, brought steady from 25.1 to 24.6, wide from 34.5 to 34.4 and
sparse from 0.143 to 0.129; resuming idle's body on every tick again
puts sparse past its limit.
Rendering a coasted stretch's one-tick rows 100 to a joined string,
not one string per row, brought the peak memory of ``sparse``'s CSV
render from 3.25 to 2.14 times the text's length (Python 3.11,
tracemalloc); its bound of 2.5 trips if the render goes back to a
string per row.  A call count cannot see that change: a block costs
more profiled calls than the rows' f-strings, which make none.
Building the scenario's data in one walk of the composed YAML node
tree, with no line map for a valid file and no PyYAML construct frame
per node, brought the parse of ``wide`` from 28.4 calls per composed
node to 15.6 (libyaml, Python 3.11).  Walking the parser's events, with
no composed node tree and so no node frame and no resolver descend and
ascend per node, brought it to 14.4; its limit of 14.5 trips if the
composer comes back.
Running each kernel service's critical section in the engine, which
opens it as it takes the service's SVC request and writes the section
as one record, with no ``_crit_enter`` or ``_crit_exit`` call and two
records fewer, brought steady from 24.6 to 22.2 and wide from 34.4 to
30.3 (sparse 0.129 to 0.120).  Their limits of 23 and 31 trip if the
service frames call into the engine for their sections again.
Reading each thread from the kernel's own table, with no
``engine.thread()`` call per waiter's priority in the inheritance walk,
brought wide from 30.25 to 29.46 (steady 22.19 to 21.95); wide's limit
of 30 trips if the walk goes back through the engine's lookup.
``CsvFileSink`` holding a batch of records and writing it as the chunk
``records_to_csv`` renders, not a ``csv_row`` line per record, brought
it from 15.6 calls per record on steady to 2.1; the renderers' limit
of 3 trips if it goes back to a call or two per record.

The calls are summed over the profiler's entries, one per code object.
pstats keys its table by file, line and name, and every dataclass
``__init__`` is ``<string>:2:__init__``, so it keeps one of them and drops
the rest.  Which one it keeps depends on what ran earlier in the process:
the same run read 40.5 calls per tick on steady alone and 42.6 after
other tests.
"""

import cProfile
import tracemalloc

import pytest
import yaml

from helpers import perfbench
from rtksim import scenario
from rtksim.gantt import render_svg_gantt
from rtksim.report import build_report, render_text, usage_from_records
from rtksim.scenario import build_kernel, parse_scenario_text
from rtksim.trace import CsvFileSink, ListSink, records_to_csv

SEED = 1

workloads = perfbench("workloads")


@pytest.mark.parametrize("name, limit", [
    ("steady", 23), ("wide", 30), ("sparse", 0.5)])
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
    calls = sum(entry.callcount for entry in profile.getstats())
    per_tick = calls / scn.run_ticks
    assert per_tick <= limit, f"{name}: {per_tick:.1f} calls per tick"


def _run(name):
    """The scenario, the kernel and the trace records of a run of
    workload ``name`` into a ``ListSink``."""
    scn = parse_scenario_text(workloads.generate(name, SEED), f"{name}.yaml")
    kernel = build_kernel(scn)
    sink = ListSink()
    kernel.attach_sinks(trace_sink=sink)
    kernel.boot()
    kernel.run(scn.run_ticks)
    kernel.finish()
    return scn, kernel, sink.records


@pytest.mark.parametrize("name, limit", [("steady", 3)])
def test_artifact_calls_per_record(name, limit):
    """The record-walking renderers, as the CLI runs them for ``steady``'s
    trace, text report and SVG Gantt chart, bounded per trace record.
    Formatting each repeated piece of row text once, summing the report
    without a dict method call per record and checking claims without the
    per-tick vector brought them from 11.3 to 1.7 calls per record, so a
    renderer that goes back to a call or two per record trips the limit."""
    scn, kernel, records = _run(name)
    elapsed = kernel.engine.now
    profile = cProfile.Profile()
    profile.enable()
    records_to_csv(records)
    render_text(build_report(usage_from_records(records), run_ticks=elapsed,
                             tick_us=kernel.tick_us,
                             battery_uj=scn.battery_uj))
    render_svg_gantt(records, elapsed)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    per_record = calls / len(records)
    assert per_record <= limit, f"{name}: {per_record:.1f} calls per record"


@pytest.mark.parametrize("name, limit", [("steady", 3)])
def test_csv_file_sink_calls_per_record(name, limit, tmp_path):
    """``CsvFileSink`` taking ``steady``'s trace record by record, as the
    engine hands it over, and closing, bounded per record by the
    renderers' limit."""
    _scn, _kernel, records = _run(name)
    sink = CsvFileSink(tmp_path / "trace.csv")
    record = sink.record
    profile = cProfile.Profile()
    profile.enable()
    for r in records:
        record(r)
    sink.close()
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    per_record = calls / len(records)
    assert per_record <= limit, f"{name}: {per_record:.1f} calls per record"


def test_csv_of_a_coasted_window_holds_no_string_per_row():
    """``sparse``'s trace is mostly coasted idle stretches, each two
    records; rendering them is bounded by the peak memory the render
    takes beside its own text."""
    _scn, _kernel, records = _run("sparse")
    tracemalloc.start()
    try:
        text = records_to_csv(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / len(text)
    assert ratio < 2.5, f"sparse: CSV render peaked at {ratio:.2f}x its text"


def _nodes(node):
    if node.id == "scalar":
        return 1
    if node.id == "sequence":
        return 1 + sum(map(_nodes, node.value))
    return 1 + sum(_nodes(k) + _nodes(v) for k, v in node.value)


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="the pure-Python parser makes calls per event")
def test_parse_calls_per_node():
    """``parse_scenario_text`` on ``wide``, bounded per node of the YAML
    node tree that libyaml composes, keys included."""
    text = workloads.generate("wide", SEED)
    nodes = _nodes(yaml.compose(text, Loader=scenario._Loader))
    parse_scenario_text(text, "wide.yaml")  # warm the regex caches
    profile = cProfile.Profile()
    profile.enable()
    parse_scenario_text(text, "wide.yaml")
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    per_node = calls / nodes
    assert per_node <= 14.5, f"wide: {per_node:.2f} calls per YAML node"
