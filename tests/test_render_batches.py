"""The trace CSV and the SVG Gantt are rendered a batch of records at a
time (`trace.batches`): the batch size leaves every byte as it is, and
each renderer's memory peaks at about twice the text it returns.

The `steady` benchmark workload is loaded from `perfbench/` as
`tests/test_bench_digests.py` loads it; nothing there is written.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import perfbench
from rtksim import trace
from rtksim.gantt import render_svg_gantt
from rtksim.scenario import build_kernel, demo_scenario_path, load_scenario
from rtksim.trace import (
    CTL_DISPATCH,
    CTL_INT_ENTER,
    CTL_PREEMPT,
    ListSink,
    TraceRecord,
    records_to_csv,
)

SIZES = [1, 2, 3]
# a renderer's traced peak, above what was allocated before the call, in
# lengths of the text it returns: 2.79 (CSV) and 3.44 (SVG) on `steady`
# when every row's string was alive beside the join and its copy
PEAK_PER_TEXT = 2.25


def _rendered(records, ticks, size=None):
    """Both texts, with the batch size ``size`` (None: the default)."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(trace, "BATCH", size)
        return records_to_csv(records), render_svg_gantt(records, ticks)


@pytest.fixture(scope="module")
def demo():
    scn = load_scenario(demo_scenario_path())
    kernel = build_kernel(scn)
    sink = ListSink()
    kernel.attach_sinks(trace_sink=sink)
    kernel.boot()
    kernel.run(scn.run_ticks)
    kernel.finish()
    return sink.records, kernel.engine.now


@pytest.mark.parametrize("size", SIZES)
def test_the_batch_size_leaves_the_demo_bytes(demo, size):
    records, ticks = demo
    assert _rendered(records, ticks, size) == _rendered(records, ticks)


def test_batches_end_with_one_shorter_list():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace, "BATCH", 2)
        assert list(trace.batches(range(5))) == [[0, 1], [2, 3], [4]]
        assert list(trace.batches(range(4))) == [[0, 1], [2, 3], []]
        assert list(trace.batches([])) == [[]]


# records laid end to end from (kind, tid, etm) items: a segment, a
# marker or another control row, and ``repeated`` and ``section`` records
# put side by side at a batch edge

def _record(kind, tick, tid, etm):
    name = f"T{tid}"
    if kind == "repeated":
        # 250 one-tick rows reach the CSV's 100-row blocks
        repeat = 250 if etm == 1 else 3
        return TraceRecord(tick, tick + repeat * etm, tid, name, "IDLE",
                           "idle", etm, 1500, "CONTINUE_RUN", repeat)
    if kind == "section":
        return TraceRecord(tick, tick + etm, tid, name, "SVC", "svc", etm,
                           30, "STARTUP", 1, "TASK")
    if kind in (CTL_INT_ENTER, CTL_PREEMPT, CTL_DISPATCH):
        return TraceRecord(tick, tick, tid, name, "TASK", kind, 0, 0, "")
    return TraceRecord(tick, tick + etm, tid, name, "TASK", "work", etm, 999,
                       "CONTINUE_RUN")


def _laid_out(items):
    records, tick = [], 0
    for kind, tid, etm in items:
        records.append(_record(kind, tick, tid, etm))
        tick = records[-1].tick_end
    return records, max(tick, 1)


_items = st.tuples(
    st.sampled_from(["work", "repeated", "section", CTL_INT_ENTER,
                     CTL_PREEMPT, CTL_DISPATCH]),
    st.integers(1, 3), st.integers(1, 3))
_pair = st.permutations([("repeated", 3, 1), ("section", 2, 2)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(size=st.sampled_from(SIZES), head=st.lists(_items, max_size=2),
       pair=_pair, tail=st.lists(_items, max_size=8))
def test_the_batch_size_leaves_the_bytes_at_a_batch_edge(size, head, pair,
                                                         tail):
    # the pair's first record ends a batch and its second starts the next
    head = (head + [("work", 1, 1)] * size)[:size - 1]
    records, ticks = _laid_out(head + pair + tail)
    assert _rendered(records, ticks, size) == _rendered(records, ticks)


@pytest.fixture(scope="module")
def steady(tmp_path_factory):
    pipeline, workloads = perfbench("pipeline"), perfbench("workloads")
    run = pipeline.simulate(workloads.generate("steady", 1), "steady.yaml",
                            (), tmp_path_factory.mktemp("steady"))
    return run.records, run.elapsed


@pytest.mark.parametrize("render", [
    lambda records, ticks: records_to_csv(records),
    render_svg_gantt,
], ids=["csv", "svg"])
def test_a_renderers_peak_is_about_twice_its_text(steady, render):
    records, ticks = steady
    tracemalloc.start()   # traces only what is allocated from here on
    try:
        text = render(records, ticks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_PER_TEXT * len(text), peak / len(text)
