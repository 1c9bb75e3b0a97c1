"""Gantt rendering: glyph rows, boundary markers, SVG shape, determinism."""

from xml.dom import minidom

import pytest
from hypothesis import given, settings, strategies as st

from rtksim.engine import Annotation
from rtksim.errors import ConsistencyError, ValidationError
from rtksim.gantt import LEGEND, render_svg_gantt, render_text_gantt
from rtksim.kernel import Kernel
from rtksim.scenario import build_kernel, demo_scenario_path, load_scenario
from rtksim.trace import (
    CTL_INT_ENTER,
    CTL_INT_RETURN,
    CTL_PREEMPT,
    ListSink,
    TraceRecord,
    rows,
)


def work(start, end, tid, ctx="TASK", label="crunch"):
    return TraceRecord(start, end, tid, f"T{tid}", ctx, label,
                       end - start, 0, "CONTINUE_RUN")


def ctl(tick, tid, label):
    return TraceRecord(tick, tick, tid, f"T{tid}", "TASK", label, 0, 0, "")


def preemption_records():
    """HI sleeps two ticks, then preempts LO mid-burst.

    Service cost is zeroed so the rows carry task/idle glyphs only:
    LO runs ticks 0..1 and 4..7, HI runs 2..3, idle fills 8..9.
    """
    k = Kernel(svc_etm=0, svc_eem_uj=0)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)

    def hi(ctx):
        yield from ctx.kernel.sleep(2)
        yield from ctx.api.wait(Annotation("h", 2, 0))

    def lo(ctx):
        yield from ctx.api.wait(Annotation("lo", 6, 0))

    k.declare_task(1, "HI", 3, hi)
    k.declare_task(2, "LO", 7, lo)
    k.boot()
    k.run(10)
    k.finish()
    return sink.records


GOLDEN = (
    "Execution Trace (ticks 0..9)\n"
    "        0         \n"
    "        0123456789\n"
    "1 HI    ..##......\n"
    "2 LO    ##..####..\n"
    "          >\n"
    "3 IDLE  ........ii\n"
    "legend: # task  S service  B bus  I isr  C cyclic  A alarm  "
    "i idle  ^ int-enter  v int-return  > preempt\n"
)


def test_text_gantt_matches_golden():
    assert render_text_gantt(preemption_records(), 10) == GOLDEN


def test_context_glyphs():
    records = [
        work(0, 1, 1, "SVC"),
        work(1, 2, 1, "BFM"),
        work(2, 3, 1, "ISR"),
        work(3, 4, 1, "CYC_HANDLER"),
        work(4, 5, 1, "ALM_HANDLER"),
        work(5, 6, 1, "IDLE"),
    ]
    text = render_text_gantt(records, 6)
    assert "1 T1  SBICAi\n" in text


def test_marker_precedence_at_a_shared_boundary():
    records = [
        work(0, 2, 1),
        ctl(2, 1, CTL_PREEMPT),
        ctl(2, 1, CTL_INT_ENTER),
        work(3, 4, 2),
        ctl(3, 2, CTL_PREEMPT),
        ctl(3, 2, CTL_INT_RETURN),
    ]
    lines = render_text_gantt(records, 5).splitlines()
    assert lines[4] == "        ^"      # enter outranks preempt
    assert lines[6] == "         v"     # return outranks preempt


def test_markers_past_the_window_are_dropped():
    records = [work(0, 2, 1), ctl(7, 1, CTL_PREEMPT)]
    text = render_text_gantt(records, 5)
    assert ">" not in text.replace("> preempt", "")


def _laid_out(items):
    """Records laid end to end from (kind, tid, context, etm, repeat, gap)
    items: a segment of ``repeat`` rows of ``etm`` ticks each, a service's
    section of ``etm - 1`` ticks in ``context``, or a marker at the
    current tick."""
    records, tick = [], 0
    for kind, tid, context, etm, repeat, gap in items:
        tick += gap
        if kind in (CTL_INT_ENTER, CTL_INT_RETURN, CTL_PREEMPT):
            records.append(ctl(tick, tid, kind))
            continue
        if kind == "svc":
            end = tick + etm - 1
            records.append(TraceRecord(tick, end, tid, f"T{tid}", "SVC",
                                       "svc", etm - 1, 0, "CONTINUE_RUN", 1,
                                       context))
            tick = end
            continue
        end = tick + etm * repeat
        records.append(TraceRecord(tick, end, tid, f"T{tid}", context, kind,
                                   etm, 0, "CONTINUE_RUN", repeat))
        tick = end
    return records


_items = st.tuples(
    st.sampled_from(["w", "idle", "svc", CTL_INT_ENTER, CTL_INT_RETURN,
                     CTL_PREEMPT]),
    st.integers(1, 3), st.sampled_from(sorted(LEGEND)), st.integers(1, 3),
    st.integers(1, 4), st.integers(0, 2))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(items=st.lists(_items, max_size=10), ticks=st.integers(1, 40))
def test_repeated_records_render_as_their_rows(items, ticks):
    records = _laid_out(items)
    expanded = list(rows(records))
    assert (render_text_gantt(records, ticks)
            == render_text_gantt(expanded, ticks))
    assert (render_svg_gantt(records, ticks)
            == render_svg_gantt(expanded, ticks))


def test_overlapping_claims_are_rejected():
    records = [work(0, 3, 1), work(2, 5, 2)]
    with pytest.raises(ConsistencyError):
        render_text_gantt(records, 6)
    with pytest.raises(ConsistencyError):
        render_svg_gantt(records, 6)


@pytest.mark.parametrize("render", [render_text_gantt, render_svg_gantt])
@pytest.mark.parametrize("ticks", [0, -1, True, 2.0])
def test_a_chart_covers_at_least_one_tick(render, ticks):
    with pytest.raises(ValidationError, match="at least 1 tick"):
        render([], ticks)


def test_svg_is_wellformed_and_describes_the_run():
    records = preemption_records()
    svg = render_svg_gantt(records, 10)
    doc = minidom.parseString(svg)
    assert doc.documentElement.tagName == "svg"
    # 3 thread rows, 10 cell columns
    assert doc.documentElement.getAttribute("width") == "240"
    assert doc.documentElement.getAttribute("height") == "154"

    patterns = {p.getAttribute("id")
                for p in doc.getElementsByTagName("pattern")}
    assert patterns == {fid for key, (_g, fid, _c) in LEGEND.items()
                        if key != "STARTUP"}
    titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
    assert "LO lo [4,8)" in titles
    assert 'fill="#a02020"' in svg       # the preemption wedge


def test_renderers_are_deterministic_functions():
    records = preemption_records()
    assert render_text_gantt(records, 10) == render_text_gantt(records, 10)
    assert render_svg_gantt(records, 10) == render_svg_gantt(records, 10)


def demo_records():
    scn = load_scenario(demo_scenario_path())
    k = build_kernel(scn)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(scn.run_ticks)
    k.finish()
    return sink.records, scn.run_ticks


def test_demo_renders_identically_across_runs():
    rec1, ticks = demo_records()
    rec2, _ = demo_records()
    assert render_text_gantt(rec1, ticks) == render_text_gantt(rec2, ticks)
    assert render_svg_gantt(rec1, ticks) == render_svg_gantt(rec2, ticks)
