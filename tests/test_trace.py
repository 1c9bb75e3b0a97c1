"""Trace record formatting and the running-thread reconstruction."""

import pytest
from hypothesis import example, given, settings, strategies as st

from rtksim.errors import ConsistencyError
from rtksim.report import usage_from_records
from rtksim.scenario import build_kernel, parse_scenario_text
from rtksim.trace import (
    CONTROL_LABELS,
    CSV_HEADER,
    CsvFileSink,
    ListSink,
    TraceRecord,
    check_claims,
    format_mj,
    records_to_csv,
    rows,
    running_vector,
    to_uj,
)


def work(start, end, tid, label="crunch", uj=0, event="CONTINUE_RUN"):
    return TraceRecord(start, end, tid, f"T{tid}", "TASK", label,
                       end - start, uj, event)


def ctl(tick, tid, label):
    return TraceRecord(tick, tick, tid, f"T{tid}", "TASK", label, 0, 0, "")


class TestEnergyFormatting:
    # microjoules in, millijoule strings out, trailing zeros trimmed
    @pytest.mark.parametrize("uj,text", [
        (0, "0"),
        (1, "0.001"),
        (50, "0.05"),
        (1000, "1"),
        (12345, "12.345"),
        (2000000, "2000"),
    ])
    def test_format(self, uj, text):
        assert format_mj(uj) == text

    @pytest.mark.parametrize("uj", [0, 1, 7, 999, 1000, 123456789])
    def test_round_trip(self, uj):
        assert to_uj(format_mj(uj), 1000) == uj


@pytest.mark.parametrize("value", [
    "inf", "nan", -1, "0.0001", True, [1], "1e800000", "1e999999",
    "0.50000000000000000000000000001", "1.0000000000000000000000000000001"])
def test_parse_mj_refuses_what_is_not_a_whole_micro_joule_count(value):
    with pytest.raises(ValueError, match="bad energy value"):
        to_uj(value, 1000)


def test_csv_row_shape():
    r = work(3, 7, 1, uj=2500, event="STARTUP")
    assert r.csv_row() == "3,7,1,T1,TASK,crunch,4,2.5,STARTUP"
    assert CSV_HEADER == ("tick_start,tick_end,thread_id,thread_name,"
                          "context_kind,label,etm_ticks,eem_mJ,event_kind")


def test_control_rows_are_zero_width():
    r = ctl(5, 2, "DISPATCH")
    assert r.is_control
    assert r.tick_start == r.tick_end
    assert not work(0, 1, 1).is_control


def test_records_to_csv_deterministic():
    rows = [work(0, 2, 1), ctl(2, 1, "BLOCK"), work(2, 3, 2)]
    text = records_to_csv(rows)
    assert text.startswith(CSV_HEADER + "\n")
    assert text == records_to_csv(rows)
    assert text.endswith("\n")


def test_running_vector_reconstruction():
    rows = [work(0, 2, 1), work(2, 5, 2), work(6, 7, 1)]
    assert running_vector(rows, 7) == [1, 1, 2, 2, 2, None, 1]


def test_running_vector_ignores_control_rows():
    rows = [ctl(0, 1, "DISPATCH"), work(0, 1, 1), ctl(1, 1, "EXIT")]
    assert running_vector(rows, 1) == [1]


def test_running_vector_rejects_overlap():
    rows = [work(0, 3, 1), work(2, 4, 2)]
    with pytest.raises(ConsistencyError):
        running_vector(rows, 4)


def test_records_are_slotted():
    r = work(0, 1, 1)
    assert not hasattr(r, "__dict__")
    with pytest.raises(AttributeError):
        r.note = "x"


# ----------------------------------------------------------------------
# the claim check against running_vector, and records_to_csv against
# csv_row, on generated record lists

def _claim_error(check, records, length):
    try:
        check(records, length)
    except ConsistencyError as exc:
        return str(exc)
    return None


_segments = st.builds(
    lambda start, width, tid: work(start, start + width, tid),
    st.integers(0, 12), st.integers(-1, 4), st.integers(1, 3))
_controls = st.builds(
    lambda tick, tid, label: ctl(tick, tid, label),
    st.integers(0, 14), st.integers(1, 3), st.sampled_from(sorted(CONTROL_LABELS)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(records=st.lists(_segments | _controls, max_size=8),
       length=st.integers(0, 14))
# out of order, no overlap: passes
@example(records=[work(4, 6, 2), work(0, 4, 1)], length=6)
# one thread claims tick 1 twice: passes
@example(records=[work(0, 2, 1), work(1, 3, 1)], length=3)
# two threads claim tick 5, which lies past the window: passes
@example(records=[work(0, 6, 1), work(5, 7, 2)], length=5)
# control rows between the segments claim nothing
@example(records=[ctl(0, 1, "DISPATCH"), work(0, 2, 1), ctl(2, 1, "PREEMPT"),
                  ctl(2, 2, "DISPATCH"), work(2, 3, 2)], length=3)
# a real overlap inside the window
@example(records=[work(0, 3, 1), work(2, 4, 2)], length=4)
def test_check_claims_raises_exactly_when_running_vector_does(records, length):
    assert (_claim_error(check_claims, records, length)
            == _claim_error(running_vector, records, length))


_NAMES = {1: "A", 2: "B", 3: "IDLE"}


def _row(start, width, tid, context, label, etm, uj, event, repeat,
         section):
    if label in CONTROL_LABELS or section:
        repeat = 1
    if label in CONTROL_LABELS:
        section = ""
    if repeat > 1:
        # ``repeat`` segment rows, each ``etm`` wide, back to back
        etm = max(etm, 1)
        width = repeat * etm
    return TraceRecord(start, start + width, tid, _NAMES[tid], context, label,
                       etm, uj, event, repeat, section)


_rows = st.builds(
    _row,
    st.integers(0, 50), st.integers(0, 3), st.sampled_from(sorted(_NAMES)),
    st.sampled_from(["TASK", "SVC", "IDLE"]),
    st.sampled_from(["work", "svc", "DISPATCH"]), st.integers(0, 3),
    # negative, zero, whole and fractional milli-joules
    st.sampled_from([-2500, -1, 0, 1, 50, 999, 1000, 1500, 12345]),
    st.sampled_from(["", "STARTUP", "CONTINUE_RUN"]),
    st.integers(1, 4), st.sampled_from(["", "", "TASK", "CYC_HANDLER"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records=st.lists(_rows, max_size=30))
def test_records_to_csv_is_the_header_and_each_csv_row(records):
    assert records_to_csv(records) == (
        CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in records))


# a record with repeat k reads everywhere as the k rows rows() yields, and
# a service's section record as its three rows

def test_rows_expands_a_repeated_record():
    rec = TraceRecord(4, 10, 3, "IDLE", "IDLE", "idle", 2, 7, "CONTINUE_RUN", 3)
    assert list(rows([rec])) == [
        TraceRecord(t, t + 2, 3, "IDLE", "IDLE", "idle", 2, 7, "CONTINUE_RUN")
        for t in (4, 6, 8)]
    assert rec.csv_row() == ("4,6,3,IDLE,IDLE,idle,2,0.007,CONTINUE_RUN\n"
                             "6,8,3,IDLE,IDLE,idle,2,0.007,CONTINUE_RUN\n"
                             "8,10,3,IDLE,IDLE,idle,2,0.007,CONTINUE_RUN")


def test_rows_expands_a_section_record():
    rec = TraceRecord(4, 6, 2, "H", "SVC", "svc", 2, 30, "STARTUP", 1,
                      "ISR")
    assert list(rows([rec])) == [
        TraceRecord(4, 4, 2, "H", "ISR", "CRIT_ENTER", 0, 0, ""),
        TraceRecord(4, 6, 2, "H", "SVC", "svc", 2, 30, "STARTUP"),
        TraceRecord(6, 6, 2, "H", "ISR", "CRIT_EXIT", 0, 0, "")]
    assert rec.csv_row() == ("4,4,2,H,ISR,CRIT_ENTER,0,0,\n"
                             "4,6,2,H,SVC,svc,2,0.03,STARTUP\n"
                             "6,6,2,H,ISR,CRIT_EXIT,0,0,")
    assert not rec.is_control


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records=st.lists(_rows, max_size=30))
def test_csv_text_equals_the_expanded_rows(records, tmp_path_factory):
    expanded = list(rows(records))
    assert all(r.repeat == 1 and not r.section for r in expanded)
    assert sum(r.repeat + 2 * bool(r.section)
               for r in records) == len(expanded)
    text = records_to_csv(expanded)
    assert records_to_csv(records) == text
    path = tmp_path_factory.getbasetemp() / "expanded_rows.csv"
    sink = CsvFileSink(path)
    for r in records:
        sink.record(r)
    sink.close()
    assert path.read_text() == text


# long stretches, which records_to_csv and csv_row render a 100-row block
# at a time where the rows are one tick wide

def _stretch(start, repeat, etm=1, tid=3, uj=0, event="CONTINUE_RUN"):
    return TraceRecord(start, start + repeat * etm, tid, _NAMES[tid], "IDLE",
                       "idle", etm, uj, event, repeat)


def _one_row_at_a_time(records):
    return CSV_HEADER + "\n" + "".join(r.csv_row() + "\n"
                                       for r in rows(records))


_starts = (st.integers(0, 100_000)
           | st.builds(lambda base, offset: max(base + offset, 0),
                       st.sampled_from([100, 1000, 10_000, 100_000]),
                       st.integers(-300, 300)))
_stretches = st.builds(
    _stretch, _starts, st.integers(1, 3000), st.sampled_from([1, 1, 1, 2, 3]),
    st.sampled_from(sorted(_NAMES)), st.sampled_from([0, 1, 1500]),
    st.sampled_from(["", "CONTINUE_RUN"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records=st.lists(_stretches, min_size=1, max_size=3))
# across 99 -> 100, 999 -> 1000 and 9999 -> 10000
@example(records=[_stretch(50, 300), _stretch(950, 300),
                  _stretch(9950, 300)])
# starts and ends inside a block
@example(records=[_stretch(1234, 567)])
# exactly two blocks, and one row short of two blocks
@example(records=[_stretch(300, 200)])
@example(records=[_stretch(300, 199)])
@example(records=[_stretch(250, 200)])
# starts below 100: no block of ticks 0-99
@example(records=[_stretch(0, 450)])
@example(records=[_stretch(5, 250)])
# two-tick rows are formatted one by one
@example(records=[_stretch(100, 300, etm=2)])
def test_long_stretches_render_as_their_rows_one_at_a_time(records,
                                                           tmp_path_factory):
    text = _one_row_at_a_time(records)
    assert records_to_csv(records) == text
    assert CSV_HEADER + "\n" + "".join(r.csv_row() + "\n"
                                       for r in records) == text
    path = tmp_path_factory.getbasetemp() / "long_stretches.csv"
    sink = CsvFileSink(path)
    for r in records:
        sink.record(r)
    sink.close()
    assert path.read_text() == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records=st.lists(_rows, max_size=30))
def test_usage_equals_the_expanded_rows(records):
    assert usage_from_records(records) == usage_from_records(rows(records))


def _vector(records, length):
    try:
        return running_vector(records, length)
    except ConsistencyError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(records=st.lists(_rows, max_size=12), length=st.integers(0, 70))
def test_claims_equal_the_expanded_rows(records, length):
    expanded = list(rows(records))
    assert (_claim_error(check_claims, records, length)
            == _claim_error(check_claims, expanded, length))
    assert _vector(records, length) == _vector(expanded, length)


def test_list_sink_collects_in_order():
    sink = ListSink()
    rows = [work(0, 1, 1), work(1, 2, 2)]
    for r in rows:
        sink.record(r)
    sink.close()
    assert sink.records == rows


def test_csv_file_sink(tmp_path):
    path = tmp_path / "out.csv"
    sink = CsvFileSink(path)
    sink.record(work(0, 1, 1, uj=1))
    sink.close()
    data = path.read_text()
    assert data == CSV_HEADER + "\n" + "0,1,1,T1,TASK,crunch,1,0.001,CONTINUE_RUN\n"


# ----------------------------------------------------------------------
# idle rows around a preemption and an interrupt return, byte for byte

IDLE_ROWS_SCENARIO = """\
name: idle_rows
run_ticks: 14
annotations:
  work: {etm: 2, eem: 0}
  isr: {etm: 1, eem: 0}
tasks:
  - id: 1
    name: T
    priority: 5
    behavior:
      - {call: delay, ticks: 3}
      - {compute: work}
handlers:
  - id: 2
    name: ISR
    kind: isr
    device: pic
    line: 0
    behavior:
      - {compute: isr}
devices:
  - {name: pic, kind: intc, lines: 1}
stimuli:
  - {tick: 10, kind: irq, device: pic, line: 0}
"""

# T's delay wakes it at tick 4, where it preempts idle; the irq at tick
# 10 interrupts idle.  Each return hands idle back the event it missed.
IDLE_ROWS_TRACE = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,0,1,T,TASK,CRIT_ENTER,0,0,
0,1,1,T,SVC,svc,1,0,STARTUP
1,1,1,T,TASK,CRIT_EXIT,0,0,
1,1,1,T,TASK,BLOCK,0,0,
1,1,3,IDLE,STARTUP,DISPATCH,0,0,STARTUP
1,2,3,IDLE,IDLE,idle,1,0,STARTUP
2,3,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
3,4,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
4,4,3,IDLE,IDLE,PREEMPT,0,0,RETURN_FROM_PREEMPTION
4,4,1,T,TASK,DISPATCH,0,0,SLEEP_ARRIVAL
4,6,1,T,TASK,work,2,0,SLEEP_ARRIVAL
6,6,1,T,TASK,EXIT,0,0,
6,6,3,IDLE,IDLE,DISPATCH,0,0,RETURN_FROM_PREEMPTION
6,7,3,IDLE,IDLE,idle,1,0,RETURN_FROM_PREEMPTION
7,8,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
8,9,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
9,10,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
10,10,2,ISR,ISR,INT_ENTER,0,0,STARTUP
10,11,2,ISR,ISR,isr,1,0,STARTUP
11,11,2,ISR,ISR,INT_RETURN,0,0,RETURN_FROM_INTERRUPT
11,11,3,IDLE,IDLE,DISPATCH,0,0,RETURN_FROM_INTERRUPT
11,12,3,IDLE,IDLE,idle,1,0,RETURN_FROM_INTERRUPT
12,13,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
13,14,3,IDLE,IDLE,idle,1,0,CONTINUE_RUN
"""


def test_idle_rows_around_preemption_and_interrupt_return():
    scn = parse_scenario_text(IDLE_ROWS_SCENARIO, "idle_rows.yaml")
    kernel = build_kernel(scn)
    sink = ListSink()
    kernel.attach_sinks(trace_sink=sink)
    kernel.boot()
    kernel.run(scn.run_ticks)
    kernel.finish()
    assert records_to_csv(sink.records) == IDLE_ROWS_TRACE
    idle_events = {r.event_kind for r in sink.records
                   if r.thread_name == "IDLE" and not r.is_control}
    assert idle_events == {"STARTUP", "CONTINUE_RUN",
                           "RETURN_FROM_PREEMPTION", "RETURN_FROM_INTERRUPT"}
