"""A kernel service's critical section in the trace.

The engine writes a service's whole section, its ``CRIT_ENTER`` row, its
SVC segment and its ``CRIT_EXIT`` row, as one record, and expands it to
those three rows wherever the trace is read.  Each test here pins the
CSV text of one edge of that record, the text the engine wrote when each
row was a record of its own: a window that ends inside the segment, a
run error inside it, a free service and a handler's service.
"""

import pytest

from helpers import compute, perfbench
from rtksim.cli import EXIT_OK, main
from rtksim.errors import ValidationError
from rtksim.kernel import Kernel
from rtksim.scenario import build_kernel, demo_scenario_path, parse_scenario_text
from rtksim.trace import (
    CSV_HEADER,
    CsvFileSink,
    ListSink,
    TraceRecord,
    records_to_csv,
    rows,
)

def mk(**kw):
    k = Kernel(**kw)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    return k, sink


def csv_of(records):
    """The CSV text, checked against each row's own line and against
    each record's ``csv_row``, the lines a ``CsvFileSink`` writes."""
    text = records_to_csv(records)
    assert text == CSV_HEADER + "\n" + "".join(
        r.csv_row() + "\n" for r in rows(records))
    assert text == CSV_HEADER + "\n" + "".join(
        r.csv_row() + "\n" for r in records)
    return text


def signal_after_work(k):
    """Task T computes 2 ticks (5 uJ), signals semaphore 1, computes
    1 tick and ends."""
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from compute(ctx, "work", 2, 5)
        yield from ctx.kernel.sem_signal(1)
        yield from compute(ctx, "tail", 1)

    k.declare_task(1, "T", 5, body)


WHOLE = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,2,1,T,TASK,work,2,0.005,STARTUP
2,2,1,T,TASK,CRIT_ENTER,0,0,
2,5,1,T,SVC,svc,3,0.007,CONTINUE_RUN
5,5,1,T,TASK,CRIT_EXIT,0,0,
5,6,1,T,TASK,tail,1,0,CONTINUE_RUN
6,6,1,T,TASK,EXIT,0,0,
6,6,2,IDLE,STARTUP,DISPATCH,0,0,STARTUP
6,7,2,IDLE,IDLE,idle,1,0,STARTUP
"""

# the window ends after two of the service's three ticks: its section
# is open, so the CRIT_ENTER row comes first and no CRIT_EXIT follows
CUT = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,2,1,T,TASK,work,2,0.005,STARTUP
2,2,1,T,TASK,CRIT_ENTER,0,0,
2,4,1,T,SVC,svc,2,0.004,CONTINUE_RUN
"""

# the window ends with the service's last tick: its segment is whole,
# but the section is still open, so again no CRIT_EXIT follows
AT_END = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,2,1,T,TASK,work,2,0.005,STARTUP
2,2,1,T,TASK,CRIT_ENTER,0,0,
2,5,1,T,SVC,svc,3,0.007,CONTINUE_RUN
"""


def test_a_whole_section_is_one_record():
    k, sink = mk(svc_etm=3, svc_eem_uj=7)
    signal_after_work(k)
    k.boot()
    k.run(7)
    k.finish()
    assert csv_of(sink.records) == WHOLE
    section = [r for r in sink.records if r.section]
    assert section == [TraceRecord(2, 5, 1, "T", "SVC", "svc", 3, 7,
                                   "CONTINUE_RUN", 1, "TASK")]
    assert len(sink.records) == 7 and len(list(rows(sink.records))) == 9


def test_a_window_that_ends_inside_the_service_segment():
    k, sink = mk(svc_etm=3, svc_eem_uj=7)
    signal_after_work(k)
    k.boot()
    k.run(4)
    assert k.engine._section is not None
    k.finish()
    assert csv_of(sink.records) == CUT


def test_a_window_that_pauses_inside_the_service_segment():
    # step by step across the section: the same trace as one run
    k, sink = mk(svc_etm=3, svc_eem_uj=7)
    signal_after_work(k)
    k.boot()
    for _ in range(7):
        k.step()
    k.finish()
    assert csv_of(sink.records) == WHOLE


SIGNAL_YAML = """\
run_ticks: 7
svc_cost: {etm: 3, eem: 0.007}
annotations:
  work: {etm: 2, eem: 0.005}
  tail: {etm: 1}
tasks:
  - id: 1
    name: T
    priority: 5
    behavior:
      - compute: work
      - {call: sem_signal, sem: 1}
      - compute: tail
  - {id: 2, name: IDLE, idle: true}
objects:
  semaphores:
    - {id: 1, initial: 0}
"""


@pytest.mark.parametrize("until, expected", [(4, CUT), (5, AT_END), (7, WHOLE)])
@pytest.mark.parametrize("mode", ["run", "step"])
def test_rtk_sim_until_inside_and_after_the_service(tmp_path, until,
                                                     expected, mode):
    scn = tmp_path / "signal.yaml"
    scn.write_text(SIGNAL_YAML, encoding="utf-8")
    trace = tmp_path / "trace.csv"
    steps = ["--steps", "10"] if mode == "step" else []
    assert main(["run", str(scn), "--until", str(until), "--mode", mode,
                 *steps, "--trace", str(trace)]) == EXIT_OK
    assert trace.read_text(encoding="utf-8") == expected


# the stimulus at tick 3 fails inside the service's 4-tick segment, which
# began at tick 1
STIMULUS_ERROR = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,1,1,T,TASK,work,1,0,STARTUP
1,1,1,T,TASK,CRIT_ENTER,0,0,
1,3,1,T,SVC,svc,2,0,CONTINUE_RUN
"""


def test_a_stimulus_error_inside_the_service_segment():
    k, sink = mk(svc_etm=4)
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from compute(ctx, "work", 1)
        yield from ctx.kernel.sem_signal(1)

    k.declare_task(1, "T", 5, body)
    k.add_device("parallel_io", "pio", {})
    k.add_stimulus(3, "pio_set", "pio", value=300)   # not a byte
    k.boot()
    with pytest.raises(ValidationError, match="value must be a byte"):
        k.run(10)
    assert k.engine.now == 3 and k.engine._section is not None
    k.finish()
    assert csv_of(sink.records) == STIMULUS_ERROR


# a service of cost 0: its section is one record at a single tick, and
# a take that must wait blocks right after it
FREE = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,1,1,T,TASK,work,1,0,STARTUP
1,1,1,T,TASK,CRIT_ENTER,0,0,
1,1,1,T,SVC,svc,0,0.005,CONTINUE_RUN
1,1,1,T,TASK,CRIT_EXIT,0,0,
1,1,1,T,TASK,CRIT_ENTER,0,0,
1,1,1,T,SVC,svc,0,0.005,CONTINUE_RUN
1,1,1,T,TASK,CRIT_EXIT,0,0,
1,1,1,T,TASK,CRIT_ENTER,0,0,
1,1,1,T,SVC,svc,0,0.005,CONTINUE_RUN
1,1,1,T,TASK,CRIT_EXIT,0,0,
1,1,1,T,TASK,BLOCK,0,0,
1,1,2,IDLE,STARTUP,DISPATCH,0,0,STARTUP
1,2,2,IDLE,IDLE,idle,1,0,STARTUP
2,3,2,IDLE,IDLE,idle,1,0,CONTINUE_RUN
3,3,2,IDLE,IDLE,PREEMPT,0,0,RETURN_FROM_PREEMPTION
3,3,1,T,TASK,DISPATCH,0,0,SLEEP_ARRIVAL
3,4,1,T,TASK,tail,1,0,SLEEP_ARRIVAL
4,4,1,T,TASK,EXIT,0,0,
4,4,2,IDLE,IDLE,DISPATCH,0,0,RETURN_FROM_PREEMPTION
4,5,2,IDLE,IDLE,idle,1,0,RETURN_FROM_PREEMPTION
"""


def test_a_free_service():
    k, sink = mk(svc_etm=0, svc_eem_uj=5)
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from compute(ctx, "work", 1)
        yield from ctx.kernel.sem_signal(1)
        yield from ctx.kernel.sem_wait(1)
        yield from ctx.kernel.sem_wait(1, timeout=2)
        yield from compute(ctx, "tail", 1)

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(5)
    k.finish()
    assert csv_of(sink.records) == FREE
    assert k.engine.thread(1).token.cee_uj == 15


# a cyclic handler's service: its section's rows are in the handler's
# context, and the task it interrupts resumes after the return
HANDLER = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,T,STARTUP,DISPATCH,0,0,STARTUP
0,3,1,T,TASK,long,3,0,STARTUP
3,3,2,CYC,CYC_HANDLER,INT_ENTER,0,0,STARTUP
3,3,2,CYC,CYC_HANDLER,CRIT_ENTER,0,0,
3,4,2,CYC,SVC,svc,1,0,STARTUP
4,4,2,CYC,CYC_HANDLER,CRIT_EXIT,0,0,
4,5,2,CYC,CYC_HANDLER,h,1,0,CONTINUE_RUN
5,5,2,CYC,CYC_HANDLER,INT_RETURN,0,0,RETURN_FROM_INTERRUPT
5,5,1,T,TASK,DISPATCH,0,0,RETURN_FROM_INTERRUPT
5,6,1,T,TASK,long,1,0,RETURN_FROM_INTERRUPT
6,6,2,CYC,CYC_HANDLER,INT_ENTER,0,0,CONTINUE_RUN
6,6,2,CYC,CYC_HANDLER,CRIT_ENTER,0,0,
6,7,2,CYC,SVC,svc,1,0,CONTINUE_RUN
7,7,2,CYC,CYC_HANDLER,CRIT_EXIT,0,0,
7,8,2,CYC,CYC_HANDLER,h,1,0,CONTINUE_RUN
"""


def test_a_handler_service():
    k, sink = mk()
    k.declare_semaphore(1, 0)

    def handler(ctx):
        yield from ctx.kernel.sem_signal(1)
        yield from compute(ctx, "h", 1)

    k.declare_task(1, "T", 5, lambda ctx: compute(ctx, "long", 9))
    k.declare_cyclic(2, "CYC", 3, handler)
    k.boot()
    k.run(8)
    k.finish()
    assert csv_of(sink.records) == HANDLER


class _Tee:
    """Hands each record to every sink it holds."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def record(self, rec):
        for sink in self.sinks:
            sink.record(rec)

    def close(self):
        for sink in self.sinks:
            sink.close()


def _scenario_text(name):
    """The demo's scenario text, or a workload's at seed 1."""
    if name == "demo":
        return demo_scenario_path().read_text(encoding="utf-8")
    return perfbench("workloads").generate(name, 1)


@pytest.mark.parametrize("name", ["demo", "steady", "sparse", "wide"])
def test_csv_file_sink_writes_what_records_to_csv_writes(name, tmp_path):
    scn = parse_scenario_text(_scenario_text(name), f"{name}.yaml")
    kernel = build_kernel(scn)
    buffered = ListSink()
    path = tmp_path / "trace.csv"
    kernel.attach_sinks(trace_sink=_Tee(buffered, CsvFileSink(path)))
    kernel.boot()
    kernel.run(scn.run_ticks)
    kernel.finish()
    assert any(r.section for r in buffered.records)
    assert path.read_bytes() == records_to_csv(buffered.records).encode()
