"""Engine-level scheduling semantics, driven with hand-built thread bodies.

These tests bypass the kernel entirely: bodies are raw generators over
ThreadApi, so each scheduling rule can be pinned in isolation.  Expected
traces were worked out by hand on a tick grid before being frozen here.
"""

import contextlib
import itertools
import random
import signal

import pytest

from rtksim import engine
from rtksim.engine import (
    Annotation,
    ContextKind,
    Engine,
    EventKind,
    SimThread,
    ThreadKind,
    ThreadState,
    idle_body,
)
from rtksim.errors import (
    ConflictError,
    ConsistencyError,
    ProtocolError,
    SchedulerEmptyError,
    StateError,
    UsageError,
    ValidationError,
)
from rtksim.trace import ListSink, TraceRecord, rows, running_vector


def make_engine(threads):
    sink = ListSink()
    return Engine(threads, trace_sink=sink), sink


def task(tid, name, prio, body, **kw):
    return SimThread(tid, name, ThreadKind.TASK, prio, body, **kw)


def isr(tid, name, body):
    return SimThread(tid, name, ThreadKind.ISR, 0, body)


forever_idle = idle_body


def work_rows(sink):
    return [(r.tick_start, r.tick_end, r.thread_name, r.label)
            for r in rows(sink.records) if not r.is_control]


def control_rows(sink, label):
    return [(r.tick_start, r.thread_name)
            for r in sink.records if r.label == label]


def test_single_task_consumes_annotation():
    def body(api):
        yield from api.wait(Annotation("step", 3, 10))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, sink = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(5)
    eng.finish()
    # A takes ticks 0..2, idle picks up 3..4
    assert work_rows(sink) == [
        (0, 3, "A", "step"),
        (3, 4, "IDLE", "idle"),
        (4, 5, "IDLE", "idle"),
    ]
    assert t.token.cet == 3
    assert t.token.cee_uj == 10
    assert t.state is ThreadState.DORMANT


def test_energy_split_per_tick_with_remainder_on_last():
    # 10 uJ over 3 ticks: 3 + 3 + 4
    charges = []

    def body(api):
        yield from api.wait(Annotation("step", 3, 10))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, _ = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    for _ in range(3):
        eng.run_one_tick()
        charges.append(t.token.cee_uj)
    assert charges == [3, 6, 10]


def test_priority_preemption_and_resume():
    def low(api):
        yield from api.wait(Annotation("lo", 6, 0))
        yield from api.exit()

    def high(api):
        ev = yield from api.wait_event()
        assert ev is EventKind.SLEEP_ARRIVAL
        yield from api.wait(Annotation("hi", 2, 0))
        yield from api.exit()

    lo_t = task(1, "LO", 8, low)
    hi_t = task(2, "HI", 2, high)
    eng, sink = make_engine(
        [lo_t, hi_t, task(3, "IDLE", 99, forever_idle)])
    eng.start_thread(2)
    eng.start_thread(1)
    eng.start_thread(3)
    eng.run_ticks(2)          # HI blocks at once, LO consumes [0,2)
    eng.release(2, EventKind.SLEEP_ARRIVAL)
    eng.run_ticks(6)
    eng.finish()
    assert work_rows(sink) == [
        (0, 2, "LO", "lo"),   # partial record closed by the preemption
        (2, 4, "HI", "hi"),
        (4, 8, "LO", "lo"),
    ]
    assert control_rows(sink, "PREEMPT") == [(2, "LO")]
    assert lo_t.token.cet == 6


def test_equal_priority_never_preempts():
    def sleeper(api):
        yield from api.wait_event()
        yield from api.wait(Annotation("b", 2, 0))
        yield from api.exit()

    def runner(api):
        yield from api.wait(Annotation("a", 5, 0))
        yield from api.exit()

    b = task(1, "B", 5, sleeper)    # lower id: blocks before A gets the CPU
    a = task(2, "A", 5, runner)
    eng, sink = make_engine(
        [a, b, task(3, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.start_thread(3)
    eng.run_ticks(1)
    eng.release(1, EventKind.SLEEP_ARRIVAL)   # same priority: must wait
    eng.run_ticks(7)
    eng.finish()
    # A keeps the CPU through tick 5; B only then runs
    assert work_rows(sink)[0] == (0, 5, "A", "a")
    assert work_rows(sink)[1] == (5, 7, "B", "b")
    assert control_rows(sink, "PREEMPT") == []


def test_ready_tie_breaks_by_id_then_fifo_by_stamp():
    order = []

    def body(name):
        def gen(api):
            order.append(name)
            yield from api.wait(Annotation("w", 1, 0))
            yield from api.exit()
        return gen

    a = task(1, "A", 5, body("A"))
    b = task(2, "B", 5, body("B"))
    eng, _ = make_engine([a, b, task(3, "IDLE", 99, forever_idle)])
    eng.start_thread(2)       # same tick: id breaks the tie, not start order
    eng.start_thread(1)
    eng.start_thread(3)
    eng.run_ticks(2)
    assert order == ["A", "B"]


def _schedule(changes):
    """Who runs each of ticks 0..6: A, B, C (priority 5, all ready at
    tick 0) and RUN (priority 1, 3 ticks).  ``changes`` maps a tick to
    the (thread id, priority) changes made before it."""
    def body(ticks):
        def gen(api):
            yield from api.wait(Annotation("w", ticks, 0))
            yield from api.exit()
        return gen

    threads = [task(1, "A", 5, body(1)), task(2, "B", 5, body(1)),
               task(3, "C", 5, body(1)), task(4, "R", 1, body(3)),
               task(5, "-", 99, forever_idle)]
    eng, sink = make_engine(threads)
    for th in threads:
        eng.start_thread(th.id)
    for tick in range(7):
        for tid, prio in changes.get(tick, ()):
            eng.set_priority(tid, prio)
        eng.run_one_tick()
    eng.finish()
    names = {th.id: th.name for th in threads}
    return "".join(names[tid] for tid in running_vector(sink.records, 7))


def test_boosted_ready_thread_jumps_its_peers_then_falls_back():
    assert _schedule({}) == "RRRABC-"
    # C moves to class 3 while ready: it goes first once R is done
    assert _schedule({1: [(3, 3)]}) == "RRRCAB-"
    # lowered back, C keeps its stamp 0 and its id-ordered place
    assert _schedule({1: [(3, 3)], 2: [(3, 5)]}) == "RRRABC-"
    # B drops to 7, C rises above R itself and preempts it at once
    assert _schedule({1: [(2, 7), (3, 0)]}) == "RCRRAB-"


def test_lowering_the_running_task_preempts_it_at_the_next_boundary():
    # set_priority is the only call: the gate reads the ready classes
    assert _schedule({1: [(4, 6)]}) == "RABCRR-"


def test_same_tick_ties_break_by_id_in_every_class():
    order = []

    def sleeper(name):
        def gen(api):
            yield from api.wait_event()
            order.append(name)
            yield from api.wait(Annotation("w", 1, 0))
            yield from api.exit()
        return gen

    names = ["A", "B", "C", "D"]
    threads = [task(i + 1, n, 5, sleeper(n)) for i, n in enumerate(names)]
    threads.append(task(5, "IDLE", 99, forever_idle))
    eng, _ = make_engine(threads)
    for th in threads:
        eng.start_thread(th.id)
    eng.run_ticks(2)                       # A..D block; idle runs
    for tid in (4, 3, 1):                  # same tick, reverse id order
        eng.release(tid, EventKind.SLEEP_ARRIVAL)
    eng.release(2, EventKind.SLEEP_ARRIVAL)
    eng.set_priority(2, 6)                 # B leaves class 5 ...
    eng.set_priority(2, 5)                 # ... and goes back between A and C
    eng.run_ticks(6)
    assert order == ["A", "B", "C", "D"]


def test_ready_classes_hold_exactly_the_ready_tasks_over_a_long_run():
    # Random releases, priority changes and interrupts for 3000 ticks.
    # After every tick the classes hold each ready task once, in key
    # order, and their head is what a scan of the ready tasks picks.
    rng = random.Random(7)

    def worker(api):
        while True:
            yield from api.wait(Annotation("w", rng.randint(1, 4), 0))
            if rng.random() < 0.5:
                yield from api.wait_event()

    def handler(api):
        yield from api.wait(Annotation("isr", 1, 0), ContextKind.ISR)

    workers = [task(i, f"T{i}", rng.randint(1, 6), worker) for i in range(1, 13)]
    eng, _ = make_engine(workers + [
        isr(13, "H", handler), task(14, "IDLE", 99, forever_idle)])
    for th in workers:
        eng.start_thread(th.id)
    eng.start_thread(14)
    eng.arm_handler(13)
    sizes = []
    for _ in range(3000):
        for th in workers:
            if th.state is ThreadState.WAITING and rng.random() < 0.2:
                eng.release(th.id, EventKind.SLEEP_ARRIVAL)
        for th in rng.sample(workers, 2):
            eng.set_priority(th.id, rng.randint(1, 6))
        if rng.random() < 0.1:
            eng.raise_interrupt(13)
        eng.run_one_tick()
        ready = sorted((th.current_priority, *th.ready_key)
                       for th in eng.threads()
                       if th.state is ThreadState.READY and not th.kind.is_handler)
        queued = sorted((prio, tick, tid) for prio, q in eng._classes.items()
                        for tick, tid in q)
        assert queued == ready
        assert all(q == sorted(q) for q in eng._classes.values())
        assert eng._pick_ready() == (ready[0][2] if ready else None)
        sizes.append(len(ready))
    assert max(sizes) >= 8


def test_interrupt_enters_at_gate_and_task_resumes_after():
    def body(api):
        yield from api.wait(Annotation("main", 4, 0))
        yield from api.exit()

    def handler_factory(api):
        yield from api.wait(Annotation("isr", 2, 0), ContextKind.ISR)

    t = task(1, "T", 5, body)
    h = isr(2, "H", handler_factory)
    eng, sink = make_engine(
        [t, h, task(3, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(3)
    eng.arm_handler(2)
    eng.run_ticks(1)
    eng.raise_interrupt(2)
    eng.run_ticks(6)
    eng.finish()
    assert work_rows(sink) == [
        (0, 1, "T", "main"),
        (1, 3, "H", "isr"),
        (3, 6, "T", "main"),
        (6, 7, "IDLE", "idle"),
    ]
    assert control_rows(sink, "INT_ENTER") == [(1, "H")]
    assert control_rows(sink, "INT_RETURN") == [(3, "H")]
    assert h.token.cycles == 1


def test_busy_handler_drops_activation():
    def handler_factory(api):
        yield from api.wait(Annotation("isr", 3, 0), ContextKind.ISR)

    h = isr(1, "H", handler_factory)
    eng, _ = make_engine([h, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(2)
    eng.arm_handler(1)
    assert eng.raise_interrupt(1) is True
    assert eng.raise_interrupt(1) is False    # already queued
    eng.run_ticks(1)
    assert eng.raise_interrupt(1) is False    # mid-activation
    eng.run_ticks(4)
    assert h.token.cycles == 1
    assert eng.raise_interrupt(1) is True     # parked again


def test_nested_interrupts_unwind_lifo():
    def handler(label, ticks, uj):
        def factory(api):
            yield from api.wait(Annotation(label, ticks, uj), ContextKind.ISR)
        return factory

    def body(api):
        yield from api.wait(Annotation("main", 8, 17))
        yield from api.exit()

    t = task(1, "T", 5, body)
    h1 = isr(2, "H1", handler("one", 3, 10))
    h2 = isr(3, "H2", handler("two", 1, 0))
    eng, sink = make_engine(
        [t, h1, h2, task(4, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(4)
    eng.arm_handler(2)
    eng.arm_handler(3)
    eng.run_ticks(1)
    eng.raise_interrupt(2)
    eng.run_ticks(1)          # H1 runs [1,2)
    eng.raise_interrupt(3)    # interrupts H1
    eng.run_ticks(10)
    eng.finish()
    assert work_rows(sink) == [
        (0, 1, "T", "main"),
        (1, 2, "H1", "one"),
        (2, 3, "H2", "two"),   # nested: H2 runs to completion first
        (3, 5, "H1", "one"),   # H1 resumes directly, no dispatch
        (5, 12, "T", "main"),
    ]
    # each split record keeps its share of the energy (2 and 3 uJ a tick,
    # the remainder on the final tick) and the event that opened it
    assert [(r.eem_uj, r.event_kind) for r in sink.records
            if not r.is_control] == [
        (2, "STARTUP"),
        (3, "STARTUP"),
        (0, "STARTUP"),
        (7, "RETURN_FROM_INTERRUPT"),
        (15, "RETURN_FROM_INTERRUPT"),
    ]
    returns = control_rows(sink, "INT_RETURN")
    assert returns == [(3, "H2"), (5, "H1")]


@pytest.mark.parametrize("seed", range(4))
def test_split_segment_records_sum_to_the_annotation(seed):
    # tasks and nested handlers charge multi-tick segments whose energy
    # leaves a remainder; preemptions, interrupts and coasts split them.
    # Each segment's records are as wide as their ticks and sum to its
    # ticks; each tick charges eem // etm, and the remainder rides on the
    # record that ends the segment, however the segment was cut.
    rng = random.Random(seed)
    segments = {}   # (thread id, label) -> (etm, eem) of every segment begun
    done = set()    # the segments whose wait returned

    def charger(tid, count, ctx=None):
        labels = itertools.count()

        def body(api):
            for _ in range(count):
                label = f"s{next(labels)}"
                etm = rng.randint(2, 7)
                eem = etm * rng.randint(0, 4) + rng.randint(1, etm - 1)
                segments[tid, label] = etm, eem
                yield from api.wait(Annotation(label, etm, eem), ctx)
                done.add((tid, label))
        return body

    tasks = [task(tid, f"T{tid}", prio, charger(tid, count))
             for tid, prio, count in ((1, 8, 20), (2, 6, 3), (3, 4, 2))]
    handlers = [isr(tid, f"H{tid}", charger(tid, 2, ContextKind.ISR))
                for tid in (4, 5, 6)]
    eng, sink = make_engine(
        tasks + handlers + [task(7, "IDLE", 99, forever_idle)])
    for th in handlers:
        eng.arm_handler(th.id)
    eng.start_thread(1)
    eng.start_thread(7)
    for _ in range(600):
        for th in tasks:
            if th.state is ThreadState.DORMANT and rng.random() < 0.05:
                eng.start_thread(th.id)
        for th in handlers:
            if rng.random() < 0.015:
                eng.raise_interrupt(th.id)
        if rng.random() < 0.2:
            eng.coast(rng.randint(1, 6))
        else:
            eng.run_one_tick()
    eng.finish()

    work = [r for r in rows(sink.records) if not r.is_control]
    parts = {}
    for r in work:
        parts.setdefault((r.thread_id, r.label), []).append(r)
    split = nested = 0
    for key, (etm, eem) in segments.items():
        recs = parts.pop(key, [])
        per_tick, rem = divmod(eem, etm)
        ticks = sum(r.etm_ticks for r in recs)
        assert all(r.tick_end - r.tick_start == r.etm_ticks > 0 for r in recs)
        assert ticks == etm if key in done else ticks <= etm
        expected = [per_tick * r.etm_ticks for r in recs]
        if ticks == etm:
            expected[-1] += rem
        assert [r.eem_uj for r in recs] == expected, key
        split += len(recs) > 1
        nested += len(recs) > 1 and key[0] in (4, 5, 6)
    assert set(parts) == {(7, "idle")}
    for th in eng.threads():
        mine = [r for r in work if r.thread_id == th.id]
        assert th.token.cet == sum(r.etm_ticks for r in mine)
        assert th.token.cee_uj == sum(r.eem_uj for r in mine)
    assert len(done) > 50 and split > 10 and nested > 0


def test_preempted_thread_keeps_ready_stamp():
    # C (stamp 0) is preempted at tick 2.  B (id 2 < C's id 3) was woken
    # at tick 1.  If the preemption re-stamped C to 2, B would win the
    # next dispatch (1 < 2).  With the original stamp kept, C wins.
    def sleeper(label):
        def gen(api):
            yield from api.wait_event()
            yield from api.wait(Annotation(label, 2, 0))
            yield from api.exit()
        return gen

    def spin(api):
        yield from api.wait(Annotation("c", 4, 0))
        yield from api.exit()

    a = task(1, "A", 1, sleeper("a"))
    b = task(2, "B", 5, sleeper("b"))
    c = task(3, "C", 5, spin)
    eng, sink = make_engine(
        [a, b, c, task(4, "IDLE", 99, forever_idle)])
    for tid in (1, 2, 3, 4):
        eng.start_thread(tid)
    eng.run_ticks(1)                            # A and B block; C runs [0,1)
    eng.release(2, EventKind.SLEEP_ARRIVAL)     # B ready, stamp 1, no preempt
    eng.run_ticks(1)                            # C runs [1,2)
    eng.release(1, EventKind.SLEEP_ARRIVAL)     # A outranks: preempts C
    eng.run_ticks(8)
    eng.finish()
    assert work_rows(sink) == [
        (0, 2, "C", "c"),
        (2, 4, "A", "a"),
        (4, 6, "C", "c"),      # original stamp 0 beats B's stamp 1
        (6, 8, "B", "b"),
        (8, 9, "IDLE", "idle"),
        (9, 10, "IDLE", "idle"),
    ]


def _recording(body, gens):
    """A thread body that keeps every generator it builds in ``gens``."""
    def build(api):
        gen = body(api)
        gens.append(gen)
        return gen
    return build


def test_task_body_is_built_at_first_dispatch_and_anew_at_restart():
    def high(api):
        yield from api.wait(Annotation("hi", 2, 0))

    def low(api):
        yield from api.wait(Annotation("lo", 1, 0))

    gens = []
    t = task(1, "LO", 5, _recording(low, gens))
    eng, sink = make_engine(
        [t, task(2, "HI", 1, high), task(3, "IDLE", 99, forever_idle)])
    for tid in (1, 2, 3):
        eng.start_thread(tid)
    eng.run_ticks(2)            # HI runs first: LO is ready, not dispatched
    assert t.state is ThreadState.READY
    assert gens == [] and t.gen is None
    eng.run_ticks(2)            # LO runs [2,3) and ends
    assert len(gens) == 1 and t.gen is None
    assert t.state is ThreadState.DORMANT
    eng.start_thread(1)
    assert len(gens) == 1       # a restart builds nothing before its dispatch
    eng.run_ticks(2)
    assert len(gens) == 2 and gens[1] is not gens[0]
    assert work_rows(sink)[:4] == [
        (0, 2, "HI", "hi"), (2, 3, "LO", "lo"), (3, 4, "IDLE", "idle"),
        (4, 5, "LO", "lo"),
    ]
    starts = [(r.tick_start, r.thread_name, r.context_kind)
              for r in sink.records
              if r.label == "DISPATCH" and r.event_kind == "STARTUP"]
    assert starts == [(0, "HI", "STARTUP"), (2, "LO", "STARTUP"),
                      (3, "IDLE", "STARTUP"), (4, "LO", "STARTUP")]


def test_each_handler_activation_runs_a_fresh_body_and_counts_a_cycle():
    depths = []

    def handler(api):
        local = []              # a reused body would still hold earlier entries
        local.append(api)
        depths.append(len(local))
        yield from api.wait(Annotation("isr", 1, 0), ContextKind.ISR)

    gens = []
    h = isr(1, "H", _recording(handler, gens))
    eng, sink = make_engine([h, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(2)
    eng.arm_handler(1)
    assert gens == [] and h.state is ThreadState.WAITING
    for n in (1, 2, 3):
        assert eng.raise_interrupt(1) is True
        eng.run_ticks(2)
        assert h.token.cycles == n
        assert h.gen is None and h.state is ThreadState.WAITING
    assert len(gens) == 3 and len({id(g) for g in gens}) == 3
    assert depths == [1, 1, 1]
    entries = [r.event_kind for r in sink.records if r.label == "INT_ENTER"]
    assert entries == ["STARTUP", "CONTINUE_RUN", "CONTINUE_RUN"]
    assert len(control_rows(sink, "INT_RETURN")) == 3


def test_every_body_gets_the_engines_one_api_acting_for_the_running_thread():
    # a handler and a task build their segments through the same api: the
    # default context and the cycle marked are the running thread's
    seen = []

    def body(label):
        def run(api):
            seen.append(api)
            yield api.segment(Annotation(label, 1, 0))
            api.mark_cycle()
        return run

    eng, sink = make_engine([isr(1, "H", body("h")), task(2, "A", 5, body("a")),
                             task(3, "IDLE", 99, forever_idle)])
    eng.start_thread(2)
    eng.start_thread(3)
    eng.arm_handler(1)
    eng.raise_interrupt(1)
    eng.run_ticks(3)
    eng.finish()
    assert seen == [eng.api, eng.api]
    assert work_rows(sink) == [(0, 1, "H", "h"), (1, 2, "A", "a"),
                               (2, 3, "IDLE", "idle")]
    contexts = [r.context_kind for r in rows(sink.records) if not r.is_control]
    assert contexts == ["ISR", "TASK", "IDLE"]
    # the handler's return counts one more cycle
    assert [eng.thread(tid).token.cycles for tid in (1, 2)] == [2, 1]


def _run_one_activation(handler):
    eng, _ = make_engine(
        [isr(1, "H", handler), task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(2)
    eng.arm_handler(1)
    eng.raise_interrupt(1)
    eng.run_ticks(3)


def test_handler_cannot_exit():
    def handler(api):
        yield from api.wait(Annotation("isr", 1, 0), ContextKind.ISR)
        yield from api.exit()

    with pytest.raises(ProtocolError, match="cannot exit"):
        _run_one_activation(handler)


def test_empty_scheduler_is_an_error():
    def body(api):
        yield from api.exit()

    eng, _ = make_engine([task(1, "A", 5, body)])
    eng.start_thread(1)
    with pytest.raises(SchedulerEmptyError):
        eng.run_one_tick()


def test_zero_time_livelock_guard(monkeypatch):
    # the engine reads the limit on every step; a low one trips the same guard
    monkeypatch.setattr(engine, "_ZERO_TIME_STEP_LIMIT", 1000)

    def body(api):
        while True:
            yield from api.wait(Annotation("nop", 0, 0))

    # no sink attached: the default NullSink absorbs the record churn
    eng = Engine([task(1, "SPIN", 5, body)])
    eng.start_thread(1)
    with pytest.raises(ConsistencyError, match="livelock"):
        eng.run_one_tick()


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail, rather than hang, a call that does not return in time."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_task_preempted_by_its_own_class_stops_the_gate():
    # A's mask wrongly covers its own class 5, where B waits: preempted,
    # A is still the head of class 5, so the gate would dispatch and
    # preempt it again for ever, in zero time
    def body(api):
        yield from api.wait(Annotation("work", 5, 0))

    a = task(1, "A", 5, body)
    # no sink attached: the default NullSink absorbs the record churn
    eng = Engine([a, task(2, "B", 5, body),
                  task(3, "IDLE", 99, forever_idle)])
    for tid in (1, 2, 3):
        eng.start_thread(tid)
    a.outranked_by = (1 << 6) - 1
    with _time_limit(3), pytest.raises(
            ConsistencyError, match="preemption loop at tick 0: 1:A"):
        eng.run_one_tick()


@pytest.mark.parametrize("bad", [True, -1, "x"])
def test_set_priority_refuses_what_a_thread_refuses(bad):
    eng, _ = make_engine([task(1, "A", 5, idle_body)])
    with pytest.raises(ValidationError, match="priority"):
        eng.set_priority(1, bad)
    th = eng.thread(1)
    assert (th.current_priority, th.outranked_by) == (5, (1 << 5) - 1)


def test_zero_etm_segment_charges_full_energy_at_close():
    def body(api):
        yield from api.wait(Annotation("blip", 0, 77))
        yield from api.wait(Annotation("work", 1, 0))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, sink = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(2)
    eng.finish()
    blips = [r for r in sink.records if r.label == "blip"]
    assert len(blips) == 1
    assert (blips[0].tick_start, blips[0].tick_end) == (0, 0)
    assert blips[0].eem_uj == 77
    assert t.token.cet == 1
    assert t.token.cee_uj == 77


def test_a_zero_etm_segment_preempted_before_its_end_is_written_once():
    # A readies HI and then yields a zero-tick segment; HI preempts A
    # before that segment ends, and A's record of it is written at its
    # end, after the re-dispatch, with the event that resumed A
    def body(api):
        yield from api.wait(Annotation("work", 1, 0))
        eng.release(2, EventKind.SLEEP_ARRIVAL)
        yield from api.wait(Annotation("blip", 0, 77))
        yield from api.exit()

    def high(api):
        yield from api.wait_event()
        yield from api.wait(Annotation("hi", 1, 0))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, sink = make_engine(
        [t, task(2, "HI", 1, high), task(3, "IDLE", 99, forever_idle)])
    for tid in (1, 2, 3):
        eng.start_thread(tid)
    eng.run_ticks(3)
    eng.finish()
    assert [(r.tick_start, r.thread_name, r.label, r.eem_uj, r.event_kind)
            for r in sink.records if r.thread_name != "IDLE"] == [
        (0, "HI", "DISPATCH", 0, "STARTUP"),
        (0, "HI", "BLOCK", 0, ""),
        (0, "A", "DISPATCH", 0, "STARTUP"),
        (0, "A", "work", 0, "STARTUP"),
        (1, "A", "PREEMPT", 0, "RETURN_FROM_PREEMPTION"),
        (1, "HI", "DISPATCH", 0, "SLEEP_ARRIVAL"),
        (1, "HI", "hi", 0, "SLEEP_ARRIVAL"),
        (2, "HI", "EXIT", 0, ""),
        (2, "A", "DISPATCH", 0, "RETURN_FROM_PREEMPTION"),
        (2, "A", "blip", 77, "RETURN_FROM_PREEMPTION"),
        (2, "A", "EXIT", 0, ""),
    ]
    assert t.token.cee_uj == 77


def test_finish_flushes_partial_record():
    def body(api):
        yield from api.wait(Annotation("long", 10, 40))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, sink = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(3)
    eng.finish()
    rows = work_rows(sink)
    assert rows == [(0, 3, "A", "long")]
    # 40 uJ over 10 ticks: 4 per tick, remainder only at completion
    assert t.token.cee_uj == 12


def test_illegal_state_transition_rejected():
    def body(api):
        yield from api.exit()

    eng, _ = make_engine([task(1, "A", 5, body)])
    eng.start_thread(1)
    with pytest.raises(StateError):
        eng.start_thread(1)


def test_finish_is_idempotent():
    def body(api):
        yield from api.wait(Annotation("w", 1, 0))
        yield from api.exit()

    eng, sink = make_engine(
        [task(1, "A", 5, body), task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(3)
    eng.finish()
    n = len(sink.records)
    eng.finish()   # second call must not emit anything
    assert len(sink.records) == n


def test_run_ticks_after_finish_is_refused():
    def body(api):
        while True:
            yield from api.wait(Annotation("w", 3, 0))

    eng, sink = make_engine(
        [task(1, "A", 5, body), task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(10)
    eng.finish()
    records = list(sink.records)
    with pytest.raises(UsageError, match="the run is finished"):
        eng.run_ticks(5)
    # nothing stepped, nothing written to the closed sink
    assert eng.now == 10
    assert sink.records == records
    assert max(r.tick_end for r in records) == 10


def test_restart_preserves_accumulators():
    def body(api):
        yield from api.wait(Annotation("w", 2, 6))
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, _ = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    eng.run_ticks(3)
    assert t.state is ThreadState.DORMANT
    eng.start_thread(1)        # fresh generator, same token
    eng.run_ticks(3)
    assert t.token.cet == 4
    assert t.token.cee_uj == 12


def test_the_idle_thread_is_the_one_that_runs_idle_body():
    def other_idle(api):
        while True:
            yield from api.wait(Annotation("idle", 1, 0), ContextKind.IDLE)

    other = task(2, "IDLE", 99, other_idle)
    assert not other.is_idle and other.default_context is ContextKind.TASK
    idle = task(2, "IDLE", 99, idle_body)
    assert idle.is_idle and idle.default_context is ContextKind.IDLE


def test_priority_must_be_a_non_negative_int():
    # a priority is a bit index of the ready-class bitmap
    for bad in (-1, 2.0, None):
        with pytest.raises(ValidationError, match="priority"):
            task(1, "T", bad, idle_body)
    assert task(1, "T", 0, idle_body).current_priority == 0


# `True` is an `int` to Python; no id, priority, etm or energy takes it for 1
@pytest.mark.parametrize("call", [
    lambda: task(True, "T", 5, idle_body),
    lambda: task(1, "T", True, idle_body),
    lambda: Annotation("a", True).validate(),
    lambda: Annotation("a", 1, False).validate(),
], ids=["id", "priority", "etm", "eem"])
def test_a_bool_is_no_integer(call):
    with pytest.raises(ValidationError):
        call()


def test_a_thread_id_given_twice_is_a_conflict():
    with pytest.raises(ConflictError, match="thread id 1"):
        Engine([task(1, "A", 5, idle_body), task(1, "B", 6, idle_body)])


def test_an_annotation_label_a_csv_cell_cannot_hold_is_refused():
    # "x,y" would write a ten-column row under the nine-column header
    def body(api):
        yield from api.wait(Annotation("x,y", 2, 0))

    t = task(1, "A", 5, body)
    eng, sink = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    with pytest.raises(ValidationError, match="'x,y'"):
        eng.run_ticks(1)
    assert [r.label for r in sink.records] == ["DISPATCH"]
    assert t.token.cet == 0


# --------------------------------------------------------------------------
# coasting: ticks that need no scheduling decision, consumed in one step

def _coast_system():
    """A task with a 10-tick, 23 uJ segment (2 uJ a tick, the remaining
    3 on its last), a 3-tick one in a critical section, then idle."""
    def body(api):
        yield from api.wait(Annotation("long", 10, 23))
        yield engine._WaitRequest(Annotation("locked", 3, 5), ContextKind.SVC,
                                  critical=True)
        yield from api.exit()

    t = task(1, "A", 5, body)
    eng, sink = make_engine([t, task(2, "IDLE", 99, forever_idle)])
    eng.start_thread(1)
    eng.start_thread(2)
    return eng, sink


def _state(eng, sink):
    eng.finish()
    return eng.now, sink.records, [
        (th.token, th.svc_ticks, th.run_streak, th.max_streak)
        for th in eng.threads()]


@pytest.mark.parametrize("limits", [
    (1, 1, 1), (9, 3, 7), (4, 100, 2, 100, 5), (2, 8, 1, 1, 3, 20)])
def test_coasting_between_ticks_equals_stepping(limits):
    # each coast takes at most what is left of the running segment, and
    # of idle as many ticks as it is allowed; a stepped tick follows each
    eng, sink = _coast_system()
    for limit in limits:
        eng.run_one_tick()
        eng.coast(limit)
    ticks = eng.now
    stepped, stepped_sink = _coast_system()
    stepped.run_ticks(ticks)
    assert _state(eng, sink) == _state(stepped, stepped_sink)


def test_a_coast_ends_with_the_segment_and_charges_its_remainder():
    eng, sink = _coast_system()
    eng.run_one_tick()
    assert eng.coast(100) == 9
    t = eng.thread(1)
    assert (eng.now, t.token.cet, t.token.cee_uj) == (10, 10, 23)
    assert eng.coast(100) == 0         # the body must be resumed next
    eng.run_one_tick()                 # enters the critical section
    assert eng._section is not None
    assert eng.coast(100) == 2
    assert (t.svc_ticks, t.max_streak) == (3, 13)


def test_an_idle_stretch_is_written_when_it_closes():
    # idle's one segment never ends, so a coast takes all it may of it,
    # stepped ticks and coasts alike leave its record open, and it is
    # written when the stretch closes: its first row, opened by the
    # dispatch's STARTUP, then one record of the rows that continue it
    eng, sink = _coast_system()
    eng.run_ticks(14)                  # A is done, idle ran tick 13
    written = list(sink.records)
    assert written[-1].label == "DISPATCH"
    assert eng.coast(4) == 4
    eng.run_ticks(2)
    assert sink.records == written
    eng.finish()
    idle = TraceRecord(13, 14, 2, "IDLE", "IDLE", "idle", 1, 0, "STARTUP")
    assert sink.records[-2:] == [idle, TraceRecord(
        14, 20, 2, "IDLE", "IDLE", "idle", 1, 0, "CONTINUE_RUN", 6)]


def test_a_preemption_and_an_interrupt_close_the_idle_stretch():
    def task_body(api):
        yield from api.wait(Annotation("t", 2, 0))
        yield from api.exit()

    def handler(api):
        yield from api.wait(Annotation("isr", 1, 0), ContextKind.ISR)

    eng, sink = make_engine([task(1, "A", 5, task_body), isr(2, "H", handler),
                             task(3, "IDLE", 99, forever_idle)])
    eng.arm_handler(2)
    eng.start_thread(3)
    eng.run_ticks(4)
    eng.start_thread(1)                # preempts idle at tick 4
    eng.run_ticks(3)                   # A runs ticks 4 and 5, idle 6
    eng.raise_interrupt(2)             # enters H at tick 7
    eng.run_ticks(2)                   # H runs tick 7, idle 8
    assert eng.coast(1) == 1
    eng.finish()
    # a one-tick stretch is its first row alone
    assert [(r.tick_start, r.tick_end, r.event_kind, r.repeat)
            for r in sink.records if r.thread_id == 3 and not r.is_control
            ] == [(0, 1, "STARTUP", 1), (1, 4, "CONTINUE_RUN", 3),
                  (6, 7, "RETURN_FROM_PREEMPTION", 1),
                  (8, 9, "RETURN_FROM_INTERRUPT", 1),
                  (9, 10, "CONTINUE_RUN", 1)]


def test_no_coast_while_the_gate_has_work():
    def handler(api):
        yield from api.wait(Annotation("isr", 1, 0), ContextKind.ISR)

    eng, _ = make_engine([
        task(1, "A", 5, lambda api: api.wait(Annotation("long", 10, 0))),
        isr(2, "H", handler),
        task(3, "IDLE", 99, forever_idle)])
    assert eng.coast(5) == 0           # nothing is running yet
    eng.start_thread(1)
    eng.start_thread(3)
    eng.arm_handler(2)
    eng.run_one_tick()
    eng.raise_interrupt(2)
    assert eng.coast(5) == 0           # an activation waits to enter
    eng.run_one_tick()                 # H runs its one tick
    eng.run_one_tick()                 # A resumes
    assert eng.coast(0) == 0
    eng.set_priority(1, 100)           # A now ranks below the ready idle
    assert eng.coast(5) == 0           # a preemption waits to be checked
    eng.set_priority(1, 5)
    assert eng.coast(5) == 5
