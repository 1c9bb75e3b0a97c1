"""Kernel services, time-event handlers, boot protocol, deadlock detection.

Scenarios are built programmatically through the declaration API.  Task
body factories receive a CallContext, and a body calls each service with
its arguments alone, as ``yield from ctx.kernel.sem_wait(1)``: the
service acts for the running thread.  Results are captured into plain
dicts so assertions stay outside the simulated world.  Expected tick
positions in comments were derived by hand: a service charges one tick
and its effect lands on the caller's next resume.
"""

import inspect

import pytest

from helpers import compute, perfbench
from oracle import inherit_fixpoint
from rtksim.bfm import AccessSpec
from rtksim.debugds import dump_listing, take_snapshot
from rtksim.engine import Annotation, ContextKind, ThreadState, Token
from rtksim.errors import (
    ConflictError,
    DeadlockError,
    NotFoundError,
    ObjectStateError,
    ProtocolError,
    SimError,
    StateError,
    UsageError,
    ValidationError,
)
from rtksim.kernel import RESULT_OK, RESULT_TIMEOUT, Kernel
from rtksim.objects import FLAG_MODE_AND, FLAG_MODE_OR
from rtksim.scenario import (
    build_kernel,
    demo_scenario_path,
    load_scenario,
    parse_scenario_text,
)
from rtksim.trace import ListSink, records_to_csv, rows, running_vector


def mk(**kw) -> tuple[Kernel, ListSink]:
    k = Kernel(**kw)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    return k, sink


# --------------------------------------------------------------------------
# sleep / wakeup / delay

def test_sleep_released_by_wakeup():
    out = {}
    k, _ = mk()

    def sleeper(ctx):
        res = yield from ctx.kernel.sleep()
        out["code"] = res.code

    def waker(ctx):
        yield from compute(ctx, "w", 3)
        yield from ctx.kernel.wakeup(1)

    k.declare_task(1, "SLEEPER", 5, sleeper)
    k.declare_task(2, "WAKER", 10, waker)
    k.boot()
    k.run(8)
    assert out["code"] == RESULT_OK
    assert k.engine.thread(1).state is ThreadState.DORMANT
    assert k.engine.thread(1).token.cet == 1          # the service charge only


def test_queued_wakeup_skips_the_block():
    out = {}
    k, sink = mk()

    def waker(ctx):
        yield from ctx.kernel.wakeup(2)

    def sleeper(ctx):
        yield from compute(ctx, "s", 2)
        res = yield from ctx.kernel.sleep()
        out["code"] = res.code

    k.declare_task(1, "WAKER", 5, waker)
    k.declare_task(2, "SLEEPER", 10, sleeper)
    k.boot()
    k.run(6)
    assert out["code"] == RESULT_OK
    assert k.tcb[2].wakeup_count == 0
    blocked = [r for r in sink.records if r.label == "BLOCK" and r.thread_id == 2]
    assert blocked == []                              # never actually waited


def test_sleep_timeout_expires_on_the_exact_boundary():
    out = {}
    k, _ = mk()

    def body(ctx):
        res = yield from ctx.kernel.sleep(4)
        out["code"] = res.code

    k.declare_task(1, "T", 5, body)
    k.boot()
    # service tick 0, blocks at 1, timer due 1 + 4 = 5
    k.run(5)
    assert k.engine.thread(1).state is ThreadState.READY
    assert "code" not in out
    k.run(1)
    assert out["code"] == RESULT_TIMEOUT
    assert k.engine.thread(1).state is ThreadState.DORMANT


def test_stale_sleep_timer_cannot_release_a_later_wait():
    out = {}
    k, _ = mk(abort_on_deadlock=False)

    def t1(ctx):
        res = yield from ctx.kernel.sleep(10)   # timer due at 11
        out["first"] = res.code
        res = yield from ctx.kernel.sleep()       # forever
        out["second"] = res.code                          # must never run

    def t2(ctx):
        yield from compute(ctx, "w", 2)
        yield from ctx.kernel.wakeup(1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    k.run(20)
    k.finish()
    assert out["first"] == RESULT_OK
    assert "second" not in out
    # the second wait is genuinely stuck: reported as a deadlock as soon
    # as T2 has exited; the first wait's timeout, due at 11, left the
    # agenda when the wakeup ended that wait
    assert k.deadlock_report == (6, [(1, "T1", "sleep")])


def test_delay_ignores_wakeups_and_banks_them():
    out = {}
    k, _ = mk()

    def t1(ctx):
        res = yield from ctx.kernel.delay(8)
        out["delay"] = res.code
        res = yield from ctx.kernel.sleep()
        out["s1"] = res.code
        res = yield from ctx.kernel.sleep()
        out["s2"] = res.code
        res = yield from ctx.kernel.sleep(5)
        out["s3"] = res.code

    def t2(ctx):
        yield from compute(ctx, "a", 1)
        yield from ctx.kernel.wakeup(1)
        yield from compute(ctx, "b", 1)
        yield from ctx.kernel.wakeup(1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    k.run(8)
    assert "delay" not in out        # both wakeups landed, delay still held
    assert k.tcb[1].wakeup_count == 2
    k.run(12)
    assert out["delay"] == RESULT_OK
    assert out["s1"] == RESULT_OK    # consumed a banked wakeup, no block
    assert out["s2"] == RESULT_OK
    assert out["s3"] == RESULT_TIMEOUT
    assert k.tcb[1].wakeup_count == 0


def test_wakeup_of_a_task_waiting_on_an_object_is_banked():
    out = {}
    k, _ = mk(abort_on_deadlock=False)
    k.declare_semaphore(1, 0)

    def t1(ctx):
        yield from ctx.kernel.sleep()            # ended by T2's wakeup
        res = yield from ctx.kernel.sem_wait(1)
        out["sem"] = res.code                           # must never run

    def t2(ctx):
        yield from ctx.kernel.wakeup(1)
        yield from compute(ctx, "gap", 3)                # T1 runs and blocks
        yield from ctx.kernel.wakeup(1)        # T1 waits on the semaphore

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    k.run(10)
    assert "sem" not in out
    assert k.tcb[1].wakeup_count == 1
    assert k.semaphores[1].waiting_count == 1


def test_wakeup_of_dormant_task_is_an_error():
    k, _ = mk()

    def t1(ctx):
        yield from compute(ctx, "x", 1)

    def t2(ctx):
        yield from ctx.kernel.sleep(3)
        yield from ctx.kernel.wakeup(1)    # T1 exited long ago

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    with pytest.raises(ObjectStateError, match="dormant"):
        k.run(10)


# --------------------------------------------------------------------------
# time-event handlers

def handler_burner(ticks):
    def factory(ctx):
        yield from ctx.api.wait(Annotation("h", ticks, 0))
    return factory


def test_cyclic_phase_and_period_law():
    k, _ = mk()
    k.declare_cyclic(1, "H1", 10, handler_burner(1), phase=5)
    k.declare_cyclic(2, "H2", 7, handler_burner(1))          # phase 0 -> first at 7
    k.boot()
    k.run(100)
    # H1 at 5, 15, ..., 95; H2 at 7, 14, ..., 98
    assert k.engine.thread(1).token.cycles == 10
    assert k.engine.thread(2).token.cycles == 14


def test_cyclic_phase_one_fires_at_tick_one():
    k, sink = mk()
    k.declare_cyclic(1, "H", 50, handler_burner(1), phase=1)
    k.boot()
    k.run(3)
    vec = running_vector(sink.records, 3)
    assert vec[1] == 1         # the handler owns exactly tick 1
    assert k.engine.thread(1).token.cycles == 1


def test_alarm_fires_once_at_offset():
    out = {}
    k, _ = mk()

    def sleeper(ctx):
        res = yield from ctx.kernel.sleep()
        out["woke_at"] = ctx.kernel.engine.now
        out["code"] = res.code

    def alarm_body(ctx):
        yield from ctx.kernel.wakeup(1)

    k.declare_task(1, "T", 5, sleeper)
    k.declare_alarm(2, "A", 6, alarm_body)
    k.boot()
    k.run(30)
    assert k.engine.thread(2).token.cycles == 1
    # alarm enters at tick 6, its wakeup service charges tick 6,
    # the effect releases T on the next resume
    assert out["woke_at"] == 7
    assert out["code"] == RESULT_OK


def waiting_handler(service):
    """A handler factory whose body calls ``service``, one that can wait."""
    def factory(ctx):
        kernel = ctx.kernel
        if service == "sleep":
            yield from kernel.sleep()
        elif service == "delay":
            yield from kernel.delay(2)
        elif service == "mtx_lock":
            yield from kernel.mtx_lock(1)
        else:
            yield from kernel.sem_wait(1, timeout=3)
    return factory


def refused_at_first_activation(k, sink, reason):
    """Run ``k`` into its handler H's refused wait: the first activation
    entered at tick 5 and charged no service."""
    with pytest.raises(ProtocolError, match=rf"^H: a handler cannot wait \({reason}\)$"):
        k.run(30)
    assert (k.engine.now, k.engine.current_id) == (5, 1)
    assert [r.label for r in sink.records if r.thread_id == 1] == ["INT_ENTER"]
    assert k.engine._section is None


@pytest.mark.parametrize("service, reason", [
    ("sleep", "sleep"), ("delay", "delay"), ("sem_wait", "semaphore 1"),
    ("mtx_lock", "mutex 1")])
def test_a_handler_that_waits_is_a_protocol_error(service, reason):
    # uITRON rejects a wait service outside task context (E_CTX) at the
    # call; semaphore 1 is empty and mutex 1 free
    k, sink = mk()
    k.declare_semaphore(1, 0)
    k.declare_mutex(1)
    k.declare_cyclic(1, "H", 5, waiting_handler(service))
    k.boot()
    refused_at_first_activation(k, sink, reason)


def test_a_handler_is_refused_a_wait_it_would_be_granted():
    # the semaphore holds 3, so the wait would not block: it is refused
    # all the same, at the first activation
    k, sink = mk()
    k.declare_semaphore(1, 3)
    k.declare_cyclic(1, "H", 5, waiting_handler("sem_wait"))
    k.boot()
    refused_at_first_activation(k, sink, "semaphore 1")
    assert k.semaphores[1].count == 3


def test_busy_cyclic_handler_misses_fires():
    k, _ = mk()
    k.declare_cyclic(1, "H", 2, handler_burner(5))
    k.boot()
    k.run(20)
    # enters at 2, 8, 14 (busy for 5 ticks each time; intermediate fires
    # are dropped, not queued); the fire at 20 is queued past the horizon
    th = k.engine.thread(1)
    assert th.token.cycles == 3
    assert th.token.cet == 15


# --------------------------------------------------------------------------
# deadlock detection

def _two_sleepers(k):
    def body(ctx):
        yield from ctx.kernel.sleep()

    k.declare_task(1, "T1", 5, body)
    k.declare_task(2, "T2", 6, body)


def test_deadlock_aborts_with_blocked_set():
    k, _ = mk()
    _two_sleepers(k)
    k.boot()
    with pytest.raises(DeadlockError) as ei:
        k.run(10)
    assert ei.value.tick == 3
    assert ei.value.blocked == [(1, "T1", "sleep"), (2, "T2", "sleep")]


def test_deadlock_report_mode_completes_the_run():
    k, _ = mk(abort_on_deadlock=False)
    _two_sleepers(k)
    k.boot()
    k.run(10)                      # no raise
    assert k.engine.now == 10
    assert k.deadlock_report == (3, [(1, "T1", "sleep"), (2, "T2", "sleep")])


def test_pending_timer_defers_deadlock():
    k, _ = mk()

    def forever(ctx):
        yield from ctx.kernel.sleep()

    def timed(ctx):
        yield from ctx.kernel.sleep(30)

    k.declare_task(1, "F", 5, forever)
    k.declare_task(2, "D", 6, timed)
    k.boot()
    k.run(30)                      # D's timer keeps the system alive
    with pytest.raises(DeadlockError) as ei:
        k.run(5)                   # D expires at 32 and exits; F remains
    assert ei.value.tick == 33
    assert ei.value.blocked == [(1, "F", "sleep")]


def test_stale_timeout_does_not_defer_deadlock():
    k, _ = mk()

    def a(ctx):
        yield from ctx.kernel.sleep(100)   # B wakes it; no timer left
        yield from ctx.kernel.sleep()

    def b(ctx):
        yield from ctx.kernel.wakeup(1)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "A", 5, a)
    k.declare_task(2, "B", 6, b)
    k.boot()
    with pytest.raises(DeadlockError) as ei:
        k.run(200)
    assert ei.value.tick == 5
    assert ei.value.blocked == [(1, "A", "sleep"), (2, "B", "sleep")]


def test_live_timeout_defers_deadlock_after_a_stale_one_fell_due():
    out = {}
    k, _ = mk()

    def a(ctx):
        yield from ctx.kernel.sleep(5)     # woken; was due at 6
        res = yield from ctx.kernel.sleep(10)   # live from 4 to 14
        out["a"] = (res.code, ctx.kernel.engine.now)

    def b(ctx):
        yield from ctx.kernel.wakeup(1)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "A", 5, a)
    k.declare_task(2, "B", 6, b)
    k.boot()
    with pytest.raises(DeadlockError) as ei:
        k.run(200)
    assert out["a"] == (RESULT_TIMEOUT, 14)
    assert ei.value.tick == 15
    assert ei.value.blocked == [(2, "B", "sleep")]


def test_timeout_that_fired_is_not_counted_stale():
    out = {}
    k, _ = mk()
    k.declare_semaphore(1, 0)

    def a(ctx):
        yield from ctx.kernel.sem_wait(1, timeout=2)   # fires
        yield from ctx.kernel.sem_wait(1)              # B signals
        res = yield from ctx.kernel.sleep(10)
        out["a"] = (res.code, ctx.kernel.engine.now)

    def b(ctx):
        yield from compute(ctx, "gap", 6)
        yield from ctx.kernel.sem_signal(1)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "A", 5, a)
    k.declare_task(2, "B", 6, b)
    k.boot()
    with pytest.raises(DeadlockError) as ei:
        k.run(200)
    # a deadlock check blind to A's live timeout would report both at
    # 12, while A's sleep still had its timeout to come
    assert out["a"] == (RESULT_TIMEOUT, 21)
    assert ei.value.tick == 22
    assert ei.value.blocked == [(2, "B", "sleep")]


# --------------------------------------------------------------------------
# semaphores through the service layer

def test_sem_wait_timeout_then_signal():
    out = {}
    k, _ = mk()
    k.declare_semaphore(1, 0)

    def t1(ctx):
        res = yield from ctx.kernel.sem_wait(1, timeout=3)
        out["first"] = res.code
        res = yield from ctx.kernel.sem_wait(1, timeout=10)
        out["second"] = res.code

    def t2(ctx):
        yield from compute(ctx, "w", 5)
        yield from ctx.kernel.sem_signal(1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    k.run(20)
    assert out["first"] == RESULT_TIMEOUT
    assert out["second"] == RESULT_OK
    sem = k.semaphores[1]
    assert sem.count == 0 and sem.waiting_count == 0


def test_sem_timeout_cancels_queue_entry():
    k, _ = mk(abort_on_deadlock=False)
    k.declare_semaphore(1, 0)

    def t1(ctx):
        yield from ctx.kernel.sem_wait(1, timeout=2)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "T1", 5, t1)
    k.boot()
    k.run(10)
    assert k.semaphores[1].waiting_count == 0


def test_missing_object_id_raises():
    k, _ = mk()

    def body(ctx):
        yield from ctx.kernel.sem_wait(99)

    k.declare_task(1, "T", 5, body)
    k.boot()
    with pytest.raises(NotFoundError):
        k.run(5)


def test_bad_timeout_rejected_at_the_call():
    k, _ = mk()
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from ctx.kernel.sem_wait(1, timeout=0)

    k.declare_task(1, "T", 5, body)
    k.boot()
    with pytest.raises(ValidationError):
        k.run(5)


# --------------------------------------------------------------------------
# mutexes and priority inheritance

def test_priority_inversion_is_bounded_by_inheritance():
    k, sink = mk()
    k.declare_mutex(1)

    def high(ctx):
        yield from ctx.kernel.sleep(4)
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "h", 2)
        yield from ctx.kernel.mtx_unlock(1)

    def med(ctx):
        yield from ctx.kernel.sleep(2)
        yield from compute(ctx, "m", 10)

    def low(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "c", 6)
        yield from ctx.kernel.mtx_unlock(1)

    k.declare_task(1, "HIGH", 5, high)
    k.declare_task(2, "MED", 10, med)
    k.declare_task(3, "LOW", 20, low)
    k.boot()
    k.run(7)
    # HIGH hit the held mutex at tick 6: LOW runs boosted
    assert k.engine.thread(3).current_priority == 5
    assert k.engine.thread(1).state is ThreadState.WAITING
    assert k.mutexes[1].owner == 3
    k.run(18)
    k.finish()
    assert k.engine.thread(3).current_priority == 20   # boost dropped
    vec = running_vector(sink.records, 25)
    # MED must not run between HIGH's block and LOW's handover
    assert vec[:15] == [1, 2, 3, 3, 2, 1, 3, 3, 3, 3, 3, 3, 1, 1, 1]


def test_mutex_handoff_order_and_nonowner_unlock():
    # CONTEND outranks OWN but sleeps past the lock grab, then blocks on
    # the held mutex.  Unlock must hand ownership straight to the queued
    # waiter, not drop it to the floor.
    out = {}
    k, _ = mk()
    k.declare_mutex(1)

    def owner(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "crit", 5)
        yield from ctx.kernel.mtx_unlock(1)

    def contender(ctx):
        yield from ctx.kernel.sleep(2)
        res = yield from ctx.kernel.mtx_lock(1)
        out["locked"] = res.code
        out["owner_at_grant"] = ctx.kernel.mutexes[1].owner
        yield from ctx.kernel.mtx_unlock(1)

    k.declare_task(1, "OWN", 5, owner)
    k.declare_task(2, "CONTEND", 3, contender)
    k.boot()
    k.run(15)
    assert out["locked"] == RESULT_OK
    assert out["owner_at_grant"] == 2
    assert k.mutexes[1].owner is None


def test_unlock_by_nonowner_is_an_error():
    k, _ = mk()
    k.declare_mutex(1)

    def t1(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from ctx.kernel.sleep()

    def t2(ctx):
        yield from compute(ctx, "w", 3)
        yield from ctx.kernel.mtx_unlock(1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    with pytest.raises(ObjectStateError, match="non-owner"):
        k.run(10)


def priorities(k):
    return {th.id: th.current_priority for th in k.engine.threads()}


def fixpoint(k):
    """The reference: inheritance recomputed over every mutex."""
    return inherit_fixpoint(
        {th.id: th.base_priority for th in k.engine.threads()}, priorities(k),
        [(m.owner, m.queue.waiters())
         for m in k.mutexes.values() if m.owner is not None])


def _chain(k, out, high_timeout=None):
    """HIGH waits on B, held by MID, which waits on A, held by LOW."""
    k.declare_mutex(1)   # A
    k.declare_mutex(2)   # B

    def high(ctx):
        yield from ctx.kernel.sleep(6)
        res = yield from ctx.kernel.mtx_lock(2, timeout=high_timeout)
        out["high"] = (res.code, ctx.kernel.engine.now)
        yield from ctx.kernel.sleep()

    def mid(ctx):
        yield from ctx.kernel.sleep(2)
        yield from ctx.kernel.mtx_lock(2)
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "m", 40)

    def low(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "l", 20)
        yield from ctx.kernel.mtx_unlock(1)
        yield from compute(ctx, "l", 40)

    k.declare_task(1, "HIGH", 5, high)
    k.declare_task(2, "MID", 10, mid)
    k.declare_task(3, "LOW", 20, low)
    k.boot()


def test_inheritance_runs_through_a_three_deep_owner_chain():
    k, _ = mk()
    _chain(k, {})
    k.run(7)
    # MID (holding B) blocked on A at tick 6: LOW inherits 10
    assert k.engine.thread(2).state is ThreadState.WAITING
    assert priorities(k)[3] == 10
    k.run(2)
    # HIGH blocked on B at tick 8: MID and, through it, LOW inherit 5
    assert k.engine.thread(1).state is ThreadState.WAITING
    assert priorities(k) == {1: 5, 2: 5, 3: 5, 4: 141} == fixpoint(k)
    k.run(20)
    # LOW handed A to MID at its unlock and dropped back to its base
    assert k.mutexes[1].owner == 2
    assert priorities(k) == {1: 5, 2: 5, 3: 20, 4: 141} == fixpoint(k)


def test_lock_timeout_withdraws_the_boost_along_the_chain():
    out = {}
    k, _ = mk()
    _chain(k, out, high_timeout=5)
    k.run(9)
    assert priorities(k) == {1: 5, 2: 5, 3: 5, 4: 141}
    k.run(5)
    # HIGH's lock on B timed out at 13: MID and LOW fall back to 10
    assert out["high"] == ("TIMEOUT", 13)
    assert priorities(k) == {1: 5, 2: 10, 3: 10, 4: 141} == fixpoint(k)


def test_unlock_hands_the_new_owner_the_remaining_waiters():
    # W1 holds N, on which X waits with a timeout, and queues on M ahead
    # of W2.  OWN's unlock hands M to W1, with W2 still queued.  When
    # X gives up, W1 keeps W2's priority, not its own base.
    out = {}
    k, _ = mk()
    k.declare_mutex(1)   # M
    k.declare_mutex(2)   # N

    def own(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "o", 20)
        yield from ctx.kernel.mtx_unlock(1)
        yield from compute(ctx, "o", 60)

    def w1(ctx):
        yield from ctx.kernel.sleep(2)
        yield from ctx.kernel.mtx_lock(2)
        yield from ctx.kernel.mtx_lock(1)
        yield from compute(ctx, "w", 60)

    def x(ctx):
        yield from ctx.kernel.sleep(8)
        res = yield from ctx.kernel.mtx_lock(2, timeout=40)
        out["x"] = (res.code, ctx.kernel.engine.now)
        yield from ctx.kernel.sleep()

    def w2(ctx):
        yield from ctx.kernel.sleep(5)
        yield from ctx.kernel.mtx_lock(1)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "OWN", 20, own)
    k.declare_task(2, "W1", 10, w1)
    k.declare_task(3, "X", 5, x)
    k.declare_task(4, "W2", 6, w2)
    k.boot()
    k.run(14)
    assert k.mutexes[1].queue.waiters() == [2, 4]
    assert priorities(k) == {1: 5, 2: 5, 3: 5, 4: 6, 5: 141} == fixpoint(k)
    k.run(18)
    assert k.mutexes[1].owner == 2
    assert k.mutexes[1].queue.waiters() == [4]
    assert priorities(k) == {1: 20, 2: 5, 3: 5, 4: 6, 5: 141} == fixpoint(k)
    k.run(20)
    assert out["x"] == ("TIMEOUT", 50)
    assert priorities(k) == {1: 20, 2: 6, 3: 5, 4: 6, 5: 141} == fixpoint(k)


def test_deadlock_cycle_priorities_equal_the_fixpoint():
    # A holds M1 and waits on M2; B holds M2 and waits on M1.  C then
    # queues on M1 with a timeout: its boost runs round the cycle, and
    # stays there after C gives up, as each member still inherits from
    # the other.
    k, _ = mk(abort_on_deadlock=False)
    k.declare_mutex(1)
    k.declare_mutex(2)

    def a(ctx):
        yield from ctx.kernel.mtx_lock(1)
        yield from ctx.kernel.sleep(3)
        yield from ctx.kernel.mtx_lock(2)

    def b(ctx):
        yield from ctx.kernel.sleep(1)
        yield from ctx.kernel.mtx_lock(2)
        yield from ctx.kernel.mtx_lock(1)

    def c(ctx):
        yield from ctx.kernel.sleep(12)
        yield from ctx.kernel.mtx_lock(1, timeout=5)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "A", 10, a)
    k.declare_task(2, "B", 5, b)
    k.declare_task(3, "C", 3, c)
    k.boot()
    k.run(12)
    assert {k.engine.thread(t).state for t in (1, 2)} == {ThreadState.WAITING}
    assert priorities(k) == {1: 5, 2: 5, 3: 3, 4: 141} == fixpoint(k)
    k.run(4)
    assert k.mutexes[1].queue.waiters() == [2, 3]
    assert priorities(k) == {1: 3, 2: 3, 3: 3, 4: 141} == fixpoint(k)
    k.run(14)
    assert k.mutexes[1].queue.waiters() == [2]
    assert priorities(k) == {1: 3, 2: 3, 3: 3, 4: 141} == fixpoint(k)
    tick, blocked = k.deadlock_report
    assert [tid for tid, _name, _reason in blocked] == [1, 2, 3]


# --------------------------------------------------------------------------
# event flags

def test_flag_and_wait_with_clear_returns_snapshot():
    out = {}
    k, _ = mk()
    k.declare_flag(1, 0)

    def waiter(ctx):
        res = yield from ctx.kernel.flag_wait(1, 0b101, FLAG_MODE_AND, clear=True)
        out["snap"] = res.value
        res = yield from ctx.kernel.flag_wait(1, 0b010, FLAG_MODE_OR, timeout=20)
        out["second"] = (res.code, res.value)

    def setter(ctx):
        yield from ctx.kernel.flag_set(1, 0b100)
        yield from ctx.kernel.flag_set(1, 0b001)
        yield from compute(ctx, "gap", 2)
        yield from ctx.kernel.flag_set(1, 0b010)

    k.declare_task(1, "WAITER", 5, waiter)
    k.declare_task(2, "SETTER", 10, setter)
    k.boot()
    k.run(20)
    assert out["snap"] == 0b101
    assert out["second"] == (RESULT_OK, 0b010)
    assert k.flags[1].pattern == 0b010   # second wait did not clear


def test_flag_clear_service():
    out = {}
    k, _ = mk()
    k.declare_flag(1, 0b111)

    def body(ctx):
        yield from ctx.kernel.flag_clear(1, 0b001)
        res = yield from ctx.kernel.flag_wait(1, 0b110, FLAG_MODE_AND, timeout=2)
        out["code"] = res.code

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(10)
    assert k.flags[1].pattern == 0b001
    assert out["code"] == RESULT_TIMEOUT   # cleared bits no longer satisfy


# --------------------------------------------------------------------------
# mailboxes and message buffers

def test_mailbox_delivers_by_message_priority_then_fifo():
    out = {}
    k, _ = mk()
    k.declare_mailbox(1)

    def sender(ctx):
        yield from ctx.kernel.mbx_send(1, "a", priority=5)
        yield from ctx.kernel.mbx_send(1, "b", priority=0)
        yield from ctx.kernel.mbx_send(1, "c", priority=5)

    def receiver(ctx):
        got = []
        for _ in range(3):
            res = yield from ctx.kernel.mbx_recv(1)
            got.append(res.value)
        out["order"] = got
        res = yield from ctx.kernel.mbx_recv(1, timeout=3)
        out["empty"] = res.code

    k.declare_task(1, "SEND", 5, sender)
    k.declare_task(2, "RECV", 10, receiver)
    k.boot()
    k.run(20)
    assert out["order"] == ["b", "a", "c"]
    assert out["empty"] == RESULT_TIMEOUT


def test_mailbox_direct_handoff_to_blocked_receiver():
    out = {}
    k, _ = mk()
    k.declare_mailbox(1)

    def receiver(ctx):
        res = yield from ctx.kernel.mbx_recv(1)
        out["msg"] = res.value

    def sender(ctx):
        yield from compute(ctx, "gap", 2)
        yield from ctx.kernel.mbx_send(1, {"k": 1})

    k.declare_task(1, "RECV", 5, receiver)
    k.declare_task(2, "SEND", 10, sender)
    k.boot()
    k.run(10)
    assert out["msg"] == {"k": 1}
    assert k.mailboxes[1].message_count == 0


def test_blocked_receiver_gets_a_message_that_equals_none():
    """A message handed to a waiting receiver comes back as the same
    object, whatever its ``__eq__`` says about None."""
    class EqualsAnything:
        def __eq__(self, other):
            return True

        __hash__ = object.__hash__

    msg = EqualsAnything()
    out = {}
    k, _ = mk()
    k.declare_mailbox(1)

    def receiver(ctx):
        res = yield from ctx.kernel.mbx_recv(1)
        out["msg"] = res.value

    def sender(ctx):
        yield from compute(ctx, "gap", 2)
        yield from ctx.kernel.mbx_send(1, msg)

    k.declare_task(1, "RECV", 5, receiver)
    k.declare_task(2, "SEND", 10, sender)
    k.boot()
    k.run(10)
    assert out["msg"] is msg


def test_message_buffer_backpressure_roundtrip():
    out = {}
    k, _ = mk()
    k.declare_buffer(1, 4)

    def sender(ctx):
        res = yield from ctx.kernel.mbf_send(1, b"aa")
        out["s1"] = res.code
        res = yield from ctx.kernel.mbf_send(1, b"bbb")
        out["s2"] = res.code                        # must wait for space

    def receiver(ctx):
        res = yield from ctx.kernel.mbf_recv(1)
        out["r1"] = res.value
        res = yield from ctx.kernel.mbf_recv(1)
        out["r2"] = res.value

    k.declare_task(1, "SEND", 5, sender)
    k.declare_task(2, "RECV", 10, receiver)
    k.boot()
    k.run(15)
    assert out == {"s1": RESULT_OK, "s2": RESULT_OK,
                   "r1": b"aa", "r2": b"bbb"}
    buf = k.buffers[1]
    assert buf.message_count == 0 and buf.free_bytes == 4


# --------------------------------------------------------------------------
# pools

def test_fixed_pool_block_handoff():
    out = {}
    k, _ = mk()
    k.declare_fixed_pool(1, 2, 16)

    def taker(ctx):
        res = yield from ctx.kernel.pool_get(1)
        out["i0"] = res.value
        res = yield from ctx.kernel.pool_get(1)
        out["i1"] = res.value
        res = yield from ctx.kernel.pool_get(1)   # pool exhausted
        out["i2"] = res.value

    def releaser(ctx):
        yield from compute(ctx, "gap", 4)
        yield from ctx.kernel.pool_release(1, 0)

    k.declare_task(1, "TAKE", 5, taker)
    k.declare_task(2, "FREE", 10, releaser)
    k.boot()
    k.run(15)
    assert (out["i0"], out["i1"]) == (0, 1)
    assert out["i2"] == 0                     # freed block went to the waiter
    assert k.fixed_pools[1].free_count == 0   # 0 regranted, 1 still held


def test_variable_pool_grant_after_release():
    out = {}
    k, _ = mk()
    k.declare_variable_pool(1, 8)

    def taker(ctx):
        res = yield from ctx.kernel.vpool_get(1, 6)
        out["off1"] = res.value
        res = yield from ctx.kernel.vpool_get(1, 4)
        out["off2"] = res.value

    def releaser(ctx):
        yield from compute(ctx, "gap", 4)
        yield from ctx.kernel.vpool_release(1, 0)

    k.declare_task(1, "TAKE", 5, taker)
    k.declare_task(2, "FREE", 10, releaser)
    k.boot()
    k.run(15)
    assert out["off1"] == 0
    assert out["off2"] == 0
    assert k.variable_pools[1].used_bytes == 4


# --------------------------------------------------------------------------
# the timeout of every blocking service

# service -> (declare the object, a setup call that makes the timed call
# block or None, the timed call (timeout 3), a later give that would serve
# that call, the object's waiter counts, a check that the give handed
# nothing to the waiter that left)
_TIMEOUT_CASES = {
    "flag_wait": (
        lambda k: k.declare_flag(1, 0),
        None,
        lambda kn: kn.flag_wait(1, 0b1, FLAG_MODE_AND,
                                     clear=True, timeout=3),
        lambda kn: kn.flag_set(1, 0b1),
        lambda k: [k.flags[1].waiting_count],
        lambda k: k.flags[1].pattern == 0b1,        # no clear on release
    ),
    "mbx_recv": (
        lambda k: k.declare_mailbox(1),
        None,
        lambda kn: kn.mbx_recv(1, timeout=3),
        lambda kn: kn.mbx_send(1, "m"),
        lambda k: [k.mailboxes[1].waiting_count],
        lambda k: k.mailboxes[1].message_count == 1,
    ),
    "mbf_send": (                                   # buffer full
        lambda k: k.declare_buffer(1, 4),
        lambda kn: kn.mbf_send(1, b"aaaa"),
        lambda kn: kn.mbf_send(1, b"bb", timeout=3),
        lambda kn: kn.mbf_recv(1),
        lambda k: [len(k.buffers[1].send_queue), len(k.buffers[1].recv_queue)],
        lambda k: (k.buffers[1].message_count, k.buffers[1].free_bytes) == (0, 4),
    ),
    "mbf_recv": (
        lambda k: k.declare_buffer(1, 4),
        None,
        lambda kn: kn.mbf_recv(1, timeout=3),
        lambda kn: kn.mbf_send(1, b"x"),
        lambda k: [len(k.buffers[1].send_queue), len(k.buffers[1].recv_queue)],
        lambda k: k.buffers[1].message_count == 1,
    ),
    "pool_get": (                                   # its one block held
        lambda k: k.declare_fixed_pool(1, 1, 16),
        lambda kn: kn.pool_get(1),
        lambda kn: kn.pool_get(1, timeout=3),
        lambda kn: kn.pool_release(1, 0),
        lambda k: [k.fixed_pools[1].waiting_count],
        lambda k: k.fixed_pools[1].free_count == 1,
    ),
    "vpool_get": (                                  # pool full
        lambda k: k.declare_variable_pool(1, 8),
        lambda kn: kn.vpool_get(1, 8),
        lambda kn: kn.vpool_get(1, 4, timeout=3),
        lambda kn: kn.vpool_release(1, 0),
        lambda k: [k.variable_pools[1].waiting_count],
        lambda k: k.variable_pools[1].used_bytes == 0,
    ),
}


@pytest.mark.parametrize("service", sorted(_TIMEOUT_CASES))
def test_blocking_service_timeout(service):
    declare, setup, timed, give, waiting, nothing_given = _TIMEOUT_CASES[service]
    out = {}
    k, _ = mk()
    declare(k)

    def waiter(ctx):
        if setup is not None:
            yield from setup(ctx.kernel)
        start = ctx.kernel.engine.now
        res = yield from timed(ctx.kernel)
        out["timeout"] = (res.code, ctx.kernel.engine.now - start)
        out["waiting"] = waiting(k)

    def giver(ctx):
        yield from compute(ctx, "gap", 10)
        yield from give(ctx.kernel)

    k.declare_task(1, "WAITER", 5, waiter)
    k.declare_task(2, "GIVER", 10, giver)
    k.boot()
    k.run(20)
    # service tick, blocked from the next tick, released 3 ticks later
    assert out["timeout"] == (RESULT_TIMEOUT, 4)
    assert not any(out["waiting"])
    assert k.engine.thread(2).state is ThreadState.DORMANT   # the give ran
    assert not any(waiting(k))
    assert nothing_given(k)


# object -> (declare it, a call of a higher-priority task that leaves too
# little for the head or None, the head's call (timeout 3), the call queued
# behind the head that fits once it has left, the object's state after)
_STUCK_CASES = {
    "semaphore": (                                  # count 1
        lambda k: k.declare_semaphore(1, 1, max_count=4),
        None,
        lambda kn: kn.sem_wait(1, 2, timeout=3),
        lambda kn: kn.sem_wait(1, 1),
        lambda k: (k.semaphores[1].count, k.semaphores[1].waiting_count),
    ),
    "variable_pool": (                              # 2 of 8 bytes free
        lambda k: k.declare_variable_pool(1, 8),
        lambda kn: kn.vpool_get(1, 6),
        lambda kn: kn.vpool_get(1, 4, timeout=3),
        lambda kn: kn.vpool_get(1, 2),
        lambda k: (k.variable_pools[1].size - k.variable_pools[1].used_bytes,
                   k.variable_pools[1].waiting_count),
    ),
    "message_buffer": (                             # 1 of 4 bytes free
        lambda k: k.declare_buffer(1, 4),
        lambda kn: kn.mbf_send(1, b"abc"),
        lambda kn: kn.mbf_send(1, b"def", timeout=3),
        lambda kn: kn.mbf_send(1, b"g"),
        lambda k: (k.buffers[1].free_bytes, k.buffers[1].waiting_count),
    ),
}


@pytest.mark.parametrize("kind", list(_STUCK_CASES))
def test_a_head_that_times_out_lets_the_waiter_behind_it_in(kind):
    # the head waits for more than is free; the smaller request behind it
    # may not pass it, but once the head gives up it fits.  It used to stay
    # queued, and the run stopped with a false deadlock.
    declare, hold, head, behind, state = _STUCK_CASES[kind]
    out = {}
    k, _ = mk()
    declare(k)

    def task(name, call):
        def body(ctx):
            res = yield from call(ctx.kernel)
            out[name] = (res.code, ctx.kernel.engine.now)
        return body

    if hold is not None:
        k.declare_task(1, "HOLD", 1, task("hold", hold))
    k.declare_task(2, "HEAD", 2, task("head", head))
    k.declare_task(3, "BEHIND", 3, task("behind", behind))
    k.boot()
    k.run(12)
    start = 0 if hold is None else 1
    # the head queues at tick start+1 and leaves 3 ticks later; the task
    # behind it is released at that boundary and runs once the head is done
    assert out["head"] == (RESULT_TIMEOUT, start + 4)
    assert out["behind"] == (RESULT_OK, start + 4)
    assert state(k) == (0, 0)
    assert k.engine.stalled() == []


# --------------------------------------------------------------------------
# start/exit services

def test_start_task_restarts_a_dormant_task():
    k, _ = mk()

    def worker(ctx):
        yield from compute(ctx, "w", 2)

    def boss(ctx):
        yield from ctx.kernel.sleep(5)
        yield from ctx.kernel.start_task(1)

    k.declare_task(1, "WORKER", 5, worker)
    k.declare_task(2, "BOSS", 10, boss)
    k.boot()
    k.run(15)
    th = k.engine.thread(1)
    assert th.token.cet == 4                 # two ticks per incarnation
    assert th.state is ThreadState.DORMANT


def test_start_task_on_live_task_is_an_error():
    k, _ = mk()

    def worker(ctx):
        yield from compute(ctx, "w", 10)

    def boss(ctx):
        yield from ctx.kernel.start_task(1)

    k.declare_task(1, "WORKER", 5, worker)
    k.declare_task(2, "BOSS", 3, boss)
    k.boot()
    with pytest.raises(StateError):
        k.run(5)


@pytest.mark.parametrize("service, target, error", [
    ("wakeup", 9, NotFoundError),        # unknown id
    ("wakeup", 2, ObjectStateError),     # names a handler
    ("start_task", 9, NotFoundError),
    ("start_task", 2, ObjectStateError),
    ("sem_wait", 9, NotFoundError),
    ("sem_signal", 9, NotFoundError),
    ("mtx_lock", 9, NotFoundError),
    ("mtx_unlock", 1, ObjectStateError),  # declared, but free
])
def test_failed_task_service_closes_its_critical_section(service, target, error):
    k, _ = mk()
    k.declare_semaphore(1, 0)
    k.declare_mutex(1)
    out = {}

    def body(ctx):
        try:
            yield from getattr(ctx.kernel, service)(target)
        except SimError as exc:
            out["error"] = type(exc)
        out["section"] = ctx.kernel.engine._section
        yield from compute(ctx, "after", 2)

    k.declare_task(1, "T", 5, body)
    k.declare_alarm(2, "ALM", 100, handler_burner(1))
    k.boot()
    k.run(10)
    assert out == {"error": error, "section": None}
    assert k.engine._section is None
    th = k.engine.thread(1)
    assert th.state is ThreadState.DORMANT and th.token.cet == 3


def test_no_service_names_its_caller():
    # as in uITRON, a service acts for the running thread: no parameter
    # of any service the benchmark's tracer wraps names the caller
    for name in perfbench("tracer").SERVICES:
        params = inspect.signature(getattr(Kernel, name)).parameters
        assert "api" not in params, name
        assert list(params)[0] == "self", name


def test_exit_task_service():
    k, sink = mk()

    def body(ctx):
        yield from compute(ctx, "w", 2)
        yield from ctx.kernel.exit_task()
        yield from compute(ctx, "never", 5)   # unreachable

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(6)
    assert k.engine.thread(1).state is ThreadState.DORMANT
    assert k.engine.thread(1).token.cet == 3
    assert all(r.label != "never" for r in sink.records)


# --------------------------------------------------------------------------
# peripherals through the kernel

def test_bfm_call_charges_ceiling_of_cycles():
    out = {}
    k, sink = mk(cycles_per_tick=100)
    k.add_device("serial_io", "uart", {
        "wr": AccessSpec("wr", "write", 250, 9),
    })

    def body(ctx):
        res = yield from ctx.kernel.bfm_call("uart", "wr", {"value": 0x5A})
        out["resp"] = res.value

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(5)
    assert out["resp"] == 0x5A
    th = k.engine.thread(1)
    assert th.token.cet == 3                  # ceil(250 / 100)
    assert th.token.cee_uj == 9
    rows = [r for r in sink.records if r.label == "bfm:uart.wr"]
    assert len(rows) == 1 and rows[0].context_kind == "BFM"
    assert k.devices.log_csv().splitlines()[1] == "0,uart,wr,5a"


def test_serial_stimulus_feeds_the_read_path():
    out = {}
    k, _ = mk(cycles_per_tick=100)
    k.add_device("serial_io", "uart", {
        "rd": AccessSpec("rd", "read", 100, 0),
    })
    k.add_stimulus(3, "serial_in", "uart", value=0x41)

    def body(ctx):
        res = yield from ctx.kernel.bfm_call("uart", "rd")
        out["early"] = res.value
        yield from compute(ctx, "gap", 5)
        res = yield from ctx.kernel.bfm_call("uart", "rd")
        out["late"] = res.value

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(10)
    assert out == {"early": 0, "late": 0x41}


def test_pio_stimulus_sets_the_input_latch():
    out = {}
    k, _ = mk(cycles_per_tick=100)
    k.add_device("parallel_io", "gpio", {
        "in": AccessSpec("in", "in", 100, 0),
    })
    k.add_stimulus(2, "pio_set", "gpio", value=7)

    def body(ctx):
        yield from compute(ctx, "gap", 4)
        res = yield from ctx.kernel.bfm_call("gpio", "in")
        out["latch"] = res.value

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(8)
    assert out["latch"] == 7


def test_irq_stimulus_activates_the_bound_isr():
    k, sink = mk()
    k.add_device("intc", "pic", {}, lines=2)
    k.declare_isr(1, "H", handler_burner(1))
    k.attach_isr("pic", 0, 1)
    k.add_stimulus(2, "irq", "pic", line=0)
    k.boot()
    k.run(5)
    assert k.engine.thread(1).token.cycles == 1
    assert running_vector(sink.records, 5)[2] == 1


# --------------------------------------------------------------------------
# declaration and boot protocol

def test_declaration_validation():
    k, _ = mk()
    k.declare_task(1, "A", 5, lambda ctx: iter(()))
    with pytest.raises(ConflictError):
        k.declare_task(1, "B", 5, lambda ctx: iter(()))
    with pytest.raises(ValidationError):
        k.declare_task(2, "C", 0, lambda ctx: iter(()))      # below range
    with pytest.raises(ValidationError):
        k.declare_task(2, "C", 141, lambda ctx: iter(()))    # above range
    with pytest.raises(ValidationError):
        k.declare_task(2, "bad name", 5, lambda ctx: iter(()))
    k.declare_semaphore(1, 0)
    with pytest.raises(ConflictError):
        k.declare_semaphore(1, 2)
    k.declare_flag(1)            # ids are per-kind namespaces
    with pytest.raises(ValidationError):
        k.declare_cyclic(3, "H", 0, lambda ctx: iter(()))
    with pytest.raises(ValidationError):
        k.declare_alarm(3, "A2", 0, lambda ctx: iter(()))


def test_a_name_with_a_trailing_newline_is_refused():
    # a `$` anchored match let it through; the trace CSV cannot hold it
    k, _ = mk()
    with pytest.raises(ValidationError, match="bad name"):
        k.declare_task(1, "T\n", 5, lambda ctx: iter(()))


def test_the_idle_name_is_checked_like_any_thread_name():
    # "I,DLE" would have written an idle row with one column too many
    with pytest.raises(ValidationError, match="bad name 'I,DLE'"):
        Kernel().declare_idle(1, "I,DLE")


def test_declare_idle_refuses_what_any_thread_declaration_refuses():
    k = Kernel()
    k.declare_task(1, "T", 5, _one_tick)
    with pytest.raises(ConflictError, match="thread id 1 already declared"):
        k.declare_idle(1)
    with pytest.raises(ValidationError, match="thread id must be"):
        k.declare_idle(True)
    with pytest.raises(ValidationError, match="bad name"):
        k.declare_idle(2, "I DLE")
    assert k.idle_id is None and set(k.tcb) == {1}
    k.declare_idle(2, "REST")
    with pytest.raises(ConflictError, match="idle task already declared"):
        k.declare_idle(3, "IDLE2")
    with pytest.raises(ConflictError, match="thread id 2 already declared"):
        k.declare_task(2, "U", 5, _one_tick)
    assert (k.idle_id, set(k.tcb)) == (2, {1, 2})
    k.boot()
    assert k.tcb[2].thread.is_idle and k.tcb[2].thread.name == "REST"
    assert set(k.engine._table) == {1, 2}     # no default idle beside it
    with pytest.raises(UsageError):
        k.declare_idle(4)


def test_where_the_idle_is_declared_changes_no_trace_byte():
    def run(idle_first):
        k, sink = mk()
        if idle_first:
            k.declare_idle(9, "REST")
        k.declare_task(1, "A", 5, lambda ctx: compute(ctx, "w", 3))
        k.declare_cyclic(2, "C", 4, handler_burner(1))
        k.declare_task(3, "B", 6, lambda ctx: compute(ctx, "w", 2))
        if not idle_first:
            k.declare_idle(9, "REST")
        k.boot()
        k.run(20)
        k.finish()
        return records_to_csv(sink.records)

    first = run(True)
    assert "REST" in first and first == run(False)


def test_isr_attachment_validation():
    k, _ = mk()
    k.add_device("serial_io", "uart", {})
    k.add_device("intc", "pic", {}, lines=2)
    k.declare_isr(1, "H", handler_burner(1))
    with pytest.raises(ValidationError):
        k.attach_isr("uart", 0, 1)          # not an interrupt controller
    with pytest.raises(NotFoundError):
        k.attach_isr("pic", 0, 9)           # no such ISR
    k.attach_isr("pic", 0, 1)
    with pytest.raises(ConflictError):
        k.attach_isr("pic", 0, 1)           # line already bound


def test_unbound_irq_stimulus_fails_at_boot():
    k, _ = mk()
    k.add_device("intc", "pic", {}, lines=2)
    k.declare_isr(1, "H", handler_burner(1))
    k.attach_isr("pic", 0, 1)
    k.add_stimulus(2, "irq", "pic", line=1)   # nothing bound on line 1
    with pytest.raises(ValidationError, match="not bound"):
        k.boot()


def test_a_timer_event_runs_before_a_stimulus_of_the_same_instant():
    # the cyclic activation and the IRQ both fall due at tick 5; the
    # cyclic one is queued first, so it enters first and the ISR nests
    k, sink = mk()
    k.add_device("intc", "pic", {}, lines=1)
    k.add_stimulus(5, "irq", "pic", line=0)   # declared before the handler
    k.declare_isr(2, "ISR", handler_burner(1))
    k.attach_isr("pic", 0, 2)
    k.declare_cyclic(1, "CYC", 5, handler_burner(1))
    k.boot()
    k.run(8)
    entries = [(r.tick_start, r.thread_name) for r in sink.records
               if r.label == "INT_ENTER"]
    assert entries == [(5, "CYC"), (5, "ISR")]


def test_boot_protocol_guards():
    k, _ = mk()
    with pytest.raises(UsageError):
        k.run(1)                              # not booted
    with pytest.raises(UsageError, match="report sinks"):
        k.attach_sinks(trace_sink=ListSink(), report_sink=ListSink())
    k.declare_task(1, "T", 5, lambda ctx: iter(()))
    k.boot()
    with pytest.raises(UsageError):
        k.boot()
    with pytest.raises(UsageError):
        k.declare_task(2, "LATE", 5, lambda ctx: iter(()))
    with pytest.raises(UsageError):
        k.add_stimulus(5, "irq", "x")


def test_finish_needs_a_boot_and_closes_the_run():
    with pytest.raises(UsageError, match="boot before finishing"):
        Kernel().finish()
    k = build_kernel(load_scenario(demo_scenario_path()))
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(105)          # stops inside a segment, which finish closes
    k.finish()
    k.finish()          # a second finish does nothing
    rows = list(sink.records)
    for call in (lambda: k.run(95), k.step):
        with pytest.raises(UsageError, match="the run is finished"):
            call()
    # nothing was written after the close: 105 ticks, each once
    assert sink.records == rows
    assert sum(r.etm_ticks * r.repeat for r in rows) == 105


def _one_tick(ctx):
    yield from compute(ctx, "w", 1)


def _with_pic(call):
    k = Kernel()
    k.add_device("intc", "pic", {}, lines=2)
    k.declare_isr(1, "ISR", _one_tick)
    k.attach_isr("pic", 1, 1)
    call(k)


def _booted(call):
    k = Kernel()
    k.boot()
    call(k)


# `True` is an `int` to Python; no id, priority, period, offset, tick or
# count takes it for 1 (it would reach the trace and the dump as "True")
@pytest.mark.parametrize("call", [
    lambda: Kernel(tick_us=True),
    lambda: Kernel(cycles_per_tick=True),
    lambda: Kernel(svc_etm=True),
    lambda: Kernel(svc_eem_uj=False),
    lambda: Kernel().declare_idle(True),
    lambda: Kernel().declare_task(True, "A", 5, _one_tick),
    lambda: Kernel().declare_task(1, "A", True, _one_tick),
    lambda: Kernel().declare_cyclic(True, "C", 5, _one_tick),
    lambda: Kernel().declare_cyclic(1, "C", True, _one_tick),
    lambda: Kernel().declare_cyclic(1, "C", 5, _one_tick, phase=True),
    lambda: Kernel().declare_alarm(True, "A", 5, _one_tick),
    lambda: Kernel().declare_alarm(1, "A", True, _one_tick),
    lambda: Kernel().declare_isr(True, "I", _one_tick),
    lambda: Kernel().declare_semaphore(True, 1),
    lambda: Kernel().declare_semaphore(1, True),
    lambda: Kernel().declare_semaphore(1, 1, max_count=True),
    lambda: Kernel().declare_flag(True),
    lambda: Kernel().declare_flag(1, True),
    lambda: Kernel().declare_mutex(True),
    lambda: Kernel().declare_mailbox(True),
    lambda: Kernel().declare_buffer(True, 8),
    lambda: Kernel().declare_buffer(1, True),
    lambda: Kernel().declare_fixed_pool(1, True, 4),
    lambda: Kernel().declare_fixed_pool(1, 2, True),
    lambda: Kernel().declare_variable_pool(True, 8),
    lambda: Kernel().declare_variable_pool(1, True),
    lambda: _with_pic(lambda k: k.add_stimulus(True, "irq", "pic", line=1)),
    lambda: _with_pic(lambda k: k.add_stimulus(2, "irq", "pic", line=True)),
    lambda: _with_pic(lambda k: k.add_stimulus(2, "irq", "pic", value=True)),
    lambda: _booted(lambda k: k.run(True)),
], ids=["tick_us", "cycles", "svc_etm", "svc_eem", "idle-id", "task-id",
        "task-priority", "cyclic-id", "period", "phase", "alarm-id",
        "offset", "isr-id", "sem-id", "sem-initial", "sem-max", "flag-id",
        "flag-initial", "mtx-id", "mbx-id", "mbf-id", "mbf-capacity",
        "fpl-count", "fpl-size", "vpl-id", "vpl-size", "stimulus-tick",
        "stimulus-line", "stimulus-value", "run"])
def test_a_bool_is_no_integer(call):
    with pytest.raises(ValidationError):
        call()


def test_extended_info_is_an_integer_at_least_0():
    # the dump writes it in hex: a str used to end the dump in a
    # ValueError, a bool read as 1
    for bad in (True, "x", -1, 1.0):
        k = Kernel()
        with pytest.raises(ValidationError, match="extended_info"):
            k.declare_task(1, "T", 5, _one_tick, extended_info=bad)
        with pytest.raises(ValidationError, match="extended_info"):
            k.declare_alarm(2, "A", 5, _one_tick, extended_info=bad)
        with pytest.raises(ValidationError, match="extended_info"):
            k.declare_semaphore(1, 0, extended_info=bad)
        assert (k.tcb, k.semaphores, k._agenda) == ({}, {}, [])
    k.declare_flag(1, extended_info=0xFFFFFFFF)


@pytest.mark.parametrize("service", [
    lambda kern: kern.delay(True),
    lambda kern: kern.sleep(True),
    lambda kern: kern.sem_wait(1, timeout=True),
    lambda kern: kern.sem_wait(1, True),
    lambda kern: kern.sem_signal(1, True),
    lambda kern: kern.flag_set(1, True),
    lambda kern: kern.mbx_send(1, "m", True),
    lambda kern: kern.vpool_get(1, True),
], ids=["delay", "sleep-timeout", "wait-timeout", "acquire", "signal",
        "flag-set", "mbx-priority", "vpool-get"])
def test_a_service_refuses_a_bool_for_an_integer(service):
    k, _ = mk()
    k.declare_semaphore(1, 1)
    k.declare_flag(1)
    k.declare_mailbox(1)
    k.declare_variable_pool(1, 8)

    def body(ctx):
        yield from service(ctx.kernel)

    k.declare_task(1, "T", 5, body)
    k.boot()
    with pytest.raises(ValidationError):
        k.run(5)


def test_boot_registers_the_declared_threads_plus_idle():
    k, _ = mk()
    k.declare_task(1, "A", 5, lambda ctx: compute(ctx, "w", 1))
    k.declare_task(2, "B", 6, lambda ctx: compute(ctx, "w", 1))
    k.declare_cyclic(3, "CYC", 5, handler_burner(1))
    k.declare_alarm(4, "ALM", 3, handler_burner(1))
    k.boot()
    assert k.engine.now == 0
    states = {th.id: th.state for th in k.engine.threads()}
    assert states == {
        1: ThreadState.READY, 2: ThreadState.READY,
        3: ThreadState.WAITING, 4: ThreadState.WAITING,
        5: ThreadState.READY,                 # idle
    }
    assert k.idle_id == 5


def test_failed_boot_keeps_declarations_closed():
    k, _ = mk()
    k.declare_task(1, "T", 5, lambda ctx: compute(ctx, "w", 1))
    k.add_device("intc", "pic", {}, lines=2)
    k.add_stimulus(2, "irq", "pic", line=1)   # no ISR on line 1
    with pytest.raises(ValidationError):
        k.boot()
    with pytest.raises(UsageError):
        k.declare_task(2, "LATE", 5, lambda ctx: compute(ctx, "w", 1))
    with pytest.raises(UsageError):
        k.declare_mutex(1)
    with pytest.raises(UsageError):
        k.run(1)


def test_a_bad_object_is_refused_at_its_declaration():
    k, _ = mk()
    with pytest.raises(ValidationError, match="bad maximum count"):
        k.declare_semaphore(1, 5, max_count=3)    # initial above its max
    assert k.semaphores == {}
    k.declare_semaphore(1, 3, max_count=3)        # the id is still free


def test_boot_leaves_no_trace_records():
    k, sink = mk()
    k.declare_semaphore(1, 1)
    k.declare_task(1, "T", 5, lambda ctx: compute(ctx, "w", 1))
    k.boot()
    assert sink.records == []                 # sinks attach after boot
    k.run(1)
    first = sink.records[0]
    assert (first.tick_start, first.label) == (0, "DISPATCH")


def test_idle_id_defaults_to_max_declared_plus_one():
    k, _ = mk()
    k.declare_task(4, "T", 5, lambda ctx: compute(ctx, "w", 1))
    k.declare_cyclic(7, "H", 5, handler_burner(1))
    k.boot()
    assert k.idle_id == 8
    assert k.engine.thread(8).is_idle


# --------------------------------------------------------------------------
# free run against step mode: a free run coasts through quiet stretches

def counting_hooks(k):
    """Count the tick hook's calls on a booted kernel: one per stepped tick."""
    calls = []
    hook = k.engine.on_tick

    def on_tick(now):
        calls.append(now)
        hook(now)
    k.engine.on_tick = on_tick
    return calls


def outcome(k, sink):
    """What a run leaves: its trace records and CSV, listing, tokens and
    deadlock report."""
    k.finish()
    eng = k.engine
    return (eng.now, sink.records, records_to_csv(sink.records),
            dump_listing(take_snapshot(k)),
            {th.id: (th.token, th.svc_ticks, th.max_streak)
             for th in eng.threads()},
            k.deadlock_report)


def free_and_stepped(make, ticks):
    """Run ``make()``'s booted kernel for ``ticks`` at once and another
    one tick at a time; return both outcomes and the stepped ticks of the
    free run.  A SimError ends either run at the tick it was raised."""
    results = []
    for stepping in (False, True):
        k, sink = make()
        stepped = counting_hooks(k)
        error = None
        try:
            if stepping:
                while k.engine.now < ticks:
                    k.step()
            else:
                k.run(ticks)
        except SimError as exc:
            error = (type(exc), str(exc))
        results.append((outcome(k, sink), error, len(stepped)))
    (free, free_error, free_steps), (step, step_error, _) = results
    assert free == step
    assert free_error == step_error
    return free, free_error, free_steps


@pytest.mark.parametrize("name, seed", [
    ("steady", 1), ("sparse", 1), ("wide", 1), ("sparse", 2), ("sparse", 3)])
def test_free_run_equals_step_mode_on_the_workloads(name, seed):
    workloads = perfbench("workloads")
    scn = parse_scenario_text(workloads.generate(name, seed), f"{name}.yaml")

    def make():
        k = build_kernel(scn)
        sink = ListSink()
        k.attach_sinks(trace_sink=sink)
        k.boot()
        return k, sink

    (now, records, *_), error, steps = free_and_stepped(make, scn.run_ticks)
    assert (now, error) == (scn.run_ticks, None)
    # a segment record's rows are as wide as its ticks, repeat or not
    for r in records:
        if r.etm_ticks > 0:
            assert r.repeat * r.etm_ticks == r.tick_end - r.tick_start, r
    assert steps < scn.run_ticks      # the free run coasted
    if name == "sparse":
        assert steps < scn.run_ticks // 100


def _deadlock_in_a_quiet_stretch(abort_on_deadlock):
    # B's 100-tick sleep ends early, which takes its timeout (due at 101)
    # off the agenda; A then computes 40 quiet ticks and both sleep
    k, sink = mk(abort_on_deadlock=abort_on_deadlock)

    def a(ctx):
        yield from ctx.kernel.wakeup(2)
        yield from compute(ctx, "quiet", 40)
        yield from ctx.kernel.sleep()

    def b(ctx):
        yield from ctx.kernel.sleep(100)
        yield from ctx.kernel.sleep()

    k.declare_task(1, "A", 6, a)
    k.declare_task(2, "B", 5, b)
    k.boot()
    return k, sink


def test_a_deadlock_after_a_coast_is_found_at_the_stepped_tick():
    blocked = [(1, "A", "sleep"), (2, "B", "sleep")]
    _, error, steps = free_and_stepped(
        lambda: _deadlock_in_a_quiet_stretch(True), 200)
    assert error == (DeadlockError, str(DeadlockError(45, blocked)))
    assert steps < 45 - 30
    outcome, error, steps = free_and_stepped(
        lambda: _deadlock_in_a_quiet_stretch(False), 200)
    assert error is None
    assert outcome[-1] == (45, blocked)
    assert steps < 10


def test_a_wait_that_ends_early_does_not_stop_a_coast_at_its_timeout():
    # B's 100-tick sleep would time out at 101; A's wakeup ends it at
    # tick 2, and B's 150 quiet ticks then coast across tick 101
    def make():
        k, sink = mk()

        def a(ctx):
            yield from ctx.kernel.wakeup(2)

        def b(ctx):
            yield from ctx.kernel.sleep(100)
            yield from compute(ctx, "quiet", 150)

        k.declare_task(1, "A", 6, a)
        k.declare_task(2, "B", 5, b)
        k.boot()
        return k, sink

    _, error, steps = free_and_stepped(make, 200)
    assert error is None
    k, _ = make()
    stepped = counting_hooks(k)
    k.run(200)
    assert stepped == [1, 2, 3, 153] and steps == 4


def _coast_log(k):
    """Record (critical depth, coasted ticks) for each coast of ``k``."""
    log = []
    coast = k.engine.coast

    def logged(limit):
        depth = 0 if k.engine._section is None else 1
        n = coast(limit)
        log.append((depth, n))
        return n
    k.engine.coast = logged
    return log


def test_a_coast_crosses_a_multi_tick_service_in_its_critical_section():
    logs = []

    def make():
        k, sink = mk(svc_etm=6, svc_eem_uj=20)   # 3 uJ a tick, 5 on the last
        k.declare_semaphore(1, 0)

        def worker(ctx):
            for _ in range(3):
                yield from ctx.kernel.sem_signal(1)
                yield from compute(ctx, "work", 9, 40)

        def sink_task(ctx):
            while True:
                yield from ctx.kernel.sem_wait(1, timeout=50)

        k.declare_task(1, "W", 5, worker)
        k.declare_task(2, "S", 3, sink_task)
        k.declare_cyclic(3, "H", 13, handler_burner(2))
        k.boot()
        logs.append(_coast_log(k))
        return k, sink

    (_, _, _, _, tokens, _), _, steps = free_and_stepped(make, 120)
    assert steps < 80
    assert any(depth == 1 and n > 1 for depth, n in logs[0])
    # W: three services of 6 ticks / 20 uJ and three 9-tick / 40 uJ
    # segments; S's fifth service, after its timeout at 119, has charged
    # one tick when the run ends
    assert tokens[1] == (Token(cet=45, cee_uj=180), 18, 9)
    assert tokens[2] == (Token(cet=25, cee_uj=83), 25, 6)


def test_an_energy_remainder_on_the_last_coasted_tick():
    logs = []

    def make():
        k, sink = mk()

        def body(ctx):
            yield from compute(ctx, "odd", 11, 29)    # 2 uJ a tick, 9 on the last

        k.declare_task(1, "T", 5, body)
        k.boot()
        logs.append(_coast_log(k))
        return k, sink

    (_, _, csv, _, tokens, _), _, _ = free_and_stepped(make, 20)
    # tick 0 is stepped and ticks 1..10 coast, the last of them with the
    # remainder; then the task ends and idle coasts to the end
    assert logs[0] == [(0, 10), (0, 8)]
    assert "0,11,1,T,TASK,odd,11,0.029,STARTUP" in csv.splitlines()
    assert tokens[1] == (Token(cet=11, cee_uj=29), 0, 11)
