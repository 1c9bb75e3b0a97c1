"""Kernel services, time-event handlers, boot protocol, deadlock detection.

Scenarios are built programmatically through the declaration API.  Task
body factories receive a CallContext; results are captured into plain
dicts so assertions stay outside the simulated world.  Expected tick
positions in comments were derived by hand: a service charges one tick
and its effect lands on the caller's next resume.
"""

import pytest

from rtksim.bfm import AccessSpec
from rtksim.engine import Annotation, ContextKind, ThreadState
from rtksim.errors import (
    ConflictError,
    DeadlockError,
    NotFoundError,
    ObjectStateError,
    SimError,
    StateError,
    UsageError,
    ValidationError,
)
from rtksim.kernel import RESULT_OK, RESULT_TIMEOUT, Kernel
from rtksim.objects import FLAG_MODE_AND, FLAG_MODE_OR
from rtksim.trace import ListSink, running_vector


def mk(**kw) -> tuple[Kernel, ListSink]:
    k = Kernel(**kw)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    return k, sink


def compute(ctx, label, ticks, eem=0):
    yield from ctx.api.wait(Annotation(label, ticks, eem))


# --------------------------------------------------------------------------
# sleep / wakeup / delay

def test_sleep_released_by_wakeup():
    out = {}
    k, _ = mk()

    def sleeper(ctx):
        res = yield from ctx.kernel.sleep(ctx.api)
        out["code"] = res.code

    def waker(ctx):
        yield from compute(ctx, "w", 3)
        yield from ctx.kernel.wakeup(ctx.api, 1)

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
        yield from ctx.kernel.wakeup(ctx.api, 2)

    def sleeper(ctx):
        yield from compute(ctx, "s", 2)
        res = yield from ctx.kernel.sleep(ctx.api)
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
        res = yield from ctx.kernel.sleep(ctx.api, 4)
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
        res = yield from ctx.kernel.sleep(ctx.api, 10)   # timer due at 11
        out["first"] = res.code
        res = yield from ctx.kernel.sleep(ctx.api)       # forever
        out["second"] = res.code                          # must never run

    def t2(ctx):
        yield from compute(ctx, "w", 2)
        yield from ctx.kernel.wakeup(ctx.api, 1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    k.run(20)
    k.finish()
    assert out["first"] == RESULT_OK
    assert "second" not in out
    # the second wait is genuinely stuck: reported as a deadlock when the
    # stale timer drained at tick 11 left nothing else pending
    assert k.deadlock_report == (11, [(1, "T1", "sleep")])


def test_delay_ignores_wakeups_and_banks_them():
    out = {}
    k, _ = mk()

    def t1(ctx):
        res = yield from ctx.kernel.delay(ctx.api, 8)
        out["delay"] = res.code
        res = yield from ctx.kernel.sleep(ctx.api)
        out["s1"] = res.code
        res = yield from ctx.kernel.sleep(ctx.api)
        out["s2"] = res.code
        res = yield from ctx.kernel.sleep(ctx.api, 5)
        out["s3"] = res.code

    def t2(ctx):
        yield from compute(ctx, "a", 1)
        yield from ctx.kernel.wakeup(ctx.api, 1)
        yield from compute(ctx, "b", 1)
        yield from ctx.kernel.wakeup(ctx.api, 1)

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


def test_wakeup_of_dormant_task_is_an_error():
    k, _ = mk()

    def t1(ctx):
        yield from compute(ctx, "x", 1)

    def t2(ctx):
        yield from ctx.kernel.sleep(ctx.api, 3)
        yield from ctx.kernel.wakeup(ctx.api, 1)    # T1 exited long ago

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
        res = yield from ctx.kernel.sleep(ctx.api)
        out["woke_at"] = ctx.kernel.engine.now
        out["code"] = res.code

    def alarm_body(ctx):
        yield from ctx.kernel.wakeup(ctx.api, 1)

    k.declare_task(1, "T", 5, sleeper)
    k.declare_alarm(2, "A", 6, alarm_body)
    k.boot()
    k.run(30)
    assert k.engine.thread(2).token.cycles == 1
    # alarm enters at tick 6, its wakeup service charges tick 6,
    # the effect releases T on the next resume
    assert out["woke_at"] == 7
    assert out["code"] == RESULT_OK


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
        yield from ctx.kernel.sleep(ctx.api)

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
        yield from ctx.kernel.sleep(ctx.api)

    def timed(ctx):
        yield from ctx.kernel.sleep(ctx.api, 30)

    k.declare_task(1, "F", 5, forever)
    k.declare_task(2, "D", 6, timed)
    k.boot()
    k.run(30)                      # D's timer keeps the system alive
    with pytest.raises(DeadlockError) as ei:
        k.run(5)                   # D expires at 32 and exits; F remains
    assert ei.value.tick == 33
    assert ei.value.blocked == [(1, "F", "sleep")]


# --------------------------------------------------------------------------
# semaphores through the service layer

def test_sem_wait_timeout_then_signal():
    out = {}
    k, _ = mk()
    k.declare_semaphore(1, 0)

    def t1(ctx):
        res = yield from ctx.kernel.sem_wait(ctx.api, 1, timeout=3)
        out["first"] = res.code
        res = yield from ctx.kernel.sem_wait(ctx.api, 1, timeout=10)
        out["second"] = res.code

    def t2(ctx):
        yield from compute(ctx, "w", 5)
        yield from ctx.kernel.sem_signal(ctx.api, 1)

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
        yield from ctx.kernel.sem_wait(ctx.api, 1, timeout=2)
        yield from ctx.kernel.sleep(ctx.api)

    k.declare_task(1, "T1", 5, t1)
    k.boot()
    k.run(10)
    assert k.semaphores[1].waiting_count == 0


def test_missing_object_id_raises():
    k, _ = mk()

    def body(ctx):
        yield from ctx.kernel.sem_wait(ctx.api, 99)

    k.declare_task(1, "T", 5, body)
    k.boot()
    with pytest.raises(NotFoundError):
        k.run(5)


def test_bad_timeout_rejected_at_the_call():
    k, _ = mk()
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from ctx.kernel.sem_wait(ctx.api, 1, timeout=0)

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
        yield from ctx.kernel.sleep(ctx.api, 4)
        yield from ctx.kernel.mtx_lock(ctx.api, 1)
        yield from compute(ctx, "h", 2)
        yield from ctx.kernel.mtx_unlock(ctx.api, 1)

    def med(ctx):
        yield from ctx.kernel.sleep(ctx.api, 2)
        yield from compute(ctx, "m", 10)

    def low(ctx):
        yield from ctx.kernel.mtx_lock(ctx.api, 1)
        yield from compute(ctx, "c", 6)
        yield from ctx.kernel.mtx_unlock(ctx.api, 1)

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
        yield from ctx.kernel.mtx_lock(ctx.api, 1)
        yield from compute(ctx, "crit", 5)
        yield from ctx.kernel.mtx_unlock(ctx.api, 1)

    def contender(ctx):
        yield from ctx.kernel.sleep(ctx.api, 2)
        res = yield from ctx.kernel.mtx_lock(ctx.api, 1)
        out["locked"] = res.code
        out["owner_at_grant"] = ctx.kernel.mutexes[1].owner
        yield from ctx.kernel.mtx_unlock(ctx.api, 1)

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
        yield from ctx.kernel.mtx_lock(ctx.api, 1)
        yield from ctx.kernel.sleep(ctx.api)

    def t2(ctx):
        yield from compute(ctx, "w", 3)
        yield from ctx.kernel.mtx_unlock(ctx.api, 1)

    k.declare_task(1, "T1", 5, t1)
    k.declare_task(2, "T2", 10, t2)
    k.boot()
    with pytest.raises(ObjectStateError, match="non-owner"):
        k.run(10)


# --------------------------------------------------------------------------
# event flags

def test_flag_and_wait_with_clear_returns_snapshot():
    out = {}
    k, _ = mk()
    k.declare_flag(1, 0)

    def waiter(ctx):
        res = yield from ctx.kernel.flag_wait(
            ctx.api, 1, 0b101, FLAG_MODE_AND, clear=True)
        out["snap"] = res.value
        res = yield from ctx.kernel.flag_wait(
            ctx.api, 1, 0b010, FLAG_MODE_OR, timeout=20)
        out["second"] = (res.code, res.value)

    def setter(ctx):
        yield from ctx.kernel.flag_set(ctx.api, 1, 0b100)
        yield from ctx.kernel.flag_set(ctx.api, 1, 0b001)
        yield from compute(ctx, "gap", 2)
        yield from ctx.kernel.flag_set(ctx.api, 1, 0b010)

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
        yield from ctx.kernel.flag_clear(ctx.api, 1, 0b001)
        res = yield from ctx.kernel.flag_wait(
            ctx.api, 1, 0b110, FLAG_MODE_AND, timeout=2)
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
        yield from ctx.kernel.mbx_send(ctx.api, 1, "a", priority=5)
        yield from ctx.kernel.mbx_send(ctx.api, 1, "b", priority=0)
        yield from ctx.kernel.mbx_send(ctx.api, 1, "c", priority=5)

    def receiver(ctx):
        got = []
        for _ in range(3):
            res = yield from ctx.kernel.mbx_recv(ctx.api, 1)
            got.append(res.value)
        out["order"] = got
        res = yield from ctx.kernel.mbx_recv(ctx.api, 1, timeout=3)
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
        res = yield from ctx.kernel.mbx_recv(ctx.api, 1)
        out["msg"] = res.value

    def sender(ctx):
        yield from compute(ctx, "gap", 2)
        yield from ctx.kernel.mbx_send(ctx.api, 1, {"k": 1})

    k.declare_task(1, "RECV", 5, receiver)
    k.declare_task(2, "SEND", 10, sender)
    k.boot()
    k.run(10)
    assert out["msg"] == {"k": 1}
    assert k.mailboxes[1].message_count == 0


def test_message_buffer_backpressure_roundtrip():
    out = {}
    k, _ = mk()
    k.declare_buffer(1, 4)

    def sender(ctx):
        res = yield from ctx.kernel.mbf_send(ctx.api, 1, b"aa")
        out["s1"] = res.code
        res = yield from ctx.kernel.mbf_send(ctx.api, 1, b"bbb")
        out["s2"] = res.code                        # must wait for space

    def receiver(ctx):
        res = yield from ctx.kernel.mbf_recv(ctx.api, 1)
        out["r1"] = res.value
        res = yield from ctx.kernel.mbf_recv(ctx.api, 1)
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
        res = yield from ctx.kernel.pool_get(ctx.api, 1)
        out["i0"] = res.value
        res = yield from ctx.kernel.pool_get(ctx.api, 1)
        out["i1"] = res.value
        res = yield from ctx.kernel.pool_get(ctx.api, 1)   # pool exhausted
        out["i2"] = res.value

    def releaser(ctx):
        yield from compute(ctx, "gap", 4)
        yield from ctx.kernel.pool_release(ctx.api, 1, 0)

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
        res = yield from ctx.kernel.vpool_get(ctx.api, 1, 6)
        out["off1"] = res.value
        res = yield from ctx.kernel.vpool_get(ctx.api, 1, 4)
        out["off2"] = res.value

    def releaser(ctx):
        yield from compute(ctx, "gap", 4)
        yield from ctx.kernel.vpool_release(ctx.api, 1, 0)

    k.declare_task(1, "TAKE", 5, taker)
    k.declare_task(2, "FREE", 10, releaser)
    k.boot()
    k.run(15)
    assert out["off1"] == 0
    assert out["off2"] == 0
    assert k.variable_pools[1].used_bytes == 4


# --------------------------------------------------------------------------
# start/exit services

def test_start_task_restarts_a_dormant_task():
    k, _ = mk()

    def worker(ctx):
        yield from compute(ctx, "w", 2)

    def boss(ctx):
        yield from ctx.kernel.sleep(ctx.api, 5)
        yield from ctx.kernel.start_task(ctx.api, 1)

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
        yield from ctx.kernel.start_task(ctx.api, 1)

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
])
def test_failed_task_service_closes_its_critical_section(service, target, error):
    k, _ = mk()
    out = {}

    def body(ctx):
        try:
            yield from getattr(ctx.kernel, service)(ctx.api, target)
        except SimError as exc:
            out["error"] = type(exc)
        out["depth"] = ctx.kernel.engine.critical_depth()
        yield from compute(ctx, "after", 2)

    k.declare_task(1, "T", 5, body)
    k.declare_alarm(2, "ALM", 100, handler_burner(1))
    k.boot()
    k.run(10)
    assert out == {"error": error, "depth": 0}
    assert k.engine.critical_depth() == 0
    th = k.engine.thread(1)
    assert th.state is ThreadState.DORMANT and th.token.cet == 3


def test_exit_task_service():
    k, sink = mk()

    def body(ctx):
        yield from compute(ctx, "w", 2)
        yield from ctx.kernel.exit_task(ctx.api)
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
        res = yield from ctx.kernel.bfm_call(
            ctx.api, "uart", "wr", {"value": 0x5A})
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
        res = yield from ctx.kernel.bfm_call(ctx.api, "uart", "rd")
        out["early"] = res.value
        yield from compute(ctx, "gap", 5)
        res = yield from ctx.kernel.bfm_call(ctx.api, "uart", "rd")
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
        res = yield from ctx.kernel.bfm_call(ctx.api, "gpio", "in")
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
