"""Kernel state listings: fixed layout, exact inverse parsing, lookups."""

import pytest

from rtksim.debugds import (
    dump_listing,
    parse_listing,
    ref_object,
    ref_task,
    take_snapshot,
)
from rtksim.engine import Annotation
from rtksim.errors import NotFoundError, ValidationError
from rtksim.kernel import Kernel
from rtksim.trace import ListSink


def compute(ctx, label, ticks, eem=0):
    yield from ctx.api.wait(Annotation(label, ticks, eem))


def booted(**kw) -> Kernel:
    k = Kernel(**kw)
    k.attach_sinks(trace_sink=ListSink())
    return k


# A two-tick compute, one service call, then exit; idle fills the rest.
# Hand-derived: T streaks over ticks 0..2 (two user + one service), idle
# holds the CPU for ticks 3..4 and is still running at the snapshot.
GOLDEN = """\
Debug Support (DS)
Snapshot Tick : 5
No. of Registered Tasks : 2
1. Task ID : 1
  > Task Extended Information             = 0x00000074
  > Current Priority                      = 5
  > Base Priority                         = 5
  > Task State                            = DMT
  > Wait Disabled Released ...
  > Queued Wakeup Request Count           = 0
  > Suspend Request Nesting Count         = 0
  > Max. Continuous Run Time (ms)         = 3
  > Raised Task Event                     = 0
  > Cumulative System Level Run Time (ms) = 1
  > Cumulative User Level Run Time (ms)   = 2
  [*****]
2. Task ID : 2
  > Task Extended Information             = 0x00000000
  > Current Priority                      = 141
  > Base Priority                         = 141
  > Task State                            = RUN
  > Wait Disabled Released ...
  > Queued Wakeup Request Count           = 0
  > Suspend Request Nesting Count         = 0
  > Max. Continuous Run Time (ms)         = 2
  > Raised Task Event                     = 0
  > Cumulative System Level Run Time (ms) = 0
  > Cumulative User Level Run Time (ms)   = 2
  [*****]
  (Semaphore Statistics)
  No. of Allocated Semaphores : 1
  1. Semaphore ID : 1
    > Semaphore Extended Information      = 0x00000000
    > Current Semaphore Count             = 1
    > No. of Waiting Tasks                = 0
  [*****]
  (Event Flag Statistics)
  No. of Allocated Event Flags : 0
  (Mutex Statistics)
  No. of Allocated Mutexes : 0
  (Mailbox Statistics)
  No. of Allocated Mailboxes : 0
  (Message Buffer Statistics)
  No. of Allocated Message Buffers : 0
  (Fixed Pool Statistics)
  No. of Allocated Fixed Pools : 0
  (Variable Pool Statistics)
  No. of Allocated Variable Pools : 0
"""


def golden_kernel() -> Kernel:
    k = booted()
    k.declare_semaphore(1, 0)

    def body(ctx):
        yield from compute(ctx, "w", 2)
        yield from ctx.kernel.sem_signal(ctx.api, 1)

    k.declare_task(1, "T", 5, body, extended_info=0x74)
    k.boot()
    k.run(5)
    return k


def test_listing_matches_golden_byte_for_byte():
    text = dump_listing(take_snapshot(golden_kernel()))
    assert text == GOLDEN


def test_golden_listing_parses_back_to_the_snapshot():
    snap = take_snapshot(golden_kernel())
    assert parse_listing(GOLDEN) == snap
    # no service suspends a thread, but the listing codes still parse
    for code in ("SUS", "WAS"):
        parsed = parse_listing(GOLDEN.replace("= DMT", f"= {code}"))
        assert parsed.tasks[0].state == code


def busy_kernel() -> Kernel:
    """Every object class allocated, tasks in varied states, 0.5 ms tick."""
    k = booted(tick_us=500)
    k.declare_semaphore(1, 0, extended_info=0x11)
    k.declare_flag(1, initial=0b101)
    k.declare_mutex(1)
    k.declare_mailbox(1)
    k.declare_buffer(1, 4)
    k.declare_fixed_pool(1, 2, 8)
    k.declare_variable_pool(1, 16)

    def holder(ctx):
        yield from ctx.kernel.mtx_lock(ctx.api, 1)
        yield from ctx.kernel.sleep(ctx.api)

    def contender(ctx):
        # sit out the opening ticks so the lower-priority task locks first
        yield from ctx.kernel.delay(ctx.api, 4)
        yield from ctx.kernel.mtx_lock(ctx.api, 1)

    def filler(ctx):
        yield from ctx.kernel.vpool_get(ctx.api, 1, 6)
        yield from ctx.kernel.pool_get(ctx.api, 1)
        yield from ctx.kernel.mbx_send(ctx.api, 1, "note")
        yield from ctx.kernel.mbf_send(ctx.api, 1, b"xy")
        yield from ctx.kernel.sleep(ctx.api)

    def dozer(ctx):
        yield from ctx.kernel.delay(ctx.api, 50)

    def prodder(ctx):
        yield from ctx.kernel.wakeup(ctx.api, 4)

    k.declare_task(1, "HOLD", 5, holder)
    k.declare_task(2, "WANT", 3, contender)
    k.declare_task(3, "FILL", 10, filler)
    k.declare_task(4, "DOZE", 12, dozer)
    k.declare_task(5, "PROD", 2, prodder)
    k.boot()
    k.run(12)
    return k


def test_round_trip_inverts_rendering_exactly():
    snap = take_snapshot(busy_kernel())
    assert parse_listing(dump_listing(snap)) == snap


def test_busy_kernel_listing_details():
    k = busy_kernel()
    snap = take_snapshot(k)
    text = dump_listing(snap)
    by_id = {t.task_id: t for t in snap.tasks}

    # mutex inheritance shows as current != base on the holder
    assert by_id[1].state == "WAI"
    assert (by_id[1].current_priority, by_id[1].base_priority) == (3, 5)
    # the wakeup landed while DOZE was delaying, so it banks
    assert by_id[4].wakeup_count == 1
    assert by_id[5].state == "DMT"
    assert "Run Time Unit : tick (500 us)" in text
    assert "    > Current Flag Pattern                = 0x00000005" in text

    again = parse_listing(text)
    assert again.tick_us == 500 and again.tick == 12


def test_default_tick_has_no_unit_line():
    text = dump_listing(take_snapshot(golden_kernel()))
    assert "Run Time Unit" not in text


def test_ref_task_matches_snapshot_row():
    k = golden_kernel()
    snap = take_snapshot(k)
    assert ref_task(k, 1) == snap.tasks[0]
    with pytest.raises(NotFoundError, match="no task with id 9"):
        ref_task(k, 9)


def test_ref_object_lookup_and_errors():
    k = golden_kernel()
    obj = ref_object(k, "semaphore", 1)
    assert dict(obj.stats)["Current Semaphore Count"] == 1
    with pytest.raises(NotFoundError, match="no semaphore with id 2"):
        ref_object(k, "semaphore", 2)
    with pytest.raises(NotFoundError, match="object class"):
        ref_object(k, "spinlock", 1)


def test_snapshot_requires_a_booted_kernel():
    with pytest.raises(NotFoundError, match="not booted"):
        take_snapshot(Kernel())


def test_parse_rejects_malformed_listings():
    with pytest.raises(ValidationError, match="ended early"):
        parse_listing("Debug Support (DS)\nSnapshot Tick : 5\n")
    bad_state = GOLDEN.replace("= DMT", "= ZZZ")
    with pytest.raises(ValidationError, match="unknown task state"):
        parse_listing(bad_state)
    bad_hex = GOLDEN.replace("= 0x00000074", "= seventy")
    with pytest.raises(ValidationError, match="not hexadecimal"):
        parse_listing(bad_hex)
    with pytest.raises(ValidationError, match="trailing"):
        parse_listing(GOLDEN + "one more line\n")


def test_thirty_service_ticks_render_as_thirty_ms():
    k = booted()
    k.declare_semaphore(1, 0, max_count=100)

    def body(ctx):
        for _ in range(30):
            yield from ctx.kernel.sem_signal(ctx.api, 1)

    k.declare_task(1, "T", 5, body)
    k.boot()
    k.run(40)
    text = dump_listing(take_snapshot(k))
    assert "  > Cumulative System Level Run Time (ms) = 30\n" in text
