"""Behavior programs at run time: bindings, cycle marking, nested loops.

Programs are parsed from raw statement lists and compiled to ops, and
run as the tasks or handlers of a small kernel, so each check sees the
compiled program itself rather than a whole scenario.
"""

import pytest

from rtksim.behavior import (
    _RELEASE, _SERVICES, _compile, build_factory, parse_program)
from rtksim.engine import Annotation
from rtksim.errors import ProtocolError, SimError, UsageError
from rtksim.kernel import Kernel
from rtksim.trace import ListSink

TABLE = {"w": Annotation("w", 1, 0), "v": Annotation("v", 2, 0)}


def parse(raw, *, handler=False):
    problems = []
    statements = parse_program(raw, (), problems, handler=handler)
    assert problems == []
    return statements


def run_task(raw, ticks):
    statements = parse(raw)
    k = Kernel()
    k.declare_fixed_pool(1, 2, 8)
    k.declare_task(1, "T", 5, build_factory(statements, TABLE))
    k.boot()
    k.run(ticks)
    return k


def test_setup_binding_is_released_by_the_cycle():
    k = run_task([
        {"call": "pool_get", "pool": 1, "as": "blk"},
        {"compute": "w"},
        {"loop": True, "count": 1, "body": [
            {"call": "pool_rel", "pool": 1, "ref": "blk"},
        ]},
    ], 20)
    pool = k.fixed_pools[1]
    assert pool.max_used == 1          # the setup took a block ...
    assert pool.free_count == 2        # ... and the loop body gave it back
    assert k.engine.thread(1).token.cycles == 1


def test_release_of_a_name_never_obtained_is_a_usage_error():
    with pytest.raises(UsageError, match="'blk' was never obtained"):
        run_task([{"call": "pool_rel", "pool": 1, "ref": "blk"}], 20)


def test_program_without_a_final_loop_is_one_cycle():
    k = run_task([
        {"loop": True, "count": 2, "body": [{"compute": "w"}]},
        {"compute": "w"},
    ], 20)
    token = k.engine.thread(1).token
    assert (token.cycles, token.cet) == (1, 3)


def test_counted_final_loop_marks_one_cycle_per_iteration():
    k = run_task([
        {"compute": "w"},
        {"loop": True, "count": 4, "body": [{"compute": "w"}]},
    ], 20)
    token = k.engine.thread(1).token
    assert (token.cycles, token.cet) == (4, 5)


def test_nested_counted_loop_rearms_on_every_outer_pass():
    # each pass: w, w, v = 4 ticks; the fifth pass ends at tick 20 and is
    # marked at the next resume.  A counter armed once would spin in the
    # inner loop from the second pass on and mark one cycle only.
    k = run_task([
        {"loop": True, "count": "forever", "body": [
            {"loop": True, "count": 2, "body": [{"compute": "w"}]},
            {"compute": "v"},
        ]},
    ], 22)
    token = k.engine.thread(1).token
    assert (token.cycles, token.cet) == (5, 22)


def test_a_huge_count_compiles_to_a_head_and_a_back_jump():
    raw = [{"loop": True, "count": 10**9, "body": [{"compute": "w"}]}]
    ops, counters, labels = _compile(parse(raw), handler=False)
    assert (len(ops), counters, labels) == (4, 1, ("w",))  # head, w, mark, back
    k = run_task(raw, 20)
    token = k.engine.thread(1).token
    assert (token.cycles, token.cet) == (19, 20)


def test_tasks_sharing_a_factory_keep_their_own_counters_and_refs():
    # the delays interleave the two frames: a shared ``as`` binding would
    # release one block twice, shared counters would cut the loops short
    factory = build_factory(parse([
        {"call": "pool_get", "pool": 1, "as": "blk"},
        {"loop": True, "count": 2, "body": [
            {"compute": "w"},
            {"call": "delay", "ticks": 1},
        ]},
        {"call": "pool_rel", "pool": 1, "ref": "blk"},
    ]), TABLE)
    k = Kernel()
    k.declare_fixed_pool(1, 2, 8)
    k.declare_task(1, "A", 5, factory)
    k.declare_task(2, "B", 6, factory)
    k.boot()
    k.run(20)
    pool = k.fixed_pools[1]
    assert (pool.max_used, pool.free_count) == (2, 2)
    for tid in (1, 2):
        token = k.engine.thread(tid).token
        # pool_get, 2 x (w, delay), pool_rel: one tick each
        assert (token.cycles, token.cet) == (1, 6)


def test_compute_in_a_cyclic_handler_is_charged_in_handler_context():
    sink = ListSink()
    k = Kernel()
    k.declare_task(1, "T", 5, build_factory(parse([
        {"loop": True, "count": "forever", "body": [{"compute": "w"}]},
    ]), TABLE))
    k.declare_cyclic(2, "C", 5, build_factory(
        parse([{"compute": "v"}], handler=True), TABLE, handler=True))
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(13)   # activations at 5 and 10; the second returns at tick 12
    k.finish()
    rows = [(r.tick_start, r.context_kind, r.etm_ticks)
            for r in sink.records if r.thread_id == 2 and r.label == "v"]
    assert rows == [(5, "CYC_HANDLER", 2), (10, "CYC_HANDLER", 2)]
    assert k.engine.thread(2).token.cycles == 2


# A value for each required argument of a service.  Every id names
# object 1 of its kind, declared below; a release passes 0 for the grant
# its ``ref`` would name.
REQUIRED = {"task": 1, "ticks": 1, "sem": 1, "flag": 1, "pattern": 1,
            "mask": 1, "mailbox": 1, "payload": "hi", "buffer": 1,
            "mutex": 1, "pool": 1, "size": 4, "as": "b", "ref": "b"}


@pytest.mark.parametrize("service", sorted(_SERVICES))
def test_the_kernel_refuses_a_handler_at_the_call_exactly_when_the_row_can_wait(
        service):
    # The kernel, not the table, refuses: as in uITRON (E_CTX), a service
    # that can wait raises ProtocolError before its service segment, so
    # the handler wrote no row after INT_ENTER.  What a service that
    # cannot wait does after its segment (an unlock of a mutex the
    # handler does not own, an exit) is not at issue here.  The call is
    # the one the service's statement compiles to, its values built by
    # the rows.
    kind = _SERVICES[service]
    raw = {"call": service, **{row.key: REQUIRED[row.key]
                               for row in kind.rows if row.key in REQUIRED}}
    [op] = _compile(parse([raw]), handler=True)[0]
    method, args = op[1], op[2] + (0,) * (op[0] == _RELEASE)

    def waiter(ctx):
        yield from ctx.kernel.delay(20)

    def handler(ctx):
        yield from getattr(ctx.kernel, method)(*args)

    sink = ListSink()
    k = Kernel()
    k.declare_task(1, "T", 5, waiter)
    k.declare_alarm(2, "H", 3, handler)
    k.declare_semaphore(1, 0)
    k.declare_flag(1)
    k.declare_mutex(1)
    k.declare_mailbox(1)
    k.declare_buffer(1, 8)
    k.declare_fixed_pool(1, 2, 8)
    k.declare_variable_pool(1, 16)
    k.attach_sinks(trace_sink=sink)
    k.boot()
    error = None
    try:
        k.run(10)
    except SimError as exc:
        error = exc
    rows = [r.label for r in sink.records if r.thread_id == 2]
    refused = isinstance(error, ProtocolError) and rows == ["INT_ENTER"]
    assert refused == kind.waits, (error, rows)
