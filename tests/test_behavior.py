"""Behavior programs at run time: bindings, cycle marking, nested loops.

Programs are parsed from raw statement lists and run as the only task
of a small kernel, so each check sees the interpreter itself rather than
a whole scenario.
"""

import pytest

from rtksim.behavior import build_factory, parse_program
from rtksim.engine import Annotation
from rtksim.errors import UsageError
from rtksim.kernel import Kernel

TABLE = {"w": Annotation("w", 1, 0)}


def run_task(raw, ticks):
    problems = []
    statements = parse_program(raw, (), problems)
    assert problems == []
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
