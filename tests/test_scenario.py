"""Scenario parsing: validation messages, locations, round-trips, wiring."""

import contextlib
import copy
import time

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from helpers import perfbench
from oracle import MUTEX_SEED_BASE, generate_spec
from rtksim import scenario
from rtksim.bfm import DEFAULT_INTC_LINES, MEMORY_WIDTHS
from rtksim.errors import ScenarioError, SimError
from rtksim.kernel import STIMULUS_KINDS, USER_PRIORITY_MAX
from rtksim.objects import _PATTERN_MASK
from rtksim.scenario import (
    build_kernel,
    demo_scenario_path,
    load_scenario,
    parse_scenario_text,
    save_scenario,
    scenario_to_raw,
    scenario_to_yaml,
)
from rtksim.trace import MAX_UJ, ListSink
from test_acceptance import spec_to_raw, spec_to_yaml

workloads = perfbench("workloads")


MINIMAL = """\
run_ticks: 5
annotations:
  work: {etm: 1, eem: 0}
tasks:
  - id: 1
    name: T
    priority: 5
    behavior:
      - compute: work
"""


def problems_of(excinfo):
    return [(loc, msg) for loc, msg in excinfo.value.problems]


# ----------------------------------------------------------------------
# basic shape and defaults

def test_minimal_scenario_and_defaults():
    scn = parse_scenario_text(MINIMAL)
    assert scn.name == "scenario"
    assert scn.tick_us == 1000
    assert scn.cycles_per_tick == 12000
    assert scn.run_ticks == 5
    assert scn.battery_uj is None
    assert (scn.svc_etm, scn.svc_eem_uj) == (1, 0)
    assert scn.abort_on_deadlock is True
    assert len(scn.tasks) == 1 and scn.idle_task is None
    assert scn.annotation_table()["work"].etm == 1


def test_missing_run_ticks_is_reported():
    text = MINIMAL.replace("run_ticks: 5\n", "")
    with pytest.raises(ScenarioError, match="missing 'run_ticks'"):
        parse_scenario_text(text)


def test_top_level_must_be_a_mapping():
    with pytest.raises(ScenarioError, match="mapping of sections"):
        parse_scenario_text("- 1\n- 2\n")


def test_broken_yaml_reports_the_parser_error():
    with pytest.raises(ScenarioError, match="not valid YAML"):
        parse_scenario_text("tasks: [\n")


@pytest.mark.parametrize("text,line,start", [
    ("tasks: [\n", 2, "not valid YAML: while parsing a flow node"),
    ("run_ticks: 5\nname: a\x07\n", 2,
     "not valid YAML: unacceptable character #x0007"),
    ("run_ticks: 5\n\nname: \x00\n", 3,
     "not valid YAML: unacceptable character #x0000"),
    ("run_ticks: 5\nname: x\ud800\n", 2,
     "not valid YAML: unacceptable character #xd800"),
    # outside the subset: no field takes a date, and `five` is no int
    ("run_ticks: 5\nname: 2001-13-45\n", 2, "tag !!timestamp is not supported"),
    ("run_ticks: !!int five\n", 1, "'five' is not a valid int"),
    ("- " * 1500 + "1\n", 1, "not valid YAML: nested too deeply"),
    ("- " * 30000 + "1\n", 1,  # libyaml's stack: 24k
     "not valid YAML: nested too deeply"),
    ("a: " + "[" * 600 + "]" * 600 + "\n", 1, "not valid YAML: nested too deeply"),
], ids=["flow", "bel", "nul", "surrogate", "date", "int", "deep", "deeper",
        "flow-deep"])
def test_yaml_errors_name_the_file_once_at_their_line(text, line, start):
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    [(loc, msg)] = problems_of(ei)
    assert loc == f"scn.yaml:{line}"
    assert msg.startswith(start)
    # the location is ours alone: no "in <unicode string>, line L" tail
    assert str(ei.value).count("scn.yaml") == 1 and "line" not in msg


def test_unknown_keys_are_rejected():
    with pytest.raises(ScenarioError, match="unknown key 'colour'"):
        parse_scenario_text(MINIMAL + "colour: blue\n")


# ----------------------------------------------------------------------
# error locations

def test_error_location_names_file_and_line():
    # the bad compute label sits on line 9 of this text
    text = (
        "run_ticks: 5\n"
        "annotations:\n"
        "  work: {etm: 1, eem: 0}\n"
        "tasks:\n"
        "  - id: 1\n"
        "    name: T\n"
        "    priority: 5\n"
        "    behavior:\n"
        "      - compute: typo\n"
    )
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    locs = problems_of(ei)
    assert locs == [("scn.yaml:9", "no annotation named 'typo'")]


def test_every_problem_is_collected_in_one_pass():
    text = MINIMAL + (
        "handlers:\n"
        "  - id: 2\n"
        "    name: H\n"
        "    kind: cyclic\n"
        "    behavior:\n"
        "      - compute: work\n"
        "stimuli:\n"
        "  - {tick: 0, kind: pio_set, device: nowhere, value: 1}\n"
    )
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text)
    messages = [msg for _, msg in problems_of(ei)]
    assert "missing 'period'" in messages
    assert any("'tick' must be an integer >= 1" in m for m in messages)


def test_yaml_aliases_are_refused():
    text = (
        "run_ticks: 5\n"
        "annotations:\n"
        "  a: &shared {etm: 1, eem: 0}\n"
        "  b: *shared\n"
        "tasks:\n"
        "  - {id: 1, name: T, priority: 5, behavior: [{compute: a}]}\n"
    )
    with pytest.raises(ScenarioError, match="aliases are not supported"):
        parse_scenario_text(text)


def test_duplicate_mapping_keys_are_refused():
    text = "run_ticks: 5\nrun_ticks: 6\n" + MINIMAL.split("\n", 1)[1]
    with pytest.raises(ScenarioError, match="duplicate key 'run_ticks'"):
        parse_scenario_text(text)


# ----------------------------------------------------------------------
# field validation

def test_energy_finer_than_a_microjoule_is_rejected():
    text = MINIMAL.replace("eem: 0", "eem: 0.0000001")
    with pytest.raises(ScenarioError, match="no finer"):
        parse_scenario_text(text)


def test_fractional_millijoules_become_integer_microjoules():
    scn = parse_scenario_text(MINIMAL.replace("eem: 0", "eem: 0.002"))
    assert scn.annotation_table()["work"].eem_uj == 2


@pytest.mark.parametrize("value", ["0", "-1", "true", "bogus"])
def test_battery_must_be_positive(value):
    with pytest.raises(ScenarioError, match="battery_wh"):
        parse_scenario_text(MINIMAL + f"battery_wh: {value}\n")


def test_fractional_battery_capacity():
    scn = parse_scenario_text(MINIMAL + "battery_wh: 0.5\n")
    assert scn.battery_uj == 1_800_000_000


@pytest.mark.parametrize("text, line", [
    (MINIMAL.replace("eem: 0", 'eem: "1e800000"'), 3),
    (MINIMAL.replace("eem: 0", 'eem: "1e999999"'), 3),   # past Decimal's Emax
    (MINIMAL + 'battery_wh: "1e800000"\n', 10),
])
def test_a_huge_energy_exponent_is_refused_at_once(text, line):
    # the Decimal-to-int conversion of such a figure takes time
    # quadratic in its exponent: about a minute for this one
    parse_scenario_text(MINIMAL)                  # warm up
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text(text, "huge.yaml")
    assert time.perf_counter() - start < 0.010
    assert [msg for loc, msg in problems_of(excinfo)
            if loc == f"huge.yaml:{line}" and "1e1" in msg]


def test_energy_up_to_the_bound_is_accepted():
    scn = parse_scenario_text(MINIMAL.replace("eem: 0", "eem: 1e15"))
    assert scn.annotation_table()["work"].eem_uj == MAX_UJ
    with pytest.raises(ScenarioError, match="no larger than 1e15"):
        parse_scenario_text(MINIMAL.replace("eem: 0", "eem: 1.000001e15"))


def test_idle_must_be_true_or_false():
    for value in ("'true'", "1", "[]", "{a: 1}"):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario_text(MINIMAL + f"  - {{id: 2, name: I, idle: {value}}}\n",
                                filename="scn.yaml")
        assert problems_of(ei) == [("scn.yaml:10", "'idle' must be true or false")]


def test_an_idle_entry_with_an_implicit_field_stays_declared():
    text = (MINIMAL
            + "  - {id: 2, name: IDLE, idle: true, priority: 9}\n"
            + "  - {id: 3, name: IDLE2, idle: true}\n"
            + "objects:\n  mutexes:\n    - {id: 1}\n"
            + "handlers:\n"
            + "  - {id: 4, name: H, kind: alarm, offset: 1, behavior:"
            + " [{call: start, task: 2}]}\n")
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:10", "the idle task's 'priority' is implicit"),
        ("scn.yaml:11", "only one idle task entry is allowed")]


def test_an_idle_entrys_extended_info_is_refused_at_its_line():
    # the idle task has no control-block data of its own to set
    text = MINIMAL + "  - id: 2\n    name: IDLE\n    idle: true\n    extended_info: 7\n"
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [("scn.yaml:13", "unknown key 'extended_info'")]


def test_the_idle_entry_is_declared_as_written():
    scn = parse_scenario_text(MINIMAL + "  - {id: 7, name: REST, idle: true}\n")
    k = build_kernel(scn)
    assert (k.idle_id, k.tcb[7].thread.name) == (7, "REST")
    k.boot()
    assert k.idle_id == 7 and sorted(k.tcb) == [1, 7]


def test_on_deadlock_accepts_only_the_two_policies():
    scn = parse_scenario_text(MINIMAL + "on_deadlock: report\n")
    assert scn.abort_on_deadlock is False
    with pytest.raises(ScenarioError, match="on_deadlock"):
        parse_scenario_text(MINIMAL + "on_deadlock: ignore\n")


def test_idle_task_rules():
    base = MINIMAL + "  - id: 2\n    name: IDLE\n    idle: true\n"
    scn = parse_scenario_text(base)
    assert scn.idle_task.task_id == 2

    with pytest.raises(ScenarioError, match="'priority' is implicit"):
        parse_scenario_text(base.replace("    idle: true\n",
                                         "    idle: true\n    priority: 9\n"))
    with pytest.raises(ScenarioError, match="only one idle task"):
        parse_scenario_text(base + "  - id: 3\n    name: IDLE2\n    idle: true\n")

    only_idle = ("run_ticks: 5\n"
                 "tasks:\n"
                 "  - {id: 1, name: IDLE, idle: true}\n")
    with pytest.raises(ScenarioError, match="at least one non-idle task"):
        parse_scenario_text(only_idle)


def test_thread_ids_are_one_namespace():
    dup_task = MINIMAL + (
        "  - id: 1\n    name: T2\n    priority: 6\n"
        "    behavior: [{compute: work}]\n"
    )
    with pytest.raises(ScenarioError, match="thread id 1 declared twice"):
        parse_scenario_text(dup_task)

    task_vs_handler = MINIMAL + (
        "handlers:\n"
        "  - id: 1\n    name: H\n    kind: alarm\n    offset: 3\n"
        "    behavior: [{compute: work}]\n"
    )
    with pytest.raises(ScenarioError, match="thread id 1 declared twice"):
        parse_scenario_text(task_vs_handler)


def test_handler_structure_rules():
    with pytest.raises(ScenarioError, match="cyclic, alarm, or isr"):
        parse_scenario_text(MINIMAL + (
            "handlers:\n"
            "  - id: 2\n    name: H\n    kind: watchdog\n"
            "    behavior: [{compute: work}]\n"
        ))
    with pytest.raises(ScenarioError, match="only legal in tasks"):
        parse_scenario_text(MINIMAL + (
            "handlers:\n"
            "  - id: 2\n    name: H\n    kind: alarm\n    offset: 3\n"
            "    behavior:\n"
            "      - loop: forever\n"
            "        body: [{compute: work}]\n"
        ))


WAITING_CALLS = {
    "sleep": "{call: sleep}",
    "delay": "{call: delay, ticks: 2}",
    "sem_wait": "{call: sem_wait, sem: 1}",
    "flg_wait": "{call: flg_wait, flag: 1, pattern: 1}",
    "mbx_recv": "{call: mbx_recv, mailbox: 1}",
    "mbf_send": "{call: mbf_send, buffer: 1, payload: hi}",
    "mbf_recv": "{call: mbf_recv, buffer: 1}",
    "mtx_lock": "{call: mtx_lock, mutex: 1}",
    "pool_get": "{call: pool_get, pool: 1, as: blk}",
    "vpool_get": "{call: vpool_get, pool: 1, size: 4, as: blk}",
}


def handler_text(call: str) -> str:
    return MINIMAL + (
        "handlers:\n"
        "  - id: 2\n    name: H\n    kind: cyclic\n    period: 5\n"
        "    behavior:\n"
        "      - compute: work\n"
        "      - loop: true\n"
        "        count: 2\n"
        "        body:\n"
        f"          - {call}\n"
    )


@pytest.mark.parametrize("service", sorted(WAITING_CALLS))
def test_a_handler_program_may_not_wait(service):
    # uITRON rejects a wait outside task context (E_CTX); the call on
    # line 20 sits in a loop body
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(handler_text(WAITING_CALLS[service]),
                            filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:20", f"a handler cannot call '{service}', which can wait; "
                        "only tasks may wait")]


def test_a_handler_program_may_call_services_that_do_not_wait():
    scn = parse_scenario_text(handler_text("{call: wakeup, task: 1}"))
    assert scn.handlers[0].behavior[1].body[0].call == "wakeup"


def test_forever_loop_must_close_the_task_body():
    text = (
        "run_ticks: 5\n"
        "annotations:\n"
        "  work: {etm: 1, eem: 0}\n"
        "tasks:\n"
        "  - id: 1\n"
        "    name: T\n"
        "    priority: 5\n"
        "    behavior:\n"
        "      - loop: forever\n"
        "        body: [{compute: work}]\n"
        "      - compute: work\n"
    )
    with pytest.raises(ScenarioError, match="final top-level statement"):
        parse_scenario_text(text)


# ----------------------------------------------------------------------
# cross references

def refs_text(stmt: str, extra: str = "") -> str:
    return (
        "run_ticks: 5\n"
        "annotations:\n"
        "  work: {etm: 1, eem: 0}\n"
        f"{extra}"
        "tasks:\n"
        "  - id: 1\n"
        "    name: T\n"
        "    priority: 5\n"
        "    behavior:\n"
        f"      - {stmt}\n"
    )


@pytest.mark.parametrize("stmt,message", [
    ("{call: sem_wait, sem: 9}", "no semaphore with id 9"),
    ("{call: wakeup, task: 7}", "no task with id 7"),
    ("{call: pool_get, pool: 2, as: slot}", "no fixed_pool with id 2"),
    ("{bfm: nowhere.rd}", "no device named 'nowhere'"),
])
def test_dangling_references_are_caught(stmt, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario_text(refs_text(stmt))


def test_bfm_access_must_exist_on_the_device():
    extra = (
        "devices:\n"
        "  - name: uart\n"
        "    kind: serial_io\n"
        "    accesses:\n"
        "      wr: {op: write, cycles: 10, eem: 0}\n"
    )
    with pytest.raises(ScenarioError, match="has no access 'rd'"):
        parse_scenario_text(refs_text("{bfm: uart.rd}", extra))


def test_oversized_buffer_payload_is_a_parse_error():
    extra = (
        "objects:\n"
        "  buffers:\n"
        "    - {id: 1, capacity: 2}\n"
    )
    stmt = '{call: mbf_send, buffer: 1, payload: "abc"}'
    with pytest.raises(ScenarioError, match="payload is 3 bytes; buffer 1 holds 2"):
        parse_scenario_text(refs_text(stmt, extra))


_NEVER_GRANTED_OBJECTS = (
    "objects:\n"
    "  semaphores:\n"
    "    - {id: 1, initial: 0, max: 3}\n"
    "    - {id: 2, initial: 0}\n"
    "  variable_pools:\n"
    "    - {id: 1, size: 64}\n"
)


@pytest.mark.parametrize("stmt,message", [
    ("{call: sem_wait, sem: 1, count: 4}",
     "count is 4; semaphore 1 holds at most 3"),
    ("{call: sem_signal, sem: 1, count: 4}",
     "count is 4; semaphore 1 holds at most 3"),
    ("{call: sem_wait, sem: 2, count: 65536}",
     "count is 65536; semaphore 2 holds at most 65535"),
    ("{call: vpool_get, pool: 1, size: 100, as: region}",
     "size is 100; variable pool 1 holds 64"),
])
def test_a_request_its_object_can_never_grant_is_a_parse_error(stmt, message):
    # these used to parse, and the run stopped at the call
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text(refs_text(stmt, _NEVER_GRANTED_OBJECTS))
    assert problems_of(excinfo) == [("<scenario>:15", message)]
    for fits in ("{call: sem_wait, sem: 1, count: 3}",
                 "{call: sem_signal, sem: 2, count: 65535}",
                 "{call: vpool_get, pool: 1, size: 64, as: region}"):
        parse_scenario_text(refs_text(fits, _NEVER_GRANTED_OBJECTS))


ISR_BASE = (
    "run_ticks: 5\n"
    "annotations:\n"
    "  work: {etm: 1, eem: 0}\n"
    "tasks:\n"
    "  - {id: 1, name: T, priority: 5, behavior: [{compute: work}]}\n"
    "devices:\n"
    "  - {name: pic, kind: intc, lines: 2}\n"
    "  - {name: port, kind: parallel_io}\n"
)


def isr(hid, device, line):
    return (f"  - id: {hid}\n    name: H{hid}\n    kind: isr\n"
            f"    device: {device}\n    line: {line}\n"
            "    behavior: [{compute: work}]\n")


def test_isr_binding_rules():
    with pytest.raises(ScenarioError, match="not an interrupt controller"):
        parse_scenario_text(ISR_BASE + "handlers:\n" + isr(2, "port", 0))
    with pytest.raises(ScenarioError, match="outside 0..1"):
        parse_scenario_text(ISR_BASE + "handlers:\n" + isr(2, "pic", 5))
    with pytest.raises(ScenarioError, match="bound twice"):
        parse_scenario_text(
            ISR_BASE + "handlers:\n" + isr(2, "pic", 0) + isr(3, "pic", 0))


def test_a_problem_is_located_at_its_own_entry_after_a_dropped_one():
    text = ISR_BASE + "handlers:\n  - {id: 2, kind: isr}\n" + isr(3, "port", 0)
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei)[-1] == (
        "scn.yaml:14", "'port' is not an interrupt controller")


def test_a_null_value_counts_as_left_out():
    extra = "objects:\n  semaphores:\n    - {id: 1, initial: 0, max: null}\n"
    scn = parse_scenario_text("on_deadlock: null\n"
                              + refs_text("{call: sem_wait, sem: 1}", extra)
                              .replace("eem: 0", "eem: null"))
    assert scn.annotation_table()["work"].eem_uj == 0
    assert scn.abort_on_deadlock
    assert build_kernel(scn).semaphores[1].max_count == 65535


def test_stimulus_device_kind_must_match():
    text = ISR_BASE + (
        "stimuli:\n"
        "  - {tick: 3, kind: irq, device: pic, line: 1}\n"
    )
    with pytest.raises(ScenarioError, match="no handler is bound to line 1"):
        parse_scenario_text(text)

    text = ISR_BASE + (
        "stimuli:\n"
        "  - {tick: 3, kind: serial_in, device: port, value: 1}\n"
    )
    with pytest.raises(ScenarioError, match="not serial I/O"):
        parse_scenario_text(text)


# ----------------------------------------------------------------------
# the bundled demo and round-trips

def test_demo_scenario_shape():
    scn = load_scenario(demo_scenario_path())
    assert scn.name == "demo"
    assert scn.run_ticks == 1000
    assert scn.battery_uj == 36_000_000_000
    assert (scn.svc_etm, scn.svc_eem_uj) == (1, 2)
    assert len(scn.tasks) == 4 and scn.idle_task.task_id == 4
    assert [h.kind for h in scn.handlers] == ["cyclic", "alarm"]
    assert {(o.kind, o.obj_id) for o in scn.objects} == {
        ("semaphore", 1), ("flag", 1)}
    assert {d.name for d in scn.devices} == {"lcd", "keypad", "ssd"}
    assert [st.tick for st in scn.stimuli] == [42, 137, 444]
    assert scn.annotation_table()["render_frame"].eem_uj == 50


def test_yaml_round_trip_is_lossless():
    scn = load_scenario(demo_scenario_path())
    again = parse_scenario_text(scenario_to_yaml(scn))
    assert again == scn


def test_save_and_load_round_trip(tmp_path):
    scn = parse_scenario_text(MINIMAL + "battery_wh: 0.25\n")
    path = tmp_path / "copy.yaml"
    save_scenario(scn, path)
    assert load_scenario(path) == scn


def test_a_statement_is_written_head_first_then_in_key_order():
    # the service's kernel takes sem, count, timeout in that order
    scn = parse_scenario_text(refs_text(
        "{call: sem_wait, timeout: 5, sem: 1, count: 2}",
        "objects:\n  semaphores: [{id: 1, initial: 0}]\n"))
    [stmt] = scenario_to_raw(scn)["tasks"][0]["behavior"]
    assert list(stmt.items()) == [("call", "sem_wait"), ("count", 2),
                                  ("sem", 1), ("timeout", 5)]


def test_raw_serialization_formats_energy_readably():
    raw = scenario_to_raw(load_scenario(demo_scenario_path()))
    assert raw["battery_wh"] == 10
    assert raw["svc_cost"] == {"etm": 1, "eem": "0.002"}
    assert raw["annotations"]["render_frame"] == {"etm": 1, "eem": "0.05"}


# ----------------------------------------------------------------------
# kernel wiring

def test_build_kernel_wires_the_demo():
    scn = load_scenario(demo_scenario_path())
    k = build_kernel(scn)
    k.attach_sinks(trace_sink=ListSink())
    k.boot()
    assert k.tick_us == 1000
    assert k.engine.thread(4).is_idle
    assert k.engine.thread(4).name == "IDLE"
    assert k.semaphores[1].count == 0
    assert k.flags[1].pattern == 0
    for name in ("lcd", "keypad", "ssd"):
        k.devices.get(name)

    k.run(20)
    # the 10-tick trigger fires at phase 5 and again at 15
    assert k.engine.thread(5).token.cycles == 2


def test_build_kernel_overrides():
    scn = parse_scenario_text(MINIMAL + "on_deadlock: report\n")
    k = build_kernel(scn._replace(tick_us=77))
    assert k.tick_us == 77
    assert k.abort_on_deadlock is False   # the scenario's on_deadlock


# ----------------------------------------------------------------------
# values that must be caught at parse time, not at boot or mid-run

@pytest.mark.parametrize("kind", ["{a: 1}", "[cyclic]"])
def test_handler_kind_that_is_not_a_name_is_a_parse_error(kind):
    text = MINIMAL + (
        "handlers:\n"
        f"  - {{id: 2, name: H, kind: {kind}, behavior: [{{compute: work}}]}}\n"
    )
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:11", "handler kind must be cyclic, alarm, or isr")]


def objects_text(entry: str, section: str) -> str:
    return MINIMAL + f"objects:\n  {section}:\n    - {entry}\n"


def test_flag_initial_must_fit_32_bits():
    parse_scenario_text(objects_text("{id: 1, initial: 0xFFFFFFFF}", "flags"))
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(
            objects_text("{id: 1, initial: 0x100000000}", "flags"),
            filename="scn.yaml")
    assert problems_of(ei) == [("scn.yaml:12", "'initial' must fit 32 bits")]


@pytest.mark.parametrize("entry,limit", [
    ("{id: 1, initial: 3, max: 2}", 2),
    ("{id: 1, initial: 65536}", 65535),     # the default maximum
])
def test_semaphore_initial_must_not_exceed_max(entry, limit):
    parse_scenario_text(objects_text("{id: 1, initial: 2, max: 2}", "semaphores"))
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(objects_text(entry, "semaphores"),
                            filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:12", f"'initial' must not exceed 'max' ({limit})")]


def test_semaphore_initial_is_reported_among_the_objects():
    text = (MINIMAL + "objects:\n"
            "  semaphores:\n    - {id: 1, initial: 3, max: 2}\n"
            "  flags:\n    - {id: 0}\n")
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:12", "'initial' must not exceed 'max' (2)"),
        ("scn.yaml:14", "'id' must be an integer >= 1")]


def test_bfm_value_must_be_a_byte():
    extra = (
        "devices:\n"
        "  - name: port\n"
        "    kind: parallel_io\n"
        "    accesses:\n"
        "      put: {op: out, cycles: 0, eem: 0}\n"
    )
    parse_scenario_text(refs_text("{bfm: port.put, value: 255}", extra))
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(refs_text("{bfm: port.put, value: 256}", extra),
                            filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:14", "bfm argument 'value' must be a byte (0..255)")]


MEMORY = (
    "devices:\n"
    "  - name: ram\n"
    "    kind: memory\n"
    "    width: {}\n"
)


def test_memory_width_is_checked_where_it_is_written():
    for width in (1, 2, 4):
        build_kernel(parse_scenario_text(MINIMAL + MEMORY.format(width)))
    for width in (0, 3, 8, "true", "'2'", "[4]", "{4: 4}"):
        with pytest.raises(ScenarioError) as ei:
            parse_scenario_text(MINIMAL + MEMORY.format(width),
                                filename="scn.yaml")
        assert problems_of(ei) == [
            ("scn.yaml:13", "'width' must be 1, 2 or 4")]


def test_one_of_spells_every_count_of_values():
    from rtksim.schema import _OneOf
    assert _OneOf((1,)).spelled == "1"
    assert _OneOf((True, False)).spelled == "true or false"
    assert _OneOf((1, 2, 4)).spelled == "1, 2 or 4"
    problems = []
    assert _OneOf(("halt",)).read(problems, "stop", ("on_deadlock",)) is None
    assert problems == [(("on_deadlock",), "'on_deadlock' must be halt")]
    with pytest.raises(ValueError, match="at least one"):
        _OneOf(())


def test_collection_as_mapping_key_is_a_parse_error():
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text("run_ticks: 5\n? [a]\n: 1\n", filename="scn.yaml")
    assert problems_of(ei) == [("scn.yaml:2", "a key must be a scalar")]


# ----------------------------------------------------------------------
# the libyaml loader against the pure-Python one

LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__,
                             reason="PyYAML was built without libyaml")
LOADERS = [
    pytest.param(scenario._PureLoader, id="pure"),
    pytest.param(scenario._Loader, id="libyaml", marks=LIBYAML),
]

# two aliases the walk once let through: one as a key, read as
# `run_ticks: 5`, and one naming a key, read as the task name `run_ticks`
ALIAS_KEY = MINIMAL.replace("run_ticks: 5\n", "name: &x run_ticks\n*x : 5\n")
ALIASED_KEY = "&x " + MINIMAL.replace("name: T", "name: *x")

# texts whose problems once depended on the loader: an undefined alias,
# a repeated anchor, and nesting past the limit in a refused key and in a
# refused collection (the composer's recursion limits once decided these)
_DEEP = "[" * 300 + "]" * 300
# nesting past the limit on a later line: reported at that line
DEEP_ON_LINE_5 = "run_ticks: 5\nname: x\n\n\nb: " + "[" * 300 + "\n"
DIVERGED = ["a: *y\n", "a: &x 1\nb: &x 2\n", f"? {_DEEP}\n: 1\n",
            f"a: !!set {{? {_DEEP}}}\n"]

EDGE_TEXTS = [
    "base: &b {etm: 1}\nwork:\n  <<: *b\n  eem: 0\n",   # merge key
    "a: &x 1\nb: *x\n",                                 # alias
    "a: 1\na: 2\n",                                     # duplicate key
    "\ufeffrun_ticks: 5\n",                             # byte order mark
    "%YAML 1.1\n%TAG ! tag:x,2000:\n---\nrun_ticks: 5\n",  # directives
    "a: 1\n---\nb: 2\n",                                # two documents
    "tasks: [\n",                                       # flow error
    "a:\n\tb: 1\n",                                     # tab indent
    "run_ticks: 5\n? [a]\n: 1\n",                       # unhashable key
    "<<: {<<: 1}\n<<: 1\n",                             # a merge in a merge
    "a: [2001-13-45]\nb: !!int x\n",                    # two refused scalars
    "1: a\n'1': b\n",                                   # one text, two keys
    "a: 1\n=: 1\n",                                     # a value key
    "run_ticks: 5\nname: a\x07\n",                      # control characters
    "run_ticks: 5\n\nname: \x00\n",
    "name: \ud800\n",                                   # lone surrogates
    "é: ü\nname: x\udfff\n",
    "run_ticks: 5\nname: 2001-13-45\n",                 # rejected scalars
    "run_ticks: !!bool maybe\n",
    "- " * 1500 + "1\n",                                # nested too deeply
    *("a: " + "[" * n + "]" * n + "\n" for n in (256, 257, 300, 600, 900)),
    *("[" * n + "]" * n + "\n" for n in (257, 258)),   # the last flow level
    "a: " + "[" * 100_000 + "]" * 100_000 + "\n",
    "- " * 30000 + "1\n",
    DEEP_ON_LINE_5,
    "",
    "# comment only\n",
    "name: =\n",                                        # a value
    "1: a\n01: b\ntrue: c\nyes: d\n",                   # one key, two texts
    "a: {x: 1}\nb: 2\na: {y: 2}\na: 3\n",               # a key three times
    "a: &x 1\nb:\n  - 1\n  - *x\n",                     # a sequence's alias
    ALIAS_KEY,                                          # an alias as a key
    ALIASED_KEY,                                        # a key as an anchor
    "a: &x [1]\n*x : 2\n",                              # a key naming a list
    "a: &x !!int z\n*x : 1\n",                          # a key naming a bad int
    "a: &y 1\nb: !!set {? *y }\nc: *y\n",               # under a refusal
    "a: !!set {? &z !!int q}\nb: *z\n",                 # its anchor under one
    "? &k [a]\n: 1\nb: *k\n",                           # naming a refused key
    "&x a: [*x, *x]\n",                                 # two on a line
    "[*x, !!int q]\n",                                  # before a refusal
    *DIVERGED,
]


# the YAML errors worded here, not by the loader
_OWN_WORDING = ("nested too deeply", "unacceptable character",
                "expected a single document")


def _outcome(text, loader):
    """What `_Source` makes of ``text`` under ``loader``: each problem of
    the refused text, located, with its message (only "not valid YAML" of
    a loader's own wording of a syntax error), or the data, every path's
    line and the problems."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        try:
            src = scenario._Source(text, "scn.yaml")
            src.locate(())  # the line map is built on the first lookup
        except ScenarioError as exc:
            return [(loc, _worded_here(message)) for loc, message in exc.problems]
    return src.data, src.lines, src.problems


def _worded_here(message):
    head, _, wording = message.partition(": ")
    if head == "not valid YAML" and not wording.startswith(_OWN_WORDING):
        return head
    return message


@LIBYAML
def test_corpus_yaml_is_the_safe_dump_text():
    # the corpus dumps through libyaml's emitter for speed
    seeds = [*range(0, 1000, 10), *range(MUTEX_SEED_BASE, MUTEX_SEED_BASE + 50)]
    for seed in seeds:
        spec = generate_spec(seed)
        assert spec_to_yaml(spec) == yaml.safe_dump(spec_to_raw(spec),
                                                    sort_keys=False)


@LIBYAML
def test_libyaml_builds_what_the_pure_python_loader_builds():
    texts = [spec_to_yaml(generate_spec(seed)) for seed in range(200)]
    texts += [workloads.generate(name, 1, 1.0) for name in workloads.WORKLOADS]
    texts.append(demo_scenario_path().read_text(encoding="utf-8"))
    for text in texts + EDGE_TEXTS:
        assert (_outcome(text, scenario._Loader)
                == _outcome(text, scenario._PureLoader)), text[:80]


@pytest.mark.parametrize("loader", LOADERS)
def test_nesting_too_deep_is_refused_at_its_line(loader):
    assert DEEP_ON_LINE_5 in EDGE_TEXTS
    assert _refused(loader, DEEP_ON_LINE_5) == [
        ("scn.yaml:5", "not valid YAML: nested too deeply")]
    block = "run_ticks: 5\nb:\n" + "".join(
        "  " * i + "-\n" for i in range(300))
    assert _refused(loader, block) == [
        (f"scn.yaml:{scenario._NODE_DEPTH_LIMIT + 3}",
         "not valid YAML: nested too deeply")]


@pytest.mark.parametrize("loader", LOADERS)
def test_flow_nesting_is_refused_at_the_first_bracket_past_the_limit(loader):
    deepest, deeper = ("[" * n + "]" * n + "\n" for n in (257, 258))
    assert isinstance(_outcome(deepest, loader), tuple)  # parsed
    too_deep = [("scn.yaml:1", "not valid YAML: nested too deeply")]
    assert _outcome(deeper, loader) == too_deep
    # the pure-Python scanner is quadratic in flow nesting until it gives
    # up near 1500 levels (~1.4 s); it now stops at the limit
    start = time.perf_counter()
    assert _outcome("a: " + "[" * 100_000 + "]" * 100_000, loader) == too_deep
    assert time.perf_counter() - start < 2


def test_the_pure_scanner_stops_at_the_first_bracket_past_the_limit():
    loader = scenario._PureLoader("\n" + "[" * 1000)
    with pytest.raises(yaml.MarkedYAMLError) as ei:
        while loader.check_token():
            loader.get_token()
    assert loader.flow_level == scenario._NODE_DEPTH_LIMIT + 1
    mark = ei.value.problem_mark
    assert (mark.line, mark.column) == (1, scenario._NODE_DEPTH_LIMIT + 1)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, data, problems", [
    ("1: a\n01: b\n", {1: "b"}, [("scn.yaml:2", "duplicate key '01'")]),
    ("true: 1\nyes: 2\n", {True: 2},
     [("scn.yaml:2", "duplicate key 'yes'")]),
    ("a: 1\nb: 2\na: 3\n", {"a": 3, "b": 2},
     [("scn.yaml:3", "duplicate key 'a'")]),
    ("a: 1\nb: 2\na: 3\na: 4\n", {"a": 4, "b": 2},
     [("scn.yaml:3", "duplicate key 'a'"),
      ("scn.yaml:4", "duplicate key 'a'")]),
    ("1: a\n'1': b\n", {1: "a", "1": "b"}, []),
], ids=["int", "bool", "str", "str-three-times", "int-and-str"])
def test_keys_are_compared_as_constructed(loader, text, data, problems):
    # two texts of one key drop a value, so they are a duplicate, found
    # at the second key's line; one text of two keys is not
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        src = scenario._Source(text, "scn.yaml")
        assert src.data == data
        assert [(f"scn.yaml:{line}", m) for line, m in src.found] == problems


@pytest.mark.parametrize("loader", LOADERS)
def test_a_plain_equals_sign_is_a_string(loader):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        assert scenario._Source("name: =\n=: 1\n", "scn.yaml").data == {
            "name": "=", "=": 1}
        with pytest.raises(ScenarioError) as ei:
            parse_scenario_text(MINIMAL + "name: =\n", filename="scn.yaml")
    [(loc, msg)] = problems_of(ei)
    assert loc == "scn.yaml:10" and "constructor" not in msg
    # PyYAML's own loaders are left as they were
    for cls in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        assert "tag:yaml.org,2002:value" not in cls.yaml_constructors


# each node outside the subset, as an entry of a mapping whose field is
# `{key}`, and its one problem
_REFUSALS = [
    ("<<: {{{key}: 5}}", "merge keys are not supported"),
    ("{key}: !!set {{5}}", "tag !!set is not supported"),
    ("{key}: !!omap [{{a: 5}}]", "tag !!omap is not supported"),
    ("? [{key}]\n: 5", "a key must be a scalar"),
    ("{{{key}: 1}}: 5", "a key must be a scalar"),
    ("{key}: !foo 5", "tag !foo is not supported"),
    ("{key}: 2001-01-01", "tag !!timestamp is not supported"),
    ("{key}: !!binary aGk=", "tag !!binary is not supported"),
    ("{key}: !!int five", "'five' is not a valid int"),
    ("{key}: !!bool maybe", "'maybe' is not a valid bool"),
]
_REFUSAL_IDS = ["merge", "set", "omap", "seq-key", "map-key", "local-tag",
                "date", "binary", "int", "bool"]


def _refused(loader, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        with pytest.raises(ScenarioError) as ei:
            parse_scenario_text(text, filename="scn.yaml")
    return problems_of(ei)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("entry, message", _REFUSALS, ids=_REFUSAL_IDS)
def test_a_node_outside_the_subset_is_one_problem_at_its_line(
        loader, entry, message):
    # at the top level, in the place of run_ticks (line 9, the file's
    # mapping starting at line 1): not also missing or of the wrong type
    top = MINIMAL.replace("run_ticks: 5\n", "") + entry.format(key="run_ticks")
    assert _refused(loader, top + "\n") == [("scn.yaml:9", message)]
    # in a task's behavior, as a delay's ticks (line 11, the statement
    # starting at line 10)
    nested = MINIMAL + "      - call: delay\n        " + entry.format(
        key="ticks").replace("\n", "\n        ")
    assert _refused(loader, nested + "\n") == [("scn.yaml:11", message)]


_KEYS = ["run_ticks", "name", "tick_us", "tasks", "id", "priority",
         "behavior", "compute", "call", "loop", "body", "count",
         "annotations", "etm", "eem", "objects", "semaphores", "initial",
         "handlers", "kind", "period", "devices", "accesses", "stimuli",
         "battery_wh", "svc_cost", "on_deadlock", "<<", "? [a]", "w"]
_VALUES = ["", "1", "5", "-1", "0x1f", "1e3", "0.0005", "2001-13-45",
           "!!int x", "!!bool maybe", "&a 1", "*a", "[1, 2]", "{}",
           "{etm: 1, eem: 0.002}", "[{compute: w}]", "forever", "true",
           "sem_wait", "'q'", '"\\x07"', "~", "\x07", "\ud800", "[", "{",
           "report", "cyclic"]
_LINE = st.builds(
    lambda indent, dash, key, value: f"{' ' * indent}{dash}{key}: {value}",
    st.integers(0, 8), st.sampled_from(["", "- "]), st.sampled_from(_KEYS),
    st.sampled_from(_VALUES) | st.text(max_size=4))
_SCENARIO_SHAPED = st.lists(
    _LINE | st.sampled_from(["---", "%YAML 1.1", "- 1", "  - id: 2"]),
    max_size=12).map("\n".join)


# ----------------------------------------------------------------------
# the one walk of the parser's events against the loader it replaced

# the tag of an alias's own node in the reference's node tree
_ALIAS_NODE = "alias"


def _index_node(loader, node, path, lines, problems, refused, why=None):
    # each problem at the mark of the node in hand, a refused node's
    # contents indexed too; an alias is refused, but is none of them (see
    # `_alias_problems`).  `why` refuses the node if it is no alias.
    lines.setdefault(path, node.start_mark.line + 1)
    if node.tag == _ALIAS_NODE:
        refused.append((path, "an alias"))
        return
    why = why or _outside_the_subset(loader, node)
    if why is not None:
        refused.append((path, why))
        problems.append((_position(node), why))
    if isinstance(node, yaml.MappingNode):
        keys = set()
        for i, (k_node, v_node) in enumerate(node.value):
            if isinstance(k_node, yaml.ScalarNode):
                why = ("merge keys are not supported"
                       if k_node.tag == "tag:yaml.org,2002:merge"
                       else _outside_the_subset(loader, k_node))
            else:
                why = "a key must be a scalar"
            if why is not None:
                # the key, and its value, at the key's own path
                at = path + (("key", i),)
                _index_node(loader, k_node, at, lines, problems, refused, why)
                _index_node(loader, v_node, at, lines, problems, refused)
                continue
            key, value = k_node.value, _constructed_key(loader, k_node)
            if value in keys:
                # the data holds the last repeat's value, at its line
                problems.append((_position(k_node), f"duplicate key '{key}'"))
                lines[path + (key,)] = k_node.start_mark.line + 1
            keys.add(value)
            lines.setdefault(path + (key,), k_node.start_mark.line + 1)
            _index_node(loader, v_node, path + (key,), lines, problems,
                        refused)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _index_node(loader, item, path + (i,), lines, problems, refused)


def _position(node_or_token):
    return node_or_token.start_mark.line, node_or_token.start_mark.column


def _alias_problems(text, loader_cls, problems):
    """Put an alias problem in ``problems`` at the position of each alias
    token the scanner reads, and put them all in the order of the text."""
    problems += [(_position(token), "YAML aliases are not supported")
                 for token in yaml.scan(text, loader_cls)
                 if isinstance(token, yaml.AliasToken)]
    problems.sort(key=lambda problem: problem[0])


# the tags of the subset, by kind of node
_SUBSET_TAGS = {
    yaml.ScalarNode: {"str", "value", "null", "bool", "int", "float"},
    yaml.SequenceNode: {"seq"},
    yaml.MappingNode: {"map"},
}


def _outside_the_subset(loader, node):
    """Why the scenario subset of YAML refuses ``node`` itself, or None:
    a tag not of its kind, or a scalar its tag's constructor refuses."""
    yaml_tag = node.tag.startswith("tag:yaml.org,2002:")
    name = node.tag.rpartition(":")[2] if yaml_tag else None
    if name not in _SUBSET_TAGS[type(node)]:
        return f"tag {'!!' + name if yaml_tag else node.tag} is not supported"
    if name not in ("str", "value", "seq", "map"):
        try:
            loader.construct_object(node, deep=True)
        except (yaml.YAMLError, ValueError, LookupError, AttributeError):
            return f"'{node.value}' is not a valid {name}"
        finally:
            loader.constructed_objects.clear()
            loader.recursive_objects.clear()
    return None


def _constructed_key(loader, node):
    """The scalar key ``node`` as PyYAML constructs it; the loader
    forgets it."""
    try:
        return loader.construct_object(node, deep=True)
    finally:
        loader.constructed_objects.clear()
        loader.recursive_objects.clear()


def _construct(loader, node):
    try:
        return loader.construct_document(node)
    except (ValueError, LookupError, AttributeError) as exc:
        failed = next(reversed(loader.recursive_objects), node)
        raise yaml.constructor.ConstructorError(
            None, None, f"cannot construct {failed.tag}: {exc}",
            failed.start_mark) from None


def _reference_loader(loader_cls):
    """A loader of its own on ``loader_cls`` that composes ``loader_cls``'s
    events with PyYAML's pure-Python composer, an anchor naming nothing
    and each alias a node of its own (tagged `_ALIAS_NODE`, at the
    alias's mark), and constructs a plain `=` (YAML 1.1's value tag) as
    the string, as the walk reads it.  A node deeper than the walk's
    limit stops the composer with the walk's YAML error at its mark,
    before the composer's few frames a level reach the interpreter's
    recursion limit."""
    composer = yaml.composer.Composer

    def compose_node(self, parent, index):
        if self.depth == scenario._NODE_DEPTH_LIMIT:
            raise scenario._too_deep(self.peek_event().start_mark)
        if self.check_event(yaml.AliasEvent):
            event = self.get_event()
            return yaml.ScalarNode(_ALIAS_NODE, event.anchor,
                                   event.start_mark, event.end_mark)
        self.anchors = {}
        self.depth += 1
        try:
            return composer.compose_node(self, parent, index)
        finally:
            self.depth -= 1

    bases = ((loader_cls,) if issubclass(loader_cls, composer)
             else (composer, loader_cls))
    ref = type("Reference" + loader_cls.__name__, bases,
               {"__init__": loader_cls.__init__, "compose_node": compose_node,
                "depth": -1})
    ref.add_constructor("tag:yaml.org,2002:value",
                        yaml.SafeLoader.construct_yaml_str)
    return ref


_REFERENCE_LOADERS = {cls: _reference_loader(cls)
                      for cls in {scenario._PureLoader, scenario._Loader}}


class _ReferenceSource(scenario._Source):
    """The naive loader the walk replaced, as the reference model: compose
    the text, index every node's line under its keys' source text, with
    the depth and duplicate-key checks (keys compared as PyYAML constructs
    them, a repeated key located at its own line), the subset's refusals
    (a refused node's contents indexed too) and each alias token the
    scanner reads, each at its node's or token's line and in the order of
    the text; then let PyYAML construct the document.  A text with a node
    outside the scenario subset of YAML, an alias among them, is not
    constructed: it is refused with the index's problems.
    `key_texts` holds the source text of each key that is not a string."""

    def __init__(self, text, filename):
        self.filename, self.found, self.problems = filename, [], []
        self.lines = {}
        self.key_texts, refused, found = set(), [], []
        loader_cls = _REFERENCE_LOADERS[scenario._Loader]
        try:
            loader = loader_cls(text)
            try:
                node = loader.get_single_node()
                if node is not None:
                    _index_node(loader, node, (), self.lines, found, refused)
                    _alias_problems(text, loader_cls, found)
                    self.found = [(line + 1, why) for (line, _), why in found]
                    self.key_texts = _texts_of_keys_not_str(node)
                self.data = (None if node is None or refused
                             else _construct(loader, node))
            finally:
                loader.dispose()
        except (yaml.MarkedYAMLError, yaml.reader.ReaderError,
                UnicodeEncodeError) as exc:
            line, message = scenario._yaml_problem(text, exc)
            raise ScenarioError(
                [(f"{filename}:{line}", f"not valid YAML: {message}")]
            ) from None
        if refused:
            self.raise_if_failed()


def _texts_of_keys_not_str(root):
    """The source text of each scalar key under ``root`` that is not a
    string, read before construction rewrites merge keys."""
    texts, todo = set(), [root]
    while todo:
        node = todo.pop()
        if isinstance(node, yaml.MappingNode):
            for k_node, v_node in node.value:
                if (isinstance(k_node, yaml.ScalarNode)
                        and k_node.tag != scenario._STR):
                    texts.add(k_node.value)
                todo += [k_node, v_node]
        elif isinstance(node, yaml.SequenceNode):
            todo += node.value
    return texts


def _at_a_key_not_str(data, path, key_texts):
    """Whether ``path`` passes a key of ``data`` that is not a string, or a
    string key of a mapping whose keys that are not strings may share its
    text (one of ``key_texts``).  Only there can the reference locate the
    path elsewhere: it indexes each key's line under its source text, so
    it cannot find `1:`, and it takes `1` and `'1'` for one key."""
    for key in path:
        if isinstance(data, dict) and (
                not isinstance(key, str) or key in key_texts
                and not all(isinstance(k, str) for k in data)):
            return True
        try:
            data = data[key]
        except (LookupError, TypeError):
            return False
    return False


@contextlib.contextmanager
def _sources_made(source):
    """Puts a subclass of ``source`` in the place of `scenario._Source`
    and yields the list of the instances made of it."""
    made = []

    class Recorded(source):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Source", Recorded)
        yield made


def _parse_with(source, text, loader):
    """The ``source`` that parse_scenario_text makes of ``text`` with its
    YAML read under ``loader``, and each problem as (location, message,
    path)."""
    with _sources_made(source) as made, pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        try:
            parse_scenario_text(text, "scn.yaml")
            problems = []
        except ScenarioError as exc:
            problems = exc.problems
    src = made[0]
    # the walk's problems hold no path: each is located as it is found
    found = getattr(src, "found", [])
    paths = [()] * len(found) + [path for path, _ in src.problems]
    if [m for _, m in problems] != [m for _, m in found + src.problems]:
        paths = [()] * len(problems)  # a YAML error, or not a mapping
    return src, [(loc, message, path)
                 for (loc, message), path in zip(problems, paths)]


def _assert_read_as_the_reference_reads(text, loader):
    src, problems = _parse_with(scenario._Source, text, loader)
    ref, ref_problems = _parse_with(_ReferenceSource, text, loader)
    data = getattr(src, "data", None)
    assert data == getattr(ref, "data", None)
    assert [m for _, m, _ in problems] == [m for _, m, _ in ref_problems]
    for (loc, message, path), (ref_loc, _, _) in zip(problems, ref_problems):
        # the one difference: a key that is not a string is now found
        assert loc == ref_loc or _at_a_key_not_str(
            data, path, ref.key_texts), (message, loc, ref_loc)


@pytest.mark.parametrize("loader", LOADERS)
def test_valid_files_read_as_the_reference_reads(loader):
    texts = [spec_to_yaml(generate_spec(seed)) for seed in range(200)]
    texts += [workloads.generate(name, 1) for name in workloads.WORKLOADS]
    texts.append(demo_scenario_path().read_text(encoding="utf-8"))
    for text in texts:
        _assert_read_as_the_reference_reads(text, loader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", EDGE_TEXTS, ids=range(len(EDGE_TEXTS)))
def test_edge_texts_read_as_the_reference_reads(loader, text):
    _assert_read_as_the_reference_reads(text, loader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, problems", [
    ("base: &b {etm: 1}\nwork:\n  <<: *b\n  eem: 0\n",
     [("scn.yaml:3", "merge keys are not supported"),
      ("scn.yaml:3", "YAML aliases are not supported")]),
    ("run_ticks: 5\n? [a]\n: 1\n", [("scn.yaml:2", "a key must be a scalar")]),
    ("<<: {<<: 1}\n<<: 1\n", [("scn.yaml:1", "merge keys are not supported"),
                              ("scn.yaml:1", "merge keys are not supported"),
                              ("scn.yaml:2", "merge keys are not supported")]),
    ("a: [2001-13-45]\nb: !!int x\n",
     [("scn.yaml:1", "tag !!timestamp is not supported"),
      ("scn.yaml:2", "'x' is not a valid int")]),
    ("run_ticks: 5\nname: 2001-13-45\n",
     [("scn.yaml:2", "tag !!timestamp is not supported")]),
    ("run_ticks: !!bool maybe\n", [("scn.yaml:1", "'maybe' is not a valid bool")]),
], ids=["merge", "unhashable-key", "merge-in-merge", "two-scalars", "date",
        "bool"])
def test_edge_texts_outside_the_subset_are_refused(loader, text, problems):
    # PyYAML builds each of these, or reports only its first fault
    assert text in EDGE_TEXTS
    assert _refused(loader, text) == problems


_ALIAS = "YAML aliases are not supported"


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, problems", [
    (ALIAS_KEY, [("scn.yaml:2", _ALIAS)]),
    (ALIASED_KEY, [("scn.yaml:6", _ALIAS)]),
    ("a: &x 1\nb:\n  - 1\n  - *x\n", [("scn.yaml:4", _ALIAS)]),
    ("a: &x [1]\n*x : 2\n", [("scn.yaml:2", _ALIAS)]),
    ("a: &x !!int z\n*x : 1\n",
     [("scn.yaml:1", "'z' is not a valid int"), ("scn.yaml:2", _ALIAS)]),
    ("a: &y 1\nb: !!set {? *y }\nc: *y\n",
     [("scn.yaml:2", "tag !!set is not supported"), ("scn.yaml:2", _ALIAS),
      ("scn.yaml:3", _ALIAS)]),
    ("a: !!set {? &z !!int q}\nb: *z\n",
     [("scn.yaml:1", "tag !!set is not supported"),
      ("scn.yaml:1", "'q' is not a valid int"), ("scn.yaml:2", _ALIAS)]),
    ("? &k [a]\n: 1\nb: *k\n",
     [("scn.yaml:1", "a key must be a scalar"), ("scn.yaml:3", _ALIAS)]),
    ("&x a: [*x, *x]\n", [("scn.yaml:1", _ALIAS), ("scn.yaml:1", _ALIAS)]),
    ("[*x, !!int q]\n",
     [("scn.yaml:1", _ALIAS), ("scn.yaml:1", "'q' is not a valid int")]),
], ids=["key", "naming-a-key", "sequence-item", "key-naming-a-collection",
        "key-naming-a-refused-scalar", "under-a-refusal",
        "naming-under-a-refusal", "naming-a-refused-key", "two-on-a-line",
        "before-a-refusal"])
def test_every_alias_is_refused_at_its_own_line(loader, text, problems):
    # each alias is a problem at its own line, in the order of the text,
    # and refuses the file as every node outside the subset does, so
    # nothing of its data is checked
    assert text in EDGE_TEXTS
    assert _refused(loader, text) == problems


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, problems", [
    ("a: *y\n", [("scn.yaml:1", _ALIAS)]),
    ("a: &x 1\nb: &x 2\n",
     [("scn.yaml:1", "unknown key 'a'"), ("scn.yaml:2", "unknown key 'b'"),
      ("scn.yaml:1", "missing 'run_ticks'"), ("scn.yaml:1", "missing 'tasks'")]),
    (f"? {_DEEP}\n: 1\n", [("scn.yaml:1", "not valid YAML: nested too deeply")]),
    (f"a: !!set {{? {_DEEP}}}\n",
     [("scn.yaml:1", "not valid YAML: nested too deeply")]),
], ids=["undefined-alias", "repeated-anchor", "deep-in-a-refused-key",
        "deep-in-a-refused-set"])
def test_what_the_loaders_once_read_apart_is_one_problem_list(
        loader, text, problems):
    # an alias names nothing, so it is refused whether or not its anchor
    # is defined; an anchor names nothing and may repeat (YAML 1.2.2,
    # 3.2.2.2); and the depth limit holds inside a refused node
    assert text in DIVERGED
    assert _refused(loader, text) == problems


@pytest.mark.parametrize("loader", LOADERS)
def test_a_problem_in_a_value_a_repeat_overrides_is_at_its_own_line(loader):
    # the walk locates its problems as it meets them; the key's path,
    # which the data problems use, has the line of its last repeat
    assert _refused(loader, "run_ticks: !!int x\nrun_ticks: 5\n") == [
        ("scn.yaml:1", "'x' is not a valid int"),
        ("scn.yaml:2", "duplicate key 'run_ticks'")]
    assert _refused(loader, "b: &x 1\na: *x\na: 2\n") == [
        ("scn.yaml:2", "YAML aliases are not supported"),
        ("scn.yaml:3", "duplicate key 'a'")]


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.text() | _SCENARIO_SHAPED
       | _SCENARIO_SHAPED.map(lambda tail: MINIMAL + tail))
def test_any_text_parses_or_raises_scenario_error(loader, text):
    # as the reference does: only a ScenarioError escapes either
    _assert_read_as_the_reference_reads(text, loader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, problem", [
    (MINIMAL.replace("tasks:\n", "1: x\ntasks:\n"),
     ("scn.yaml:4", "unknown key '1'")),
    (MINIMAL + "name: a\non_deadlock: report\n2001-01-01: 1\n",
     ("scn.yaml:12", "tag !!timestamp is not supported")),
    (MINIMAL + "name: a\non_deadlock: report\n1.5: 1\n",
     ("scn.yaml:12", "unknown key '1.5'")),
    (MINIMAL.replace("    priority: 5\n", "    priority: 5\n    7: 1\n"),
     ("scn.yaml:8", "unknown key '7'")),
    (MINIMAL.replace("  work: {etm: 1, eem: 0}\n",
                     "  work: {etm: 1, eem: 0}\n  1: {etm: 1, eem: 0}\n"),
     ("scn.yaml:4", "annotation labels use letters, digits, '_', '.', '-'")),
    (MINIMAL + "objects:\n  3: []\n", ("scn.yaml:11", "unknown key '3'")),
    (MINIMAL + "devices:\n  - name: io\n    kind: parallel_io\n"
     "    accesses:\n      get: {op: in, cycles: 0, eem: 0}\n"
     "      5: {op: out, cycles: 0, eem: 0}\n",
     ("scn.yaml:15", "access names use letters, digits, '_', '.', '-'")),
], ids=["top-level", "date", "float", "task", "annotation", "objects",
        "access"])
def test_a_problem_at_a_key_not_a_string_is_located_at_its_line(
        loader, text, problem):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_Loader", loader)
        with pytest.raises(ScenarioError) as ei:
            parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [problem]


def test_lines_are_looked_up_only_to_report_a_problem():
    with _sources_made(scenario._Source) as made:
        parse_scenario_text(workloads.generate("wide", 1), "wide.yaml")
        with pytest.raises(ScenarioError):
            parse_scenario_text(MINIMAL + "1: x\n", "scn.yaml")
    valid, broken = made
    assert valid.lines is None
    assert broken.lines[(1,)] == 10 and broken.lines[("tasks", 0)] == 5


# ----------------------------------------------------------------------
# what parses, builds, boots and runs

_RUN_TEXTS = {
    "demo": demo_scenario_path().read_text(encoding="utf-8"),
    **{name: workloads.generate(name, 1) for name in workloads.WORKLOADS},
    **{f"spec{seed}": spec_to_yaml(generate_spec(seed)) for seed in (0, 1)},
}
_RUN_RAW = {name: yaml.load(text, Loader=scenario._Loader)
            for name, text in _RUN_TEXTS.items()}
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# each device kind's options; a field's maximum, where it has one, read
# from the module that enforces it
_DEVICE_OPTIONS = {"memory": ("size", "width"), "serial_io": ("capacity",),
                   "intc": ("lines",)}
_MAXIMA = {"priority": USER_PRIORITY_MAX, "value": 0xFF,
           "initial": _PATTERN_MASK, "width": max(MEMORY_WIDTHS),
           "line": DEFAULT_INTC_LINES - 1}


def _int_fields(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _int_fields(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _int_fields(value, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


def _boundary_mutants(name):
    """(text name, path, value): one integer field or device option of the
    text set to 0, 1, 3, the field's maximum or one past it."""
    raw = _RUN_RAW[name]
    paths = list(_int_fields(raw))
    for i, dev in enumerate(raw.get("devices", ())):
        paths += [("devices", i, key) for key in _DEVICE_OPTIONS.get(dev["kind"], ())]
    for path in dict.fromkeys(paths):
        top = _MAXIMA.get(path[-1])
        for value in (0, 1, 3, *(() if top is None else (top, top + 1))):
            yield name, path, value


_MUTANTS = [m for name in _RUN_TEXTS for m in _boundary_mutants(name)]


@settings(max_examples=24, deadline=None, derandomize=True)
@given(mutant=st.sampled_from(_MUTANTS))
@example(mutant=("steady", ("devices", 0, "width"), 3))
def test_what_parses_builds_boots_and_runs_to_its_window(mutant):
    name, path, value = mutant
    raw = copy.deepcopy(_RUN_RAW[name])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        scn = parse_scenario_text(yaml.dump(raw, Dumper=_DUMPER,
                                            sort_keys=False))
    except ScenarioError:
        return
    kernel = build_kernel(scn)
    kernel.boot()
    try:
        kernel.run(scn.run_ticks)
    except SimError:
        pass


# ----------------------------------------------------------------------
# statement forms, and what a statement-shape mutant does

@pytest.mark.parametrize("stmt, message", [
    ("{loop: 3, body: [{compute: work}]}", "'loop' must be one of: true, forever"),
    ("{loop: 1, body: [{compute: work}]}", "'loop' must be one of: true, forever"),
    ("{loop: false, body: [{compute: work}]}",
     "'loop' must be one of: true, forever"),
    ("{loop: forever, count: 2, body: [{compute: work}]}",
     "'count' must be \"forever\" in a forever loop"),
    ("{service: sleep}", "statement is not compute, call, bfm, or loop"),
    ("{device: port, access: put}",
     "statement is not compute, call, bfm, or loop"),
    ("{bfm: port.put, device: port}", "unknown key 'device'"),
    ("{count: 2, body: [{compute: work}]}",
     "statement is not compute, call, bfm, or loop"),
], ids=["loop-3", "loop-1", "loop-false", "forever-count", "service", "device-access",
        "bfm-device", "count-body"])
def test_a_statement_outside_its_rows_is_refused(stmt, message):
    extra = ("devices:\n  - name: port\n    kind: parallel_io\n"
             "    accesses:\n      put: {op: out, cycles: 0, eem: 0}\n")
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(refs_text(stmt, extra), filename="scn.yaml")
    assert problems_of(ei) == [("scn.yaml:14", message)]


def test_loop_true_without_a_count_loops_forever():
    scn = parse_scenario_text(refs_text("{loop: true, body: [{compute: work}]}"))
    [loop] = scn.tasks[0].behavior
    assert loop.count == "forever"
    assert loop == parse_scenario_text(
        refs_text("{loop: forever, body: [{compute: work}]}")).tasks[0].behavior[0]


def test_a_device_name_has_no_dot():
    # `bfm: io.a.rd` names the access `a.rd` of a device `io`, so a device
    # `io.a` could not be named; it is refused where it is declared
    text = MINIMAL + "devices:\n  - {name: io.a, kind: parallel_io}\n"
    with pytest.raises(ScenarioError) as ei:
        parse_scenario_text(text, filename="scn.yaml")
    assert problems_of(ei) == [
        ("scn.yaml:11", "'name' must use letters, digits, '_', '-'")]


_STMT_RAW = {**_RUN_RAW, "spec_mutex": yaml.load(
    spec_to_yaml(generate_spec(MUTEX_SEED_BASE)), Loader=scenario._Loader)}


def _statement_paths(node, path=()):
    """The path of each behavior statement under ``node``, loop bodies
    included."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("behavior", "body") and isinstance(value, list):
                for i, stmt in enumerate(value):
                    yield path + (key, i)
                    yield from _statement_paths(stmt, path + (key, i))
            else:
                yield from _statement_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _statement_paths(value, path + (i,))


def _node(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _names(raw):
    """The names a statement of ``raw`` may give, and two it may not."""
    return [*raw.get("annotations", ()), "nowhere", "lcd.x.y",
            *(f"{d['name']}.{a}" for d in raw.get("devices", ())
              for a in d.get("accesses", ()))]


_STMT_PATHS = {name: list(_statement_paths(raw))
               for name, raw in _STMT_RAW.items()}
_HEAD_KEYS = ["compute", "call", "bfm", "loop", "service", "device", "count"]
_ODD_KEYS = [*_HEAD_KEYS, "body", "timeout", "sem", "task", "as", "ref",
             "addr", "value", "access", "mode", "clear", "payload"]
_ODD_VALUES = [None, True, False, 0, -1, 3, 1.5, "", "x", "forever", "and",
               [], [{"compute": "x"}], {}, {"a": 1}]


@st.composite
def _statement_mutants(draw):
    """(text name, ((path, statement),)): one statement of a text with
    its head key swapped, one key dropped or added, one value of the
    wrong type, or one reference renamed."""
    name = draw(st.sampled_from(sorted(_STMT_RAW)))
    path = draw(st.sampled_from(_STMT_PATHS[name]))
    stmt = dict(_node(_STMT_RAW[name], path))
    key = draw(st.sampled_from(list(stmt)))
    how = draw(st.sampled_from(["head", "drop", "add", "type", "rename"]))
    if how == "head":
        head = draw(st.sampled_from(_HEAD_KEYS))
        stmt = {head if k == key else k: v for k, v in stmt.items()}
    elif how == "drop":
        del stmt[key]
    elif how == "add":
        stmt[draw(st.sampled_from(_ODD_KEYS))] = draw(st.sampled_from(_ODD_VALUES))
    elif how == "type":
        stmt[key] = draw(st.sampled_from(_ODD_VALUES))
    elif isinstance(stmt[key], str):
        stmt[key] = draw(st.sampled_from(_names(_STMT_RAW[name])))
    else:
        stmt[key] = draw(st.integers(0, 4))
    return name, ((path, stmt),)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutant=_statement_mutants())
@example(mutant=("demo", ((("tasks", 0, "behavior", 0),
                           {"loop": 3, "body": [{"compute": "render_frame"}]}),)))
@example(mutant=("demo", ((("devices", 0, "name"), "io.a"),
                          (("tasks", 0, "behavior", 0, "body", 2),
                           {"device": "io.a", "access": "frame_out"}))))
def test_a_statement_mutant_that_parses_round_trips_and_runs(mutant):
    name, edits = mutant
    raw = copy.deepcopy(_STMT_RAW[name])
    for path, value in edits:
        _node(raw, path[:-1])[path[-1]] = value
    try:
        scn = parse_scenario_text(yaml.dump(raw, Dumper=_DUMPER,
                                            sort_keys=False))
    except ScenarioError:
        return
    assert parse_scenario_text(scenario_to_yaml(scn)) == scn
    kernel = build_kernel(scn)
    kernel.boot()
    try:
        kernel.run(scn.run_ticks)
    except SimError:
        pass


# ----------------------------------------------------------------------
# what a section-entry mutant does

_LEGAL_KINDS = {"handlers": tuple(scenario._HANDLER_KINDS),
                "devices": tuple(scenario._DEVICE_KINDS),
                "stimuli": tuple(STIMULUS_KINDS)}
_BAD_NAMES = ["a b", "x,y", "io.a", ""]


def _section_entries(raw):
    """(path, entry) of each entry of a list section of ``raw``."""
    for key in ("tasks", "handlers", "devices", "stimuli"):
        for i, entry in enumerate(raw.get(key) or ()):
            yield (key, i), entry
    for key, entries in (raw.get("objects") or {}).items():
        for i, entry in enumerate(entries):
            yield ("objects", key, i), entry


def _id_space(path):
    # thread ids are one namespace; each object kind is its own
    return ("threads",) if path[0] in ("tasks", "handlers") else path[:-1]


def _section_mutants(name):
    """(text name, path, value): one entry's name made another entry's (of
    its own section or another) or an invalid one, its kind made another
    legal kind, one of another section or an unknown one, or its id made
    a duplicate or an unused one.  A path into ``annotations`` renames
    that annotation."""
    raw = _RUN_RAW[name]
    entries = list(_section_entries(raw))
    names = {}   # section -> its names, annotations included
    ids = {}     # id namespace -> its ids
    for path, entry in entries:
        if "name" in entry:
            names.setdefault(path[0], []).append(entry["name"])
        if "id" in entry:
            ids.setdefault(_id_space(path), []).append(entry["id"])
    names["annotations"] = list(raw.get("annotations") or ())
    unused = 1 + max(i for space in ids.values() for i in space)
    firsts = [section[0] for section in names.values() if section]

    def renames(section, old):
        own = names[section]
        dup = own[(own.index(old) + 1) % len(own)]
        return dict.fromkeys(x for x in (dup, *firsts, *_BAD_NAMES) if x != old)

    for old in names["annotations"]:
        for new in renames("annotations", old):
            yield name, ("annotations", old), new
    for path, entry in entries:
        if "name" in entry:
            for new in renames(path[0], entry["name"]):
                yield name, path + ("name",), new
        legal = _LEGAL_KINDS.get(path[0])
        if legal:
            foreign = [k for key, kinds in _LEGAL_KINDS.items()
                       if key != path[0] for k in kinds[:1]]
            for new in (*legal, *foreign, "bogus"):
                if new != entry["kind"]:
                    yield name, path + ("kind",), new
        if "id" in entry:
            space = ids[_id_space(path)]
            dup = space[(space.index(entry["id"]) + 1) % len(space)]
            for new in dict.fromkeys((dup, unused)):
                if new != entry["id"]:
                    yield name, path + ("id",), new


_TOP_LEVEL_KEYS = ["name", "tick_us", "cycles_per_tick", "run_ticks",
                   "battery_wh", "svc_cost", "on_deadlock", "annotations",
                   "tasks", "handlers", "objects", "devices", "stimuli"]


def _top_level_mutants(name):
    """(text name, (key,), value): one top-level key, of those the file
    may have, set to null, a list, a mapping or another key's value."""
    raw = _RUN_RAW[name]
    for key in _TOP_LEVEL_KEYS:
        for value in (None, [1], {"a": 1},
                      *(v for other, v in raw.items() if other != key)):
            yield name, (key,), value


_SECTION_MUTANTS = [m for name in _RUN_TEXTS
                    for m in (*_section_mutants(name), *_top_level_mutants(name))]


@settings(max_examples=45, deadline=None, derandomize=True)
@given(mutant=st.sampled_from(_SECTION_MUTANTS))
@example(mutant=("demo", ("tasks",), None))
@example(mutant=("demo", ("objects",), [1]))
@example(mutant=("demo", ("on_deadlock",), {"a": 1}))
@example(mutant=("steady", ("tick_us",), _RUN_RAW["steady"]["run_ticks"]))
@example(mutant=("demo", ("battery_wh",), _RUN_RAW["demo"]["run_ticks"]))
def test_a_section_mutant_that_parses_round_trips_and_runs(mutant):
    name, path, value = mutant
    raw = copy.deepcopy(_RUN_RAW[name])
    if path[0] == "annotations" and len(path) == 2:
        raw["annotations"] = {value if k == path[1] else k: v
                              for k, v in raw["annotations"].items()}
    else:   # a copy: a value of another key must not become a YAML alias
        _node(raw, path[:-1])[path[-1]] = copy.deepcopy(value)
    try:
        scn = parse_scenario_text(yaml.dump(raw, Dumper=_DUMPER,
                                            sort_keys=False))
    except ScenarioError:
        return
    assert parse_scenario_text(scenario_to_yaml(scn)) == scn
    kernel = build_kernel(scn)
    kernel.boot()
    try:
        kernel.run(scn.run_ticks)
    except SimError:
        pass
