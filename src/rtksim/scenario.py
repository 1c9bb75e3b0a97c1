"""Scenario files: parsing, validation, serialization, kernel wiring.

A scenario is one YAML document that fully determines a run: timing
constants, the thread roster with behavior programs, kernel objects,
devices, scripted stimuli, run length, and the battery.  Validation
reports every problem it can find in one pass, each tagged with the
source line, so a broken file is fixed in one round.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

import yaml

from . import behavior
from .bfm import (
    AccessSpec,
    DEVICE_KINDS,
    KIND_INTC,
    KIND_MEMORY,
    KIND_PARALLEL,
    KIND_RTC,
    KIND_SERIAL,
    _OPS_BY_KIND,
)
from .engine import Annotation
from .errors import ScenarioError
from .kernel import (
    Kernel,
    Stimulus,
    USER_PRIORITY_MAX,
    USER_PRIORITY_MIN,
)

__all__ = [
    "Scenario",
    "TaskSpec",
    "HandlerSpec",
    "DeviceSpec",
    "parse_scenario_text",
    "load_scenario",
    "scenario_to_yaml",
    "save_scenario",
    "build_kernel",
    "demo_scenario_path",
]

_NAME_KEYS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"

# Microjoules per watt-hour; battery capacities stay exact integers.
_UJ_PER_WH = 3_600_000_000


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _valid_name(v) -> bool:
    return (
        isinstance(v, str)
        and v != ""
        and all(c in _NAME_KEYS for c in v)
    )


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    name: str
    priority: int           # 0 for the idle entry
    behavior: tuple         # empty for the idle entry
    idle: bool = False
    extended_info: int = 0


@dataclass(frozen=True)
class HandlerSpec:
    thread_id: int
    name: str
    kind: str               # "cyclic" | "alarm" | "isr"
    behavior: tuple
    period: int = 0
    phase: int = 0
    offset: int = 0
    device: str = ""        # isr: interrupt controller name
    line: int = 0
    extended_info: int = 0


@dataclass(frozen=True)
class ObjectSpec:
    kind: str
    obj_id: int
    params: tuple           # sorted (key, value) pairs
    extended_info: int = 0


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    kind: str
    accesses: tuple         # AccessSpec rows, declaration order
    options: tuple          # sorted (key, value) pairs


@dataclass(frozen=True)
class Scenario:
    name: str
    tick_us: int
    cycles_per_tick: int
    run_ticks: int
    battery_uj: int | None
    svc_etm: int
    svc_eem_uj: int
    abort_on_deadlock: bool
    annotations: tuple      # Annotation rows
    tasks: tuple
    handlers: tuple
    objects: tuple          # ObjectSpec rows
    devices: tuple
    stimuli: tuple

    def annotation_table(self) -> dict:
        return {a.label: a for a in self.annotations}

    @property
    def idle_task(self):
        for t in self.tasks:
            if t.idle:
                return t
        return None


# ----------------------------------------------------------------------
# YAML loading with line positions

def _index_node(node, path, lines, problems, seen):
    if id(node) in seen:
        # aliases would let one node validate at two paths; refuse up front
        problems.append((path, "YAML aliases are not supported"))
        return
    seen.add(id(node))
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        keys = set()
        for k_node, v_node in node.value:
            key = k_node.value
            if key in keys:
                problems.append((path + (key,), f"duplicate key '{key}'"))
            keys.add(key)
            lines.setdefault(path + (key,), k_node.start_mark.line + 1)
            _index_node(v_node, path + (key,), lines, problems, seen)
    elif isinstance(node, yaml.SequenceNode):
        for i, item in enumerate(node.value):
            _index_node(item, path + (i,), lines, problems, seen)


class _Source:
    """Parsed YAML data plus a path -> line map for error locations."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.problems: list = []
        self.lines: dict = {}
        loader = yaml.SafeLoader(text)  # one pass: compose, index, construct
        try:
            node = loader.get_single_node()
            if node is not None:  # index first: construction rewrites merge keys
                _index_node(node, (), self.lines, self.problems, set())
            self.data = None if node is None else loader.construct_document(node)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = (mark.line + 1) if mark else 1
            raise ScenarioError(
                [(f"{filename}:{line}", f"not valid YAML: {exc}")]
            ) from None
        finally:
            loader.dispose()

    def locate(self, path) -> str:
        while path and path not in self.lines:
            path = path[:-1]
        line = self.lines.get(path, 1)
        return f"{self.filename}:{line}"

    def problem(self, path, message):
        self.problems.append((path, message))

    def raise_if_failed(self):
        if self.problems:
            raise ScenarioError(
                [(self.locate(p), m) for p, m in self.problems]
            )


def _parse_energy_mj(src, value, path):
    """Millijoule figure -> integer microjoules.  Finer than 1 uJ is rejected."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            uj = Decimal(str(value)) * 1000
        except InvalidOperation:
            uj = None
        if uj is not None and uj.is_finite() and uj == int(uj) and uj >= 0:
            return int(uj)
    src.problem(path, "energy must be a millijoule figure no finer than 0.001")
    return None


def _get_map(src, raw, path, *, required=False):
    if raw is None and not required:
        return {}
    if not isinstance(raw, dict):
        src.problem(path, "expected a mapping")
        return None
    return raw


def _get_list(src, raw, path, *, required=False):
    if raw is None and not required:
        return []
    if not isinstance(raw, list):
        src.problem(path, "expected a list")
        return None
    return raw


def _get_int(src, raw, path, key, *, default=None, minimum=None, required=False):
    if key not in raw or raw[key] is None:
        if required:
            src.problem(path, f"missing '{key}'")
            return None
        return default
    v = raw[key]
    if not _is_int(v) or (minimum is not None and v < minimum):
        low = f" >= {minimum}" if minimum is not None else ""
        src.problem(path + (key,), f"'{key}' must be an integer{low}")
        return None
    return v


def _get_name(src, raw, path, key, *, default=None, required=False):
    if key not in raw:
        if required:
            src.problem(path, f"missing '{key}'")
            return None
        return default
    v = raw[key]
    if not _valid_name(v):
        src.problem(path + (key,),
                    f"'{key}' must use letters, digits, '_', '.', '-'")
        return None
    return v


def _reject_extras(src, raw, path, allowed):
    for key in raw:
        if key not in allowed:
            src.problem(path + (key,), f"unknown key '{key}'")


# ----------------------------------------------------------------------
# section parsers

def _parse_annotations(src, raw):
    table = _get_map(src, raw, ("annotations",))
    if table is None:
        return ()
    out = []
    for label, spec in table.items():
        path = ("annotations", label)
        if not _valid_name(label):
            src.problem(path, "annotation labels use letters, digits, '_', '.', '-'")
            continue
        spec = _get_map(src, spec, path, required=True)
        if spec is None:
            continue
        _reject_extras(src, spec, path, {"etm", "eem"})
        etm = _get_int(src, spec, path, "etm", minimum=0, required=True)
        eem = _parse_energy_mj(src, spec.get("eem", 0), path + ("eem",))
        if etm is None or eem is None:
            continue
        out.append(Annotation(label, etm, eem))
    return tuple(out)


def _parse_tasks(src, raw, *, handler_ids):
    entries = _get_list(src, raw, ("tasks",), required=True)
    if entries is None:
        return ()
    out = []
    seen_ids = set()
    idle_seen = False
    for i, entry in enumerate(entries):
        path = ("tasks", i)
        entry = _get_map(src, entry, path, required=True)
        if entry is None:
            continue
        _reject_extras(src, entry, path,
                       {"id", "name", "priority", "behavior", "idle",
                        "extended_info"})
        tid = _get_int(src, entry, path, "id", minimum=1, required=True)
        name = _get_name(src, entry, path, "name", required=True)
        ext = _get_int(src, entry, path, "extended_info", minimum=0, default=0)
        idle = entry.get("idle", False)
        if not isinstance(idle, bool):
            src.problem(path + ("idle",), "'idle' must be true or false")
            continue
        if tid is None or name is None or ext is None:
            continue
        if tid in seen_ids or tid in handler_ids:
            src.problem(path + ("id",), f"thread id {tid} declared twice")
            continue
        seen_ids.add(tid)
        if idle:
            if idle_seen:
                src.problem(path, "only one idle task entry is allowed")
                continue
            idle_seen = True
            for key in ("priority", "behavior"):
                if key in entry:
                    src.problem(path + (key,),
                                f"the idle task's '{key}' is implicit")
            out.append(TaskSpec(tid, name, 0, (), idle=True,
                                extended_info=ext))
            continue
        prio = _get_int(src, entry, path, "priority",
                        minimum=USER_PRIORITY_MIN, required=True)
        if prio is not None and prio > USER_PRIORITY_MAX:
            src.problem(path + ("priority",),
                        f"priority must be in {USER_PRIORITY_MIN}.."
                        f"{USER_PRIORITY_MAX}")
            prio = None
        stmts = None
        if "behavior" not in entry:
            src.problem(path, "missing 'behavior'")
        else:
            stmts = behavior.parse_program(
                entry["behavior"], path + ("behavior",), src.problems)
        if prio is None or stmts is None:
            continue
        out.append(TaskSpec(tid, name, prio, stmts, extended_info=ext))
    return tuple(out)


_HANDLER_KEYS = {
    "cyclic": {"id", "name", "kind", "period", "phase", "behavior",
               "extended_info"},
    "alarm": {"id", "name", "kind", "offset", "behavior", "extended_info"},
    "isr": {"id", "name", "kind", "device", "line", "behavior",
            "extended_info"},
}


def _parse_handlers(src, raw):
    entries = _get_list(src, raw, ("handlers",))
    if entries is None:
        return (), set()
    out = []
    ids = set()
    for i, entry in enumerate(entries):
        path = ("handlers", i)
        entry = _get_map(src, entry, path, required=True)
        if entry is None:
            continue
        kind = entry.get("kind")
        if kind not in _HANDLER_KEYS:
            src.problem(path, "handler kind must be cyclic, alarm, or isr")
            continue
        _reject_extras(src, entry, path, _HANDLER_KEYS[kind])
        tid = _get_int(src, entry, path, "id", minimum=1, required=True)
        name = _get_name(src, entry, path, "name", required=True)
        ext = _get_int(src, entry, path, "extended_info", minimum=0, default=0)
        stmts = None
        if "behavior" not in entry:
            src.problem(path, "missing 'behavior'")
        else:
            stmts = behavior.parse_program(
                entry["behavior"], path + ("behavior",), src.problems,
                handler=True)
        period = phase = offset = line = 0
        device = ""
        ok = True
        if kind == "cyclic":
            period = _get_int(src, entry, path, "period", minimum=1,
                              required=True)
            phase = _get_int(src, entry, path, "phase", minimum=0, default=0)
            ok = period is not None and phase is not None
            period = period or 0
            phase = phase or 0
        elif kind == "alarm":
            offset = _get_int(src, entry, path, "offset", minimum=1,
                              required=True)
            ok = offset is not None
            offset = offset or 0
        else:
            device = _get_name(src, entry, path, "device", required=True)
            line = _get_int(src, entry, path, "line", minimum=0, default=0)
            ok = device is not None and line is not None
            device = device or ""
            line = line or 0
        if tid is None or name is None or ext is None or stmts is None or not ok:
            continue
        if tid in ids:
            src.problem(path + ("id",), f"thread id {tid} declared twice")
            continue
        ids.add(tid)
        out.append(HandlerSpec(tid, name, kind, stmts, period=period,
                               phase=phase, offset=offset, device=device,
                               line=line, extended_info=ext))
    return tuple(out), ids


# Object sections: YAML key -> (kind, required params, optional params).
# Param kinds reuse the small integer checks above.
_OBJECT_SECTIONS = {
    "semaphores": ("semaphore",
                   (("initial", 0),),
                   (("max", 1),)),
    "flags": ("flag", (), (("initial", 0),)),
    "mutexes": ("mutex", (), ()),
    "mailboxes": ("mailbox", (), ()),
    "buffers": ("buffer", (("capacity", 1),), ()),
    "fixed_pools": ("fixed_pool",
                    (("blocks", 1), ("block_size", 1)),
                    ()),
    "variable_pools": ("variable_pool", (("size", 1),), ()),
}


def _parse_objects(src, raw):
    sections = _get_map(src, raw, ("objects",))
    if sections is None:
        return ()
    out = []
    _reject_extras(src, sections, ("objects",), set(_OBJECT_SECTIONS))
    for key, (kind, required, optional) in _OBJECT_SECTIONS.items():
        entries = _get_list(src, sections.get(key), ("objects", key))
        if entries is None:
            continue
        seen = set()
        allowed = {"id", "extended_info"}
        allowed.update(k for k, _ in required)
        allowed.update(k for k, _ in optional)
        for i, entry in enumerate(entries):
            path = ("objects", key, i)
            entry = _get_map(src, entry, path, required=True)
            if entry is None:
                continue
            _reject_extras(src, entry, path, allowed)
            oid = _get_int(src, entry, path, "id", minimum=1, required=True)
            ext = _get_int(src, entry, path, "extended_info", minimum=0,
                           default=0)
            params = []
            ok = oid is not None and ext is not None
            for pkey, minimum in required:
                val = _get_int(src, entry, path, pkey, minimum=minimum,
                               required=True)
                if val is None:
                    ok = False
                else:
                    params.append((pkey, val))
            for pkey, minimum in optional:
                if pkey in entry:
                    val = _get_int(src, entry, path, pkey, minimum=minimum)
                    if val is None:
                        ok = False
                    else:
                        params.append((pkey, val))
            if not ok:
                continue
            if oid in seen:
                src.problem(path + ("id",), f"{kind} id {oid} declared twice")
                continue
            seen.add(oid)
            out.append(ObjectSpec(kind, oid, tuple(sorted(params)),
                                  extended_info=ext))
    return tuple(out)


_DEVICE_OPTIONS = {
    KIND_MEMORY: {"size": 1, "width": 1},
    KIND_SERIAL: {"capacity": 1},
    KIND_PARALLEL: {},
    KIND_INTC: {"lines": 1},
    KIND_RTC: {},
}


def _parse_devices(src, raw):
    entries = _get_list(src, raw, ("devices",))
    if entries is None:
        return ()
    out = []
    seen = set()
    for i, entry in enumerate(entries):
        path = ("devices", i)
        entry = _get_map(src, entry, path, required=True)
        if entry is None:
            continue
        name = _get_name(src, entry, path, "name", required=True)
        kind = entry.get("kind")
        if kind not in DEVICE_KINDS:
            src.problem(path, f"device kind must be one of: "
                              f"{', '.join(sorted(DEVICE_KINDS))}")
            continue
        opt_spec = _DEVICE_OPTIONS[kind]
        _reject_extras(src, entry, path,
                       {"name", "kind", "accesses"} | set(opt_spec))
        options = []
        ok = name is not None
        for okey, minimum in opt_spec.items():
            if okey in entry:
                val = _get_int(src, entry, path, okey, minimum=minimum)
                if val is None:
                    ok = False
                else:
                    options.append((okey, val))
        acc_map = _get_map(src, entry.get("accesses"), path + ("accesses",))
        accesses = []
        if acc_map is None:
            ok = False
        else:
            ops = _OPS_BY_KIND[kind]
            for aname, aspec in acc_map.items():
                apath = path + ("accesses", aname)
                if not _valid_name(aname):
                    src.problem(apath, "access names use letters, digits, "
                                       "'_', '.', '-'")
                    continue
                aspec = _get_map(src, aspec, apath, required=True)
                if aspec is None:
                    continue
                _reject_extras(src, aspec, apath, {"op", "cycles", "eem"})
                op = aspec.get("op")
                if op not in ops:
                    legal = ", ".join(ops) if ops else "none"
                    src.problem(apath, f"op for a {kind} device must be: {legal}")
                    continue
                cycles = _get_int(src, aspec, apath, "cycles", minimum=0,
                                  default=0)
                eem = _parse_energy_mj(src, aspec.get("eem", 0),
                                       apath + ("eem",))
                if cycles is None or eem is None:
                    continue
                accesses.append(AccessSpec(aname, op, cycles, eem))
        if not ok:
            continue
        if name in seen:
            src.problem(path + ("name",), f"device '{name}' declared twice")
            continue
        seen.add(name)
        out.append(DeviceSpec(name, kind, tuple(accesses),
                              tuple(sorted(options))))
    return tuple(out)


def _parse_stimuli(src, raw):
    entries = _get_list(src, raw, ("stimuli",))
    if entries is None:
        return ()
    out = []
    for i, entry in enumerate(entries):
        path = ("stimuli", i)
        entry = _get_map(src, entry, path, required=True)
        if entry is None:
            continue
        kind = entry.get("kind")
        if kind not in ("irq", "pio_set", "serial_in"):
            src.problem(path, "stimulus kind must be irq, pio_set, or serial_in")
            continue
        allowed = {"tick", "kind", "device"}
        allowed.add("line" if kind == "irq" else "value")
        _reject_extras(src, entry, path, allowed)
        tick = _get_int(src, entry, path, "tick", minimum=1, required=True)
        device = _get_name(src, entry, path, "device", required=True)
        line = _get_int(src, entry, path, "line", minimum=0, default=0)
        value = _get_int(src, entry, path, "value", minimum=0, default=0)
        if None in (tick, device, line, value):
            continue
        if kind != "irq" and not 0 <= value <= 0xFF:
            src.problem(path + ("value",), "'value' must be a byte (0..255)")
            continue
        out.append(Stimulus(tick, kind, device, line, value))
    return tuple(out)


# ----------------------------------------------------------------------
# cross-reference checks

_OBJ_REF_FIELDS = {
    "sem": "semaphore",
    "flag": "flag",
    "mutex": "mutex",
    "mailbox": "mailbox",
    "buffer": "buffer",
}

_POOL_SERVICES = {
    "pool_get": "fixed_pool",
    "pool_rel": "fixed_pool",
    "vpool_get": "variable_pool",
    "vpool_rel": "variable_pool",
}


def _check_program_refs(src, stmts, path, scn_parts):
    (labels, task_ids, objects, devices, buffers) = scn_parts
    for sub, st in behavior.iter_statements(stmts):
        here = path + sub
        if isinstance(st, behavior.Compute):
            if st.label not in labels:
                src.problem(here, f"no annotation named '{st.label}'")
        elif isinstance(st, behavior.Call):
            args = dict(st.args)
            for field_name, kind in _OBJ_REF_FIELDS.items():
                if field_name in args and (kind, args[field_name]) not in objects:
                    src.problem(
                        here, f"no {kind} with id {args[field_name]}")
            if st.service in _POOL_SERVICES:
                kind = _POOL_SERVICES[st.service]
                if (kind, args["pool"]) not in objects:
                    src.problem(here, f"no {kind} with id {args['pool']}")
            if st.service in ("wakeup", "start") and args["task"] not in task_ids:
                src.problem(here, f"no task with id {args['task']}")
            if st.service == "mbf_send":
                cap = buffers.get(args["buffer"])
                if cap is not None:
                    size = len(args["payload"].encode("utf-8"))
                    if size > cap:
                        src.problem(
                            here,
                            f"payload is {size} bytes; buffer "
                            f"{args['buffer']} holds {cap}")
        elif isinstance(st, behavior.Bfm):
            dev = devices.get(st.device)
            if dev is None:
                src.problem(here, f"no device named '{st.device}'")
            elif st.access not in {a.name for a in dev.accesses}:
                src.problem(
                    here, f"device '{st.device}' has no access "
                          f"'{st.access}'")


def _cross_check(src, scn: Scenario):
    labels = {a.label for a in scn.annotations}
    task_ids = {t.task_id for t in scn.tasks}
    objects = {(o.kind, o.obj_id) for o in scn.objects}
    devices = {d.name: d for d in scn.devices}
    buffers = {
        o.obj_id: dict(o.params)["capacity"]
        for o in scn.objects if o.kind == "buffer"
    }
    parts = (labels, task_ids, objects, devices, buffers)

    for i, t in enumerate(scn.tasks):
        if not t.idle:
            _check_program_refs(src, t.behavior, ("tasks", i, "behavior"), parts)
    isr_bound = set()
    for i, h in enumerate(scn.handlers):
        _check_program_refs(src, h.behavior, ("handlers", i, "behavior"), parts)
        if h.kind != "isr":
            continue
        path = ("handlers", i)
        dev = devices.get(h.device)
        if dev is None or dev.kind != KIND_INTC:
            src.problem(path + ("device",),
                        f"'{h.device}' is not an interrupt controller")
            continue
        lines = dict(dev.options).get("lines", 8)
        if h.line >= lines:
            src.problem(path + ("line",),
                        f"line {h.line} is outside 0..{lines - 1}")
        elif (h.device, h.line) in isr_bound:
            src.problem(path + ("line",),
                        f"line {h.line} of '{h.device}' is bound twice")
        else:
            isr_bound.add((h.device, h.line))

    for i, st in enumerate(scn.stimuli):
        path = ("stimuli", i)
        dev = devices.get(st.device)
        if dev is None:
            src.problem(path + ("device",), f"no device named '{st.device}'")
            continue
        if st.kind == "irq":
            if dev.kind != KIND_INTC:
                src.problem(path + ("device",),
                            f"'{st.device}' is not an interrupt controller")
            elif (st.device, st.line) not in isr_bound:
                src.problem(path + ("line",),
                            f"no handler is bound to line {st.line} "
                            f"of '{st.device}'")
        elif st.kind == "pio_set" and dev.kind != KIND_PARALLEL:
            src.problem(path + ("device",), f"'{st.device}' is not parallel I/O")
        elif st.kind == "serial_in" and dev.kind != KIND_SERIAL:
            src.problem(path + ("device",), f"'{st.device}' is not serial I/O")


# ----------------------------------------------------------------------
# entry points

_TOP_KEYS = {
    "name", "tick_us", "cycles_per_tick", "run_ticks", "battery_wh",
    "svc_cost", "on_deadlock", "annotations", "tasks", "handlers",
    "objects", "devices", "stimuli",
}


def parse_scenario_text(text: str, filename: str = "<scenario>") -> Scenario:
    """Parse and validate; raises ScenarioError listing every problem found."""
    src = _Source(text, filename)
    raw = src.data
    if not isinstance(raw, dict):
        raise ScenarioError(
            [(f"{filename}:1", "a scenario is a mapping of sections")])
    _reject_extras(src, raw, (), _TOP_KEYS)

    name = _get_name(src, raw, (), "name", default="scenario")
    tick_us = _get_int(src, raw, (), "tick_us", minimum=1, default=1000)
    cpt = _get_int(src, raw, (), "cycles_per_tick", minimum=1, default=12000)
    run_ticks = _get_int(src, raw, (), "run_ticks", minimum=1, required=True)

    battery_uj = None
    if raw.get("battery_wh") is not None:
        v = raw["battery_wh"]
        uj = None
        if isinstance(v, (int, float, str)) and not isinstance(v, bool):
            try:
                uj = Decimal(str(v)) * _UJ_PER_WH
            except InvalidOperation:
                uj = None
        if uj is None or not uj.is_finite() or uj != int(uj) or uj <= 0:
            src.problem(("battery_wh",),
                        "battery_wh must be a positive watt-hour figure")
        else:
            battery_uj = int(uj)

    svc_etm, svc_eem = 1, 0
    svc = _get_map(src, raw.get("svc_cost"), ("svc_cost",))
    if svc:
        _reject_extras(src, svc, ("svc_cost",), {"etm", "eem"})
        svc_etm = _get_int(src, svc, ("svc_cost",), "etm", minimum=0, default=1)
        svc_eem = _parse_energy_mj(src, svc.get("eem", 0), ("svc_cost", "eem"))

    abort = True
    if "on_deadlock" in raw:
        if raw["on_deadlock"] not in ("abort", "report"):
            src.problem(("on_deadlock",),
                        "on_deadlock must be \"abort\" or \"report\"")
        else:
            abort = raw["on_deadlock"] == "abort"

    annotations = _parse_annotations(src, raw.get("annotations"))
    handlers, handler_ids = _parse_handlers(src, raw.get("handlers"))
    tasks = _parse_tasks(src, raw.get("tasks"), handler_ids=handler_ids)
    objects = _parse_objects(src, raw.get("objects"))
    devices = _parse_devices(src, raw.get("devices"))
    stimuli = _parse_stimuli(src, raw.get("stimuli"))

    if not any(not t.idle for t in tasks) and not src.problems:
        src.problem(("tasks",), "at least one non-idle task is required")

    scn = Scenario(
        name=name or "scenario",
        tick_us=tick_us or 1000,
        cycles_per_tick=cpt or 12000,
        run_ticks=run_ticks or 1,
        battery_uj=battery_uj,
        svc_etm=1 if svc_etm is None else svc_etm,
        svc_eem_uj=0 if svc_eem is None else svc_eem,
        abort_on_deadlock=abort,
        annotations=annotations,
        tasks=tasks,
        handlers=handlers,
        objects=objects,
        devices=devices,
        stimuli=stimuli,
    )
    _cross_check(src, scn)
    src.raise_if_failed()
    return scn


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, filename=str(path))


def demo_scenario_path() -> Path:
    """Filesystem path of the bundled watch-demo scenario."""
    return Path(__file__).resolve().parent / "scenarios" / "demo.yaml"


# ----------------------------------------------------------------------
# serialization (round-trips through parse_scenario_text)

def _energy_raw(uj: int):
    if uj % 1000 == 0:
        return uj // 1000
    mj = Decimal(uj) / 1000
    return format(mj.normalize(), "f")


def scenario_to_raw(scn: Scenario) -> dict:
    raw = {
        "name": scn.name,
        "tick_us": scn.tick_us,
        "cycles_per_tick": scn.cycles_per_tick,
        "run_ticks": scn.run_ticks,
    }
    if scn.battery_uj is not None:
        wh = Decimal(scn.battery_uj) / _UJ_PER_WH
        raw["battery_wh"] = (int(wh) if wh == int(wh)
                             else format(wh.normalize(), "f"))
    raw["svc_cost"] = {"etm": scn.svc_etm, "eem": _energy_raw(scn.svc_eem_uj)}
    if not scn.abort_on_deadlock:
        raw["on_deadlock"] = "report"
    if scn.annotations:
        raw["annotations"] = {
            a.label: {"etm": a.etm, "eem": _energy_raw(a.eem_uj)}
            for a in scn.annotations
        }
    tasks = []
    for t in scn.tasks:
        entry = {"id": t.task_id, "name": t.name}
        if t.idle:
            entry["idle"] = True
        else:
            entry["priority"] = t.priority
            entry["behavior"] = behavior.program_to_raw(t.behavior)
        if t.extended_info:
            entry["extended_info"] = t.extended_info
        tasks.append(entry)
    raw["tasks"] = tasks
    if scn.handlers:
        handlers = []
        for h in scn.handlers:
            entry = {"id": h.thread_id, "name": h.name, "kind": h.kind}
            if h.kind == "cyclic":
                entry["period"] = h.period
                if h.phase:
                    entry["phase"] = h.phase
            elif h.kind == "alarm":
                entry["offset"] = h.offset
            else:
                entry["device"] = h.device
                entry["line"] = h.line
            if h.extended_info:
                entry["extended_info"] = h.extended_info
            entry["behavior"] = behavior.program_to_raw(h.behavior)
            handlers.append(entry)
        raw["handlers"] = handlers
    if scn.objects:
        sections = {}
        section_of = {kind: key for key, (kind, _, _) in
                      _OBJECT_SECTIONS.items()}
        for o in scn.objects:
            entry = {"id": o.obj_id}
            entry.update(dict(o.params))
            if o.extended_info:
                entry["extended_info"] = o.extended_info
            sections.setdefault(section_of[o.kind], []).append(entry)
        raw["objects"] = sections
    if scn.devices:
        devices = []
        for d in scn.devices:
            entry = {"name": d.name, "kind": d.kind}
            entry.update(dict(d.options))
            if d.accesses:
                entry["accesses"] = {
                    a.name: {"op": a.op, "cycles": a.cycles,
                             "eem": _energy_raw(a.eem_uj)}
                    for a in d.accesses
                }
            devices.append(entry)
        raw["devices"] = devices
    if scn.stimuli:
        rows = []
        for st in scn.stimuli:
            entry = {"tick": st.tick, "kind": st.kind, "device": st.device}
            if st.kind == "irq":
                entry["line"] = st.line
            else:
                entry["value"] = st.value
            rows.append(entry)
        raw["stimuli"] = rows
    return raw


def scenario_to_yaml(scn: Scenario) -> str:
    return yaml.safe_dump(scenario_to_raw(scn), sort_keys=False,
                          default_flow_style=False)


def save_scenario(scn: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_yaml(scn))


# ----------------------------------------------------------------------
# kernel wiring

def build_kernel(scn: Scenario, *, tick_us=None, abort_on_deadlock=None) -> Kernel:
    """Declare everything a validated scenario describes on a fresh kernel.

    The caller still boots and runs it, so sinks can be attached and the
    same scenario reused across runs.
    """
    idle = scn.idle_task
    kernel = Kernel(
        tick_us=scn.tick_us if tick_us is None else tick_us,
        cycles_per_tick=scn.cycles_per_tick,
        svc_etm=scn.svc_etm,
        svc_eem_uj=scn.svc_eem_uj,
        idle_id=idle.task_id if idle else None,
        idle_name=idle.name if idle else "IDLE",
        abort_on_deadlock=(scn.abort_on_deadlock if abort_on_deadlock is None
                           else abort_on_deadlock),
    )
    table = scn.annotation_table()

    for d in scn.devices:
        options = {
            ("out_capacity" if k == "capacity" else k): v
            for k, v in d.options
        }
        kernel.add_device(d.kind, d.name,
                          {a.name: a for a in d.accesses},
                          **options)
    for t in scn.tasks:
        if t.idle:
            continue
        kernel.declare_task(
            t.task_id, t.name, t.priority,
            behavior.build_factory(t.behavior, table),
            extended_info=t.extended_info,
        )
    for h in scn.handlers:
        body = behavior.build_factory(h.behavior, table, handler=True)
        if h.kind == "cyclic":
            kernel.declare_cyclic(h.thread_id, h.name, h.period, body,
                                  phase=h.phase, extended_info=h.extended_info)
        elif h.kind == "alarm":
            kernel.declare_alarm(h.thread_id, h.name, h.offset, body,
                                 extended_info=h.extended_info)
        else:
            kernel.declare_isr(h.thread_id, h.name, body,
                               extended_info=h.extended_info)
    for h in scn.handlers:
        if h.kind == "isr":
            kernel.attach_isr(h.device, h.line, h.thread_id)

    param_args = {
        "semaphore": lambda p: ((p["initial"],),
                                {"max_count": p["max"]} if "max" in p else {}),
        "flag": lambda p: ((), {"initial": p.get("initial", 0)}),
        "mutex": lambda p: ((), {}),
        "mailbox": lambda p: ((), {}),
        "buffer": lambda p: ((p["capacity"],), {}),
        "fixed_pool": lambda p: ((p["blocks"], p["block_size"]), {}),
        "variable_pool": lambda p: ((p["size"],), {}),
    }
    declare = {
        "semaphore": kernel.declare_semaphore,
        "flag": kernel.declare_flag,
        "mutex": kernel.declare_mutex,
        "mailbox": kernel.declare_mailbox,
        "buffer": kernel.declare_buffer,
        "fixed_pool": kernel.declare_fixed_pool,
        "variable_pool": kernel.declare_variable_pool,
    }
    for o in scn.objects:
        params = dict(o.params)
        args, kwargs = param_args[o.kind](params)
        declare[o.kind](o.obj_id, *args, extended_info=o.extended_info,
                        **kwargs)

    for st in scn.stimuli:
        kernel.add_stimulus(st.tick, st.kind, st.device,
                            line=st.line, value=st.value)
    return kernel
