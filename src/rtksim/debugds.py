"""Kernel state introspection rendered as a fixed textual listing.

A snapshot is taken between engine steps and never perturbs the run.  The
listing layout is golden-tested byte for byte, and parse_listing inverts
dump_listing exactly, so snapshots can be archived as text and compared
structurally later.

Run-time figures are labeled in milliseconds, which is literal at the
default 1 ms tick; any other resolution adds a header line naming the tick
length, and the figures stay in ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ThreadState
from .errors import NotFoundError, ValidationError

__all__ = [
    "DsTask",
    "DsObject",
    "DsSection",
    "DsSnapshot",
    "take_snapshot",
    "ref_task",
    "ref_object",
    "dump_listing",
    "parse_listing",
]

_STATE_CODES = {
    ThreadState.NON_EXISTENT: "NON",
    ThreadState.DORMANT: "DMT",
    ThreadState.READY: "RDY",
    ThreadState.RUNNING: "RUN",
    ThreadState.WAITING: "WAI",
    ThreadState.SUSPENDED: "SUS",
    ThreadState.WAITING_SUSPENDED: "WAS",
}
_CODE_STATES = {v: k for k, v in _STATE_CODES.items()}

_TASK_FIELD_WIDTH = 38   # fits "Cumulative System Level Run Time (ms)"
_STAT_FIELD_WIDTH = 36   # fits "Message Buffer Extended Information"

_WAIT_LINE = "  > Wait Disabled Released ..."
_SEPARATOR = "  [*****]"


@dataclass(frozen=True)
class DsTask:
    task_id: int
    extended_info: int
    current_priority: int
    base_priority: int
    state: str               # three-letter code, RUN/RDY/WAI/...
    wakeup_count: int
    suspend_nesting: int
    max_run: int             # longest single Running streak, ticks
    raised_event: int
    sys_run: int             # ticks spent in SVC context
    user_run: int            # all remaining consumed ticks


@dataclass(frozen=True)
class DsObject:
    obj_id: int
    stats: tuple             # ((label, value), ...) in listing order


@dataclass(frozen=True)
class DsSection:
    title: str               # "Semaphore"
    plural: str              # "Semaphores"
    entries: tuple


@dataclass(frozen=True)
class DsSnapshot:
    tick: int
    tick_us: int
    tasks: tuple
    sections: tuple


def _hex_label(label: str) -> bool:
    return label.endswith("Extended Information") or label == "Current Flag Pattern"


# ----------------------------------------------------------------------
# snapshot construction

def _task_record(kernel, th) -> DsTask:
    tcb = kernel.tcb[th.id]
    sys_run = th.svc_ticks
    return DsTask(
        task_id=th.id,
        extended_info=tcb.extended_info,
        current_priority=th.current_priority,
        base_priority=th.base_priority,
        state=_STATE_CODES[th.state],
        wakeup_count=tcb.wakeup_count,
        suspend_nesting=tcb.suspend_nesting,
        max_run=th.max_streak,
        raised_event=tcb.raised_event,
        sys_run=sys_run,
        user_run=th.token.cet - sys_run,
    )


def _object_stats(kind: str, obj) -> tuple:
    if kind == "semaphore":
        return (
            ("Semaphore Extended Information", obj.extended_info),
            ("Current Semaphore Count", obj.count),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "flag":
        return (
            ("Event Flag Extended Information", obj.extended_info),
            ("Current Flag Pattern", obj.pattern),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "mutex":
        return (
            ("Mutex Extended Information", obj.extended_info),
            ("Current Owner Task ID", obj.owner or 0),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "mailbox":
        return (
            ("Mailbox Extended Information", obj.extended_info),
            ("No. of Queued Messages", obj.message_count),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "buffer":
        return (
            ("Message Buffer Extended Information", obj.extended_info),
            ("Free Buffer Size (bytes)", obj.free_bytes),
            ("No. of Queued Messages", obj.message_count),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "fixed_pool":
        return (
            ("Fixed Pool Extended Information", obj.extended_info),
            ("No. of Free Blocks", obj.free_count),
            ("Max. Used Block Count", obj.max_used),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    if kind == "variable_pool":
        return (
            ("Variable Pool Extended Information", obj.extended_info),
            ("Free Pool Size (bytes)", obj.size - obj.used_bytes),
            ("Max. Used Pool Size (bytes)", obj.max_used),
            ("No. of Waiting Tasks", obj.waiting_count),
        )
    raise NotFoundError(f"no object class named {kind!r}")


# listing order is fixed; every class appears even when empty
_SECTIONS = (
    ("semaphore", "Semaphore", "Semaphores", "semaphores"),
    ("flag", "Event Flag", "Event Flags", "flags"),
    ("mutex", "Mutex", "Mutexes", "mutexes"),
    ("mailbox", "Mailbox", "Mailboxes", "mailboxes"),
    ("buffer", "Message Buffer", "Message Buffers", "buffers"),
    ("fixed_pool", "Fixed Pool", "Fixed Pools", "fixed_pools"),
    ("variable_pool", "Variable Pool", "Variable Pools", "variable_pools"),
)


def ref_task(kernel, task_id: int) -> DsTask:
    """Copy one thread's control-block view; read-only."""
    if kernel.engine is None or task_id not in kernel.tcb:
        raise NotFoundError(f"no task with id {task_id}")
    return _task_record(kernel, kernel.engine.thread(task_id))


def ref_object(kernel, kind: str, obj_id: int) -> DsObject:
    registry = None
    for key, _title, _plural, attr in _SECTIONS:
        if key == kind:
            registry = getattr(kernel, attr)
    if registry is None:
        raise NotFoundError(f"no object class named {kind!r}")
    if obj_id not in registry:
        raise NotFoundError(f"no {kind} with id {obj_id}")
    return DsObject(obj_id, _object_stats(kind, registry[obj_id]))


def take_snapshot(kernel) -> DsSnapshot:
    eng = kernel.engine
    if eng is None:
        raise NotFoundError("kernel is not booted")
    tasks = tuple(
        _task_record(kernel, eng.thread(tid))
        for tid in sorted(t.id for t in eng.threads())
    )
    sections = []
    for kind, title, plural, attr in _SECTIONS:
        registry = getattr(kernel, attr)
        entries = tuple(
            DsObject(oid, _object_stats(kind, registry[oid]))
            for oid in sorted(registry)
        )
        sections.append(DsSection(title, plural, entries))
    return DsSnapshot(eng.now, kernel.tick_us, tasks, tuple(sections))


# ----------------------------------------------------------------------
# rendering

def _value_str(label: str, value: int) -> str:
    return f"{value:#010x}" if _hex_label(label) else str(value)


def dump_listing(snap: DsSnapshot) -> str:
    out = []
    out.append("Debug Support (DS)")
    out.append(f"Snapshot Tick : {snap.tick}")
    if snap.tick_us != 1000:
        out.append(f"Run Time Unit : tick ({snap.tick_us} us)")
    out.append(f"No. of Registered Tasks : {len(snap.tasks)}")

    def field(name, value, *, indent="  ", width=_TASK_FIELD_WIDTH):
        out.append(f"{indent}> {name:<{width}}= {value}")

    for idx, t in enumerate(snap.tasks, start=1):
        out.append(f"{idx}. Task ID : {t.task_id}")
        field("Task Extended Information", f"{t.extended_info:#010x}")
        field("Current Priority", t.current_priority)
        field("Base Priority", t.base_priority)
        field("Task State", t.state)
        out.append(_WAIT_LINE)
        field("Queued Wakeup Request Count", t.wakeup_count)
        field("Suspend Request Nesting Count", t.suspend_nesting)
        field("Max. Continuous Run Time (ms)", t.max_run)
        field("Raised Task Event", t.raised_event)
        field("Cumulative System Level Run Time (ms)", t.sys_run)
        field("Cumulative User Level Run Time (ms)", t.user_run)
        out.append(_SEPARATOR)

    for section in snap.sections:
        out.append(f"  ({section.title} Statistics)")
        out.append(f"  No. of Allocated {section.plural} : {len(section.entries)}")
        for idx, entry in enumerate(section.entries, start=1):
            out.append(f"  {idx}. {section.title} ID : {entry.obj_id}")
            for label, value in entry.stats:
                field(label, _value_str(label, value),
                      indent="    ", width=_STAT_FIELD_WIDTH)
            out.append(_SEPARATOR)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# parsing (exact inverse of dump_listing)

class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ValidationError("listing ended early")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def expect(self, literal: str):
        line = self.next()
        if line != literal:
            raise ValidationError(
                f"listing line {self.pos}: expected {literal!r}, got {line!r}")

    def fail(self, message: str):
        raise ValidationError(f"listing line {self.pos}: {message}")


def _parse_int(lines, text, what) -> int:
    try:
        return int(text)
    except ValueError:
        lines.fail(f"{what} is not an integer: {text!r}")


def _split_tag(lines, line, prefix, sep):
    if not line.startswith(prefix) or sep not in line:
        lines.fail(f"expected a {prefix!r} line, got {line!r}")
    _, _, tail = line.partition(sep)
    return tail


def _parse_field(lines, *, indent="  ") -> tuple:
    line = lines.next()
    head = indent + "> "
    if not line.startswith(head) or "= " not in line:
        lines.fail(f"expected a field line, got {line!r}")
    body = line[len(head):]
    name, _, value_text = body.rpartition("= ")
    name = name.rstrip()
    if _hex_label(name):
        try:
            value = int(value_text, 16)
        except ValueError:
            lines.fail(f"field {name!r} is not hexadecimal: {value_text!r}")
    elif name == "Task State":
        if value_text not in _CODE_STATES:
            lines.fail(f"unknown task state {value_text!r}")
        value = value_text
    else:
        value = _parse_int(lines, value_text, name)
    return name, value


def _parse_task_block(lines, idx) -> DsTask:
    line = lines.next()
    tag = f"{idx}. Task ID : "
    if not line.startswith(tag):
        lines.fail(f"expected {tag!r}..., got {line!r}")
    task_id = _parse_int(lines, line[len(tag):], "task id")

    order = [
        "Task Extended Information", "Current Priority", "Base Priority",
        "Task State",
    ]
    values = {}
    for expected in order:
        name, value = _parse_field(lines)
        if name != expected:
            lines.fail(f"expected field {expected!r}, got {name!r}")
        values[name] = value
    lines.expect(_WAIT_LINE)
    for expected in [
        "Queued Wakeup Request Count", "Suspend Request Nesting Count",
        "Max. Continuous Run Time (ms)", "Raised Task Event",
        "Cumulative System Level Run Time (ms)",
        "Cumulative User Level Run Time (ms)",
    ]:
        name, value = _parse_field(lines)
        if name != expected:
            lines.fail(f"expected field {expected!r}, got {name!r}")
        values[name] = value
    lines.expect(_SEPARATOR)
    return DsTask(
        task_id=task_id,
        extended_info=values["Task Extended Information"],
        current_priority=values["Current Priority"],
        base_priority=values["Base Priority"],
        state=values["Task State"],
        wakeup_count=values["Queued Wakeup Request Count"],
        suspend_nesting=values["Suspend Request Nesting Count"],
        max_run=values["Max. Continuous Run Time (ms)"],
        raised_event=values["Raised Task Event"],
        sys_run=values["Cumulative System Level Run Time (ms)"],
        user_run=values["Cumulative User Level Run Time (ms)"],
    )


def parse_listing(text: str) -> DsSnapshot:
    lines = _Lines(text)
    lines.expect("Debug Support (DS)")
    tick = _parse_int(
        lines, _split_tag(lines, lines.next(), "Snapshot Tick", " : "),
        "snapshot tick")
    tick_us = 1000
    peeked = lines.peek()
    if peeked is not None and peeked.startswith("Run Time Unit : tick ("):
        inner = lines.next()[len("Run Time Unit : tick ("):]
        if not inner.endswith(" us)"):
            lines.fail("malformed run time unit line")
        tick_us = _parse_int(lines, inner[:-len(" us)")], "tick length")
    count = _parse_int(
        lines,
        _split_tag(lines, lines.next(), "No. of Registered Tasks", " : "),
        "task count")

    tasks = tuple(_parse_task_block(lines, i + 1) for i in range(count))

    sections = []
    for _kind, title, plural, _attr in _SECTIONS:
        lines.expect(f"  ({title} Statistics)")
        n = _parse_int(
            lines,
            _split_tag(lines, lines.next(), f"  No. of Allocated {plural}", " : "),
            "object count")
        entries = []
        for i in range(n):
            line = lines.next()
            tag = f"  {i + 1}. {title} ID : "
            if not line.startswith(tag):
                lines.fail(f"expected {tag!r}..., got {line!r}")
            obj_id = _parse_int(lines, line[len(tag):], "object id")
            stats = []
            while lines.peek() is not None and lines.peek().startswith("    > "):
                stats.append(_parse_field(lines, indent="    "))
            lines.expect(_SEPARATOR)
            entries.append(DsObject(obj_id, tuple(stats)))
        sections.append(DsSection(title, plural, tuple(entries)))

    if lines.peek() not in (None, ""):
        lines.fail(f"unexpected trailing line {lines.peek()!r}")
    return DsSnapshot(tick, tick_us, tasks, tuple(sections))
