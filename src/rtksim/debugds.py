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
    ThreadState.DORMANT: "DMT",
    ThreadState.READY: "RDY",
    ThreadState.RUNNING: "RUN",
    ThreadState.WAITING: "WAI",
}
_CODE_STATES = {v: k for k, v in _STATE_CODES.items()}

_TASK_FIELD_WIDTH = 38   # fits "Cumulative System Level Run Time (ms)"
_STAT_FIELD_WIDTH = 36   # fits "Message Buffer Extended Information"

_WAIT_LINE = "  > Wait Disabled Released ..."
_SEPARATOR = "  [*****]"

# a task block's rows in listing order, (label, DsTask field); the wait
# line follows the task state
_TASK_ROWS = (
    ("Task Extended Information", "extended_info"),
    ("Current Priority", "current_priority"),
    ("Base Priority", "base_priority"),
    ("Task State", "state"),
    ("Queued Wakeup Request Count", "wakeup_count"),
    ("Suspend Request Nesting Count", "suspend_nesting"),
    ("Max. Continuous Run Time (ms)", "max_run"),
    ("Raised Task Event", "raised_event"),
    ("Cumulative System Level Run Time (ms)", "sys_run"),
    ("Cumulative User Level Run Time (ms)", "user_run"),
)


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
        suspend_nesting=0,   # no suspend/resume or task event services
        max_run=th.max_streak,
        raised_event=0,
        sys_run=sys_run,
        user_run=th.token.cet - sys_run,
    )


# listing order is fixed; every class appears even when empty.  A class's
# rows sit between its "<title> Extended Information" row and the
# "No. of Waiting Tasks" row.
_SECTIONS = (
    ("semaphore", "Semaphore", "Semaphores", "semaphores", (
        ("Current Semaphore Count", lambda o: o.count),
    )),
    ("flag", "Event Flag", "Event Flags", "flags", (
        ("Current Flag Pattern", lambda o: o.pattern),
    )),
    ("mutex", "Mutex", "Mutexes", "mutexes", (
        ("Current Owner Task ID", lambda o: o.owner or 0),
    )),
    ("mailbox", "Mailbox", "Mailboxes", "mailboxes", (
        ("No. of Queued Messages", lambda o: o.message_count),
    )),
    ("buffer", "Message Buffer", "Message Buffers", "buffers", (
        ("Free Buffer Size (bytes)", lambda o: o.free_bytes),
        ("No. of Queued Messages", lambda o: o.message_count),
    )),
    ("fixed_pool", "Fixed Pool", "Fixed Pools", "fixed_pools", (
        ("No. of Free Blocks", lambda o: o.free_count),
        ("Max. Used Block Count", lambda o: o.max_used),
    )),
    ("variable_pool", "Variable Pool", "Variable Pools", "variable_pools", (
        ("Free Pool Size (bytes)", lambda o: o.size - o.used_bytes),
        ("Max. Used Pool Size (bytes)", lambda o: o.max_used),
    )),
)


def _object_record(title, rows, obj) -> DsObject:
    return DsObject(obj.id, (
        (f"{title} Extended Information", obj.extended_info),
        *((label, value(obj)) for label, value in rows),
        ("No. of Waiting Tasks", obj.waiting_count),
    ))


def ref_task(kernel, task_id: int) -> DsTask:
    """Copy one thread's control-block view; read-only."""
    if kernel.engine is None or task_id not in kernel.tcb:
        raise NotFoundError(f"no task with id {task_id}")
    return _task_record(kernel, kernel.engine.thread(task_id))


def ref_object(kernel, kind: str, obj_id: int) -> DsObject:
    for key, title, _plural, attr, rows in _SECTIONS:
        if key == kind:
            registry = getattr(kernel, attr)
            if obj_id not in registry:
                raise NotFoundError(f"no {kind} with id {obj_id}")
            return _object_record(title, rows, registry[obj_id])
    raise NotFoundError(f"no object class named {kind!r}")


def take_snapshot(kernel) -> DsSnapshot:
    eng = kernel.engine
    if eng is None:
        raise NotFoundError("kernel is not booted")
    tasks = tuple(
        _task_record(kernel, eng.thread(tid))
        for tid in sorted(t.id for t in eng.threads())
    )
    sections = []
    for _kind, title, plural, attr, rows in _SECTIONS:
        registry = getattr(kernel, attr)
        entries = tuple(
            _object_record(title, rows, registry[oid])
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
        for label, name in _TASK_ROWS:
            field(label, _value_str(label, getattr(t, name)))
            if name == "state":
                out.append(_WAIT_LINE)
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
    values = {}
    for expected, name in _TASK_ROWS:
        label, values[name] = _parse_field(lines)
        if label != expected:
            lines.fail(f"expected field {expected!r}, got {label!r}")
        if name == "state":
            lines.expect(_WAIT_LINE)
    lines.expect(_SEPARATOR)
    return DsTask(task_id=task_id, **values)


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
    for _kind, title, plural, _attr, _rows in _SECTIONS:
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
