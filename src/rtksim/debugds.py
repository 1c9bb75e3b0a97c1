"""Kernel state introspection rendered as a fixed textual listing.

A snapshot is taken between engine steps and never perturbs the run.  The
listing layout is golden-tested byte for byte, and parse_listing inverts
dump_listing exactly, so snapshots can be archived as text and compared
structurally later.

The layout lives in dump_listing alone.  parse_listing reads each value
where dump_listing writes it, walking the same task rows and object
sections, renders the snapshot it built, and accepts the text only if that
rendering equals it byte for byte; every line ends with a newline.  Any
other text raises ValidationError: a value that does not read ("listing
line N: ... is not an integer", "not hexadecimal", "unknown task state"),
text that stops short ("listing ended early"), the first line that differs
("listing line N: expected ..., got ...") or what follows the listing
("listing line N: unexpected trailing line ...").  Lines count from 1.

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


def _stat_labels(title, rows) -> tuple:
    return (f"{title} Extended Information", *(label for label, _ in rows),
            "No. of Waiting Tasks")


def _object_record(title, rows, obj) -> DsObject:
    values = (obj.extended_info, *(value(obj) for _, value in rows),
              obj.waiting_count)
    return DsObject(obj.id, tuple(zip(_stat_labels(title, rows), values)))


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
    out.append("")
    return "\n".join(out)


# ----------------------------------------------------------------------
# parsing (the module docstring says what is accepted)

def parse_listing(text: str) -> DsSnapshot:
    """Invert dump_listing, refusing any text that it does not write."""
    lines = text.split("\n")
    pos = 0

    def line() -> str:
        nonlocal pos
        if pos + 1 >= len(lines):   # text after the last newline is no line
            raise ValidationError("listing ended early")
        pos += 1
        return lines[pos - 1]

    def value(sep=" : ", label=""):
        # a value runs from its separator to the next space or the line's end
        word = line().partition(sep)[2].split(" ")[0]
        if label == "Task State":
            if word in _CODE_STATES:
                return word
            problem = f"unknown task state {word!r}"
        else:
            base, kind = ((16, "hexadecimal") if _hex_label(label)
                          else (10, "an integer"))
            try:
                return int(word, base)
            except ValueError:
                problem = f"{label or 'value'} is not {kind}: {word!r}"
        raise ValidationError(f"listing line {pos}: {problem}")

    line()   # the title
    tick = value()
    tick_us = value("(") if lines[pos].startswith("Run Time Unit") else 1000
    tasks = []
    for _ in range(value()):
        task_id = value()
        row = {}
        for label, name in _TASK_ROWS:
            row[name] = value("= ", label)
            if name == "state":
                line()   # the wait line
        line()   # the separator
        tasks.append(DsTask(task_id, **row))
    sections = []
    for _kind, title, plural, _attr, rows in _SECTIONS:
        line()   # the section heading
        entries = []
        for _ in range(value()):
            obj_id = value()
            stats = tuple((label, value("= ", label))
                          for label in _stat_labels(title, rows))
            line()   # the separator
            entries.append(DsObject(obj_id, stats))
        sections.append(DsSection(title, plural, tuple(entries)))
    snap = DsSnapshot(tick, tick_us, tuple(tasks), tuple(sections))

    want = dump_listing(snap).split("\n")
    if lines != want:
        for n, (got, expected) in enumerate(zip(lines, want[:-1]), 1):
            if got != expected:
                raise ValidationError(
                    f"listing line {n}: expected {expected!r}, got {got!r}")
        n = len(want)
        raise ValidationError(
            f"listing line {n}: unexpected trailing line {lines[n - 1]!r}")
    return snap
