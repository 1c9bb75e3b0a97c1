"""Scenario files: parsing, validation, serialization, kernel wiring.

A scenario is one YAML document that fully determines a run: timing
constants, the thread roster with behavior programs, kernel objects,
devices, scripted stimuli, run length, and the battery.  Validation
reports every problem it can find in one pass, each tagged with the
source line, so a broken file is fixed in one round.  The file is
written in a strict subset of YAML, which `_walk` reads from the YAML
parser's events in one pass, building the data as it checks it:
sequences, mappings with scalar keys, and strings, nulls, booleans,
integers and floats.  An alias, a merge key, a collection as a key, a
date, bytes, a set or any other tag is refused at its line; an anchor
names nothing.

The file itself is one `schema._Kind`, `_SCENARIO`, with a row per
top-level key, and so is each kind of section entry (a task, each
handler kind, each object, device and stimulus kind): a row per field,
giving the field's YAML key, its check, its default, whether the writer
keeps it at that default, and the keyword the kernel's declare call
takes it under.  A field that holds mappings of its own is a check with
its own `read` and `raw`: `_Section` a list of entries, `_Table` a
mapping of named entries (the annotations, a device's accesses),
`_Objects` the objects mapping and `_Nested` one mapping of its own
rows (`svc_cost`).  The reader, writer and builder in `schema.py` serve
every kind, and every kind of behavior statement too, so a key is
listed only in its row, and the file is read by one `_read` and written
by one `_entry_raw`.  A rule across fields is the kind's `check` (a
semaphore's initial count within its maximum); the one rule across
sections is that thread ids are one namespace, handlers first, with at
most one idle task.  A statement row that names an annotation, an
object or a device says so, and one pass checks each such name against
the scenario.  A range the kernel enforces is read from the module that
enforces it.
"""

from __future__ import annotations

from dataclasses import astuple
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import yaml

from . import behavior
from .bfm import (
    AccessSpec,
    DEFAULT_INTC_LINES,
    KIND_INTC,
    KIND_MEMORY,
    KIND_PARALLEL,
    KIND_RTC,
    KIND_SERIAL,
    MEMORY_WIDTHS,
    _OPS_BY_KIND,
)
from .engine import Annotation
from .errors import ScenarioError
from .kernel import (
    DEFAULT_CYCLES_PER_TICK,
    Kernel,
    STIMULUS_KINDS,
    USER_PRIORITY_MAX,
    USER_PRIORITY_MIN,
)
from .objects import DEFAULT_SEMAPHORE_MAX, _PATTERN_MASK
from .report import UJ_PER_WH
from .schema import (
    _Check,
    _GIVEN,
    _Int,
    _Is,
    _Kind,
    _NAME,
    _OneOf,
    _Row,
    Entry,
    _declare,
    _entry_raw,
    _read,
    _read_entry,
)
from .trace import to_uj, valid_name

__all__ = [
    "Scenario",
    "Entry",
    "parse_scenario_text",
    "load_scenario",
    "scenario_to_yaml",
    "save_scenario",
    "build_kernel",
    "demo_scenario_path",
]


class Scenario(NamedTuple):
    """A checked scenario file: a value per `_SCENARIO` row, in row order."""

    name: str
    tick_us: int
    cycles_per_tick: int
    run_ticks: int
    battery_uj: int | None  # battery_wh, in uJ
    svc_cost: tuple         # (etm, eem_uj) that every service call charges
    on_deadlock: str        # "abort" or "report"
    annotations: tuple      # Annotation rows
    tasks: tuple            # Entry rows: task, and at most one idle
    handlers: tuple         # Entry rows
    objects: tuple
    devices: tuple
    stimuli: tuple

    svc_etm = property(lambda self: self.svc_cost[0])
    svc_eem_uj = property(lambda self: self.svc_cost[1])
    abort_on_deadlock = property(lambda self: self.on_deadlock != "report")

    def annotation_table(self) -> dict:
        return {a.label: a for a in self.annotations}

    @property
    def idle_task(self):
        return next((t for t in self.tasks if t.kind == "idle"), None)


# ----------------------------------------------------------------------
# YAML loading: one walk of the parser's events, lines looked up on failure

# Deeper nodes are refused, in a refused node too.  The walk recurses once
# per level, so this keeps it far inside the interpreter's own limit.
_NODE_DEPTH_LIMIT = 256


def _too_deep(mark):
    return yaml.MarkedYAMLError(problem="nested too deeply", problem_mark=mark)


class _PureLoader(yaml.SafeLoader):
    """The pure-Python loader, refusing deep flow nesting as it scans.

    Its scanner keeps one possible simple key per open '[' or '{' and
    walks them all at each token, so it is quadratic in flow nesting
    (0.8 s for 1000 levels, 1.4 s for 30000).  The k-th nested bracket
    opens a node at depth k - 1 or deeper, so a text that nests more than
    ``_NODE_DEPTH_LIMIT + 1`` is refused anyway, and the scan stops at the
    bracket that would open one more.
    """

    def fetch_flow_collection_start(self, TokenClass):
        if self.flow_level > _NODE_DEPTH_LIMIT:
            raise _too_deep(self.get_mark())
        super().fetch_flow_collection_start(TokenClass)


# PyYAML's libyaml binding when it was built with one; both loaders give
# the same events with the same line marks.
_Loader = getattr(yaml, "CSafeLoader", _PureLoader)


def _yaml_problem(text: str, exc) -> tuple:
    """(line, message) for a loader error, without the loader's location."""
    if isinstance(exc, yaml.MarkedYAMLError):
        mark = exc.problem_mark or exc.context_mark
        message = ", ".join(p for p in (exc.context, exc.problem) if p)
        return (mark.line + 1 if mark else 1), message
    # a character YAML does not allow: the reader names it (libyaml gives
    # its offset in bytes), and libyaml cannot encode a lone surrogate
    if isinstance(exc, UnicodeEncodeError):
        bad = exc.object[exc.start]
    else:
        bad = chr(exc.character)
    line = text.count("\n", 0, text.index(bad)) + 1
    return line, f"unacceptable character #x{ord(bad):04x}"


_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP = _TAG + "str", _TAG + "seq", _TAG + "map"
# the builder of each scalar tag of the subset but `!!str`; a plain `=`,
# YAML 1.1's value tag, reads as the string
_SCALARS = {_TAG + t: getattr(yaml.SafeLoader, "construct_yaml_" + t)
            for t in ("null", "bool", "int", "float")}
_SCALARS[_TAG + "value"] = yaml.SafeLoader.construct_yaml_str
_REFUSED = object()     # in the place of a refused node's data


def _walk(loader, problems, lines=None):
    """The data of the one document of `loader`'s text, built in one walk
    of the parser's events that makes the checks too, or None if the text
    has no document or a node outside the subset of YAML that a scenario
    is written in.

    The subset is sequences, mappings whose keys are scalars, and scalars
    that are strings (a plain `=` too), nulls, booleans, integers and
    floats, each untagged or tagged with its own tag; `loader` resolves
    each untagged scalar's tag and lends PyYAML's builder of each scalar
    tag its settings.  Each other node is refused as a problem: an alias,
    a merge key `<<`, a collection as a key, a collection tagged other
    than `!!seq` or `!!map` (`!!set`, `!!omap`, a local tag), a scalar
    tagged `!!timestamp`, `!!binary` or no scalar tag of the subset, and a
    scalar its tag's builder refuses (`!!int five`).  An anchor names
    nothing.  A refused collection's contents are walked too.  A key is
    walked at its mapping's path and `("key", i)`, for the mapping's i-th
    pair, and so is a refused key's value.  A node deeper than
    `_NODE_DEPTH_LIMIT` and a second document each raise a YAML error at
    their line, and a key equal, as constructed, to one before it in its
    mapping (`1` and `01`, `true` and `yes`) is a problem.

    Each problem is a (line, message) pair in `problems`, located at the
    node in hand: a refused node or a repeated key at its own line.  A
    path, which holds each key as constructed, locates only the problems
    found in the data: `lines` gets each path's line, a repeated key's
    path that of its last repeat, whose value the data holds."""
    get_event, resolve, refused = loader.get_event, loader.resolve, []

    def refuse(event, message):
        refused.append(event)
        problems.append((event.start_mark.line + 1, message))
        return _REFUSED

    def walk(event, path, key=False):
        # the data of the node that `event` starts, or _REFUSED
        if len(path) > _NODE_DEPTH_LIMIT:
            raise _too_deep(event.start_mark)
        if lines is not None:
            lines.setdefault(path, event.start_mark.line + 1)
        kind = type(event)
        if kind is yaml.AliasEvent:
            return refuse(event, "YAML aliases are not supported")
        tag = event.tag
        if kind is yaml.ScalarEvent:
            if tag is None or tag == "!":
                tag = resolve(yaml.ScalarNode, event.value, event.implicit)
            if tag == _STR:
                return event.value
            build = _SCALARS.get(tag)
            if build is None:
                return refuse(event, "merge keys are not supported"
                              if key and tag == _TAG + "merge" else
                              f"tag {tag.replace(_TAG, '!!')} is not supported")
            try:
                return build(loader, yaml.ScalarNode(tag, event.value))
            except (yaml.MarkedYAMLError, ValueError, LookupError,
                    AttributeError):
                return refuse(event, f"'{event.value}' is not a valid "
                                     f"{tag[len(_TAG):]}")
        seq = kind is yaml.SequenceStartEvent
        why = ("a key must be a scalar" if key else
               None if tag in (None, "!", _SEQ if seq else _MAP)
               else f"tag {tag.replace(_TAG, '!!')} is not supported")
        if why:
            refuse(event, why)
        if seq:
            data = []
            event = get_event()
            while type(event) is not yaml.SequenceEndEvent:
                data.append(walk(event, path + (len(data),)))
                event = get_event()
        else:
            data, i = {}, 0
            event = get_event()
            while type(event) is not yaml.MappingEndEvent:
                key = walk(event, path + (("key", i),), True)
                if key is _REFUSED:
                    key = ("key", i)  # unique in the mapping
                elif key in data:
                    problems.append((event.start_mark.line + 1,
                                     f"duplicate key '{event.value}'"))
                here = path + (key,)
                if lines is not None:
                    lines[here] = event.start_mark.line + 1
                data[key] = walk(get_event(), here)
                i += 1
                event = get_event()
        return _REFUSED if why else data

    get_event()                                 # the stream's start
    data = None
    if not loader.check_event(yaml.StreamEndEvent):
        get_event()                             # the document's start
        data = walk(get_event(), ())
        get_event()                             # and its end
    if not loader.check_event(yaml.StreamEndEvent):
        raise yaml.MarkedYAMLError(
            "expected a single document in the stream", None,
            "but found another document", loader.peek_event().start_mark)
    return None if refused else data


class _Source:
    """A YAML text's data, built and checked by one `_walk`, and the
    problems found in it: the walk's, each at its line, in `found`, and
    those of the data, each at its path, in `problems`.  A text with a
    node outside the subset is refused with the walk's problems alone:
    its data lacks what was refused, so no field of it is checked.  A
    path's line is looked up only to report a problem: the first
    `locate` walks the text again."""

    def __init__(self, text: str, filename: str):
        self.text, self.filename = text, filename
        self.found: list = []
        self.problems: list = []
        self.lines = None       # path -> line, once a problem is located
        self.data = self._load(self.found)
        if self.data is None:
            self.raise_if_failed()  # a node refused; an empty text has none

    def _load(self, problems, lines=None):
        try:
            loader = _Loader(self.text)
            try:
                return _walk(loader, problems, lines)
            finally:
                loader.dispose()
        except (yaml.MarkedYAMLError, yaml.reader.ReaderError,
                UnicodeEncodeError) as exc:
            line, message = _yaml_problem(self.text, exc)
            raise ScenarioError(
                [(f"{self.filename}:{line}", f"not valid YAML: {message}")]
            ) from None

    def locate(self, path) -> str:
        if self.lines is None:
            self.lines = {}
            self._load([], self.lines)
        while path and path not in self.lines:
            path = path[:-1]
        line = self.lines.get(path, 1)
        return f"{self.filename}:{line}"

    def raise_if_failed(self):
        if self.found or self.problems:
            raise ScenarioError(
                [(f"{self.filename}:{line}", m) for line, m in self.found]
                + [(self.locate(p), m) for p, m in self.problems])


# ----------------------------------------------------------------------
# checks of section fields only (`schema.py` has the shared ones)

class _Implicit(_Check):
    """A field the idle task has without saying so.  Giving it is reported,
    but the entry keeps `value` and stays declared."""

    def __init__(self, value):
        self.value = value

    def read(self, problems, value, path):
        problems.append((path, f"the idle task's '{path[-1]}' is implicit"))
        return self.value


class _Energy(_Check):
    """A figure in a unit of `per` micro-joules (a millijoule, a
    watt-hour), kept as integer micro-joules of at least `least`."""

    def __init__(self, per, least, problem):
        self.per, self.least, self.problem = per, least, problem

    def read(self, problems, value, path):
        try:
            uj = to_uj(value, self.per)
        except ValueError:
            uj = None
        if uj is None or uj < self.least:
            problems.append((path, self.problem))
            return None
        return uj

    def raw(self, uj):
        if uj % self.per == 0:
            return uj // self.per
        return format((Decimal(uj) / self.per).normalize(), "f")


class _Nested(_Check):
    """A mapping of its own kind's rows, read as their values."""

    def __init__(self, kind):
        self.kind = kind

    def read(self, problems, value, path):
        if not isinstance(value, dict):
            problems.append((path, "expected a mapping"))
            return None
        return _read_entry(problems, value, path, self.kind)

    def raw(self, values):
        return _entry_raw(self.kind.rows, values)


class _Table(_Check):
    """A mapping of names to entries of one kind (the annotations, a
    device's accesses), read as make(name, *values) for each entry that
    passes its rows.  A table that is no mapping is reported and reads
    as empty."""

    def __init__(self, kind, make, what):
        self.kind, self.make, self.what = kind, make, what

    def read(self, problems, value, path):
        if not isinstance(value, dict):
            problems.append((path, "expected a mapping"))
            return ()
        out = []
        for name, spec in value.items():
            here = path + (name,)
            if not valid_name(name):
                problems.append(
                    (here, f"{self.what} use letters, digits, '_', '.', '-'"))
            elif not isinstance(spec, dict):
                problems.append((here, "expected a mapping"))
            else:
                values = _read_entry(problems, spec, here, self.kind)
                if values is not None:
                    out.append(self.make(name, *values))
        return tuple(out)

    def raw(self, items):
        return {name: _entry_raw(self.kind.rows, values)
                for name, *values in map(astuple, items)}

    def build(self, items, annotations):
        return {item.name: item for item in items}


class _Section(_Check):
    """A list of entries.  kind_of(problems, entry, path) gives an entry's
    `_Kind`, or None after reporting why it has none.  An entry whose
    `unique` field repeats an earlier entry's is reported with `twice`
    and dropped.  A section that is no list is reported and reads as
    empty."""

    def __init__(self, kind_of, unique=None, twice=""):
        self.kind_of, self.unique, self.twice = kind_of, unique, twice

    def read(self, problems, value, path):
        if not isinstance(value, list):
            problems.append((path, "expected a list"))
            return ()
        out = []
        seen = set()
        for here, raw in ((path + (i,), e) for i, e in enumerate(value)):
            if not isinstance(raw, dict):
                problems.append((here, "expected a mapping"))
                continue
            kind = self.kind_of(problems, raw, here)
            values = (None if kind is None
                      else _read_entry(problems, raw, here, kind))
            if values is None:
                continue
            entry = Entry(kind.name, values, kind, here)
            if kind.check is not None:
                kind.check(problems, entry)
            if self.unique is not None:
                key = getattr(entry, self.unique)
                if key in seen:
                    problems.append((here + (self.unique,),
                                     self.twice.format(key)))
                    continue
                seen.add(key)
            out.append(entry)
        return tuple(out)

    def raw(self, entries):
        return [_entry_raw(e.schema.rows, e.values) for e in entries]


class _Objects(_Nested):
    """The objects mapping: a section per object kind, read as one tuple
    of entries in section order."""

    def __init__(self, sections):
        self.kinds = tuple(sections.values())
        super().__init__(_Kind("objects", tuple(
            _Row(key, _Section(lambda *_, kind=kind: kind, "id",
                               f"{kind.name} id {{}} declared twice"), ())
            for key, kind in sections.items())))

    def read(self, problems, value, path):
        return sum(super().read(problems, value, path) or (), ())

    def raw(self, objects):
        return super().raw(tuple(tuple(o for o in objects if o.schema is kind)
                                 for kind in self.kinds))


def _by_kind(kinds, problem):
    """kind_of for a section whose entries name their kind under 'kind'."""
    def kind_of(problems, raw, path):
        kind = raw.get("kind")
        if isinstance(kind, str) and kind in kinds:
            return kinds[kind]
        problems.append((path, problem))
        return None
    return kind_of


def _either(words):
    return ", ".join([*words[:-1], "or " + words[-1]])


# ----------------------------------------------------------------------
# rows: one per field of each kind of entry

_ENERGY = _Energy(1000, 0, "energy must be a millijoule figure no finer "
                             "than 0.001 and no larger than 1e15")
_EEM_ROW = _Row("eem", _ENERGY, 0, write_default=True)
_COST = _Kind("cost", (_Row("etm", _Int(0)), _EEM_ROW))
_SVC_COST = _Kind("svc_cost", (_Row("etm", _Int(0), 1, write_default=True),
                               _EEM_ROW))


def _access(kind):
    """An access of a device of `kind`: an op that kind takes, its cycles
    and its energy."""
    ops = _OPS_BY_KIND[kind]
    legal = " or ".join(ops) or "none"
    return _Kind("access", (
        _Row("op", _Is(ops.__contains__,
                       f"be {legal} for a device of kind {kind}")),
        _Row("cycles", _Int(0), 0, write_default=True),
        _EEM_ROW))


_NAME_ROW = _Row("name", _NAME)
_EXT_ROW = _Row("extended_info", _Int(0), 0)

_TASK = _Kind("task", (
    _Row("id", _Int(1), keyword="task_id"),
    _NAME_ROW,
    _Row("idle", _GIVEN, False, keyword=None),
    _Row("priority", _Int(USER_PRIORITY_MIN, USER_PRIORITY_MAX,
                          f"priority must be in {USER_PRIORITY_MIN}.."
                          f"{USER_PRIORITY_MAX}")),
    _Row("behavior", behavior._Program(handler=False), keyword="body"),
    _EXT_ROW,
), Kernel.declare_task)

# an entry with `idle: true`: only its id and name reach the kernel
_IDLE = _Kind("idle", (
    *_TASK.rows[:3],                # id, name, idle
    _Row("priority", _Implicit(0), 0, keyword=None),
    _Row("behavior", _Implicit(()), (), keyword=None),
), Kernel.declare_idle)


def _declare_isr(kernel, *, device_name, line, **declare):
    kernel.declare_isr(**declare)
    kernel.attach_isr(device_name, line, declare["thread_id"])


def _handler(name, declare, *rows):
    return _Kind(name, (
        _Row("id", _Int(1), keyword="thread_id"),
        _NAME_ROW,
        _Row("kind", _GIVEN, keyword=None),
        *rows,
        _EXT_ROW,
        _Row("behavior", behavior._Program(handler=True), keyword="body"),
    ), declare)


_HANDLER_KINDS = {k.name: k for k in (
    _handler("cyclic", Kernel.declare_cyclic,
             _Row("period", _Int(1)), _Row("phase", _Int(0), 0)),
    _handler("alarm", Kernel.declare_alarm, _Row("offset", _Int(1))),
    _handler("isr", _declare_isr,
             _Row("device", _NAME, keyword="device_name"),
             _Row("line", _Int(0), 0, write_default=True)),
)}


def _object(name, *params, check=None):
    """An object kind; its parameters come in key order, as written."""
    return _Kind(name, (_Row("id", _Int(1), keyword="obj_id"), *params,
                        _EXT_ROW), getattr(Kernel, "declare_" + name), check)


def _initial_within_max(problems, sem):
    """Reported, but the semaphore stays declared, so references stay quiet."""
    limit = sem.max or DEFAULT_SEMAPHORE_MAX
    if sem.initial > limit:
        problems.append((sem.path + ("initial",),
                         f"'initial' must not exceed 'max' ({limit})"))


# section key -> kind.  A None default leaves the kernel's own in force.
_OBJECT_SECTIONS = {
    "semaphores": _object("semaphore", _Row("initial", _Int(0)),
                          _Row("max", _Int(1), None, keyword="max_count"),
                          check=_initial_within_max),
    "flags": _object("flag", _Row("initial", _Int(
        0, _PATTERN_MASK, "'initial' must fit 32 bits"), None)),
    "mutexes": _object("mutex"),
    "mailboxes": _object("mailbox"),
    "buffers": _object("buffer", _Row("capacity", _Int(1))),
    "fixed_pools": _object("fixed_pool", _Row("block_size", _Int(1)),
                           _Row("blocks", _Int(1), keyword="block_count")),
    "variable_pools": _object("variable_pool", _Row("size", _Int(1))),
}


# a bfm statement names `device.access`, so a device name has no '.'
_DEVICE_NAME = _Row("name", _Is(lambda v: valid_name(v) and "." not in v,
                                "use letters, digits, '_', '-'"))


def _device(kind, *options):
    """A device kind; its options come in key order, as written, and
    default to the device class's own."""
    return _Kind(kind, (
        _DEVICE_NAME,
        _Row("kind", _GIVEN),
        *options,
        _Row("accesses", _Table(_access(kind), AccessSpec, "access names"),
             ()),
    ), Kernel.add_device)


_DEVICE_KINDS = {k.name: k for k in (
    _device(KIND_MEMORY, _Row("size", _Int(1), None),
            _Row("width", _OneOf(MEMORY_WIDTHS), None)),
    _device(KIND_SERIAL, _Row("capacity", _Int(1), None,
                              keyword="out_capacity")),
    _device(KIND_PARALLEL),
    _device(KIND_INTC, _Row("lines", _Int(1), None)),
    _device(KIND_RTC),
)}

# what a stimulus carries, by the kind of device it drives
_BYTE_ROW = _Row("value", _Int(0, 0xFF, "'value' must be a byte (0..255)"),
                 0, write_default=True)
_STIMULUS_INPUT = {
    KIND_INTC: _Row("line", _Int(0), 0, write_default=True),
    KIND_PARALLEL: _BYTE_ROW,
    KIND_SERIAL: _BYTE_ROW,
}
_STIMULUS_KINDS = {
    kind: _Kind(kind, (_Row("tick", _Int(1)), _Row("kind", _GIVEN),
                       _Row("device", _NAME), _STIMULUS_INPUT[device_kind]),
                Kernel.add_stimulus)
    for kind, (device_kind, _) in STIMULUS_KINDS.items()
}


# ----------------------------------------------------------------------
# the file: a row per top-level key, and the one rule across sections

def _task_kind(problems, raw, path):
    idle = raw.get("idle")
    if idle is None or isinstance(idle, bool):
        return _IDLE if idle else _TASK
    problems.append((path + ("idle",), "'idle' must be true or false"))
    return None


_THREAD_TWICE = "thread id {} declared twice"

_SCENARIO = _Kind("scenario", (
    _Row("name", _NAME, "scenario", write_default=True),
    _Row("tick_us", _Int(1), 1000, write_default=True),
    _Row("cycles_per_tick", _Int(1), DEFAULT_CYCLES_PER_TICK,
         write_default=True),
    _Row("run_ticks", _Int(1)),
    _Row("battery_wh", _Energy(UJ_PER_WH, 1, "battery_wh must be a positive "
                               "watt-hour figure of at most 1e18 uJ"), None),
    _Row("svc_cost", _Nested(_SVC_COST),
         tuple(row.default for row in _SVC_COST.rows), write_default=True),
    _Row("on_deadlock", _OneOf(("abort", "report")), "abort"),
    _Row("annotations", _Table(_COST, Annotation, "annotation labels"), ()),
    _Row("tasks", _Section(_task_kind, "id", _THREAD_TWICE)),
    _Row("handlers", _Section(_by_kind(_HANDLER_KINDS, "handler kind must be "
                                       + _either([*_HANDLER_KINDS])),
                              "id", _THREAD_TWICE), ()),
    _Row("objects", _Objects(_OBJECT_SECTIONS), ()),
    _Row("devices", _Section(_by_kind(_DEVICE_KINDS, "device kind must be one "
                                      "of: " + ", ".join(sorted(_DEVICE_KINDS))),
                             "name", "device '{}' declared twice"), ()),
    _Row("stimuli", _Section(_by_kind(_STIMULUS_KINDS, "stimulus kind must be "
                                      + _either([*_STIMULUS_KINDS]))), ()),
))


def _one_thread_namespace(problems, scn):
    """Thread ids are one namespace, handlers first, and at most one task
    is idle: a task that breaks either rule is reported and dropped."""
    seen = {h.id for h in scn.handlers}
    tasks = []
    idle = False
    for t in scn.tasks or ():               # None when it is missing
        if t.id in seen:
            problems.append((t.path + ("id",), _THREAD_TWICE.format(t.id)))
        elif t.kind == "idle" and idle:
            problems.append((t.path, "only one idle task entry is allowed"))
        else:
            idle = idle or t.kind == "idle"
            tasks.append(t)
    if not any(t.kind == "task" for t in tasks) and not problems:
        problems.append((("tasks",), "at least one non-idle task is required"))
    return scn._replace(tasks=tuple(tasks))


# ----------------------------------------------------------------------
# cross-reference checks

# how the checks below name each kind of device an entry needs
_DEVICE_WORDS = {KIND_INTC: "an interrupt controller",
                 KIND_PARALLEL: "parallel I/O", KIND_SERIAL: "serial I/O"}


def _check_program_refs(problems, stmts, labels, objects, devices):
    """Report each annotation, object or device access a statement's row
    names that the scenario does not declare, and a request its object can
    never grant: a payload too large for its buffer, a semaphore count
    above the maximum, a variable pool request above the pool's size."""
    for st in behavior.iter_statements(stmts):
        for row, value in zip(st.schema.rows, st.values):
            names = row.names
            if names is None:
                continue
            if names == "annotation":
                if value not in labels:
                    problems.append(
                        (st.path, f"no annotation named '{value}'"))
            elif names == "device":
                name, _, access = value.partition(".")
                dev = devices.get(name)
                if dev is None:
                    problems.append((st.path, f"no device named '{name}'"))
                elif access not in {a.name for a in dev.accesses}:
                    problems.append((st.path, f"device '{name}' has no "
                                              f"access '{access}'"))
            elif (names, value) not in objects:
                problems.append((st.path, f"no {names} with id {value}"))
            elif names == "buffer" and "payload" in st.schema.keys:
                size = len(st.payload.encode("utf-8"))
                cap = objects[names, value].capacity
                if size > cap:
                    problems.append((st.path, f"payload is {size} bytes; "
                                              f"buffer {value} holds {cap}"))
            elif names == "semaphore":
                limit = objects[names, value].max or DEFAULT_SEMAPHORE_MAX
                if st.count > limit:
                    problems.append((st.path + ("count",), f"count is {st.count}; "
                                     f"semaphore {value} holds at most {limit}"))
            elif names == "variable_pool" and "size" in st.schema.keys:
                limit = objects[names, value].size
                if st.size > limit:
                    problems.append((st.path + ("size",), f"size is {st.size}; "
                                     f"variable pool {value} holds {limit}"))


def _cross_check(problems, scn: Scenario):
    labels = {a.label for a in scn.annotations}
    objects = {(o.kind, o.obj_id): o for o in scn.objects}
    objects.update((("task", t.task_id), t) for t in scn.tasks)
    devices = {d.name: d for d in scn.devices}

    for t in scn.tasks:
        _check_program_refs(problems, t.behavior, labels, objects, devices)
    isr_bound = set()
    for h in scn.handlers:
        _check_program_refs(problems, h.behavior, labels, objects, devices)
        if h.kind != "isr":
            continue
        dev = devices.get(h.device)
        if dev is None or dev.kind != KIND_INTC:
            problems.append((h.path + ("device",), f"'{h.device}' is not "
                             f"{_DEVICE_WORDS[KIND_INTC]}"))
            continue
        lines = DEFAULT_INTC_LINES if dev.lines is None else dev.lines
        if h.line >= lines:
            problems.append((h.path + ("line",),
                             f"line {h.line} is outside 0..{lines - 1}"))
        elif (h.device, h.line) in isr_bound:
            problems.append((h.path + ("line",),
                             f"line {h.line} of '{h.device}' is bound twice"))
        else:
            isr_bound.add((h.device, h.line))

    for st in scn.stimuli:
        path = st.path + ("device",)
        dev = devices.get(st.device)
        need = STIMULUS_KINDS[st.kind][0]
        if dev is None:
            problems.append((path, f"no device named '{st.device}'"))
        elif dev.kind != need:
            problems.append(
                (path, f"'{st.device}' is not {_DEVICE_WORDS[need]}"))
        elif need == KIND_INTC and (st.device, st.line) not in isr_bound:
            problems.append((st.path + ("line",),
                             f"no handler is bound to line {st.line} "
                             f"of '{st.device}'"))


# ----------------------------------------------------------------------
# entry points

def parse_scenario_text(text: str, filename: str = "<scenario>") -> Scenario:
    """Parse and validate; raises ScenarioError listing every problem found."""
    src = _Source(text, filename)
    if not isinstance(src.data, dict):
        raise ScenarioError(
            [(f"{filename}:1", "a scenario is a mapping of sections")])
    values, _ = _read(src.problems, src.data, (), _SCENARIO)
    scn = _one_thread_namespace(src.problems, Scenario(*values))
    _cross_check(src.problems, scn)
    src.raise_if_failed()
    return scn


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call: the offset is absolute
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ScenarioError([(f"{path}:{line}", "not UTF-8 text")]) from None
    return parse_scenario_text(text, filename=str(path))


def demo_scenario_path() -> Path:
    """Filesystem path of the bundled watch-demo scenario."""
    return Path(__file__).resolve().parent / "scenarios" / "demo.yaml"


# ----------------------------------------------------------------------
# serialization (round-trips through parse_scenario_text)

def scenario_to_raw(scn: Scenario) -> dict:
    return _entry_raw(_SCENARIO.rows, scn)


def scenario_to_yaml(scn: Scenario) -> str:
    return yaml.safe_dump(scenario_to_raw(scn), sort_keys=False,
                          default_flow_style=False)


def save_scenario(scn: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_yaml(scn))


# ----------------------------------------------------------------------
# kernel wiring

def build_kernel(scn: Scenario) -> Kernel:
    """Declare everything a validated scenario describes on a fresh kernel,
    each entry through its kind's rows.

    The caller still boots and runs it, so sinks can be attached and the
    same scenario reused across runs.
    """
    kernel = Kernel(
        tick_us=scn.tick_us,
        cycles_per_tick=scn.cycles_per_tick,
        svc_etm=scn.svc_etm,
        svc_eem_uj=scn.svc_eem_uj,
        abort_on_deadlock=scn.abort_on_deadlock,
    )
    table = scn.annotation_table()
    for entry in (*scn.devices, *scn.tasks, *scn.handlers, *scn.objects,
                  *scn.stimuli):
        _declare(entry, table, kernel)
    return kernel
