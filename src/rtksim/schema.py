"""Field rows: one reader, one writer and one builder for every mapping
a scenario file holds, the file itself included.

Each kind of mapping (the file's top level, a task, each handler,
object, device and stimulus kind, and each kind of behavior statement)
is one `_Kind`: a row per field, giving the field's YAML key, its
check, its default, whether the writer keeps it at that default, the
keyword its kind's declare call takes it under, and what it names, if
it names something the scenario declares elsewhere.  A field that holds
mappings of its own (a section, an access table) is a check with its
own `read` and `raw`.  `scenario.py` and `behavior.py` read, write and
build their mappings with the functions here, so a key is listed only
in its row.

Problems are reported as ``(path, message)`` pairs appended to a list,
so callers can attach source locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .trace import is_int, valid_name


# ----------------------------------------------------------------------
# field checks: `read` takes a present value and returns it checked, or
# reports a problem at `path` (the value's own) and returns None; `raw`
# is its YAML form and `build(value, annotations)` what the kind's
# declare call takes, where that is not the value itself.

class _Check:
    build = None

    def raw(self, value):
        return value


class _Int(_Check):
    """An integer >= minimum.  One past `maximum` is reported with `over`,
    but the entry still counts as declared, so references stay quiet."""

    def __init__(self, minimum, maximum=None, over=""):
        self.minimum, self.maximum, self.over = minimum, maximum, over

    def read(self, problems, value, path):
        if not is_int(value) or value < self.minimum:
            problems.append(
                (path, f"'{path[-1]}' must be an integer >= {self.minimum}"))
            return None
        if self.maximum is not None and value > self.maximum:
            problems.append((path, self.over))
        return value


class _OneOf(_Check):
    """One of a few values, of the same type: `width: true` is no 1."""

    def __init__(self, allowed):
        self.allowed = tuple(allowed)
        if not self.allowed:
            raise ValueError("_OneOf needs at least one allowed value")
        *words, last = [str(v).lower() for v in self.allowed]
        self.spelled = f"{', '.join(words)} or {last}" if words else last

    def read(self, problems, value, path):
        # compared, not hashed: a list or mapping value is a problem too
        if any(type(value) is type(v) and value == v for v in self.allowed):
            return value
        problems.append((path, f"'{path[-1]}' must be {self.spelled}"))
        return None


class _Is(_Check):
    """A value `test` accepts; a problem says the key `must` and then
    `what`."""

    def __init__(self, test, what, build=None):
        self.test, self.what, self.build = test, what, build

    def read(self, problems, value, path):
        if self.test(value):
            return value
        problems.append((path, f"'{path[-1]}' must {self.what}"))
        return None


class _Given(_Check):
    """A value its section has checked already: an entry's kind, an op."""

    def read(self, problems, value, path):
        return value


_NAME = _Is(valid_name, "use letters, digits, '_', '.', '-'")
_GIVEN = _Given()


# ----------------------------------------------------------------------
# rows: one per field of each kind of mapping

_REQUIRED = object()


@dataclass(frozen=True)
class _Row:
    key: str                    # the YAML key
    check: _Check
    default: object = _REQUIRED  # taken when the key is absent or null
    keyword: str | None = ""    # the declare keyword: "" the key, None none
    write_default: bool = False  # the writer keeps it at its default
    names: str | None = None    # "annotation", "device" or an object kind


@dataclass(frozen=True)
class _Kind:
    name: str
    rows: tuple
    declare: object = None      # declare(kernel, **keywords); None: not one
    check: object = None        # check(problems, entry): a rule across fields
    waits: bool = False         # a statement only a task may run

    @cached_property
    def keys(self):
        return tuple(row.key for row in self.rows)

    @cached_property
    def params(self):
        """(index, keyword, build) of each value the declare call takes."""
        return tuple((i, row.keyword or row.key, row.check.build)
                     for i, row in enumerate(self.rows)
                     if row.keyword is not None)


@dataclass(frozen=True)
class Entry:
    """One checked mapping: its kind and a value per row of that kind.
    A value reads as the attribute its YAML key names (``count``,
    ``body``), found through the kind's rows, so an entry keeps no copy
    of its values; `task_id` and `obj_id` read the `id`."""

    kind: str
    values: tuple
    schema: _Kind = field(compare=False, repr=False)
    path: tuple = field(compare=False, repr=False)  # where the source has it

    def __getattr__(self, key):
        # only for a name the instance lacks; reading `__dict__` keeps a
        # copy that probes before the fields are set from recursing
        kind = self.__dict__.get("schema")
        if kind is None or key not in kind.keys:
            raise AttributeError(key)
        return self.values[kind.keys.index(key)]

    task_id = obj_id = property(lambda self: self.id)


# ----------------------------------------------------------------------
# one reader, one writer and one builder for every kind

def _read(problems, raw, path, kind):
    """Each of the kind's values from the mapping `raw`, in row order, and
    whether all of them passed.  A key no row lists is reported, and so
    is a value that is missing or fails its check; that value reads as
    None."""
    for key in raw:
        if key not in kind.keys:
            problems.append((path + (key,), f"unknown key '{key}'"))
    values = []
    ok = True
    for row in kind.rows:
        value = raw.get(row.key)
        if value is None:
            value = row.default
            if value is _REQUIRED:  # at the null's line, or the entry's
                problems.append((path + (row.key,), f"missing '{row.key}'"))
                value = None
                ok = False
        else:
            value = row.check.read(problems, value, path + (row.key,))
            if value is None:
                ok = False
        values.append(value)
    return tuple(values), ok


def _read_entry(problems, raw, path, kind):
    """The values of one entry, or None when one of them failed."""
    values, ok = _read(problems, raw, path, kind)
    return values if ok else None


def _entry_raw(rows, values):
    """The mapping of one entry: each field that is set, unless its row
    leaves it out at its default."""
    return {row.key: row.check.raw(value) for row, value in zip(rows, values)
            if value is not None
            and (row.write_default or value != row.default)}


def _declare(entry, annotations, *target):
    """Call the entry's declare with each set value, built by its row,
    under the row's keyword."""
    keywords = {}
    for i, keyword, build in entry.schema.params:
        value = entry.values[i]
        if value is not None:
            keywords[keyword] = (value if build is None
                                 else build(value, annotations))
    return entry.schema.declare(*target, **keywords)
