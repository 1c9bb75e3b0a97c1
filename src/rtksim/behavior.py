"""Declarative thread behavior programs.

A behavior program is a short list of statements drawn from a closed set:

* ``compute`` - burn one annotated work segment,
* ``call``    - invoke a kernel service by name,
* ``bfm``     - perform a device access through the bus model,
* ``loop``    - repeat a block a fixed number of times, or forever.

Programs compile into generator factories for the engine trampoline, so a
scenario file fully determines what every thread does.  Statements are plain
data; parsing reports problems as ``(path, message)`` pairs so callers can
attach source locations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Annotation
from .errors import UsageError
from .objects import FLAG_MODE_AND, FLAG_MODE_OR

__all__ = [
    "Compute",
    "Call",
    "Bfm",
    "Loop",
    "SERVICE_NAMES",
    "parse_program",
    "statement_to_raw",
    "program_to_raw",
    "build_factory",
]


@dataclass(frozen=True)
class Compute:
    """Charge the annotation named by ``label`` in the thread's own context."""

    label: str


@dataclass(frozen=True)
class Call:
    service: str
    args: tuple  # sorted (key, value) pairs; dicts would break hashing/equality


@dataclass(frozen=True)
class Bfm:
    device: str
    access: str
    args: tuple


@dataclass(frozen=True)
class Loop:
    count: int | None  # None means forever
    body: tuple

    @property
    def forever(self) -> bool:
        return self.count is None


def _argdict(stmt) -> dict:
    return dict(stmt.args)


# Per-service argument rosters: name -> (kind, required, default).
# Kinds: id (int >= 1), int, nat (int >= 0), pos (int >= 1), pattern
# (int 1..0xFFFFFFFF), bits (int 0..0xFFFFFFFF), timeout (int >= 1 or the
# string "forever"), mode ("and"/"or"), bool, text, name (variable name).
_SERVICE_ARGS = {
    "sleep": {"timeout": ("timeout", False, None)},
    "wakeup": {"task": ("id", True, None)},
    "delay": {"ticks": ("pos", True, None)},
    "exit": {},
    "start": {"task": ("id", True, None)},
    "sem_wait": {
        "sem": ("id", True, None),
        "count": ("pos", False, 1),
        "timeout": ("timeout", False, None),
    },
    "sem_signal": {
        "sem": ("id", True, None),
        "count": ("pos", False, 1),
    },
    "flg_wait": {
        "flag": ("id", True, None),
        "pattern": ("pattern", True, None),
        "mode": ("mode", False, "or"),
        "clear": ("bool", False, False),
        "timeout": ("timeout", False, None),
    },
    "flg_set": {"flag": ("id", True, None), "pattern": ("bits", True, None)},
    "flg_clear": {"flag": ("id", True, None), "mask": ("bits", True, None)},
    "mbx_send": {
        "mailbox": ("id", True, None),
        "payload": ("text", True, None),
        "priority": ("nat", False, 0),
    },
    "mbx_recv": {
        "mailbox": ("id", True, None),
        "timeout": ("timeout", False, None),
    },
    "mbf_send": {
        "buffer": ("id", True, None),
        "payload": ("text", True, None),
        "timeout": ("timeout", False, None),
    },
    "mbf_recv": {
        "buffer": ("id", True, None),
        "timeout": ("timeout", False, None),
    },
    "mtx_lock": {
        "mutex": ("id", True, None),
        "timeout": ("timeout", False, None),
    },
    "mtx_unlock": {"mutex": ("id", True, None)},
    "pool_get": {
        "pool": ("id", True, None),
        "as": ("name", True, None),
        "timeout": ("timeout", False, None),
    },
    "pool_rel": {"pool": ("id", True, None), "ref": ("name", True, None)},
    "vpool_get": {
        "pool": ("id", True, None),
        "size": ("pos", True, None),
        "as": ("name", True, None),
        "timeout": ("timeout", False, None),
    },
    "vpool_rel": {"pool": ("id", True, None), "ref": ("name", True, None)},
}

SERVICE_NAMES = frozenset(_SERVICE_ARGS)

# Device access argument values are bytes or addresses; both sides are ints.
_BFM_ARG_KEYS = frozenset({"addr", "value"})


def _is_int(value) -> bool:
    # bool is an int subclass and must not pass for numeric fields
    return isinstance(value, int) and not isinstance(value, bool)


_BAD = object()  # sentinel: None is a valid value (forever timeouts)


def _check_value(kind, value, path, key, problems):
    """Validate one argument value; append to problems and return _BAD on error."""
    if kind == "id":
        if not _is_int(value) or value < 1:
            problems.append((path, f"'{key}' must be an integer id >= 1"))
            return _BAD
        return value
    if kind == "int":
        if not _is_int(value):
            problems.append((path, f"'{key}' must be an integer"))
            return _BAD
        return value
    if kind == "nat":
        if not _is_int(value) or value < 0:
            problems.append((path, f"'{key}' must be an integer >= 0"))
            return _BAD
        return value
    if kind == "pos":
        if not _is_int(value) or value < 1:
            problems.append((path, f"'{key}' must be an integer >= 1"))
            return _BAD
        return value
    if kind == "pattern":
        if not _is_int(value) or not 1 <= value <= 0xFFFFFFFF:
            problems.append((path, f"'{key}' must be a nonzero 32-bit pattern"))
            return _BAD
        return value
    if kind == "bits":
        if not _is_int(value) or not 0 <= value <= 0xFFFFFFFF:
            problems.append((path, f"'{key}' must be a 32-bit value"))
            return _BAD
        return value
    if kind == "timeout":
        if value == "forever" or value is None:
            return None
        if not _is_int(value) or value < 1:
            problems.append(
                (path, f"'{key}' must be an integer >= 1 or \"forever\"")
            )
            return _BAD
        return value
    if kind == "mode":
        if value not in ("and", "or"):
            problems.append((path, f"'{key}' must be \"and\" or \"or\""))
            return _BAD
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            problems.append((path, f"'{key}' must be true or false"))
            return _BAD
        return value
    if kind == "text":
        if not isinstance(value, str) or not value:
            problems.append((path, f"'{key}' must be a non-empty string"))
            return _BAD
        return value
    if kind == "name":
        if not isinstance(value, str) or not value.isidentifier():
            problems.append((path, f"'{key}' must be a variable name"))
            return _BAD
        return value
    raise AssertionError(kind)


def _parse_call(raw, path, problems):
    service = raw.get("service")
    if not isinstance(service, str) or service not in _SERVICE_ARGS:
        known = ", ".join(sorted(_SERVICE_ARGS))
        problems.append((path, f"unknown service {service!r}; one of: {known}"))
        return None
    spec = _SERVICE_ARGS[service]
    given = {k: v for k, v in raw.items() if k not in ("call", "service")}
    args = {}
    ok = True
    for key, (kind, required, default) in spec.items():
        if key in given:
            value = _check_value(kind, given.pop(key), path, key, problems)
            if value is _BAD:
                ok = False
                continue
            args[key] = value
        elif required:
            problems.append((path, f"service '{service}' needs '{key}'"))
            ok = False
        else:
            args[key] = default
    for key in sorted(given):
        problems.append((path, f"service '{service}' does not take '{key}'"))
        ok = False
    if not ok:
        return None
    return Call(service, tuple(sorted(args.items(), key=lambda kv: kv[0])))


def _parse_bfm(raw, path, problems):
    device = raw.get("device")
    access = raw.get("access")
    ok = True
    if not isinstance(device, str) or not device:
        problems.append((path, "bfm statement needs a 'device' name"))
        ok = False
    if not isinstance(access, str) or not access:
        problems.append((path, "bfm statement needs an 'access' name"))
        ok = False
    args = {}
    for key, value in raw.items():
        if key in ("bfm", "device", "access"):
            continue
        if key not in _BFM_ARG_KEYS:
            problems.append((path, f"unknown bfm argument '{key}'"))
            ok = False
        elif not _is_int(value) or value < 0:
            problems.append((path, f"bfm argument '{key}' must be an integer >= 0"))
            ok = False
        else:
            args[key] = value
    if not ok:
        return None
    return Bfm(device, access, tuple(sorted(args.items())))


def _parse_loop(raw, path, problems, *, handler):
    count = raw.get("count", "forever")
    body_raw = raw.get("body")
    extras = sorted(set(raw) - {"loop", "count", "body"})
    for key in extras:
        problems.append((path, f"loop does not take '{key}'"))
    if count == "forever":
        count = None
        if handler:
            problems.append((path, "forever loops are only legal in tasks"))
            return None
    elif not _is_int(count) or count < 1:
        problems.append((path, "loop count must be an integer >= 1 or \"forever\""))
        return None
    if not isinstance(body_raw, list) or not body_raw:
        problems.append((path, "loop needs a non-empty 'body' list"))
        return None
    body = _parse_block(body_raw, path + ("body",), problems, handler=handler,
                        top=False)
    if body is None or extras:
        return None
    return Loop(count, body)


def _parse_stmt(raw, path, problems, *, handler, top, last):
    if not isinstance(raw, dict):
        problems.append((path, "statement must be a mapping"))
        return None
    if "compute" in raw:
        label = raw["compute"]
        extras = sorted(set(raw) - {"compute"})
        for key in extras:
            problems.append((path, f"compute does not take '{key}'"))
        if not isinstance(label, str) or not label:
            problems.append((path, "compute needs an annotation label"))
            return None
        return None if extras else Compute(label)
    if "call" in raw or "service" in raw:
        merged = dict(raw)
        if "call" in raw:
            # {call: sleep, timeout: 5} sugar for {service: sleep, ...}
            if "service" in raw and raw["service"] != raw["call"]:
                problems.append((path, "statement names two different services"))
                return None
            merged["service"] = raw["call"]
        return _parse_call(merged, path, problems)
    if "bfm" in raw:
        merged = dict(raw)
        head = raw["bfm"]
        if isinstance(head, str) and "." in head:
            dev, _, acc = head.partition(".")
            merged.setdefault("device", dev)
            merged.setdefault("access", acc)
        return _parse_bfm(merged, path, problems)
    if "device" in raw and "access" in raw:
        return _parse_bfm(raw, path, problems)
    if "loop" in raw or "count" in raw and "body" in raw:
        stmt = _parse_loop(raw, path, problems, handler=handler)
        if stmt is not None and stmt.forever and not (top and last):
            problems.append(
                (path, "a forever loop must be the final top-level statement"))
            return None
        return stmt
    problems.append((path, "statement is not compute, call, bfm, or loop"))
    return None


def _parse_block(raw_list, path, problems, *, handler, top):
    out = []
    bad = False
    n = len(raw_list)
    for i, raw in enumerate(raw_list):
        stmt = _parse_stmt(raw, path + (i,), problems, handler=handler,
                           top=top, last=(i == n - 1))
        if stmt is None:
            bad = True
        else:
            out.append(stmt)
    return None if bad else tuple(out)


def parse_program(raw, path, problems, *, handler=False):
    """Parse a raw statement list into a statement tuple.

    Appends ``(path, message)`` pairs to ``problems`` and returns None when
    anything is wrong.  Cross references (annotation labels, object ids,
    devices) are the caller's job; this pass is purely structural.
    """
    if not isinstance(raw, list) or not raw:
        problems.append((path, "behavior must be a non-empty statement list"))
        return None
    return _parse_block(raw, path, problems, handler=handler, top=True)


def iter_statements(statements):
    """Walk a statement tree depth-first, yielding (path, statement)."""
    def walk(stmts, path):
        for i, st in enumerate(stmts):
            here = path + (i,)
            yield here, st
            if isinstance(st, Loop):
                yield from walk(st.body, here + ("body",))
    yield from walk(statements, ())


def statement_to_raw(stmt):
    """Inverse of statement parsing, for scenario round-trips."""
    if isinstance(stmt, Compute):
        return {"compute": stmt.label}
    if isinstance(stmt, Call):
        raw = {"call": stmt.service}
        defaults = _SERVICE_ARGS[stmt.service]
        for key, value in stmt.args:
            if value == defaults[key][2] and not defaults[key][1]:
                continue  # omit optionals left at their default
            raw[key] = "forever" if defaults[key][0] == "timeout" and value is None else value
        return raw
    if isinstance(stmt, Bfm):
        raw = {"bfm": f"{stmt.device}.{stmt.access}"}
        raw.update(dict(stmt.args))
        return raw
    if isinstance(stmt, Loop):
        return {
            "loop": True,
            "count": "forever" if stmt.forever else stmt.count,
            "body": [statement_to_raw(s) for s in stmt.body],
        }
    raise AssertionError(stmt)


def program_to_raw(statements):
    return [statement_to_raw(s) for s in statements]


# Behavior service -> (kernel method, argument keys passed positionally
# after the api, argument keys passed by keyword).  The method is looked up
# on the kernel instance at call time, so wrappers set on it see every call.
_CALLS = {
    "sleep": ("sleep", ("timeout",), ()),
    "wakeup": ("wakeup", ("task",), ()),
    "delay": ("delay", ("ticks",), ()),
    "exit": ("exit_task", (), ()),
    "start": ("start_task", ("task",), ()),
    "sem_wait": ("sem_wait", ("sem", "count", "timeout"), ()),
    "sem_signal": ("sem_signal", ("sem", "count"), ()),
    "flg_wait": ("flag_wait", ("flag", "pattern", "mode"), ("clear", "timeout")),
    "flg_set": ("flag_set", ("flag", "pattern"), ()),
    "flg_clear": ("flag_clear", ("flag", "mask"), ()),
    "mbx_send": ("mbx_send", ("mailbox", "payload", "priority"), ()),
    "mbx_recv": ("mbx_recv", ("mailbox", "timeout"), ()),
    "mbf_send": ("mbf_send", ("buffer", "payload", "timeout"), ()),
    "mbf_recv": ("mbf_recv", ("buffer", "timeout"), ()),
    "mtx_lock": ("mtx_lock", ("mutex", "timeout"), ()),
    "mtx_unlock": ("mtx_unlock", ("mutex",), ()),
    "pool_get": ("pool_get", ("pool", "timeout"), ()),
    "pool_rel": ("pool_release", ("pool", "ref"), ()),
    "vpool_get": ("vpool_get", ("pool", "size", "timeout"), ()),
    "vpool_rel": ("vpool_release", ("pool", "ref"), ()),
}

_REF_WHAT = {"pool_rel": "pool block", "vpool_rel": "pool region"}


class _Exec:
    """Statement interpreter bound to one activation."""

    __slots__ = ("ctx", "table", "vars")

    def __init__(self, ctx, table):
        self.ctx = ctx
        self.table = table
        self.vars = {}

    def block(self, stmts):
        for st in stmts:
            yield from self.stmt(st)

    def stmt(self, st):
        if isinstance(st, Compute):
            yield from self.ctx.api.wait(self.table[st.label])
        elif isinstance(st, Call):
            yield from self.call(st.service, _argdict(st))
        elif isinstance(st, Bfm):
            yield from self.ctx.kernel.bfm_call(
                self.ctx.api, st.device, st.access, _argdict(st))
        elif isinstance(st, Loop):
            if st.forever:
                while True:
                    yield from self.block(st.body)
            else:
                for _ in range(st.count):
                    yield from self.block(st.body)
        else:
            raise AssertionError(st)

    def call(self, service, a):
        """Run one service.  Results are discarded except where an ``as``
        binding captures a pool grant for a later release."""
        if service == "flg_wait":
            a["mode"] = FLAG_MODE_AND if a["mode"] == "and" else FLAG_MODE_OR
        elif service == "mbf_send":
            a["payload"] = a["payload"].encode("utf-8")
        elif service in _REF_WHAT:
            name = a["ref"]
            if name not in self.vars:
                raise UsageError(
                    f"{_REF_WHAT[service]} reference '{name}' was never obtained")
            a["ref"] = self.vars.pop(name)
        method, positional, keyword = _CALLS[service]
        res = yield from getattr(self.ctx.kernel, method)(
            self.ctx.api, *[a[k] for k in positional],
            **{k: a[k] for k in keyword})
        if "as" in a and res.ok:
            self.vars[a["as"]] = res.value


def build_factory(statements, annotations, *, handler=False):
    """Compile a statement tuple into a body factory for the kernel.

    ``annotations`` maps label -> Annotation; labels were cross-checked
    during scenario validation.  Task factories mark one cycle per iteration
    of a final top-level loop (or once at program completion); handler
    cycles are marked by the kernel's activation wrapper instead.
    """
    statements = tuple(statements)
    table = dict(annotations)

    if handler:
        def factory(ctx):
            ex = _Exec(ctx, table)
            return ex.block(statements)
        return factory

    # A final top-level loop is the task's cycle; anything before it is
    # one-time setup.
    if statements and isinstance(statements[-1], Loop):
        setup, last = statements[:-1], statements[-1]

        def factory(ctx):
            def body():
                ex = _Exec(ctx, table)
                yield from ex.block(setup)
                if last.forever:
                    while True:
                        yield from ex.block(last.body)
                        ctx.api.mark_cycle()
                else:
                    for _ in range(last.count):
                        yield from ex.block(last.body)
                        ctx.api.mark_cycle()
            return body()
        return factory

    def factory(ctx):
        def body():
            ex = _Exec(ctx, table)
            yield from ex.block(statements)
            ctx.api.mark_cycle()
        return body()
    return factory
