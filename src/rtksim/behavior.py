"""Declarative thread behavior programs.

A behavior program is a short list of statements drawn from a closed set:

* ``compute`` - burn one annotated work segment,
* ``call``    - invoke a kernel service by name,
* ``bfm``     - perform a device access through the bus model,
* ``loop``    - repeat a block a fixed number of times, or forever.

Each service is one row of ``_SERVICES``: its kernel method, its
arguments, and whether it can wait.  Parsing, the handler check,
serialization, compiling and the scenario's reference checks all read
that row, so a service is added or changed in one place.

A program compiles to a flat tuple of ops, where a loop is a head and a
back jump, and runs in one generator frame with a program counter: the
run-to-completion counterpart of a coroutine body.  A scenario file thus
fully determines what every thread does.  Statements are plain
data; parsing reports problems as ``(path, message)`` pairs so callers can
attach source locations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .objects import FLAG_MODE_AND, FLAG_MODE_OR

__all__ = [
    "Compute",
    "Call",
    "Bfm",
    "Loop",
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


def _is_int(value) -> bool:
    # bool is an int subclass and must not pass for numeric fields
    return isinstance(value, int) and not isinstance(value, bool)


# Argument kinds: kind -> (test of a value, what a value must be).
_KINDS = {
    "id": (lambda v: _is_int(v) and v >= 1, "an integer id >= 1"),
    "nat": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "pos": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "pattern": (lambda v: _is_int(v) and 1 <= v <= 0xFFFFFFFF,
                "a nonzero 32-bit pattern"),
    "bits": (lambda v: _is_int(v) and 0 <= v <= 0xFFFFFFFF, "a 32-bit value"),
    "timeout": (lambda v: v is None or v == "forever" or _is_int(v) and v >= 1,
                'an integer >= 1 or "forever"'),
    "mode": (lambda v: v in ("and", "or"), '"and" or "or"'),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "text": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "name": (lambda v: isinstance(v, str) and v.isidentifier(),
             "a variable name"),
}

_TIMEOUT = ("timeout", "timeout", False, None, None)
_PAYLOAD = ("payload", "text", True, None, None)
_AS = ("as", "name", True, None, None)
_REF = ("ref", "name", True, None, None)


def _id(key, obj):
    """A required argument that names an object of kind ``obj`` by id."""
    return (key, "id", True, None, obj)


# One row per service: name -> (kernel method, arguments, can wait).  An
# argument is (key, kind, required, default, the object kind its id names
# or None).  The values reach the kernel method positionally, after the
# api and in row order, except ``as``, which binds the service's result
# to a name, and ``ref``, which passes the value bound to its name.  The
# method is looked up on the kernel instance at call time, so wrappers
# set on it see every call.  As in uITRON (E_CTX), only a task may call a
# service that can wait: a handler runs each activation to completion.
_SERVICES = {
    "sleep": ("sleep", (_TIMEOUT,), True),
    "wakeup": ("wakeup", (_id("task", "task"),), False),
    "delay": ("delay", (("ticks", "pos", True, None, None),), True),
    "exit": ("exit_task", (), False),
    "start": ("start_task", (_id("task", "task"),), False),
    "sem_wait": ("sem_wait", (_id("sem", "semaphore"),
                              ("count", "pos", False, 1, None), _TIMEOUT), True),
    "sem_signal": ("sem_signal", (_id("sem", "semaphore"),
                                  ("count", "pos", False, 1, None)), False),
    "flg_wait": ("flag_wait", (_id("flag", "flag"),
                               ("pattern", "pattern", True, None, None),
                               ("mode", "mode", False, "or", None),
                               ("clear", "bool", False, False, None),
                               _TIMEOUT), True),
    "flg_set": ("flag_set", (_id("flag", "flag"),
                             ("pattern", "bits", True, None, None)), False),
    "flg_clear": ("flag_clear", (_id("flag", "flag"),
                                 ("mask", "bits", True, None, None)), False),
    "mbx_send": ("mbx_send", (_id("mailbox", "mailbox"), _PAYLOAD,
                              ("priority", "nat", False, 0, None)), False),
    "mbx_recv": ("mbx_recv", (_id("mailbox", "mailbox"), _TIMEOUT), True),
    "mbf_send": ("mbf_send", (_id("buffer", "buffer"), _PAYLOAD, _TIMEOUT),
                 True),
    "mbf_recv": ("mbf_recv", (_id("buffer", "buffer"), _TIMEOUT), True),
    "mtx_lock": ("mtx_lock", (_id("mutex", "mutex"), _TIMEOUT), True),
    "mtx_unlock": ("mtx_unlock", (_id("mutex", "mutex"),), False),
    "pool_get": ("pool_get", (_id("pool", "fixed_pool"), _AS, _TIMEOUT), True),
    "pool_rel": ("pool_release", (_id("pool", "fixed_pool"), _REF), False),
    "vpool_get": ("vpool_get", (_id("pool", "variable_pool"),
                                ("size", "pos", True, None, None), _AS,
                                _TIMEOUT), True),
    "vpool_rel": ("vpool_release", (_id("pool", "variable_pool"), _REF),
                  False),
}

# The noun a release names when its ``ref`` was never bound.
_REF_WHAT = {"pool_rel": "pool block", "vpool_rel": "pool region"}

# Device access argument values are bytes or addresses; both sides are ints.
_BFM_ARG_KEYS = frozenset({"addr", "value"})


def _parse_call(raw, path, problems):
    service = raw.get("service")
    if not isinstance(service, str) or service not in _SERVICES:
        known = ", ".join(sorted(_SERVICES))
        problems.append((path, f"unknown service {service!r}; one of: {known}"))
        return None
    given = {k: v for k, v in raw.items() if k not in ("call", "service")}
    args = {}
    ok = True
    for key, kind, required, default, _obj in _SERVICES[service][1]:
        if key in given:
            value = given.pop(key)
            test, what = _KINDS[kind]
            if not test(value):
                problems.append((path, f"'{key}' must be {what}"))
                ok = False
            elif kind == "timeout" and value == "forever":
                args[key] = None
            else:
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
        elif key == "value" and value > 0xFF:
            problems.append((path, "bfm argument 'value' must be a byte (0..255)"))
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
        stmt = _parse_call(merged, path, problems)
        if handler and stmt is not None and _SERVICES[stmt.service][2]:
            problems.append((path, f"a handler cannot call '{stmt.service}', "
                                   "which can wait; only tasks may wait"))
            return None
        return stmt
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
        params = {p[0]: p[2:4] for p in _SERVICES[stmt.service][1]}
        for key, value in stmt.args:
            required, default = params[key]
            if required or value != default:  # omit optionals left at default
                raw[key] = value
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


# Op codes of a compiled program.  An op is a tuple led by its code:
#   (_COMPUTE, label)
#   (_CALL, method, args, ``as`` name or None)
#   (_RELEASE, method, args before the ref, ref name, what)
#   (_BFM, device, access, args)
#   (_HEAD, counter, count)     arm a counted loop's counter
#   (_BACK, counter, target)    one pass done: jump back while passes remain
#   (_AGAIN, target)            a forever loop's jump back
#   (_MARK,)                    one task cycle done
_COMPUTE, _CALL, _RELEASE, _BFM, _HEAD, _BACK, _AGAIN, _MARK = range(8)


def _leaf_op(st):
    if isinstance(st, Compute):
        return (_COMPUTE, st.label)
    if isinstance(st, Bfm):
        return (_BFM, st.device, st.access, dict(st.args))
    if not isinstance(st, Call):
        raise AssertionError(st)
    service = st.service
    a = dict(st.args)
    if service == "flg_wait":
        a["mode"] = FLAG_MODE_AND if a["mode"] == "and" else FLAG_MODE_OR
    elif service == "mbf_send":
        a["payload"] = a["payload"].encode("utf-8")
    method, params, _can_wait = _SERVICES[service]
    args = tuple(a[p[0]] for p in params if p[0] not in ("as", "ref"))
    if "ref" in a:  # the ref is the last argument
        return (_RELEASE, method, args, a["ref"], _REF_WHAT[service])
    return (_CALL, method, args, a.get("as"))


def _compile(statements, *, handler):
    """Flatten a statement tree into (ops, loop counter count, labels).

    A loop compiles to a head, its body and a back jump, so its size does
    not depend on its count.  A task's final top-level loop is its cycle,
    and anything before it one-time setup: its body ends in a mark op.  A
    task program without one runs once, as one cycle.  A handler program
    runs once per activation, and the engine counts its cycle when it
    returns.
    """
    ops = []
    counters = 0

    def block(stmts):
        for st in stmts:
            if isinstance(st, Loop):
                loop(st, mark=False)
            else:
                ops.append(_leaf_op(st))

    def loop(st, *, mark):
        nonlocal counters
        if st.forever:
            top = len(ops)
            block(st.body)
            if mark:
                ops.append((_MARK,))
            ops.append((_AGAIN, top))
        elif st.count >= 1:  # a loop of no passes compiles to nothing
            counter, counters = counters, counters + 1
            ops.append((_HEAD, counter, st.count))
            top = len(ops)
            block(st.body)
            if mark:
                ops.append((_MARK,))
            ops.append((_BACK, counter, top))

    if not handler and statements and isinstance(statements[-1], Loop):
        block(statements[:-1])
        loop(statements[-1], mark=True)
    else:
        block(statements)
        if not handler:
            ops.append((_MARK,))
    labels = tuple(dict.fromkeys(op[1] for op in ops if op[0] == _COMPUTE))
    return tuple(ops), counters, labels


def _exec(ops, counters, api, kernel, reqs):
    """Run compiled ops in this one generator frame.

    ``counters`` is the number of loop counters, which live in this frame.
    ``reqs`` maps each compute label to the thread's ready-made segment
    request.  Service results are discarded except where an ``as`` binding
    captures a pool grant into ``refs`` for a later release.
    """
    count = [0] * counters
    refs = {}
    pc, end = 0, len(ops)
    while pc < end:
        op = ops[pc]
        pc += 1
        code = op[0]
        if code == _COMPUTE:
            yield reqs[op[1]]
        elif code == _CALL:
            res = yield from getattr(kernel, op[1])(api, *op[2])
            if op[3] is not None and res.ok:
                refs[op[3]] = res.value
        elif code == _BACK:
            left = count[op[1]] - 1
            count[op[1]] = left
            if left:
                pc = op[2]
        elif code == _HEAD:
            count[op[1]] = op[2]
        elif code == _BFM:
            yield from kernel.bfm_call(api, op[1], op[2], op[3])
        elif code == _MARK:
            api.mark_cycle()
        elif code == _AGAIN:
            pc = op[1]
        else:  # _RELEASE
            name = op[3]
            if name not in refs:
                raise UsageError(f"{op[4]} reference '{name}' was never obtained")
            yield from getattr(kernel, op[1])(api, *op[2], refs.pop(name))


def build_factory(statements, annotations, *, handler=False):
    """Make a body factory for the kernel from a statement tuple.

    ``annotations`` maps label -> Annotation; labels were cross-checked
    during scenario validation.  The program compiles to ops on the
    factory's first call, once for every thread that shares the factory.
    Each call returns one generator frame that runs the ops with a program
    counter, with its own loop counters, ``as`` bindings and segment
    requests.  Task factories mark one cycle per iteration of a final
    top-level loop (or once at program completion).
    """
    statements = tuple(statements)
    table = dict(annotations)
    program = None

    def factory(ctx):
        nonlocal program
        if program is None:
            program = _compile(statements, handler=handler)
        ops, counters, labels = program
        api = ctx.api
        reqs = {label: api.segment(table[label]) for label in labels}
        return _exec(ops, counters, api, ctx.kernel, reqs)
    return factory
