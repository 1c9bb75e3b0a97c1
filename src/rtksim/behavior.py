"""Declarative thread behavior programs.

A behavior program is a short list of statements drawn from a closed set:

* ``{compute: label}``          - burn one annotated work segment,
* ``{call: service, ...}``      - invoke a kernel service by name,
* ``{bfm: device.access, ...}`` - perform a device access through the
  bus model,
* ``{loop: true, count: N, body: [...]}`` - repeat a block N times, or
  forever with ``count: forever``; ``loop: forever`` says the same.

A statement's head key (the first of ``compute``, ``call``, ``bfm`` and
``loop`` it has) chooses its kind; for ``call`` and ``loop`` the head's
value does.  Each kind is a `schema._Kind`: a row per key, read,
written and reference-checked by the same code as a scenario's section
entries, and a checked statement is a `schema.Entry`, as an entry is.
A row that names something (an annotation label, an object of a kind
by id, a device access) says what it names, and a row whose value the
kernel takes in another form (a flag mode, a buffer payload, a timeout
of "forever") builds it.  Each service is one kind in
``_SERVICES``: its kernel method, its argument rows, and whether it can
wait.

A program compiles to a flat tuple of ops, where a loop is a head and a
back jump, and runs in one generator frame with a program counter: the
run-to-completion counterpart of a coroutine body.  A scenario file thus
fully determines what every thread does.
"""

from __future__ import annotations

from .errors import UsageError
from .objects import FLAG_MODE_AND, FLAG_MODE_OR, _PATTERN_MASK
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
    _read_entry,
)
from .trace import is_int

__all__ = [
    "parse_program",
    "iter_statements",
    "build_factory",
]


# Op codes of a compiled program.  An op is a tuple led by its code:
#   (_COMPUTE, label)
#   (_CALL, method, args, ``as`` name or None); a bfm statement is a
#       call of ``bfm_call`` with (device, access, its args)
#   (_RELEASE, method, args before the ref, ref name, what)
#   (_HEAD, counter, count)     arm a counted loop's counter
#   (_BACK, counter, target)    one pass done: jump back while passes remain
#   (_AGAIN, target)            a forever loop's jump back
#   (_MARK,)                    one task cycle done
_COMPUTE, _CALL, _RELEASE, _HEAD, _BACK, _AGAIN, _MARK = range(7)


class _Fixed(_Check):
    """A head whose value chose the kind; it reads as ``value``."""

    def __init__(self, value):
        self.value = value

    def read(self, problems, value, path):
        return self.value


class _Block(_Check):
    """A non-empty statement list: a program, or a loop's body."""

    def read(self, problems, value, path):
        if not isinstance(value, list) or not value:
            problems.append((path, "expected a non-empty statement list"))
            return None
        stmts = [_read_statement(problems, raw, path + (i,))
                 for i, raw in enumerate(value)]
        return None if None in stmts else tuple(stmts)

    def raw(self, stmts):
        return [_entry_raw(st.schema.rows, st.values) for st in stmts]


class _Program(_Block):
    """A thread's behavior; a handler's may not wait."""

    def __init__(self, handler):
        self.handler = handler

    def read(self, problems, value, path):
        return parse_program(value, path, problems, handler=self.handler)

    def build(self, stmts, annotations):
        return build_factory(stmts, annotations, handler=self.handler)


# "forever" reaches the kernel as a timeout of None
_POS_OR_FOREVER = _Is(lambda v: v == "forever" or is_int(v) and v >= 1,
                      'be an integer >= 1 or "forever"',
                      lambda v, _: None if v == "forever" else v)
_TIMEOUT = _Row("timeout", _POS_OR_FOREVER, "forever")
_COUNT = _Row("count", _Int(1), 1)
_VAR = _Is(lambda v: isinstance(v, str) and v.isidentifier(),
           "be a variable name")
_AS, _REF = _Row("as", _VAR), _Row("ref", _VAR)


def _text(build=None):
    return _Is(lambda v: isinstance(v, str) and v != "",
               "be a non-empty string", build)


def _bits(key, minimum):
    return _Row(key, _Int(minimum, _PATTERN_MASK, f"'{key}' must fit 32 bits"))


def _id(key, obj):
    """A required argument that names an object of kind ``obj`` by id."""
    return _Row(key, _Int(1), names=obj)


def _service(name, method, waits, *rows, what=None):
    """The kind of ``{call: name, ...}``.  The argument values reach the
    kernel method positionally, in the order of ``rows``, except ``as``,
    which binds the service's result to a name, and ``ref``, the last,
    which passes the ``what`` bound to its name.  The method is looked
    up on the kernel instance at call time, so wrappers set on it see
    every call.  A file lists the arguments in key order.  As in uITRON
    (E_CTX), only a task may call a service that ``waits``: a handler
    runs each activation to completion."""
    order = [row.key for row in rows if row.key not in ("as", "ref")]

    def op(**args):
        values = tuple(args[key] for key in order)
        if what is not None:
            return (_RELEASE, method, values, args["ref"], what)
        return (_CALL, method, values, args.get("as"))
    return _Kind(name, (_Row("call", _GIVEN, keyword=None),
                        *sorted(rows, key=lambda row: row.key)), op,
                 waits=waits)


_SERVICES = {k.name: k for k in (
    _service("sleep", "sleep", True, _TIMEOUT),
    _service("wakeup", "wakeup", False, _id("task", "task")),
    _service("delay", "delay", True, _Row("ticks", _Int(1))),
    _service("exit", "exit_task", False),
    _service("start", "start_task", False, _id("task", "task")),
    _service("sem_wait", "sem_wait", True,
             _id("sem", "semaphore"), _COUNT, _TIMEOUT),
    _service("sem_signal", "sem_signal", False,
             _id("sem", "semaphore"), _COUNT),
    _service("flg_wait", "flag_wait", True, _id("flag", "flag"),
             _bits("pattern", 1),
             _Row("mode", _Is(lambda v: v in ("and", "or"), 'be "and" or "or"',
                              lambda v, _: (FLAG_MODE_AND if v == "and"
                                            else FLAG_MODE_OR)), "or"),
             _Row("clear", _OneOf((True, False)), False), _TIMEOUT),
    _service("flg_set", "flag_set", False, _id("flag", "flag"),
             _bits("pattern", 0)),
    _service("flg_clear", "flag_clear", False, _id("flag", "flag"),
             _bits("mask", 0)),
    _service("mbx_send", "mbx_send", False, _id("mailbox", "mailbox"),
             _Row("payload", _text()), _Row("priority", _Int(0), 0)),
    _service("mbx_recv", "mbx_recv", True, _id("mailbox", "mailbox"),
             _TIMEOUT),
    _service("mbf_send", "mbf_send", True, _id("buffer", "buffer"),
             _Row("payload", _text(lambda v, _: v.encode("utf-8"))),
             _TIMEOUT),
    _service("mbf_recv", "mbf_recv", True, _id("buffer", "buffer"),
             _TIMEOUT),
    _service("mtx_lock", "mtx_lock", True, _id("mutex", "mutex"), _TIMEOUT),
    _service("mtx_unlock", "mtx_unlock", False, _id("mutex", "mutex")),
    _service("pool_get", "pool_get", True, _id("pool", "fixed_pool"), _AS,
             _TIMEOUT),
    _service("pool_rel", "pool_release", False, _id("pool", "fixed_pool"),
             _REF, what="pool block"),
    _service("vpool_get", "vpool_get", True, _id("pool", "variable_pool"),
             _Row("size", _Int(1)), _AS, _TIMEOUT),
    _service("vpool_rel", "vpool_release", False,
             _id("pool", "variable_pool"), _REF, what="pool region"),
)}

_BLOCK = _Block()


def _loop(count):
    return _Kind("loop", (_Row("loop", _Fixed(True)),
                          _Row("count", count, "forever", write_default=True),
                          _Row("body", _BLOCK)))


# head key -> the kind of statement it starts, or its kinds by the
# head's value.  `loop: forever` reads as `loop: true` with `count:
# forever`, its only count.
_HEADS = {
    "compute": _Kind("compute", (_Row("compute", _NAME, names="annotation"),),
                     lambda compute: (_COMPUTE, compute)),
    "call": _SERVICES,
    # the head names a device and one of its accesses
    "bfm": _Kind("bfm", (
        _Row("bfm", _Is(lambda v: isinstance(v, str) and all(v.partition(".")),
                        "be device.access"), names="device"),
        _Row("addr", _Int(0), None),
        _Row("value", _Int(0, 0xFF, "bfm argument 'value' must be a byte "
                                    "(0..255)"), None),
    ), lambda bfm, **args: (_CALL, "bfm_call", (*bfm.split(".", 1), args),
                            None)),
    "loop": {True: _loop(_POS_OR_FOREVER),
             "forever": _loop(_Is(lambda v: v == "forever",
                                  'be "forever" in a forever loop'))},
}


def _read_statement(problems, raw, path):
    if not isinstance(raw, dict):
        problems.append((path, "statement must be a mapping"))
        return None
    for head, kind in _HEADS.items():
        if head in raw:
            break
    else:
        problems.append((path, "statement is not compute, call, bfm, or loop"))
        return None
    if not isinstance(kind, _Kind):  # chosen by the head's value
        kinds, value = kind, raw[head]
        # typed first: a list is no key, and 1 == True is no `loop: true`
        kind = kinds.get(value) if isinstance(value, (str, bool)) else None
        if kind is None:
            problems.append((path + (head,), f"'{head}' must be one of: "
                             + ", ".join(str(k).lower() for k in kinds)))
            return None
    values = _read_entry(problems, raw, path, kind)
    return None if values is None else Entry(kind.name, values, kind, path)


def parse_program(raw, path, problems, *, handler=False):
    """Parse a raw statement list into a statement tuple.

    Appends ``(path, message)`` pairs to ``problems`` and returns None when
    anything is wrong.  Cross references are the caller's job: each row
    says what it names.  A handler may not call a service that can
    wait, and a forever loop may only be a task's final top-level
    statement.
    """
    reported = len(problems)
    stmts = _BLOCK.read(problems, raw, path)
    for st in iter_statements(stmts or ()):
        forever = st.kind == "loop" and st.count == "forever"
        if handler and st.schema.waits:
            problems.append((st.path, f"a handler cannot call '{st.kind}', "
                                      "which can wait; only tasks may wait"))
        elif forever and handler:
            problems.append((st.path, "forever loops are only legal in tasks"))
        elif forever and st is not stmts[-1]:
            problems.append((st.path, "a forever loop must be the final "
                                      "top-level statement"))
    return stmts if len(problems) == reported else None


def iter_statements(statements):
    """Every statement of a program, depth-first: a loop, then its body."""
    for st in statements:
        yield st
        for value in st.values:
            if isinstance(value, tuple):  # a loop's body
                yield from iter_statements(value)


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
            if st.kind == "loop":
                loop(st, mark=False)
            else:
                ops.append(_declare(st, None))  # the op its rows build

    def loop(st, *, mark):
        nonlocal counters
        if st.count == "forever":
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

    if not handler and statements and statements[-1].kind == "loop":
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
            res = yield from getattr(kernel, op[1])(*op[2])
            if op[3] is not None and res.ok:
                refs[op[3]] = res.value
        elif code == _BACK:
            left = count[op[1]] - 1
            count[op[1]] = left
            if left:
                pc = op[2]
        elif code == _HEAD:
            count[op[1]] = op[2]
        elif code == _MARK:
            api.mark_cycle()
        elif code == _AGAIN:
            pc = op[1]
        else:  # _RELEASE
            name = op[3]
            if name not in refs:
                raise UsageError(f"{op[4]} reference '{name}' was never obtained")
            yield from getattr(kernel, op[1])(*op[2], refs.pop(name))


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
