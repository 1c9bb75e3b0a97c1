"""Outside-in tracing for the per-layer run.

Nothing under `src/` knows about this module.  A `Probe` wraps the public
entry points of one kernel instance (and, while a traced simulation is
being built, `rtksim.behavior.build_factory`) with spans and counters:

* `parse_scenario_text`, `build_kernel`, `Kernel.boot`, `run` + `finish`
  and each renderer are root spans opened by `pipeline.simulate`;
* `engine.on_tick` (timers, stimuli, deadlock check) -> ``hook``;
* every send into a thread's top-level generator -> ``resume``;
* every send into a body made by a `build_factory` factory -> ``behavior``;
* every send into a `Kernel` service or `bfm_call` generator ->
  ``svc:<name>``;
* the public `WaitQueue` methods of every kernel object -> ``waitqueue``;
* `DeviceRegistry.perform` -> ``bfm.perform``;
* the trace sink's `record` -> ``sink``.

Spans are kept in flat arrays while the run goes and turned into
self times afterwards: a span's self time is its duration minus the
durations of its direct children, which lie inside it because the
spans nest like the call stack.  The wrappers are instance attributes
set on the kernel built for the traced run (plus one module attribute
restored when the run ends), so the untraced runs execute the program
unchanged.
"""

from __future__ import annotations

import contextlib
import time
from array import array

from rtksim import behavior
from rtksim.trace import CTL_DISPATCH, CTL_INT_ENTER, CTL_PREEMPT

SERVICES = (
    "sleep", "wakeup", "delay", "start_task", "exit_task",
    "sem_wait", "sem_signal", "flag_wait", "flag_set", "flag_clear",
    "mbx_send", "mbx_recv", "mbf_send", "mbf_recv",
    "mtx_lock", "mtx_unlock", "pool_get", "pool_release",
    "vpool_get", "vpool_release", "bfm_call",
)
MUTEX_SERVICES = ("mtx_lock", "mtx_unlock")
WAITQUEUE_METHODS = ("add", "peek", "pop", "remove", "waiters", "ordered")
_COUNTED_ROWS = (CTL_DISPATCH, CTL_PREEMPT, CTL_INT_ENTER)

_now = time.perf_counter_ns


class Spans:
    """Flat, append-only span storage; parents open before children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int):
        stack = self._stack
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(i)
        self.start.append(_now())

    def finish(self):
        t = _now()
        self.end[self._stack.pop()] = t

    def self_times(self):
        """Per span: (name, duration ns, self ns)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [(self.names[self.name[i]], dur[i], dur[i] - child[i])
                for i in range(n)]

    def write_csv(self, path):
        base = min(self.start) if len(self.start) else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,name,parent,start_ns,end_ns\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i] - base},{self.end[i] - base}\n")


class _SpanGen:
    """Generator stand-in that times every resume of the wrapped one."""

    __slots__ = ("_gen", "_spans", "_nid")

    def __init__(self, gen, spans, nid):
        self._gen = gen
        self._spans = spans
        self._nid = nid

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        spans = self._spans
        spans.begin(self._nid)
        try:
            return self._gen.send(value)
        finally:
            spans.finish()

    def throw(self, *exc):
        spans = self._spans
        spans.begin(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            spans.finish()

    def close(self):
        self._gen.close()


class _CountingSink:
    """Times the inner sink's `record` and counts the control rows."""

    def __init__(self, inner, spans, counts):
        self._inner = inner
        self._spans = spans
        self._nid = spans.name_id("sink")
        self._counts = counts

    def record(self, rec):
        self._counts["records"] += 1
        if rec.etm_ticks == 0 and rec.label in _COUNTED_ROWS:
            self._counts[rec.label] += 1
        self._spans.begin(self._nid)
        self._inner.record(rec)
        self._spans.finish()

    def close(self):
        self._inner.close()


class Probe:
    """Instrumentation for one traced simulation."""

    def __init__(self):
        self.spans = Spans()
        self.counts = dict.fromkeys(
            ("records", "svc_calls", "bfm_accesses", "dropped_irqs")
            + _COUNTED_ROWS, 0)
        self.waitqueue_len_max = 0
        self.tick_ns = array("q")

    # -- hooks called by pipeline.simulate --------------------------------

    @contextlib.contextmanager
    def span(self, name):
        self.spans.begin(self.spans.name_id(name))
        try:
            yield
        finally:
            self.spans.finish()

    def sink(self, inner):
        return _CountingSink(inner, self.spans, self.counts)

    @contextlib.contextmanager
    def factories(self):
        """Wrap the bodies of every factory `build_factory` makes."""
        original = behavior.build_factory
        spans = self.spans
        nid = spans.name_id("behavior")

        def build_factory(statements, annotations, *, handler=False):
            factory = original(statements, annotations, handler=handler)

            def traced_factory(ctx):
                return _SpanGen(factory(ctx), spans, nid)
            return traced_factory

        behavior.build_factory = build_factory
        try:
            yield
        finally:
            behavior.build_factory = original

    def built(self, kernel):
        spans, counts = self.spans, self.counts
        for name in SERVICES:
            setattr(kernel, name, self._service(getattr(kernel, name),
                                                spans.name_id("svc:" + name)))
        perform = kernel.devices.perform
        nid = spans.name_id("bfm.perform")

        def traced_perform(*args):
            counts["bfm_accesses"] += 1
            spans.begin(nid)
            try:
                return perform(*args)
            finally:
                spans.finish()
        kernel.devices.perform = traced_perform

    def booted(self, kernel):
        eng = kernel.engine
        spans, counts, tick_ns = self.spans, self.counts, self.tick_ns

        on_tick = eng.on_tick
        hook = spans.name_id("hook")

        def traced_on_tick(now):
            spans.begin(hook)
            try:
                on_tick(now)
            finally:
                spans.finish()
        eng.on_tick = traced_on_tick

        run_one_tick = eng.run_one_tick

        def timed_tick():
            t = _now()
            run_one_tick()
            tick_ns.append(_now() - t)
        eng.run_one_tick = timed_tick

        raise_interrupt = eng.raise_interrupt

        def counted_raise(handler_id):
            taken = raise_interrupt(handler_id)
            if taken is False:
                counts["dropped_irqs"] += 1
            return taken
        eng.raise_interrupt = counted_raise

        resume = spans.name_id("resume")
        for th in eng.threads():
            if th.gen is not None:
                th.gen = _SpanGen(th.gen, spans, resume)
            th.body = _traced_body(th.body, spans, resume)

        for registry in (kernel.semaphores, kernel.flags, kernel.mutexes,
                         kernel.mailboxes, kernel.fixed_pools,
                         kernel.variable_pools):
            for obj in registry.values():
                self._queue(obj.queue)
        for buf in kernel.buffers.values():
            self._queue(buf.send_queue)
            self._queue(buf.recv_queue)

    # -- wrappers ---------------------------------------------------------

    def _service(self, method, nid):
        spans, counts = self.spans, self.counts

        def traced(*args, **kwargs):
            counts["svc_calls"] += 1
            return _SpanGen(method(*args, **kwargs), spans, nid)
        return traced

    def _queue(self, queue):
        spans = self.spans
        nid = spans.name_id("waitqueue")
        for name in WAITQUEUE_METHODS:
            method = getattr(queue, name)

            def traced(*args, _method=method):
                spans.begin(nid)
                try:
                    return _method(*args)
                finally:
                    spans.finish()
            setattr(queue, name, traced)
        add = queue.add

        def traced_add(*args):
            add(*args)
            if len(queue) > self.waitqueue_len_max:
                self.waitqueue_len_max = len(queue)
        queue.add = traced_add


def _traced_body(body, spans, nid):
    def traced(api):
        return _SpanGen(body(api), spans, nid)
    return traced
