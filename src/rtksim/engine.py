"""Core execution engine: resumable activities over simulated ticks.

Threads (tasks and handlers) are Python generators multiplexed by a
single trampoline; a body gives up control only at annotated wait
points and blocking waits.  Simulated time advances in integer ticks
and every tick interval [t, t+1) is attributed to exactly one activity,
so time and energy conservation hold by construction.

The engine owns each thread's lifecycle, so a body is a plain generator
that runs from its start to its end.  Every body is built with the
engine's one ``ThreadApi``, whose operations act for the running thread
(``current_id``), as the kernel's services do:
  * a started task's body is built at its first dispatch and runs until
    it returns or yields ``api.exit()``; either ends the task (DORMANT),
    and a restart builds a fresh body.
  * an armed handler waits for an activation: a handler is armed
    exactly while it is WAITING.  Each activation builds a fresh body
    and runs it to completion, like one call of a run-to-completion
    method; its return is the handler's return from interrupt (one
    more cycle on its token), and the handler then waits for its next
    activation.  A handler cannot exit.

A thread is in one of four states: DORMANT (a new thread, an ended
task, an unarmed handler), READY, RUNNING or WAITING.

Scheduling model:
  * priorities: smaller integer wins; equal priority is FIFO by the
    tick a thread last became ready, ties on the same tick by id.
    A thread's ``ready_key`` is that (tick, id) stamp, kept across a
    dispatch, so a preempted thread goes back to the head of its
    priority class.  The READY tasks sit in one ready_key-sorted list
    per current priority, with a bitmap of the non-empty classes, so the
    best one is read off without a scan.
    After boot only ``set_priority`` writes a current priority, and it
    moves a ready thread to its new place at once.
  * preemption and interrupt delivery are checked at wait boundaries
    and between ticks of a multi-tick wait; a partial segment is
    accounted tick-exactly.  Each check reads the ready bitmap against
    the running task's ``outranked_by`` mask, so a thread readied or a
    priority changed by anyone takes effect at the next check.
  * handler activations always displace tasks.  While any handler is
    active, a task dispatch cannot be committed; it happens after the
    outermost handler returns (delayed dispatching).
  * while a critical section is open, neither a preemption nor a
    handler entry is committed; both are deferred until the first
    boundary after it closes.

A kernel service's SVC request is critical: ``_step`` opens a critical
section when it takes one and closes it when the segment ends, then
resumes the service, so the service's effect runs in that same step,
before the gate.  The section's rows (CRIT_ENTER, the segment,
CRIT_EXIT) are one trace record whose ``section`` names their context
(see ``trace``), written as the segment's record at its end.  A window
that ends inside the section has ``finish`` write its CRIT_ENTER row on
its own, then the segment's record.

An Engine takes the whole thread table at once, each thread DORMANT as
built.

Energy is tracked as integer micro-joules.  A multi-tick annotation
charges eem // etm per tick, with the remainder applied on its final
tick, so split segments sum exactly to the annotated amount; a zero-tick
one's energy is all remainder, charged when its record is written.
Every record of a segment is written by ``_close_record``, from the
clock: its ticks run from the resume that opened it to now, at
eem // etm each, plus the remainder if they end the segment.

The idle thread is the one that runs this module's ``idle_body``,
whose one wait never ends: it is charged for every tick nobody else
wants, and its body is resumed only at the first dispatch.  A stretch
of idle ticks is written when it closes, at a preemption, an interrupt
entry or ``finish``, as the one-tick rows it stands for: its first row,
then one record whose ``repeat`` counts the rest (see ``trace``).

A caller that knows the tick hook has no work for a while may ``coast``
instead of stepping: with nothing for the gate to commit, the rest of
the running segment is consumed with one accounting step, and the
trace records are those stepping writes.

Trace rows are plain TraceRecord dataclasses, each built positionally
where it is written, with the enum strings read through ``_value_``,
and handed to the sink's ``record``, bound once at construction.  Every
record but an idle stretch's rows after its first has ``repeat`` 1.

A stepped tick runs in one frame, ``run_one_tick``.  It calls the gate,
the only place a transfer is committed, only when there is one to
commit, and ``_step`` only when the running segment is done; ``_step``
takes a body's wait request itself and leaves the rarer requests to
``_handle_request``.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass

from .errors import (
    ConflictError,
    ConsistencyError,
    NotFoundError,
    ProtocolError,
    SchedulerEmptyError,
    StateError,
    UsageError,
    ValidationError,
)
from .trace import (
    CTL_BLOCK,
    CTL_CRIT_ENTER,
    CTL_DISPATCH,
    CTL_EXIT,
    CTL_INT_ENTER,
    CTL_INT_RETURN,
    CTL_PREEMPT,
    NullSink,
    TraceRecord,
    is_int,
    valid_name,
)

_ZERO_TIME_STEP_LIMIT = 1_000_000
# the ticks left of the idle segment: an int that no run can count down,
# so every tick charged to it stays integer arithmetic
_ENDLESS = sys.maxsize


class EventKind(enum.Enum):
    """What resumed (or started) an activity."""

    STARTUP = "STARTUP"
    CONTINUE_RUN = "CONTINUE_RUN"
    RETURN_FROM_PREEMPTION = "RETURN_FROM_PREEMPTION"
    RETURN_FROM_INTERRUPT = "RETURN_FROM_INTERRUPT"
    SLEEP_ARRIVAL = "SLEEP_ARRIVAL"


class ContextKind(enum.Enum):
    STARTUP = "STARTUP"
    TASK = "TASK"
    SVC = "SVC"
    CYC_HANDLER = "CYC_HANDLER"
    ALM_HANDLER = "ALM_HANDLER"
    ISR = "ISR"
    BFM = "BFM"
    IDLE = "IDLE"


class ThreadKind(enum.Enum):
    TASK = "TASK"
    CYCLIC = "CYCLIC"
    ALARM = "ALARM"
    ISR = "ISR"

    @property
    def is_handler(self) -> bool:
        return self is not ThreadKind.TASK


_HANDLER_CONTEXT = {
    ThreadKind.CYCLIC: ContextKind.CYC_HANDLER,
    ThreadKind.ALARM: ContextKind.ALM_HANDLER,
    ThreadKind.ISR: ContextKind.ISR,
}


class ThreadState(enum.Enum):
    DORMANT = "DORMANT"
    READY = "READY"
    RUNNING = "RUNNING"
    WAITING = "WAITING"


# the transitions the scheduler makes, as the legal next states of each
# state, keyed by its value because Enum.__hash__ runs Python code;
# arm_handler sets the state directly.
_NEXT_STATES = {
    "DORMANT": (ThreadState.READY,),
    "READY": (ThreadState.RUNNING,),
    "RUNNING": (ThreadState.READY, ThreadState.WAITING, ThreadState.DORMANT),
    # a waiting handler runs when it is activated
    "WAITING": (ThreadState.READY, ThreadState.RUNNING),
}


@dataclass(frozen=True)
class Annotation:
    """Time/energy budget of one wait segment: etm in ticks, eem in uJ."""

    label: str
    etm: int
    eem_uj: int = 0

    def validate(self):
        # every body a behavior program builds validates its annotations,
        # so the bool test is inline, with no call to trace.is_int
        etm, eem_uj = self.etm, self.eem_uj
        if not valid_name(self.label):
            raise ValidationError(
                f"annotation {self.label!r}: use letters, digits, _ . -")
        if not isinstance(etm, int) or type(etm) is bool or etm < 0:
            raise ValidationError(f"annotation {self.label!r}: etm must be an int >= 0")
        if not isinstance(eem_uj, int) or type(eem_uj) is bool or eem_uj < 0:
            raise ValidationError(f"annotation {self.label!r}: eem must be >= 0")


@dataclass
class Token:
    """Per-thread accumulator: the single token of the activity's net."""

    cet: int = 0        # cumulative execution time, ticks
    cee_uj: int = 0     # cumulative energy, micro-joules
    cycles: int = 0     # completed body cycles


class Resume:
    """Value sent into a body generator when it regains control."""

    __slots__ = ("event", "payload")

    def __init__(self, event: EventKind, payload=None):
        self.event = event
        self.payload = payload


# what a body gets back when nothing else resumed it; nothing changes a
# Resume, so one instance serves every such step
_CONTINUE = Resume(EventKind.CONTINUE_RUN)


# --- requests yielded by bodies to the trampoline (internal protocol) ---

class _WaitRequest:
    """Charge ``annotation`` as one segment in ``context_kind``; the
    per-tick energy split is worked out once, here.  While a thread
    charges the segment, the request is the thread's ``seg``.  A
    ``critical`` segment, a kernel service's, runs in a critical section
    that opens when the engine takes it and closes when it ends."""

    __slots__ = ("label", "etm", "eem_uj", "context_kind",
                 "per_tick_uj", "rem_uj", "critical")

    def __init__(self, annotation, context_kind, critical=False):
        self.label = annotation.label
        self.etm = etm = annotation.etm
        self.eem_uj = annotation.eem_uj
        self.context_kind = context_kind
        self.critical = critical
        if etm > 0:
            self.per_tick_uj, self.rem_uj = divmod(annotation.eem_uj, etm)
        else:  # no tick charges it: all its energy goes with its end
            self.per_tick_uj, self.rem_uj = 0, annotation.eem_uj


class _BlockRequest:
    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason


class _ExitRequest:
    __slots__ = ()


# the idle thread's one segment: one-tick "idle" rows in IDLE context,
# charged for as long as nothing else runs (see ``_step``)
_IDLE_SEGMENT = _WaitRequest(Annotation("idle", 1, 0), ContextKind.IDLE)


def idle_body(api):
    """Body of the idle thread: the idle segment, which never ends."""
    while True:
        yield _IDLE_SEGMENT


class SimThread:
    """An activity: task, idle task, or time/interrupt handler.

    ``body`` is a callable taking the engine's ThreadApi and returning a
    generator.
    ``gen`` is None until the engine first steps a dispatched task or an
    entered handler, which builds a fresh generator from ``body``; it goes
    back to None when the task ends or the handler returns, so a task can
    be restarted and each handler activation runs a fresh body.  The
    token keeps accumulating across them all.

    A thread starts DORMANT, and it is the idle thread if its body is
    ``idle_body``.  ``outranked_by`` masks the ready bitmap's classes
    that preempt it; it is written with ``current_priority`` and stays 0
    for a handler, which only its own return ends.

    A segment's state lives on its thread: ``seg`` is the request being
    charged and ``seg_left`` its ticks left, which for the idle segment
    never run out.  A thread with ticks left always has its ``seg``, so
    a tick may be charged on ``seg_left`` alone.  ``rec_start`` and
    ``rec_event`` open the segment's trace record, which a suspension
    closes and a resume reopens: the thread has charged every tick
    since ``rec_start`` to the segment, so the clock gives the record's
    ticks and the segment their energy.
    """

    def __init__(self, thread_id: int, name: str, kind: ThreadKind,
                 priority: int, body):
        if not is_int(thread_id) or thread_id <= 0:
            raise ValidationError("thread id must be a positive integer")
        if not is_int(priority) or priority < 0:
            raise ValidationError("priority must be an integer >= 0")
        self.id = thread_id
        self.name = name
        self.kind = kind
        self.base_priority = priority
        self.current_priority = priority
        self.outranked_by = (1 << priority) - 1 if kind is ThreadKind.TASK else 0
        self.is_idle = is_idle = body is idle_body
        if kind.is_handler:
            self.default_context = _HANDLER_CONTEXT[kind]
        else:
            self.default_context = ContextKind.IDLE if is_idle else ContextKind.TASK
        self.body = body
        self.state = ThreadState.DORMANT
        self.token = Token()

        self.gen = None
        self.pending_resume: Resume | None = None
        self.seg: _WaitRequest | None = None
        self.seg_left = 0
        self.rec_start = 0
        self.rec_event = EventKind.CONTINUE_RUN
        self.waiting_reason: str | None = None
        self.ready_key = None  # (tick it last became ready, id)
        self.svc_ticks = 0  # consumed in SVC context
        self.run_streak = 0
        self.max_streak = 0

    def __repr__(self):
        return f"<SimThread {self.id} {self.name} {self.state.value}>"


class ThreadApi:
    """Operations a body may invoke, each for the running thread: the
    engine keeps one, and hands it to every body it builds.

    Generator methods must be driven with ``yield from``; plain methods
    are immediate bookkeeping and never transfer control.  Starting a
    body, activating a handler and returning from it are the engine's
    work, not operations: a body simply runs, and a handler returns.
    """

    def __init__(self, engine: "Engine"):
        self._engine = engine

    def segment(self, annotation: Annotation,
                context_kind: ContextKind | None = None):
        """Validate ``annotation`` once and return a reusable request that
        charges it as one segment in ``context_kind`` (by default the
        running thread's own context).  The thread's body yields the
        request itself; the value sent back is the Resume that let the
        segment finish."""
        annotation.validate()
        if context_kind is None:
            eng = self._engine
            context_kind = eng._table[eng.current_id].default_context
        return _WaitRequest(annotation, context_kind)

    # -- yielding operations ------------------------------------------------

    def wait(self, annotation: Annotation, context_kind: ContextKind | None = None):
        """Charge one annotated segment; returns the EventKind that let
        the segment finish (CONTINUE_RUN when it was never suspended)."""
        value = yield self.segment(annotation, context_kind)
        return value.event

    def wait_event(self, reason: str = "event wait"):
        """Block until another party releases the running thread; returns
        the EventKind delivered by the release."""
        value = yield _BlockRequest(reason)
        return value.event

    def exit(self):
        """End the running task from any depth of nested generators."""
        yield _ExitRequest()

    # -- immediate operations -----------------------------------------------

    def mark_cycle(self):
        eng = self._engine
        eng._table[eng.current_id].token.cycles += 1


class Engine:
    """Owns the thread table, clock, interrupt stack and trampoline."""

    def __init__(self, threads, trace_sink=None):
        """Hold ``threads``, each DORMANT, and write to ``trace_sink``."""
        self.now = 0
        self.current_id: int | None = None
        self.on_tick = None  # callable(now) run after each stepped tick
        self.api = ThreadApi(self)  # every body's, acting for the running thread
        self._table: dict[int, SimThread] = {}
        for th in threads:
            if th.id in self._table:
                raise ConflictError(f"thread id {th.id} given twice")
            self._table[th.id] = th
        # current priority -> its READY tasks' sorted ready_keys; bit p
        # set while class p is non-empty
        self._classes: dict[int, list[tuple[int, int]]] = {}
        self._ready_bits = 0
        # the interrupt stack: the thread each entered handler interrupted
        # (None for an idle CPU), innermost last
        self._stack: list[int | None] = []
        self._pending_activations: list[int] = []
        # None while no section is open; else the context of its rows
        self._section: str | None = None
        self._trace = NullSink() if trace_sink is None else trace_sink
        self._record = self._trace.record
        self._finished = False

    # ------------------------------------------------------------------
    # the thread table

    def threads(self):
        return list(self._table.values())

    def thread(self, thread_id: int) -> SimThread:
        return self._get(thread_id)

    # ------------------------------------------------------------------
    # control operations (callable from hooks and service effects)

    def start_thread(self, thread_id: int):
        th = self._get(thread_id)
        if th.state is not ThreadState.DORMANT:
            raise StateError(f"cannot start {th.name}: state {th.state.value}")
        if th.kind.is_handler:
            raise ProtocolError("handlers are armed, not started")
        self._make_ready(th)

    def arm_handler(self, thread_id: int):
        """Make a handler wait for its first activation (state WAITING).
        No body exists until an activation is entered; each activation
        builds a fresh one, and its return ends the activation."""
        th = self._get(thread_id)
        if not th.kind.is_handler:
            raise ProtocolError(f"{th.name} is not a handler")
        if th.state is not ThreadState.DORMANT:
            raise StateError(f"cannot arm {th.name}: state {th.state.value}")
        th.state = ThreadState.WAITING  # arming is not a scheduled transition

    def raise_interrupt(self, handler_id: int):
        """Queue a handler activation.

        Activations nest LIFO in queueing order at the next boundary.
        Only a handler that waits (state WAITING) and is not queued yet
        takes the request; a busy one, mid-activation or already queued,
        drops it and returns False.  A dormant handler is an error.
        """
        th = self._get(handler_id)
        if not th.kind.is_handler:
            raise ProtocolError(f"{th.name} is not a handler")
        if th.state is ThreadState.DORMANT:
            raise NotFoundError(f"handler {th.name} is not armed")
        if (th.state is not ThreadState.WAITING
                or handler_id in self._pending_activations):
            return False  # busy: request dropped
        self._pending_activations.append(handler_id)
        return True

    def release(self, thread_id: int, event: EventKind, payload=None):
        """Move a WAITING thread to READY, recording its resume event."""
        th = self._get(thread_id)
        if th.state is not ThreadState.WAITING:
            raise StateError(f"cannot release {th.name}: state {th.state.value}")
        if th.kind is not ThreadKind.TASK:
            raise ProtocolError("handlers are activated, not released")
        th.pending_resume = Resume(event, payload)
        th.waiting_reason = None
        self._make_ready(th)

    def set_priority(self, thread_id: int, priority: int):
        """Set a thread's current priority; a ready thread moves to its
        place in the new class at once, keeping its ready stamp.  A
        running task that a ready thread now outranks is preempted at
        the next boundary."""
        if not is_int(priority) or priority < 0:
            raise ValidationError("priority must be an integer >= 0")
        th = self._get(thread_id)
        th.outranked_by = (1 << priority) - 1 if th.kind is ThreadKind.TASK else 0
        if th.state is ThreadState.READY and th.kind is ThreadKind.TASK:
            self._dequeue(th)
            th.current_priority = priority
            self._enqueue(th)
        else:
            th.current_priority = priority

    def stalled(self):
        """The (id, name, reason) rows of the waiting tasks if the run is
        stalled: no activation pending and nothing but idle running or
        ready.  Otherwise, or if no task waits, ``[]``."""
        others = [th for th in self._table.values() if not th.is_idle]
        if self._pending_activations or any(
                th.state is ThreadState.RUNNING or th.state is ThreadState.READY
                for th in others):
            return []
        return [(th.id, th.name, th.waiting_reason or "waiting")
                for th in others
                if th.state is ThreadState.WAITING and th.kind is ThreadKind.TASK]

    # ------------------------------------------------------------------
    # run control

    def run_ticks(self, n: int):
        """Step ``n`` ticks; after ``finish`` raise UsageError, since the
        trace is closed."""
        if self._finished:
            raise UsageError("the run is finished: its trace is closed")
        for _ in range(n):
            self.run_one_tick()

    def run_one_tick(self):
        """Advance exactly one tick interval and fire the tick hook.

        It is the kernel's per-tick step, so it tests nothing about
        ``finish``: ``run_ticks`` and ``Kernel.run`` refuse a finished
        run once per call."""
        table = self._table
        guard = 0
        while True:
            # the gate's work, tested first and inline as in ``coast``,
            # so a busy tick pays no call for it; inside a critical
            # section it waits until the section closes
            cur = self.current_id
            if cur is None or self._section is None and (
                    self._pending_activations
                    or self._ready_bits & table[cur].outranked_by):
                self._gate()
                cur = self.current_id
            th = table[cur]
            if th.seg_left:
                self._consume(th, th.seg, 1)
                break
            self._step(th)
            guard += 1
            if guard > _ZERO_TIME_STEP_LIMIT:
                raise ConsistencyError(
                    f"zero-time livelock at tick {self.now} in {th.name}"
                )
        self.now += 1
        if self.on_tick is not None:
            self.on_tick(self.now)

    def coast(self, limit: int) -> int:
        """Consume up to ``limit`` ticks that need no scheduling decision
        in one step, without the tick hook, and return how many.

        The caller vouches that the hook has no work at the end of any of
        them.  A coast needs a gate with nothing to commit, and then takes
        what the next ``run_one_tick`` calls would do without a decision:
        the rest of the running segment, up to ``limit`` ticks.  Otherwise
        it consumes nothing.
        """
        cur = self.current_id
        if cur is None:
            return 0
        th = self._table[cur]
        n = min(limit, th.seg_left)
        if n <= 0 or self._section is None and (
                self._pending_activations
                or self._ready_bits & th.outranked_by):
            return 0
        self._consume(th, th.seg, n)
        self.now += n
        return n

    def finish(self):
        """Flush the open record (if any) and close the trace sink."""
        if self._finished:
            return
        self._finished = True
        if self.current_id is not None:
            th = self._table[self.current_id]
            if self._section is not None:  # the window ends inside it
                start = th.rec_start
                self._record(TraceRecord(
                    start, start, th.id, th.name, self._section,
                    CTL_CRIT_ENTER, 0, 0, ""))
                self._section = None
            if th.seg is not None:
                self._close_record(th)
        self._trace.close()

    # ------------------------------------------------------------------
    # internals

    def _get(self, thread_id: int) -> SimThread:
        try:
            return self._table[thread_id]
        except KeyError:
            raise NotFoundError(f"no thread with id {thread_id}") from None

    def _set_state(self, th: SimThread, state: ThreadState):
        if state not in _NEXT_STATES[th.state._value_]:
            raise StateError(
                f"illegal transition {th.state.value} -> {state.value} for {th.name}"
            )
        th.state = state

    def _make_ready(self, th: SimThread):
        self._set_state(th, ThreadState.READY)
        th.ready_key = (self.now, th.id)
        self._enqueue(th)

    def _enqueue(self, th: SimThread):
        key = th.ready_key
        prio = th.current_priority
        q = self._classes.get(prio)
        if q:
            insort(q, key)
        else:
            self._classes[prio] = [key]
            self._ready_bits |= 1 << prio

    def _dequeue(self, th: SimThread):
        prio = th.current_priority
        q = self._classes[prio]
        del q[bisect_left(q, th.ready_key)]
        if not q:
            self._ready_bits ^= 1 << prio

    def _pick_ready(self) -> int | None:
        """The head of the best non-empty class (its lowest set bit)."""
        bits = self._ready_bits
        if not bits:
            return None
        return self._classes[(bits & -bits).bit_length() - 1][0][1]

    def _emit_control(self, th: SimThread, label: str,
                      event: EventKind | None = None,
                      context: ContextKind | None = None):
        ctx = context if context is not None else th.default_context
        now = self.now
        self._record(TraceRecord(
            now, now, th.id, th.name, ctx._value_, label, 0, 0,
            event._value_ if event is not None else ""))

    # --- trampoline ----------------------------------------------------

    def _gate(self):
        """Commit pending control transfers; its caller tests that no
        critical section is open.  Zero simulated time."""
        while True:
            if self._pending_activations:
                hid = self._pending_activations.pop(0)
                self._enter_activation(hid)
                continue
            if self.current_id is None:
                nxt = self._pick_ready()
                if nxt is None:
                    raise SchedulerEmptyError(
                        f"nothing runnable at tick {self.now}"
                    )
                self._dispatch(nxt)
                continue
            # a ready thread of a better class preempts a task
            th = self._table[self.current_id]
            if self._ready_bits & th.outranked_by:
                self._suspend_current(EventKind.RETURN_FROM_PREEMPTION)
                # a task that outranks its own class would be dispatched
                # and preempted again for ever, in zero time
                if self._pick_ready() == th.id:
                    raise ConsistencyError(
                        f"preemption loop at tick {self.now}: {th.id}:{th.name}"
                        f" is the best ready thread after its own preemption")
                continue
            return

    def _dispatch(self, thread_id: int):
        th = self._table[thread_id]
        self._dequeue(th)
        self._set_state(th, ThreadState.RUNNING)
        if th.gen is None:  # a fresh task: its body starts at this dispatch
            th.pending_resume = Resume(EventKind.STARTUP)
        event = th.pending_resume.event if th.pending_resume else EventKind.CONTINUE_RUN
        th.rec_start, th.rec_event = self.now, event
        ctx = ContextKind.STARTUP if event is EventKind.STARTUP else th.default_context
        self._emit_control(th, CTL_DISPATCH, event, ctx)
        self.current_id = thread_id

    def _suspend_current(self, event: EventKind, *, emit_preempt=True):
        th = self._table[self.current_id]
        if th.seg is not None and self.now > th.rec_start:
            self._close_record(th)  # a zero-tick one is written at its end
        th.run_streak = 0
        th.pending_resume = Resume(event)
        self._set_state(th, ThreadState.READY)
        if not th.kind.is_handler:
            # handlers are not scheduled: an interrupted one resumes
            # from the interrupt stack
            self._enqueue(th)  # keeps its ready_key
        if emit_preempt:
            self._emit_control(th, CTL_PREEMPT, event)
        self.current_id = None

    def _enter_activation(self, handler_id: int):
        h = self._table[handler_id]
        interrupted = self.current_id
        if interrupted is not None:
            self._suspend_current(EventKind.RETURN_FROM_INTERRUPT, emit_preempt=False)
        self._stack.append(interrupted)
        self._set_state(h, ThreadState.RUNNING)
        # only the first activation starts; no activation has returned yet
        event = EventKind.STARTUP if h.token.cycles == 0 else EventKind.CONTINUE_RUN
        h.pending_resume = Resume(event)
        self._emit_control(h, CTL_INT_ENTER, event)
        self.current_id = handler_id

    def _return_from_handler(self, th: SimThread):
        """End the activation of ``th``, whose body returned: pop its
        interrupt frame and make it wait for its next activation."""
        tid = self._stack.pop()  # the running handler's is the top entry
        self._emit_control(th, CTL_INT_RETURN, EventKind.RETURN_FROM_INTERRUPT)
        th.gen = None
        self._set_state(th, ThreadState.WAITING)
        th.run_streak = 0
        self.current_id = None

        if tid is None:
            return
        it = self._table[tid]  # READY since the activation suspended it
        if it.kind.is_handler:
            # inner return always resumes the interrupted handler
            self._set_state(it, ThreadState.RUNNING)
            it.rec_start, it.rec_event = self.now, it.pending_resume.event
            self.current_id = tid
            return
        # outermost return: delayed dispatching decision.  ``it`` is
        # ready itself, so a better class holds some other thread.
        if self._ready_bits & it.outranked_by:
            return  # the gate will dispatch the higher-priority thread
        self._dispatch(tid)

    def _step(self, th: SimThread):
        """Resume the running thread's body, building it first if it has
        none, and act on what it yields or on its end."""
        if th.seg is not None:  # it has no ticks left
            self._close_record(th)
            th.seg = None
        value = th.pending_resume or _CONTINUE
        th.pending_resume = None
        th.rec_event = value.event  # opens the record of a segment it yields
        try:
            if th.gen is None:
                th.gen = th.body(self.api)
                req = next(th.gen)
            else:
                req = th.gen.send(value)
        except StopIteration:
            if th.kind.is_handler:
                th.token.cycles += 1
                self._return_from_handler(th)
            else:
                self._do_exit(th)
            return
        if type(req) is _WaitRequest:  # the common request, taken here
            th.seg = req
            th.seg_left = _ENDLESS if req is _IDLE_SEGMENT else req.etm
            th.rec_start = self.now
            if req.critical:  # a service's: its section opens here
                self._section = th.default_context._value_
        else:
            self._handle_request(th, req)

    def _handle_request(self, th: SimThread, req):
        """Act on a request other than a wait."""
        if isinstance(req, _ExitRequest):
            self._do_exit(th)
        elif isinstance(req, _BlockRequest):
            if th.kind is not ThreadKind.TASK:
                # uITRON's E_CTX: a handler runs each activation to
                # completion, so only a task may wait
                raise ProtocolError(
                    f"{th.name}: a handler cannot wait ({req.reason})")
            self._set_state(th, ThreadState.WAITING)
            th.waiting_reason = req.reason
            th.run_streak = 0
            self._emit_control(th, CTL_BLOCK)
            self.current_id = None
        else:
            raise ProtocolError(f"unknown request from {th.name}: {req!r}")

    def _do_exit(self, th: SimThread):
        if th.kind.is_handler:
            raise ProtocolError(f"{th.name}: a handler returns, it cannot exit")
        self._set_state(th, ThreadState.DORMANT)
        th.run_streak = 0
        th.pending_resume = None
        th.gen.close()
        th.gen = None
        self._emit_control(th, CTL_EXIT)
        self.current_id = None

    def _consume(self, th: SimThread, seg: _WaitRequest, n: int):
        """Charge ``n`` ticks of the running segment, at most what it has
        left; its remainder energy goes with its final tick."""
        left = th.seg_left = th.seg_left - n
        share = seg.per_tick_uj * n
        if left == 0:
            share += seg.rem_uj
        tok = th.token
        tok.cet += n
        tok.cee_uj += share
        if seg.context_kind is ContextKind.SVC:
            th.svc_ticks += n
        streak = th.run_streak = th.run_streak + n
        if streak > th.max_streak:
            th.max_streak = streak

    def _close_record(self, th: SimThread):
        """Write the segment's open record: the ticks from ``rec_start``
        to now, each at the per-tick energy, plus the remainder if they
        finished the segment.  The resume that goes on with the segment
        opens the next one.  A record with no ticks is written only for
        a zero-tick segment, at its end: no tick charged its energy, so
        the token is charged here.

        An idle stretch is written as the one-tick rows idle_body's wait
        stands for: its first row, opened by ``rec_event``, and then, if
        it is longer, one record of the CONTINUE_RUN rows after it.

        A service's segment is written at its end, inside its section,
        which nothing can suspend: the record holds the section's three
        rows, and writing it closes the section."""
        seg, start, now = th.seg, th.rec_start, self.now
        if now == start and seg.etm:
            return  # a segment preempted at its end was written then
        if seg is _IDLE_SEGMENT and now - start > 1:
            tid, name, ctx = th.id, th.name, seg.context_kind._value_
            self._record(TraceRecord(
                start, start + 1, tid, name, ctx, seg.label, seg.etm,
                seg.eem_uj, th.rec_event._value_))
            self._record(TraceRecord(
                start + 1, now, tid, name, ctx, seg.label, seg.etm,
                seg.eem_uj, EventKind.CONTINUE_RUN._value_,
                now - start - 1))
            return
        uj = seg.per_tick_uj * (now - start)
        if th.seg_left == 0:
            uj += seg.rem_uj
            if not seg.etm:
                th.token.cee_uj += uj
        self._record(TraceRecord(
            start, now, th.id, th.name, seg.context_kind._value_,
            seg.label, now - start, uj, th.rec_event._value_, 1,
            self._section or ""))
        self._section = None
