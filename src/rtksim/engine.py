"""Core execution engine: resumable activities over simulated ticks.

Threads (tasks and handlers) are Python generators multiplexed by a
single trampoline; a body gives up control only at annotated wait
points, blocking waits, or handler return.  Simulated time advances in
integer ticks and every tick interval [t, t+1) is attributed to exactly
one activity, so time and energy conservation hold by construction.

Scheduling model:
  * priorities: smaller integer wins; equal priority is FIFO by the
    tick a thread last became ready, ties on the same tick by id.
    A preempted thread keeps its original ready stamp, so it stays at
    the head of its priority class.
  * preemption and interrupt delivery are checked at wait boundaries
    and between ticks of a multi-tick wait; a partial segment is
    accounted tick-exactly.
  * handler activations always displace tasks.  While any handler is
    active, a task dispatch cannot be committed; it happens after the
    outermost handler returns (delayed dispatching).
  * while the critical-section depth is nonzero, neither a preemption
    nor a handler entry is committed; both are deferred until the
    first boundary after the depth returns to zero.

Energy is tracked as integer micro-joules.  A multi-tick annotation
charges eem // etm per tick, with the remainder applied on its final
tick, so split segments sum exactly to the annotated amount.
"""

from __future__ import annotations

import enum
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
    CTL_CRIT_EXIT,
    CTL_DISPATCH,
    CTL_EXIT,
    CTL_INT_ENTER,
    CTL_INT_RETURN,
    CTL_PREEMPT,
    NullSink,
    TraceRecord,
)

_ZERO_TIME_STEP_LIMIT = 1_000_000


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
    NON_EXISTENT = "NON_EXISTENT"
    DORMANT = "DORMANT"
    READY = "READY"
    RUNNING = "RUNNING"
    WAITING = "WAITING"
    SUSPENDED = "SUSPENDED"
    WAITING_SUSPENDED = "WAITING_SUSPENDED"


# the transitions the scheduler makes; register, unregister and
# arm_handler set the state directly.  No service drives a thread into
# the SUSPENDED states, which exist only as listing codes.
_LEGAL_TRANSITIONS = {
    (ThreadState.DORMANT, ThreadState.READY),
    (ThreadState.WAITING, ThreadState.READY),
    (ThreadState.READY, ThreadState.RUNNING),
    (ThreadState.RUNNING, ThreadState.READY),
    (ThreadState.RUNNING, ThreadState.WAITING),
    (ThreadState.WAITING, ThreadState.RUNNING),  # handler activation
    (ThreadState.RUNNING, ThreadState.DORMANT),
}


@dataclass(frozen=True)
class Annotation:
    """Time/energy budget of one wait segment: etm in ticks, eem in uJ."""

    label: str
    etm: int
    eem_uj: int = 0

    def validate(self):
        if not isinstance(self.etm, int) or self.etm < 0:
            raise ValidationError(f"annotation {self.label!r}: etm must be an int >= 0")
        if not isinstance(self.eem_uj, int) or self.eem_uj < 0:
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


# --- requests yielded by bodies to the trampoline (internal protocol) ---

class _Request:
    __slots__ = ()


class _WaitRequest(_Request):
    __slots__ = ("annotation", "context_kind")

    def __init__(self, annotation, context_kind):
        self.annotation = annotation
        self.context_kind = context_kind


class _BlockRequest(_Request):
    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason


class _WaitRunRequest(_Request):
    __slots__ = ()


class _AwaitActivationRequest(_Request):
    __slots__ = ()


class _RetIntRequest(_Request):
    __slots__ = ()


class _ExitRequest(_Request):
    __slots__ = ()


_EXITED = object()


class _Segment:
    """An annotation being charged, possibly split across suspensions."""

    __slots__ = (
        "label", "etm", "eem_uj", "context_kind", "remaining",
        "per_tick_uj", "rem_uj",
        "record_start", "record_consumed", "record_uj", "record_event",
    )

    def __init__(self, label, etm, eem_uj, context_kind, start_tick, event):
        self.label = label
        self.etm = etm
        self.eem_uj = eem_uj
        self.context_kind = context_kind
        self.remaining = etm
        if etm > 0:
            self.per_tick_uj, self.rem_uj = divmod(eem_uj, etm)
        else:
            self.per_tick_uj, self.rem_uj = 0, 0
        self.record_start = start_tick
        self.record_consumed = 0
        self.record_uj = 0
        self.record_event = event


@dataclass
class _Frame:
    """One level of the interrupt stack."""

    handler_id: int
    interrupted_id: int | None
    saved_critical_depth: int


class SimThread:
    """A registered activity: task, idle task, or time/interrupt handler.

    ``body`` is a callable taking a ThreadApi and returning a generator.
    A fresh generator is created every time the thread is started, so a
    stopped thread can be restarted; the token keeps accumulating.
    """

    def __init__(self, thread_id: int, name: str, kind: ThreadKind,
                 priority: int, body, *, is_idle: bool = False):
        if not isinstance(thread_id, int) or thread_id <= 0:
            raise ValidationError("thread id must be a positive integer")
        if not isinstance(priority, int):
            raise ValidationError("priority must be an integer")
        self.id = thread_id
        self.name = name
        self.kind = kind
        self.base_priority = priority
        self.current_priority = priority
        self.is_idle = is_idle
        self.body = body
        self.state = ThreadState.NON_EXISTENT
        self.token = Token()
        self.api: ThreadApi | None = None

        self.gen = None
        self.gen_started = False
        self.startup_delivered = False
        self.pending_resume: Resume | None = None
        self.last_event = EventKind.CONTINUE_RUN
        self.seg: _Segment | None = None
        self.preempt_requested = False
        self.awaiting_activation = False
        self.activation_queued = False
        self.waiting_reason: str | None = None
        self.ready_tick = 0
        self.svc_ticks = 0  # consumed in SVC context
        self.run_streak = 0
        self.max_streak = 0

    @property
    def default_context(self) -> ContextKind:
        if self.kind.is_handler:
            return _HANDLER_CONTEXT[self.kind]
        return ContextKind.IDLE if self.is_idle else ContextKind.TASK

    def __repr__(self):
        return f"<SimThread {self.id} {self.name} {self.state.value}>"


class ThreadApi:
    """Operations a body may invoke.  Bound to one thread.

    Generator methods must be driven with ``yield from``; plain methods
    are immediate bookkeeping and never transfer control.
    """

    def __init__(self, engine: "Engine", thread_id: int):
        self._engine = engine
        self.thread_id = thread_id

    def _check_running(self):
        if self._engine.current_id != self.thread_id:
            raise ProtocolError(
                f"thread {self.thread_id} invoked an operation while not running"
            )

    # -- yielding operations ------------------------------------------------

    def wait(self, annotation: Annotation, context_kind: ContextKind | None = None):
        """Charge one annotated segment; returns the EventKind that let
        the segment finish (CONTINUE_RUN when it was never suspended)."""
        self._check_running()
        annotation.validate()
        th = self._engine._table[self.thread_id]
        ctx = context_kind if context_kind is not None else th.default_context
        value = yield _WaitRequest(annotation, ctx)
        return value.event

    def wait_run(self):
        """Entry gate: parks a fresh task until its first dispatch and
        returns STARTUP.  Must be the first operation of a task body."""
        value = yield _WaitRunRequest()
        return value.event

    def wait_event(self, reason: str = "event wait"):
        """Block until another party releases this thread; returns the
        EventKind delivered by the release."""
        self._check_running()
        if self._engine.critical_depth() > 0:
            raise ProtocolError("cannot block while holding a critical section")
        value = yield _BlockRequest(reason)
        return value.event

    def exit(self):
        yield _ExitRequest()

    def await_activation(self):
        """Handler wrapper internal: park until the next activation."""
        value = yield _AwaitActivationRequest()
        return value.event

    def return_from_handler(self):
        """Handler wrapper internal: pop the interrupt stack."""
        yield _RetIntRequest()

    # -- immediate operations -----------------------------------------------

    def begin_critical(self):
        self._check_running()
        self._engine._crit_enter(self.thread_id)

    def end_critical(self):
        self._check_running()
        self._engine._crit_exit(self.thread_id)

    def mark_cycle(self):
        tok = self._engine._table[self.thread_id].token
        tok.cycles += 1


class Engine:
    """Owns the thread table, clock, interrupt stack and trampoline."""

    def __init__(self, expected_count: int, tick_us: int = 1000):
        if not isinstance(expected_count, int) or expected_count < 1:
            raise ValidationError("expected thread count must be >= 1")
        if not isinstance(tick_us, int) or tick_us < 1:
            raise ValidationError("tick resolution must be >= 1 us")
        self.expected_count = expected_count
        self.tick_us = tick_us
        self.now = 0
        self.current_id: int | None = None
        self.on_tick = None  # callable(now) run after each consumed tick
        self._table: dict[int, SimThread] = {}
        self._ready: set[int] = set()
        self._stack: list[_Frame] = []
        self._pending_activations: list[int] = []
        self._crit_depth = 0
        self._crit_owner: int | None = None
        self._all_created = False
        self._trace = NullSink()
        self._sinks_attached = False
        self._finished = False

    # ------------------------------------------------------------------
    # setup phase

    def register(self, thread: SimThread) -> int:
        if self._all_created:
            raise UsageError("cannot register after the set was sealed")
        if thread.id in self._table:
            raise ConflictError(f"thread id {thread.id} already registered")
        if len(self._table) >= self.expected_count:
            raise ConsistencyError(
                f"more threads than the expected {self.expected_count}"
            )
        thread.api = ThreadApi(self, thread.id)
        thread.state = ThreadState.DORMANT
        self._table[thread.id] = thread
        return thread.id

    def unregister(self, thread_id: int):
        th = self._get(thread_id)
        if th.state is not ThreadState.DORMANT:
            raise StateError(f"thread {thread_id} is {th.state.value}, not DORMANT")
        th.state = ThreadState.NON_EXISTENT
        th.pending_resume = None
        del self._table[thread_id]

    def all_created(self):
        if len(self._table) != self.expected_count:
            raise ConsistencyError(
                f"{len(self._table)} threads registered, expected {self.expected_count}"
            )
        self._all_created = True

    def attach_sinks(self, trace_sink=None, report_sink=None):
        """Attach the trace sink; only a trace sink is supported, so
        ``report_sink`` must be None."""
        if report_sink is not None:
            raise UsageError("report sinks are not supported")
        if self._sinks_attached:
            raise UsageError("sinks already attached")
        self._sinks_attached = True
        if trace_sink is not None:
            self._trace = trace_sink

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
        th.gen = th.body(th.api)
        th.gen_started = False
        th.startup_delivered = False
        th.pending_resume = None
        th.seg = None
        self._make_ready(th)

    def arm_handler(self, thread_id: int):
        """Prime a handler body to its activation gate (state WAITING)."""
        th = self._get(thread_id)
        if not th.kind.is_handler:
            raise ProtocolError(f"{th.name} is not a handler")
        if th.state is not ThreadState.DORMANT:
            raise StateError(f"cannot arm {th.name}: state {th.state.value}")
        th.gen = th.body(th.api)
        th.gen_started = True
        th.startup_delivered = False
        th.pending_resume = None
        req = self._advance(th, None)
        if not isinstance(req, _AwaitActivationRequest):
            raise ProtocolError("handler body must park for activation first")
        th.state = ThreadState.WAITING  # priming is not a scheduled transition
        th.awaiting_activation = True
        th.waiting_reason = "activation wait"

    def raise_interrupt(self, handler_id: int):
        """Queue a handler activation.

        Activations nest LIFO in queueing order at the next boundary.
        A handler that is mid-activation (or already queued) drops the
        request; a dormant handler is an error.
        """
        th = self._get(handler_id)
        if not th.kind.is_handler:
            raise ProtocolError(f"{th.name} is not a handler")
        if th.state in (ThreadState.DORMANT, ThreadState.NON_EXISTENT):
            raise NotFoundError(f"handler {th.name} is not armed")
        if not th.awaiting_activation or th.activation_queued:
            return False  # busy: request dropped
        th.activation_queued = True
        self._pending_activations.append(handler_id)
        return True

    def release(self, thread_id: int, event: EventKind, payload=None):
        """Move a WAITING thread to READY, recording its resume event."""
        th = self._get(thread_id)
        if th.state is not ThreadState.WAITING:
            raise StateError(f"cannot release {th.name}: state {th.state.value}")
        if th.awaiting_activation:
            raise ProtocolError("handlers are activated, not released")
        th.pending_resume = Resume(event, payload)
        th.waiting_reason = None
        self._make_ready(th)

    def recheck_preemption(self):
        """Re-evaluate whether a ready thread outranks the current one.
        Needed after priority changes that bypass the ready-up path."""
        self._flag_preempt_if_outranked()

    def critical_depth(self) -> int:
        return self._crit_depth

    def waiting_threads(self):
        return [
            (th.id, th.name, th.waiting_reason or "waiting")
            for th in self._table.values()
            if th.state is ThreadState.WAITING and not th.awaiting_activation
        ]

    def ready_ids(self):
        return sorted(self._ready)

    def pending_activation_count(self) -> int:
        return len(self._pending_activations)

    # ------------------------------------------------------------------
    # run control

    def run_ticks(self, n: int):
        for _ in range(n):
            self.run_one_tick()

    def run_one_tick(self):
        """Advance exactly one tick interval and fire the tick hook."""
        self._run_interval()
        self.now += 1
        if self.on_tick is not None:
            self.on_tick(self.now)

    def run_boot_steps(self, boot_thread_id: int):
        """Drive the boot thread to completion in zero simulated time.

        The boot thread must outrank everything it starts, so it keeps
        the CPU until it exits; a wait with etm > 0 inside it is a
        protocol violation.  Attach sinks afterwards if boot activity
        must stay out of the trace.
        """
        th = self._get(boot_thread_id)
        guard = 0
        while th.state is not ThreadState.DORMANT:
            self._gate()
            cur = self._table[self.current_id]
            if cur.seg is not None and cur.seg.remaining > 0:
                raise ProtocolError("boot actions must not consume simulated time")
            self._step(cur)
            guard += 1
            if guard > _ZERO_TIME_STEP_LIMIT:
                raise ConsistencyError("zero-time livelock during boot")

    def finish(self):
        """Flush the open record (if any) and close the trace sink."""
        if self._finished:
            return
        self._finished = True
        if self.current_id is not None:
            th = self._table[self.current_id]
            if th.seg is not None:
                self._close_record_partial(th)
        self._trace.close()

    # ------------------------------------------------------------------
    # internals

    def _get(self, thread_id: int) -> SimThread:
        try:
            return self._table[thread_id]
        except KeyError:
            raise NotFoundError(f"no thread with id {thread_id}") from None

    def _set_state(self, th: SimThread, state: ThreadState):
        if (th.state, state) not in _LEGAL_TRANSITIONS:
            raise StateError(
                f"illegal transition {th.state.value} -> {state.value} for {th.name}"
            )
        th.state = state

    def _make_ready(self, th: SimThread):
        self._set_state(th, ThreadState.READY)
        th.ready_tick = self.now
        self._ready.add(th.id)
        self._flag_preempt_if_outranked()

    def _flag_preempt_if_outranked(self):
        cur = self.current_id
        if cur is None:
            return
        th = self._table[cur]
        if th.kind.is_handler:
            return  # delayed dispatching: decided at outermost return
        best = self._pick_ready()
        if best is not None and self._table[best].current_priority < th.current_priority:
            th.preempt_requested = True

    def _pick_ready(self) -> int | None:
        best = None
        best_key = None
        for tid in self._ready:
            t = self._table[tid]
            key = (t.current_priority, t.ready_tick, tid)
            if best_key is None or key < best_key:
                best = tid
                best_key = key
        return best

    def _emit(self, th: SimThread, label: str, context: ContextKind,
              event: EventKind | None, start: int, end: int,
              etm: int = 0, uj: int = 0):
        self._trace.record(TraceRecord(
            tick_start=start,
            tick_end=end,
            thread_id=th.id,
            thread_name=th.name,
            context_kind=context.value,
            label=label,
            etm_ticks=etm,
            eem_uj=uj,
            event_kind=event.value if event is not None else "",
        ))

    def _emit_control(self, th: SimThread, label: str,
                      event: EventKind | None = None,
                      context: ContextKind | None = None):
        ctx = context if context is not None else th.default_context
        self._emit(th, label, ctx, event, self.now, self.now)

    # --- trampoline ----------------------------------------------------

    def _run_interval(self):
        guard = 0
        while True:
            self._gate()
            th = self._table[self.current_id]
            seg = th.seg
            if seg is not None and seg.remaining > 0:
                self._consume_tick(th, seg)
                return
            self._step(th)
            guard += 1
            if guard > _ZERO_TIME_STEP_LIMIT:
                raise ConsistencyError(
                    f"zero-time livelock at tick {self.now} in {th.name}"
                )

    def _gate(self):
        """Commit pending control transfers.  Zero simulated time."""
        while True:
            if self._pending_activations and self._crit_depth == 0:
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
            th = self._table[self.current_id]
            if th.preempt_requested and not th.kind.is_handler:
                if self._crit_depth == 0:
                    best = self._pick_ready()
                    if best is not None and (
                        self._table[best].current_priority < th.current_priority
                    ):
                        self._suspend_current(EventKind.RETURN_FROM_PREEMPTION)
                        continue
                    th.preempt_requested = False
                # depth > 0: stays pending until the section closes
            return

    def _dispatch(self, thread_id: int):
        th = self._table[thread_id]
        self._ready.discard(thread_id)
        self._set_state(th, ThreadState.RUNNING)
        th.preempt_requested = False
        if th.pending_resume is None and not th.startup_delivered:
            th.pending_resume = Resume(EventKind.STARTUP)
        event = th.pending_resume.event if th.pending_resume else EventKind.CONTINUE_RUN
        if th.seg is not None:
            seg = th.seg
            seg.record_start = self.now
            seg.record_consumed = 0
            seg.record_uj = 0
            seg.record_event = event
        ctx = ContextKind.STARTUP if event is EventKind.STARTUP else th.default_context
        self._emit_control(th, CTL_DISPATCH, event, ctx)
        self.current_id = thread_id

    def _suspend_current(self, event: EventKind, *, emit_preempt=True):
        th = self._table[self.current_id]
        if th.seg is not None:
            self._close_record_partial(th)
        th.run_streak = 0
        th.pending_resume = Resume(event)
        th.preempt_requested = False
        self._set_state(th, ThreadState.READY)
        self._ready.add(th.id)  # keeps its original ready_tick
        if emit_preempt:
            self._emit_control(th, CTL_PREEMPT, event)
        self.current_id = None

    def _enter_activation(self, handler_id: int):
        h = self._table[handler_id]
        interrupted = self.current_id
        if interrupted is not None:
            it = self._table[interrupted]
            self._suspend_current(EventKind.RETURN_FROM_INTERRUPT, emit_preempt=False)
            if it.kind.is_handler:
                # handlers are not scheduled; pull it back out of ready
                self._ready.discard(interrupted)
        self._stack.append(_Frame(handler_id, interrupted, self._crit_depth))
        h.awaiting_activation = False
        h.activation_queued = False
        self._set_state(h, ThreadState.RUNNING)
        event = EventKind.STARTUP if not h.startup_delivered else EventKind.CONTINUE_RUN
        h.pending_resume = Resume(event)
        self._emit_control(h, CTL_INT_ENTER, event)
        self.current_id = handler_id

    def _return_from_handler(self, th: SimThread):
        if not self._stack or self._stack[-1].handler_id != th.id:
            raise ProtocolError("handler return without matching entry")
        if self._crit_depth != 0:
            raise ProtocolError("handler returned inside a critical section")
        frame = self._stack.pop()
        self._emit_control(th, CTL_INT_RETURN, EventKind.RETURN_FROM_INTERRUPT)
        # park the handler for its next activation
        req = self._advance(th, Resume(EventKind.CONTINUE_RUN))
        if not isinstance(req, _AwaitActivationRequest):
            raise ProtocolError("handler body must loop back to its activation gate")
        self._set_state(th, ThreadState.WAITING)
        th.awaiting_activation = True
        th.waiting_reason = "activation wait"
        th.run_streak = 0
        self.current_id = None

        tid = frame.interrupted_id
        if tid is None:
            return
        it = self._table.get(tid)
        if it is None or it.state is ThreadState.DORMANT:
            return
        if it.kind.is_handler:
            # inner return always resumes the interrupted handler
            self._set_state(it, ThreadState.RUNNING)
            if it.seg is not None:
                seg = it.seg
                seg.record_start = self.now
                seg.record_consumed = 0
                seg.record_uj = 0
                seg.record_event = (
                    it.pending_resume.event if it.pending_resume
                    else EventKind.CONTINUE_RUN
                )
            self.current_id = tid
            return
        # outermost return: delayed dispatching decision
        best = self._pick_ready()
        if best is not None and best != tid and (
            self._table[best].current_priority < it.current_priority
        ):
            return  # the gate will dispatch the higher-priority thread
        self._dispatch(tid)

    def _advance(self, th: SimThread, value):
        try:
            if value is None:
                return next(th.gen)
            return th.gen.send(value)
        except StopIteration:
            return _EXITED

    def _step(self, th: SimThread):
        if th.seg is not None and th.seg.remaining == 0:
            self._close_record_completed(th)
        if not th.gen_started:
            th.gen_started = True
            req = self._advance(th, None)
            if isinstance(req, _WaitRunRequest):
                return  # entry gate: the startup event is delivered next step
            raise ProtocolError(
                f"{th.name}: task bodies must begin at the entry gate"
            )
        else:
            value = th.pending_resume
            th.pending_resume = None
            if value is None:
                value = Resume(EventKind.CONTINUE_RUN)
            if value.event is EventKind.STARTUP:
                th.startup_delivered = True
            th.last_event = value.event
            req = self._advance(th, value)
        self._handle_request(th, req)

    def _handle_request(self, th: SimThread, req):
        if req is _EXITED or isinstance(req, _ExitRequest):
            self._do_exit(th)
        elif isinstance(req, _WaitRequest):
            self._open_segment(th, req.annotation, req.context_kind)
        elif isinstance(req, _BlockRequest):
            if self._crit_depth > 0:
                raise ProtocolError(
                    f"{th.name} blocked while critical depth is {self._crit_depth}"
                )
            self._set_state(th, ThreadState.WAITING)
            th.waiting_reason = req.reason
            th.run_streak = 0
            self._emit_control(th, CTL_BLOCK)
            self.current_id = None
        elif isinstance(req, _RetIntRequest):
            if not th.kind.is_handler:
                raise ProtocolError(f"{th.name} is not a handler")
            self._return_from_handler(th)
        elif isinstance(req, _WaitRunRequest):
            raise ProtocolError(f"{th.name}: entry gate after startup")
        elif isinstance(req, _AwaitActivationRequest):
            raise ProtocolError(
                f"{th.name}: activation wait inside an active handler"
            )
        else:
            raise ProtocolError(f"unknown request from {th.name}: {req!r}")

    def _do_exit(self, th: SimThread):
        if th.kind.is_handler:
            raise ProtocolError(
                f"{th.name}: handler bodies must loop forever, not terminate"
            )
        if self._crit_depth > 0 and self._crit_owner == th.id:
            raise ProtocolError(f"{th.name} exited inside a critical section")
        self._set_state(th, ThreadState.DORMANT)
        th.run_streak = 0
        th.pending_resume = None
        if th.gen is not None:
            th.gen.close()
            th.gen = None
        self._emit_control(th, CTL_EXIT)
        self.current_id = None

    def _open_segment(self, th: SimThread, annotation: Annotation,
                      context_kind: ContextKind):
        th.seg = _Segment(
            annotation.label, annotation.etm, annotation.eem_uj,
            context_kind, self.now, th.last_event,
        )

    def _consume_tick(self, th: SimThread, seg: _Segment):
        seg.remaining -= 1
        seg.record_consumed += 1
        share = seg.per_tick_uj
        if seg.remaining == 0:
            share += seg.rem_uj
        seg.record_uj += share
        tok = th.token
        tok.cet += 1
        tok.cee_uj += share
        if seg.context_kind is ContextKind.SVC:
            th.svc_ticks += 1
        th.run_streak += 1
        if th.run_streak > th.max_streak:
            th.max_streak = th.run_streak

    def _close_record_partial(self, th: SimThread):
        seg = th.seg
        if seg.record_consumed > 0:
            self._emit(
                th, seg.label, seg.context_kind, seg.record_event,
                seg.record_start, seg.record_start + seg.record_consumed,
                etm=seg.record_consumed, uj=seg.record_uj,
            )
            seg.record_consumed = 0
            seg.record_uj = 0

    def _close_record_completed(self, th: SimThread):
        seg = th.seg
        uj = seg.record_uj
        if seg.etm == 0:
            uj = seg.eem_uj
            th.token.cee_uj += uj
        if seg.record_consumed > 0 or seg.etm == 0:
            self._emit(
                th, seg.label, seg.context_kind, seg.record_event,
                seg.record_start, seg.record_start + seg.record_consumed,
                etm=seg.record_consumed, uj=uj,
            )
        th.seg = None

    # --- critical sections ----------------------------------------------

    def _crit_enter(self, thread_id: int):
        if self.current_id != thread_id:
            raise ProtocolError("critical section entered by a non-running thread")
        self._crit_depth += 1
        if self._crit_depth == 1:
            self._crit_owner = thread_id
            self._emit_control(self._table[thread_id], CTL_CRIT_ENTER)

    def _crit_exit(self, thread_id: int):
        if self._crit_depth == 0:
            raise ProtocolError("critical section exit without entry")
        if self._crit_owner != thread_id:
            raise ProtocolError("critical section exit by a non-owner")
        self._crit_depth -= 1
        if self._crit_depth == 0:
            self._emit_control(self._table[thread_id], CTL_CRIT_EXIT)
            self._crit_owner = None
