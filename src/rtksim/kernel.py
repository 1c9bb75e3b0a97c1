"""The kernel: services, timers, handlers, boot protocol, deadlock watch.

A declaration builds its part of the run at the call: a task, handler
or the idle task gets its ``TaskControl`` in ``tcb``, the one table of
declared threads, holding its ``SimThread``; an object is constructed
and a device made, so a bad declaration is refused there.  ``boot``
then, before tick 0, in zero simulated time and by direct calls, with
no init task.  It declares the default idle task if none was declared,
then closes the declarations, even if boot fails later.  It then checks
the stimuli, builds the engine from ``tcb`` and the trace sink, arms
each handler and starts each task; ``engine`` is set once all of that
is done.  No service can run during boot and boot writes no record, so
the first recorded event is the first dispatch.

As in μITRON, a service call names no caller: every service acts for
the running thread, the engine's ``current_id``, which a service that
needs it reads when its frame first runs (``mtx_unlock`` in its
effect).  Every service call charges the caller one SVC-context segment
(cost is configurable, default one tick / zero energy) inside an
implicit critical section: the service yields the segment as a critical
request, which the engine charges in a section of its own (see
``engine``).  A service that must block does so only as its final step,
after the critical section closed.  Blocking services return result
codes; a timeout is a result, not an exception.

Each service is one generator frame (``exit_task`` then yields the
engine's exit), in one of two shapes.  The gives run ``_give``:
``sem_signal``, ``flag_set``, ``flag_clear``, ``mbx_send``,
``pool_release``, ``vpool_release``, ``mtx_unlock``, ``wakeup``,
``start_task`` and ``exit_task``.  The takes run ``_take``:
``sem_wait``, ``flag_wait``, ``mbx_recv``, ``mbf_send``, ``mbf_recv``,
``mtx_lock``, ``pool_get`` and ``vpool_get``; ``sleep`` and ``delay``
are takes with frames of their own.  The effect runs after the SVC
segment, as the engine closes the section, in the same step and before
any scheduling decision.  An object service's effect is the object's
own method, called with the service's arguments (the mutex's carry
priority inheritance around it): a give changes the object and serves
its queue, a take is granted or queued (see ``objects``).  The service
then releases the waiters the effect served, in the order the object
reports them.  A take that was not granted then waits forever or with
a timeout (the μITRON ``wai_``/``twai_`` forms); a timeout leaves the
object's queue through its ``cancel_wait``, or, on a mutex, also takes
back the priority the waiter lent, then releases the waiters its
leaving let in.

Every timed event sits on one agenda, a heap of (due, rank, seq, action,
arg) entries: cyclic and alarm activations, pushed when their handler is
declared; the stimuli, pushed at boot; and wait timeouts.  At instants
1..T of a T-tick run the tick hook runs the entries that fell due: timer
events first, then that instant's stimuli (rank), each kind in insertion
order (seq); then, only if the agenda is empty, it checks for a
deadlock.  A wait that ends some other way takes its timeout off the
agenda at once, so every entry left has work to do: while any is left
there is no deadlock, and ``run`` coasts the engine through the ticks
before the first one falls due, whose boundaries have nothing to
process, so the tick hook runs only after the ticks it steps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from .bfm import (
    DeviceRegistry,
    KIND_INTC,
    KIND_PARALLEL,
    KIND_SERIAL,
    make_device,
)
from .engine import (
    Annotation,
    ContextKind,
    Engine,
    EventKind,
    SimThread,
    ThreadKind,
    ThreadState,
    _BlockRequest,
    _WaitRequest,
    idle_body,
)
from .errors import (
    ConflictError,
    DeadlockError,
    NotFoundError,
    ObjectStateError,
    ProtocolError,
    UsageError,
    ValidationError,
)
from .objects import (
    DEFAULT_SEMAPHORE_MAX,
    EventFlag,
    FixedPool,
    Mailbox,
    MessageBuffer,
    Mutex,
    Semaphore,
    VariablePool,
)
from .trace import is_int, valid_name

RESULT_OK = "OK"
RESULT_TIMEOUT = "TIMEOUT"

USER_PRIORITY_MIN = 1
USER_PRIORITY_MAX = 140
HANDLER_PRIORITY = 0  # handlers are not scheduled; the dump prints this
IDLE_PRIORITY = 141

DEFAULT_CYCLES_PER_TICK = 12000


@dataclass(frozen=True)
class SvcResult:
    """Outcome of a (possibly blocking) kernel service."""

    code: str
    value: object = None

    @property
    def ok(self) -> bool:
        return self.code == RESULT_OK


# the result of every service that has no value: building a frozen
# SvcResult costs about a microsecond, and nothing can change this one
_OK = SvcResult(RESULT_OK)


class CallContext:
    """Handed to a task or handler body factory.

    ``api`` carries the yielding operations, ``kernel`` the services;
    both act for the running thread, whose body the factory builds.
    """

    __slots__ = ("api", "kernel")

    def __init__(self, api, kernel):
        self.api = api
        self.kernel = kernel


@dataclass
class TaskControl:
    """A declared thread's control block: its engine thread and the
    kernel's bookkeeping beyond it.

    ``timeout`` is the agenda entry of the current wait's timeout, or
    None; a wait that ends some other way takes it off the agenda.
    ``held`` and ``blocked_on`` are the thread's edges in the mutex
    owner graph that priority inheritance walks.
    """

    thread: SimThread
    extended_info: int = 0
    wakeup_count: int = 0
    timeout: tuple | None = None
    held: list[Mutex] = field(default_factory=list)  # mutexes it owns
    blocked_on: Mutex | None = None  # mutex it is queued on


# stimulus kind -> the device kind it drives, and the refusal of any other
STIMULUS_KINDS = {
    "irq": (KIND_INTC, "is not an interrupt controller"),
    "pio_set": (KIND_PARALLEL, "has no input latch"),
    "serial_in": (KIND_SERIAL, "has no input FIFO"),
}


@dataclass(frozen=True)
class Stimulus:
    """One scripted external event; its kind is a key of STIMULUS_KINDS."""

    tick: int
    kind: str
    device: str
    line: int = 0
    value: int = 0


# agenda ranks: the timer events due at an instant run before its stimuli
_RANK_TIMER = 0
_RANK_STIMULUS = 1

# the wait reason of a task in ``sleep``; the engine holds it exactly while
# the task is WAITING there, which is what ``wakeup`` tests
_SLEEP = "sleep"


def _check_name(name):
    if not valid_name(name):
        raise ValidationError(f"bad name {name!r}: use letters, digits, _ . -")
    return name


def _result(resume):
    """The SvcResult of a wait, from the Resume that ended it."""
    payload = resume.payload
    if payload is None or payload[1] is None and payload[0] == RESULT_OK:
        return _OK
    return SvcResult(*payload)


def _check_id(value, what):
    if not is_int(value) or value < 1:
        raise ValidationError(f"{what} id must be a positive integer")
    return value


def _check_extended_info(value):
    # the debug dump prints it in hex
    if not is_int(value) or value < 0:
        raise ValidationError("extended_info must be an integer >= 0")


class Kernel:
    def __init__(self, *, tick_us: int = 1000,
                 cycles_per_tick: int = DEFAULT_CYCLES_PER_TICK,
                 svc_etm: int = 1, svc_eem_uj: int = 0,
                 abort_on_deadlock: bool = True):
        if not is_int(tick_us) or tick_us < 1:
            raise ValidationError("tick resolution must be >= 1 us")
        if not is_int(cycles_per_tick) or cycles_per_tick < 1:
            raise ValidationError("cycles_per_tick must be >= 1")
        if not is_int(svc_etm) or svc_etm < 0:
            raise ValidationError("service cost etm must be >= 0")
        if not is_int(svc_eem_uj) or svc_eem_uj < 0:
            raise ValidationError("service cost eem must be >= 0")
        self.tick_us = tick_us
        self.cycles_per_tick = cycles_per_tick
        # the SVC segment every service charges in its critical section,
        # one request for all threads
        self._svc_req = _WaitRequest(Annotation("svc", svc_etm, svc_eem_uj),
                                     ContextKind.SVC, critical=True)
        self._bfm_reqs = {}  # (device, access) -> its BFM segment request
        self.abort_on_deadlock = abort_on_deadlock

        self.devices = DeviceRegistry()
        self.engine: Engine | None = None
        self.tcb: dict[int, TaskControl] = {}  # every declared thread
        self.idle_id: int | None = None
        self.deadlock_report: tuple | None = None

        self._stimuli: list[Stimulus] = []

        self._agenda: list[tuple] = []  # heap of (due, rank, seq, action, arg)
        self._agenda_seq = itertools.count()
        self._closed = False  # boot started, even if it raised
        self._trace_sink = None

        self.semaphores: dict[int, Semaphore] = {}
        self.flags: dict[int, EventFlag] = {}
        self.mutexes: dict[int, Mutex] = {}
        self.mailboxes: dict[int, Mailbox] = {}
        self.buffers: dict[int, MessageBuffer] = {}
        self.fixed_pools: dict[int, FixedPool] = {}
        self.variable_pools: dict[int, VariablePool] = {}

    # ------------------------------------------------------------------
    # declaration phase (pre-boot)

    def _pre_boot(self):
        if self._closed:
            raise UsageError("declarations are closed once boot starts")

    def _check_thread(self, thread_id, name):
        self._pre_boot()
        _check_id(thread_id, "thread")
        if thread_id in self.tcb:
            raise ConflictError(f"thread id {thread_id} already declared")
        _check_name(name)

    def _add_thread(self, thread_id, name, kind, priority, body,
                    extended_info):
        _check_extended_info(extended_info)
        self.tcb[thread_id] = TaskControl(
            SimThread(thread_id, name, kind, priority, self._wrap(body)),
            extended_info)

    def declare_task(self, task_id: int, name: str, priority: int, body,
                     *, extended_info: int = 0):
        self._check_thread(task_id, name)
        if not is_int(priority) or not (
            USER_PRIORITY_MIN <= priority <= USER_PRIORITY_MAX
        ):
            raise ValidationError(
                f"task {name}: priority must be in "
                f"{USER_PRIORITY_MIN}..{USER_PRIORITY_MAX}"
            )
        self._add_thread(task_id, name, ThreadKind.TASK, priority, body,
                         extended_info)

    def declare_idle(self, task_id: int, name: str = "IDLE"):
        """Declare the idle task, which runs when no other thread can.
        There is one; boot declares it, named IDLE, at the highest
        declared id + 1 if none was."""
        self._check_thread(task_id, name)
        if self.idle_id is not None:
            raise ConflictError(f"idle task already declared (id {self.idle_id})")
        self.idle_id = task_id
        self.tcb[task_id] = TaskControl(SimThread(
            task_id, name, ThreadKind.TASK, IDLE_PRIORITY, idle_body))

    def declare_cyclic(self, thread_id: int, name: str, period: int, body,
                       *, phase: int = 0, extended_info: int = 0):
        """Cyclic handler firing at absolute ticks phase, phase+period, ...
        A zero phase defers to the period, so the first activation is
        never at tick 0."""
        self._check_thread(thread_id, name)
        if not is_int(period) or period < 1:
            raise ValidationError(f"cyclic {name}: period must be >= 1")
        if not is_int(phase) or phase < 0:
            raise ValidationError(f"cyclic {name}: phase must be >= 0")
        self._add_thread(thread_id, name, ThreadKind.CYCLIC,
                         HANDLER_PRIORITY, body, extended_info)
        self._schedule(phase or period, _RANK_TIMER, self._activate,
                       (thread_id, period))

    def declare_alarm(self, thread_id: int, name: str, offset: int, body,
                      *, extended_info: int = 0):
        self._check_thread(thread_id, name)
        if not is_int(offset) or offset < 1:
            raise ValidationError(f"alarm {name}: offset must be >= 1")
        self._add_thread(thread_id, name, ThreadKind.ALARM,
                         HANDLER_PRIORITY, body, extended_info)
        self._schedule(offset, _RANK_TIMER, self._activate, (thread_id, None))

    def declare_isr(self, thread_id: int, name: str, body,
                    *, extended_info: int = 0):
        self._check_thread(thread_id, name)
        self._add_thread(thread_id, name, ThreadKind.ISR, HANDLER_PRIORITY,
                         body, extended_info)

    def _declare_object(self, registry, cls, kind, obj_id, **kwargs):
        self._pre_boot()
        _check_id(obj_id, kind)
        if obj_id in registry:
            raise ConflictError(f"{kind} id {obj_id} already declared")
        _check_extended_info(kwargs["extended_info"])
        registry[obj_id] = cls(obj_id, priority_of=self._waiter_priority,
                               **kwargs)

    def declare_semaphore(self, obj_id, initial, *, max_count=None, extended_info=0):
        if max_count is None:
            max_count = DEFAULT_SEMAPHORE_MAX
        self._declare_object(self.semaphores, Semaphore, "semaphore", obj_id,
                             initial=initial, max_count=max_count,
                             extended_info=extended_info)

    def declare_flag(self, obj_id, initial=0, *, extended_info=0):
        self._declare_object(self.flags, EventFlag, "flag", obj_id,
                             initial=initial, extended_info=extended_info)

    def declare_mutex(self, obj_id, *, extended_info=0):
        self._declare_object(self.mutexes, Mutex, "mutex", obj_id,
                             extended_info=extended_info)

    def declare_mailbox(self, obj_id, *, extended_info=0):
        self._declare_object(self.mailboxes, Mailbox, "mailbox", obj_id,
                             extended_info=extended_info)

    def declare_buffer(self, obj_id, capacity, *, extended_info=0):
        self._declare_object(self.buffers, MessageBuffer, "buffer", obj_id,
                             capacity=capacity, extended_info=extended_info)

    def declare_fixed_pool(self, obj_id, block_count, block_size, *, extended_info=0):
        self._declare_object(self.fixed_pools, FixedPool, "fixed_pool", obj_id,
                             block_count=block_count, block_size=block_size,
                             extended_info=extended_info)

    def declare_variable_pool(self, obj_id, size, *, extended_info=0):
        self._declare_object(self.variable_pools, VariablePool,
                             "variable_pool", obj_id,
                             size=size, extended_info=extended_info)

    def add_device(self, kind: str, name: str, accesses, **options):
        self._pre_boot()
        _check_name(name)
        self.devices.add(make_device(kind, name, accesses, **options))

    def attach_isr(self, device_name: str, line: int, isr_id: int):
        self._pre_boot()
        dev = self.devices.get(device_name)
        if dev.kind != KIND_INTC:
            raise ValidationError(f"device {device_name} is not an interrupt controller")
        tcb = self.tcb.get(isr_id)
        if tcb is None or tcb.thread.kind is not ThreadKind.ISR:
            raise NotFoundError(f"no ISR declared with id {isr_id}")
        dev.attach(line, isr_id)

    def add_stimulus(self, tick: int, kind: str, device: str, *,
                     line: int = 0, value: int = 0):
        self._pre_boot()
        if not is_int(tick) or tick < 1:
            raise ValidationError("stimulus tick must be >= 1")
        if not is_int(line) or not is_int(value):
            raise ValidationError("stimulus line and value must be integers")
        if kind not in STIMULUS_KINDS:
            raise ValidationError(f"unknown stimulus kind {kind!r}")
        self.devices.get(device)  # must exist
        self._stimuli.append(Stimulus(tick, kind, device, line, value))

    def attach_sinks(self, trace_sink=None, report_sink=None):
        """Set the trace sink the engine gets at boot.  Only a trace
        sink is supported: ``report_sink`` must be None."""
        self._pre_boot()
        if report_sink is not None:
            raise UsageError("report sinks are not supported")
        self._trace_sink = trace_sink

    # ------------------------------------------------------------------
    # boot

    def boot(self):
        if self._closed:
            raise UsageError("boot runs once")
        if self.idle_id is None:
            self.declare_idle(max(self.tcb, default=0) + 1)
        self._closed = True
        self._validate_stimuli()
        threads = [tcb.thread for tcb in self.tcb.values()]
        eng = Engine(threads, self._trace_sink)
        eng.on_tick = self._timer_tick
        for th in threads:
            if th.kind is ThreadKind.TASK:
                eng.start_thread(th.id)
            else:
                eng.arm_handler(th.id)
        for st in self._stimuli:
            self._schedule(st.tick, _RANK_STIMULUS, self._apply_stimulus, st)
        self.engine = eng

    def _validate_stimuli(self):
        for st in self._stimuli:
            dev = self.devices.get(st.device)
            device_kind, refusal = STIMULUS_KINDS[st.kind]
            if dev.kind != device_kind:
                raise ValidationError(
                    f"stimulus at tick {st.tick}: {st.device} {refusal}")
            if st.kind == "irq" and dev.bound_handler(st.line) is None:
                raise ValidationError(
                    f"stimulus at tick {st.tick}: line {st.line} of "
                    f"{st.device} is not bound to an ISR"
                )

    def _waiter_priority(self, tid):
        return self.tcb[tid].thread.current_priority

    def _wrap(self, factory):
        """The engine body of a declared factory: the engine calls it at a
        task's start and at each handler activation."""
        kernel = self

        def body(api):
            return factory(CallContext(api, kernel))

        return body

    # ------------------------------------------------------------------
    # run control

    def run(self, ticks: int):
        """Advance ``ticks`` ticks: step each tick that may need a
        scheduling decision or a boundary's work, and coast the others."""
        eng = self.engine
        if eng is None:
            raise UsageError("boot before running")
        if eng._finished:
            raise UsageError("the run is finished: its trace is closed")
        if not is_int(ticks) or ticks < 0:
            raise ValidationError("tick count must be >= 0")
        table = eng._table
        agenda = self._agenda
        end = eng.now + ticks
        while eng.now < end:
            eng.run_one_tick()
            # Only a running segment with ticks left can coast.  Tested
            # first and inline, so a busy tick pays a few lookups and no
            # call.
            if not table[eng.current_id].seg_left:
                continue
            # The hook has work only when the first agenda entry falls
            # due, so the ticks before that one may coast: their hooks
            # would find the state this tick's hook left, and its
            # deadlock check has already seen it.
            stop = end
            if agenda and agenda[0][0] <= stop:
                stop = agenda[0][0] - 1
            if stop > eng.now:
                eng.coast(stop - eng.now)

    def step(self):
        """Advance exactly one tick (step mode)."""
        self.run(1)

    def finish(self):
        """Close the run: flush the open trace record and the sink.  A
        second call does nothing; `run` and `step` after it raise."""
        if self.engine is None:
            raise UsageError("boot before finishing")
        self.engine.finish()

    # ------------------------------------------------------------------
    # the agenda: timers and stimuli

    def _schedule(self, due: int, rank: int, action, arg):
        """Put ``action(arg, now)`` on the agenda for instant ``due``;
        return its entry."""
        entry = (due, rank, next(self._agenda_seq), action, arg)
        heapq.heappush(self._agenda, entry)
        return entry

    def _timer_tick(self, now: int):
        agenda = self._agenda
        while agenda and agenda[0][0] <= now:
            _due, _rank, _seq, action, arg = heapq.heappop(agenda)
            action(arg, now)
        if not agenda:  # a timed event still to come rules out a deadlock
            self._check_deadlock(now)

    def _activate(self, data, now: int):
        """A cyclic or alarm activation; a busy handler misses it (see
        ``Engine.raise_interrupt``).  A cyclic handler's next one is due
        a period later."""
        handler_id, period = data
        self.engine.raise_interrupt(handler_id)
        if period is not None:
            self._schedule(now + period, _RANK_TIMER, self._activate, data)

    def _expire(self, data, _now: int):
        """A wait's timeout: leave the object, end the wait, release the
        waiters its leaving let in."""
        thread_id, cancel, code = data
        self.tcb[thread_id].timeout = None
        served = () if cancel is None else cancel(thread_id)
        self.engine.release(thread_id, EventKind.SLEEP_ARRIVAL, (code, None))
        for waiter, value in served:
            self._release(waiter, RESULT_OK, value)

    def _apply_stimulus(self, st: Stimulus, _now: int):
        dev = self.devices.get(st.device)
        if st.kind == "irq":
            self.engine.raise_interrupt(dev.bound_handler(st.line))
        elif st.kind == "pio_set":
            dev.set_input(st.value)
        else:
            dev.feed(st.value)

    def _check_deadlock(self, now: int):
        """Stop on, or report, a deadlock: no timed event to come (the
        caller's test) and a stalled engine (see ``Engine.stalled``)."""
        blocked = self.engine.stalled()
        if not blocked:
            return
        if self.abort_on_deadlock:
            raise DeadlockError(now, blocked)
        if self.deadlock_report is None:
            self.deadlock_report = (now, blocked)

    # ------------------------------------------------------------------
    # service plumbing
    #
    # Every service is one generator frame: it checks its arguments and
    # yields the SVC segment, which the engine charges in the implicit
    # critical section.  The engine resumes the service as it closes the
    # section, in the step the segment ends, so the effect runs before
    # any scheduling decision.  Then the service releases the waiters
    # the effect served and, if it must wait, arms its timeout and
    # blocks.

    def _take(self, registry, obj_id, what, timeout, attempt, *args,
              cancel=None):
        """Take from an object, or else wait on it.

        ``attempt(obj, tid, *args)`` is the effect, the object's take:
        it returns (granted, the caller's value, the (thread id, value)
        pairs of the waiters it served).  A timeout calls ``cancel``, by
        default ``cancel_wait``, and releases the waiters it served.
        """
        tid = self.engine.current_id
        if self.tcb[tid].thread.kind is not ThreadKind.TASK:
            raise self._handler_wait_error(tid, f"{what} {obj_id}")
        timeout = self._validate_timeout(timeout)
        yield self._svc_req
        obj = self._lookup(registry, obj_id, what)
        granted, value, released = attempt(obj, tid, *args)
        for waiter, result in released:
            self._release(waiter, RESULT_OK, result)
        if granted:
            return _OK if value is None else SvcResult(RESULT_OK, value)
        if timeout is not None:
            self._arm_timeout(tid, timeout, cancel or obj.cancel_wait)
        return _result((yield _BlockRequest(f"{what} {obj_id}")))

    def _give(self, registry, obj_id, what, change, *args):
        """Change an object, then release the waiters it served.

        ``change(obj, *args)`` is the effect, the object's give: it
        returns the (thread id, value) pairs of the waiters it served, or
        None.
        """
        yield self._svc_req
        released = change(self._lookup(registry, obj_id, what), *args)
        for waiter, result in released or ():
            self._release(waiter, RESULT_OK, result)
        return _OK

    @staticmethod
    def _lookup(registry, obj_id, what):
        obj = registry.get(obj_id)
        if obj is None:
            raise NotFoundError(f"no {what} with id {obj_id}")
        return obj

    def _handler_wait_error(self, thread_id, reason):
        """μITRON's E_CTX: a handler runs each activation to completion,
        so a service that can wait refuses a handler caller at the call,
        before its service segment."""
        return ProtocolError(f"{self.tcb[thread_id].thread.name}: "
                             f"a handler cannot wait ({reason})")

    @staticmethod
    def _task_thread(tcb):
        th = tcb.thread
        if th.kind is not ThreadKind.TASK:
            raise ObjectStateError(f"{th.name} is a handler, not a task")
        return th

    @staticmethod
    def _validate_timeout(timeout):
        # per service call, so the bool test is inline, not trace.is_int
        if timeout is None:
            return None
        if not isinstance(timeout, int) or type(timeout) is bool or timeout < 1:
            raise ValidationError("timeout must be >= 1 ticks (or forever)")
        return timeout

    def _arm_timeout(self, tid, ticks, cancel=None, code=RESULT_TIMEOUT):
        """End the wait ``tid`` begins next in ``ticks`` ticks, unless it
        ends first: call ``cancel(tid)``, then release it with ``code``."""
        self.tcb[tid].timeout = self._schedule(
            self.engine.now + ticks, _RANK_TIMER, self._expire,
            (tid, cancel, code))

    def _release(self, thread_id, code=RESULT_OK, value=None):
        """End a thread's wait other than by its timeout, and take the
        timeout off the agenda."""
        tcb = self.tcb[thread_id]
        if tcb.timeout is not None:
            self._agenda.remove(tcb.timeout)
            heapq.heapify(self._agenda)
            tcb.timeout = None
        self.engine.release(thread_id, EventKind.SLEEP_ARRIVAL, (code, value))

    # ------------------------------------------------------------------
    # task services

    def sleep(self, timeout=None):
        """Sleep until wakeup or timeout.  A queued wakeup is consumed
        immediately without blocking."""
        tid = self.engine.current_id
        if self.tcb[tid].thread.kind is not ThreadKind.TASK:
            raise self._handler_wait_error(tid, "sleep")
        timeout = self._validate_timeout(timeout)
        yield self._svc_req
        tcb = self.tcb[tid]
        if tcb.wakeup_count > 0:
            tcb.wakeup_count -= 1
            return _OK
        if timeout is not None:
            self._arm_timeout(tid, timeout)
        return _result((yield _BlockRequest(_SLEEP)))

    def wakeup(self, task_id):
        def wake(tcb):
            th = self._task_thread(tcb)
            if th.state is ThreadState.DORMANT:
                raise ObjectStateError(f"cannot wake dormant task {th.name}")
            if th.waiting_reason == _SLEEP:
                return [(task_id, None)]
            tcb.wakeup_count += 1

        return self._give(self.tcb, task_id, "thread", wake)

    def delay(self, ticks):
        """Unconditional delay: only expiry releases it; wakeups queue up."""
        tid = self.engine.current_id
        if self.tcb[tid].thread.kind is not ThreadKind.TASK:
            raise self._handler_wait_error(tid, "delay")
        if not isinstance(ticks, int) or type(ticks) is bool or ticks < 1:
            raise ValidationError("delay must be >= 1 ticks")
        yield self._svc_req
        self._arm_timeout(tid, ticks, code=RESULT_OK)
        return _result((yield _BlockRequest("delay")))

    def start_task(self, task_id):
        def start(tcb):
            self._task_thread(tcb)
            self.engine.start_thread(task_id)

        return self._give(self.tcb, task_id, "thread", start)

    def exit_task(self):
        yield from self._give(self.tcb, self.engine.current_id, "thread",
                              lambda _tcb: None)
        yield from self.engine.api.exit()

    # ------------------------------------------------------------------
    # synchronization services

    def sem_wait(self, sem_id, n=1, timeout=None):
        return self._take(self.semaphores, sem_id, "semaphore", timeout,
                          Semaphore.acquire, n)

    def sem_signal(self, sem_id, n=1):
        return self._give(self.semaphores, sem_id, "semaphore",
                          Semaphore.signal, n)

    def flag_wait(self, flg_id, pattern, mode, clear=False, timeout=None):
        return self._take(self.flags, flg_id, "event flag", timeout,
                          EventFlag.wait, pattern, mode, clear)

    def flag_set(self, flg_id, bits):
        return self._give(self.flags, flg_id, "event flag",
                          EventFlag.set_bits, bits)

    def flag_clear(self, flg_id, mask):
        return self._give(self.flags, flg_id, "event flag",
                          EventFlag.clear_bits, mask)

    def mbx_send(self, mbx_id, payload, priority=0):
        return self._give(self.mailboxes, mbx_id, "mailbox",
                          Mailbox.send, priority, payload)

    def mbx_recv(self, mbx_id, timeout=None):
        return self._take(self.mailboxes, mbx_id, "mailbox", timeout,
                          Mailbox.recv)

    def mbf_send(self, mbf_id, data, timeout=None):
        return self._take(self.buffers, mbf_id, "message buffer",
                          timeout, MessageBuffer.send, data)

    def mbf_recv(self, mbf_id, timeout=None):
        return self._take(self.buffers, mbf_id, "message buffer",
                          timeout, MessageBuffer.recv)

    def mtx_lock(self, mtx_id, timeout=None):
        return self._take(self.mutexes, mtx_id, "mutex", timeout,
                          self._lock, cancel=self._unqueue)

    def _lock(self, mtx, tid):
        """mtx_lock's effect: own the mutex, or queue on it and lend the
        caller's priority along the owner chain."""
        tcb = self.tcb[tid]
        answer = mtx.lock(tid)
        if answer[0]:
            tcb.held.append(mtx)
        else:
            tcb.blocked_on = mtx
            self._inherit(mtx.owner)
        return answer

    def _unqueue(self, tid):
        """mtx_lock's timeout: leave the queue, take back the lent priority."""
        tcb = self.tcb[tid]
        mtx, tcb.blocked_on = tcb.blocked_on, None
        served = mtx.cancel_wait(tid)  # nobody: the mutex is still owned
        self._inherit(mtx.owner)
        return served

    def mtx_unlock(self, mtx_id):
        return self._give(self.mutexes, mtx_id, "mutex", self._unlock)

    def _unlock(self, mtx):
        """mtx_unlock's effect: hand the mutex to its best waiter, if any,
        and take back from the caller what the mutex's waiters lent it."""
        tid = self.engine.current_id
        served = mtx.unlock(tid)
        self.tcb[tid].held.remove(mtx)
        if not served:  # a free mutex had no waiters to lose
            return served
        tcb = self.tcb[mtx.owner]
        tcb.blocked_on = None
        tcb.held.append(mtx)
        # the new owner was the best waiter: the waiters it takes over
        # cannot better its priority, so only the old owner's can change
        self._inherit(tid)
        return served

    def pool_get(self, pool_id, timeout=None):
        return self._take(self.fixed_pools, pool_id, "fixed pool", timeout,
                          FixedPool.get)

    def pool_release(self, pool_id, index):
        return self._give(self.fixed_pools, pool_id, "fixed pool",
                          FixedPool.release, index)

    def vpool_get(self, pool_id, size, timeout=None):
        return self._take(self.variable_pools, pool_id, "variable pool",
                          timeout, VariablePool.get, size)

    def vpool_release(self, pool_id, offset):
        return self._give(self.variable_pools, pool_id, "variable pool",
                          VariablePool.release, offset)

    # ------------------------------------------------------------------
    # peripherals

    def bfm_call(self, device, access, args=None):
        """Perform a device access, then charge its cycle/energy budget.

        Deliberately not a critical section: a long transfer stays
        preemptible and interruptible, only the accounting is atomic
        per tick.  The device mutation happens before any charging, so
        a zero-cycle access still takes effect.
        """
        response, spec = self.devices.perform(
            self.engine.now, device, access, args)
        req = self._bfm_reqs.get((device, access))
        if req is None:
            etm = -(-spec.cycles // self.cycles_per_tick)  # ceil division
            req = self._bfm_reqs[device, access] = _WaitRequest(
                Annotation(f"bfm:{device}.{access}", etm, spec.eem_uj),
                ContextKind.BFM)
        yield req
        return SvcResult(RESULT_OK, response)

    # ------------------------------------------------------------------
    # priority inheritance

    def _inherit(self, tid):
        """Propagate priority inheritance from a thread whose owned
        mutexes gained or lost waiters.

        A thread's current priority is min(base, the current priorities
        of the waiters on the mutexes it owns).  Set it; while it
        changed, move on to the owner of the mutex the thread is queued
        on.  The walk stops where a priority is unchanged, at the end of
        the chain, or on coming back round a cycle.
        """
        table = self.tcb
        seen = set()
        while tid not in seen:
            seen.add(tid)
            tcb = table[tid]
            th = tcb.thread
            want = th.base_priority
            for mtx in tcb.held:
                for waiter in mtx.queue.waiters():
                    prio = table[waiter].thread.current_priority
                    if prio < want:
                        want = prio
            if want == th.current_priority:
                break
            self.engine.set_priority(tid, want)
            if tcb.blocked_on is None:
                break
            tid = tcb.blocked_on.owner
