"""The kernel: services, timers, handlers, boot protocol, deadlock watch.

Everything a scenario declares is instantiated during boot by a
priority-0 init task that runs before tick 0 in zero simulated time:
it creates every thread and object, seals the thread registry, starts
the tasks plus the idle task, and exits.  Boot-time service calls are
free and invisible; trace sinks attach only after boot, so the first
recorded event is the first user dispatch.

Every service call after boot runs inside an implicit critical section
and charges the caller one SVC-context segment (cost is configurable,
default one tick / zero energy).  A service that must block does so
only as its final step, after the critical section closed.  Blocking
services return result codes; a timeout is a result, not an exception.

Timer boundaries are processed at instants 1..T for a T-tick run: due
timer events first (insertion order within one instant), then the
stimuli declared for that instant, then a deadlock check.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

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
)
from .errors import (
    ConflictError,
    DeadlockError,
    NotFoundError,
    ObjectStateError,
    UsageError,
    ValidationError,
)
from .objects import (
    EventFlag,
    FixedPool,
    Mailbox,
    MessageBuffer,
    Mutex,
    Semaphore,
    VariablePool,
)

RESULT_OK = "OK"
RESULT_TIMEOUT = "TIMEOUT"

USER_PRIORITY_MIN = 1
USER_PRIORITY_MAX = 140
INIT_PRIORITY = 0
IDLE_PRIORITY = 141

DEFAULT_CYCLES_PER_TICK = 12000

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class SvcResult:
    """Outcome of a (possibly blocking) kernel service."""

    code: str
    value: object = None

    @property
    def ok(self) -> bool:
        return self.code == RESULT_OK

    @property
    def timed_out(self) -> bool:
        return self.code == RESULT_TIMEOUT


class CallContext:
    """Handed to a task or handler body factory.

    ``api`` carries the yielding operations, ``kernel`` the services,
    ``event`` the EventKind that started this body (for handlers, the
    activation event).
    """

    __slots__ = ("api", "kernel", "event")

    def __init__(self, api, kernel, event):
        self.api = api
        self.kernel = kernel
        self.event = event


@dataclass
class TaskControl:
    """Kernel-side task bookkeeping beyond the engine's thread record.

    suspend_nesting stays 0: suspend/resume services are not offered, so
    no thread ever enters a SUSPENDED state, which exists only as a
    listing code.  The field exists so the listing can report it.
    """

    extended_info: int = 0
    wakeup_count: int = 0
    suspend_nesting: int = 0
    raised_event: int = 0
    wait_gen: int = 0
    wait_kind: str | None = None


@dataclass(frozen=True)
class TaskDecl:
    task_id: int
    name: str
    priority: int
    body: object
    extended_info: int = 0


@dataclass(frozen=True)
class HandlerDecl:
    thread_id: int
    name: str
    kind: ThreadKind
    body: object
    extended_info: int = 0
    period: int = 0   # cyclic
    phase: int = 0    # cyclic; 0 means "defer to period"
    offset: int = 0   # alarm


@dataclass(frozen=True)
class Stimulus:
    """One scripted external event.  kind: irq | pio_set | serial_in."""

    tick: int
    kind: str
    device: str
    line: int = 0
    value: int = 0


# timer event kinds
_EV_SLEEP = "sleep_timeout"
_EV_DELAY = "delay_expiry"
_EV_WAIT = "wait_timeout"
_EV_CYCLIC = "cyclic"
_EV_ALARM = "alarm"


def _check_name(name):
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(f"bad name {name!r}: use letters, digits, _ . -")
    return name


def _check_id(value, what):
    if not isinstance(value, int) or value < 1:
        raise ValidationError(f"{what} id must be a positive integer")
    return value


class Kernel:
    def __init__(self, *, tick_us: int = 1000,
                 cycles_per_tick: int = DEFAULT_CYCLES_PER_TICK,
                 svc_etm: int = 1, svc_eem_uj: int = 0,
                 idle_id: int | None = None, idle_name: str = "IDLE",
                 abort_on_deadlock: bool = True):
        if not isinstance(cycles_per_tick, int) or cycles_per_tick < 1:
            raise ValidationError("cycles_per_tick must be >= 1")
        if not isinstance(svc_etm, int) or svc_etm < 0:
            raise ValidationError("service cost etm must be >= 0")
        if not isinstance(svc_eem_uj, int) or svc_eem_uj < 0:
            raise ValidationError("service cost eem must be >= 0")
        self.tick_us = tick_us
        self.cycles_per_tick = cycles_per_tick
        self._svc_ann = Annotation("svc", svc_etm, svc_eem_uj)
        self._idle_id_cfg = idle_id
        self._idle_name = idle_name
        self.abort_on_deadlock = abort_on_deadlock

        self.devices = DeviceRegistry()
        self.engine: Engine | None = None
        self.tcb: dict[int, TaskControl] = {}
        self.deadlock_report: tuple | None = None

        self._task_decls: list[TaskDecl] = []
        self._handler_decls: list[HandlerDecl] = []
        self._object_decls: list[tuple] = []
        self._stimuli: list[Stimulus] = []
        self._stim_idx = 0
        self._isr_bindings: list[tuple] = []

        self._timer: list[tuple] = []   # (due, seq, kind, data)
        self._timer_seq = 0
        self._booting = False
        self._booted = False
        self._trace_sink = None

        self.semaphores: dict[int, Semaphore] = {}
        self.flags: dict[int, EventFlag] = {}
        self.mutexes: dict[int, Mutex] = {}
        self.mailboxes: dict[int, Mailbox] = {}
        self.buffers: dict[int, MessageBuffer] = {}
        self.fixed_pools: dict[int, FixedPool] = {}
        self.variable_pools: dict[int, VariablePool] = {}

        self.idle_id: int | None = None

    # ------------------------------------------------------------------
    # declaration phase (pre-boot)

    def _pre_boot(self):
        if self._booted or self._booting:
            raise UsageError("declarations are closed once boot starts")

    def _all_thread_ids(self):
        ids = {d.task_id for d in self._task_decls}
        ids.update(d.thread_id for d in self._handler_decls)
        return ids

    def _check_thread_id(self, thread_id):
        _check_id(thread_id, "thread")
        if thread_id in self._all_thread_ids():
            raise ConflictError(f"thread id {thread_id} already declared")

    def declare_task(self, task_id: int, name: str, priority: int, body,
                     *, extended_info: int = 0):
        self._pre_boot()
        self._check_thread_id(task_id)
        _check_name(name)
        if not isinstance(priority, int) or not (
            USER_PRIORITY_MIN <= priority <= USER_PRIORITY_MAX
        ):
            raise ValidationError(
                f"task {name}: priority must be in "
                f"{USER_PRIORITY_MIN}..{USER_PRIORITY_MAX}"
            )
        self._task_decls.append(
            TaskDecl(task_id, name, priority, body, extended_info)
        )

    def declare_cyclic(self, thread_id: int, name: str, period: int, body,
                       *, phase: int = 0, extended_info: int = 0):
        """Cyclic handler firing at absolute ticks phase, phase+period, ...
        A zero phase defers to the period, so the first activation is
        never at tick 0."""
        self._pre_boot()
        self._check_thread_id(thread_id)
        _check_name(name)
        if not isinstance(period, int) or period < 1:
            raise ValidationError(f"cyclic {name}: period must be >= 1")
        if not isinstance(phase, int) or phase < 0:
            raise ValidationError(f"cyclic {name}: phase must be >= 0")
        self._handler_decls.append(HandlerDecl(
            thread_id, name, ThreadKind.CYCLIC, body,
            extended_info, period=period, phase=phase,
        ))

    def declare_alarm(self, thread_id: int, name: str, offset: int, body,
                      *, extended_info: int = 0):
        self._pre_boot()
        self._check_thread_id(thread_id)
        _check_name(name)
        if not isinstance(offset, int) or offset < 1:
            raise ValidationError(f"alarm {name}: offset must be >= 1")
        self._handler_decls.append(HandlerDecl(
            thread_id, name, ThreadKind.ALARM, body,
            extended_info, offset=offset,
        ))

    def declare_isr(self, thread_id: int, name: str, body,
                    *, extended_info: int = 0):
        self._pre_boot()
        self._check_thread_id(thread_id)
        _check_name(name)
        self._handler_decls.append(HandlerDecl(
            thread_id, name, ThreadKind.ISR, body, extended_info,
        ))

    def _declare_object(self, kind: str, registry_name: str, obj_id: int, kwargs):
        self._pre_boot()
        _check_id(obj_id, kind)
        for k, existing_id, _kw in self._object_decls:
            if k == kind and existing_id == obj_id:
                raise ConflictError(f"{kind} id {obj_id} already declared")
        self._object_decls.append((kind, obj_id, kwargs))

    def declare_semaphore(self, obj_id, initial, *, max_count=None, extended_info=0):
        kw = {"initial": initial, "extended_info": extended_info}
        if max_count is not None:
            kw["max_count"] = max_count
        self._declare_object("semaphore", "semaphores", obj_id, kw)

    def declare_flag(self, obj_id, initial=0, *, extended_info=0):
        self._declare_object("flag", "flags", obj_id,
                             {"initial": initial, "extended_info": extended_info})

    def declare_mutex(self, obj_id, *, extended_info=0):
        self._declare_object("mutex", "mutexes", obj_id,
                             {"extended_info": extended_info})

    def declare_mailbox(self, obj_id, *, extended_info=0):
        self._declare_object("mailbox", "mailboxes", obj_id,
                             {"extended_info": extended_info})

    def declare_buffer(self, obj_id, capacity, *, extended_info=0):
        self._declare_object("buffer", "buffers", obj_id,
                             {"capacity": capacity, "extended_info": extended_info})

    def declare_fixed_pool(self, obj_id, block_count, block_size, *, extended_info=0):
        self._declare_object("fixed_pool", "fixed_pools", obj_id, {
            "block_count": block_count, "block_size": block_size,
            "extended_info": extended_info,
        })

    def declare_variable_pool(self, obj_id, size, *, extended_info=0):
        self._declare_object("variable_pool", "variable_pools", obj_id,
                             {"size": size, "extended_info": extended_info})

    def add_device(self, kind: str, name: str, accesses, **options):
        self._pre_boot()
        _check_name(name)
        self.devices.add(make_device(kind, name, accesses, **options))

    def attach_isr(self, device_name: str, line: int, isr_id: int):
        self._pre_boot()
        dev = self.devices.get(device_name)
        if dev.kind != KIND_INTC:
            raise ValidationError(f"device {device_name} is not an interrupt controller")
        decl = next(
            (d for d in self._handler_decls
             if d.thread_id == isr_id and d.kind is ThreadKind.ISR),
            None,
        )
        if decl is None:
            raise NotFoundError(f"no ISR declared with id {isr_id}")
        dev.attach(line, isr_id)
        self._isr_bindings.append((device_name, line, isr_id))

    def add_stimulus(self, tick: int, kind: str, device: str, *,
                     line: int = 0, value: int = 0):
        self._pre_boot()
        if not isinstance(tick, int) or tick < 1:
            raise ValidationError("stimulus tick must be >= 1")
        if kind not in ("irq", "pio_set", "serial_in"):
            raise ValidationError(f"unknown stimulus kind {kind!r}")
        self.devices.get(device)  # must exist
        self._stimuli.append(Stimulus(tick, kind, device, line, value))

    def attach_sinks(self, trace_sink=None, report_sink=None):
        """Set the trace sink the engine gets after boot.  Only a trace
        sink is supported: ``report_sink`` must be None."""
        self._pre_boot()
        if report_sink is not None:
            raise UsageError("report sinks are not supported")
        self._trace_sink = trace_sink

    # ------------------------------------------------------------------
    # boot

    def boot(self):
        if self._booted:
            raise UsageError("already booted")
        self._validate_stimuli()
        expected = len(self._task_decls) + len(self._handler_decls) + 2
        declared = self._all_thread_ids()
        idle_id = self._idle_id_cfg
        if idle_id is None:
            idle_id = (max(declared) + 1) if declared else 1
        elif idle_id in declared:
            raise ConflictError(f"idle id {idle_id} collides with a declared thread")
        init_id = max(declared | {idle_id}) + 1
        self.idle_id = idle_id

        eng = Engine(expected, tick_us=self.tick_us)
        eng.on_tick = self._timer_tick
        self.engine = eng

        idle = SimThread(idle_id, self._idle_name, ThreadKind.TASK,
                         IDLE_PRIORITY, self._idle_body, is_idle=True)
        eng.register(idle)
        self.tcb[idle_id] = TaskControl()

        init = SimThread(init_id, "boot-init", ThreadKind.TASK,
                         INIT_PRIORITY, self._init_body)
        eng.register(init)

        self._booting = True
        eng.start_thread(init_id)
        eng.run_boot_steps(init_id)
        self._booting = False
        eng.unregister(init_id)

        # stimuli fire in declaration order within one tick
        self._stimuli = sorted(
            enumerate(self._stimuli), key=lambda p: (p[1].tick, p[0])
        )
        self._stimuli = [s for _i, s in self._stimuli]
        self._stim_idx = 0

        eng.attach_sinks(trace_sink=self._trace_sink)
        self._booted = True

    def _validate_stimuli(self):
        for st in self._stimuli:
            dev = self.devices.get(st.device)
            if st.kind == "irq":
                if dev.kind != KIND_INTC:
                    raise ValidationError(
                        f"stimulus at tick {st.tick}: {st.device} is not "
                        "an interrupt controller"
                    )
                if dev.bound_handler(st.line) is None:
                    raise ValidationError(
                        f"stimulus at tick {st.tick}: line {st.line} of "
                        f"{st.device} is not bound to an ISR"
                    )
            elif st.kind == "pio_set" and dev.kind != KIND_PARALLEL:
                raise ValidationError(
                    f"stimulus at tick {st.tick}: {st.device} has no input latch"
                )
            elif st.kind == "serial_in" and dev.kind != KIND_SERIAL:
                raise ValidationError(
                    f"stimulus at tick {st.tick}: {st.device} has no input FIFO"
                )

    def _idle_body(self, api):
        yield from api.wait_run()
        idle_ann = Annotation("idle", 1, 0)
        while True:
            yield from api.wait(idle_ann, ContextKind.IDLE)

    def _init_body(self, api):
        yield from api.wait_run()
        for d in self._task_decls:
            th = SimThread(d.task_id, d.name, ThreadKind.TASK, d.priority,
                           self._wrap_task(d.body))
            self.engine.register(th)
            self.tcb[d.task_id] = TaskControl(extended_info=d.extended_info)
        for d in self._handler_decls:
            th = SimThread(d.thread_id, d.name, d.kind, INIT_PRIORITY,
                           self._wrap_handler(d.body))
            self.engine.register(th)
            self.tcb[d.thread_id] = TaskControl(extended_info=d.extended_info)
        self.engine.all_created()
        self._create_objects()
        for d in self._handler_decls:
            self.engine.arm_handler(d.thread_id)
            if d.kind is ThreadKind.CYCLIC:
                phase = d.phase if d.phase >= 1 else d.period
                self._push_timer(phase, _EV_CYCLIC,
                                 (d.thread_id, d.period))
            elif d.kind is ThreadKind.ALARM:
                self._push_timer(self.engine.now + d.offset, _EV_ALARM,
                                 (d.thread_id,))
        for d in self._task_decls:
            self.engine.start_thread(d.task_id)
        self.engine.start_thread(self.idle_id)
        # falls off the end: implicit exit, zero time consumed

    def _create_objects(self):
        prio_of = self._waiter_priority
        makers = {
            "semaphore": (self.semaphores, Semaphore),
            "flag": (self.flags, EventFlag),
            "mutex": (self.mutexes, Mutex),
            "mailbox": (self.mailboxes, Mailbox),
            "buffer": (self.buffers, MessageBuffer),
            "fixed_pool": (self.fixed_pools, FixedPool),
            "variable_pool": (self.variable_pools, VariablePool),
        }
        ctor_args = {
            "semaphore": ("initial",),
            "flag": ("initial",),
            "mutex": (),
            "mailbox": (),
            "buffer": ("capacity",),
            "fixed_pool": ("block_count", "block_size"),
            "variable_pool": ("size",),
        }
        for kind, obj_id, kwargs in self._object_decls:
            registry, cls = makers[kind]
            kw = dict(kwargs)
            pos = [kw.pop(a) for a in ctor_args[kind]]
            registry[obj_id] = cls(obj_id, *pos, priority_of=prio_of, **kw)

    def _waiter_priority(self, tid):
        return self.engine.thread(tid).current_priority

    def _wrap_task(self, factory):
        kernel = self

        def body(api):
            yield from api.wait_run()
            gen = factory(CallContext(api, kernel, EventKind.STARTUP))
            yield from gen

        return body

    def _wrap_handler(self, factory):
        kernel = self

        def body(api):
            while True:
                ev = yield from api.await_activation()
                gen = factory(CallContext(api, kernel, ev))
                yield from gen
                api.mark_cycle()
                yield from api.return_from_handler()

        return body

    # ------------------------------------------------------------------
    # run control

    def run(self, ticks: int):
        if not self._booted:
            raise UsageError("boot before running")
        if not isinstance(ticks, int) or ticks < 0:
            raise ValidationError("tick count must be >= 0")
        for _ in range(ticks):
            self.engine.run_one_tick()

    def step(self):
        """Advance exactly one tick (step mode)."""
        self.run(1)

    def finish(self):
        self.engine.finish()

    # ------------------------------------------------------------------
    # timers and stimuli

    def _push_timer(self, due: int, kind: str, data):
        heapq.heappush(self._timer, (due, self._timer_seq, kind, data))
        self._timer_seq += 1

    def _timer_tick(self, now: int):
        timer = self._timer
        while timer and timer[0][0] <= now:
            _due, _seq, kind, data = heapq.heappop(timer)
            self._timer_event(kind, data, now)
        stimuli = self._stimuli
        while self._stim_idx < len(stimuli) and stimuli[self._stim_idx].tick == now:
            self._apply_stimulus(stimuli[self._stim_idx])
            self._stim_idx += 1
        self._check_deadlock(now)

    def _timer_event(self, kind: str, data, now: int):
        eng = self.engine
        if kind == _EV_CYCLIC:
            thread_id, period = data
            th = eng.thread(thread_id)
            if th.awaiting_activation and not th.activation_queued:
                eng.raise_interrupt(thread_id)
            # a busy handler simply misses this activation
            self._push_timer(now + period, _EV_CYCLIC, data)
            return
        if kind == _EV_ALARM:
            (thread_id,) = data
            th = eng.thread(thread_id)
            if th.awaiting_activation and not th.activation_queued:
                eng.raise_interrupt(thread_id)
            return
        # per-thread timeouts; stale ones (already released) are no-ops
        thread_id, gen, cancel = data
        tcb = self.tcb.get(thread_id)
        if tcb is None or tcb.wait_gen != gen:
            return
        th = eng.thread(thread_id)
        if th.state is not ThreadState.WAITING or th.awaiting_activation:
            return
        if cancel is not None:
            cancel()
        tcb.wait_kind = None
        code = RESULT_OK if kind == _EV_DELAY else RESULT_TIMEOUT
        eng.release(thread_id, EventKind.SLEEP_ARRIVAL, (code, None))

    def _apply_stimulus(self, st: Stimulus):
        dev = self.devices.get(st.device)
        if st.kind == "irq":
            self.engine.raise_interrupt(dev.bound_handler(st.line))
        elif st.kind == "pio_set":
            dev.set_input(st.value)
        else:
            dev.feed(st.value)

    def _check_deadlock(self, now: int):
        if self._timer or self._stim_idx < len(self._stimuli):
            return
        eng = self.engine
        if eng.pending_activation_count() > 0:
            return
        cur = eng.current_id
        if cur is not None and not eng.thread(cur).is_idle:
            return
        if any(not eng.thread(t).is_idle for t in eng.ready_ids()):
            return
        blocked = eng.waiting_threads()
        if not blocked:
            return
        if self.abort_on_deadlock:
            raise DeadlockError(now, blocked)
        if self.deadlock_report is None:
            self.deadlock_report = (now, blocked)

    # ------------------------------------------------------------------
    # service plumbing

    def _svc(self, api, op):
        """Run ``op()`` as the atomic part of one service call.

        Every service runs inside an implicit critical section and,
        outside boot, charges one SVC-context segment first.  Only the
        operation is inside the ``try``: a generator closed while parked
        in the SVC wait must not exit the section from a thread that is
        not running.
        """
        api.begin_critical()
        if not self._booting:
            yield from api.wait(self._svc_ann, ContextKind.SVC)
        try:
            return op()
        finally:
            api.end_critical()

    def _tcb(self, thread_id) -> TaskControl:
        tcb = self.tcb.get(thread_id)
        if tcb is None:
            raise NotFoundError(f"no thread with id {thread_id}")
        return tcb

    def _task_thread(self, task_id):
        th = self.engine.thread(task_id)
        if th.kind is not ThreadKind.TASK:
            raise ObjectStateError(f"{th.name} is a handler, not a task")
        return th

    @staticmethod
    def _validate_timeout(timeout):
        if timeout is None:
            return None
        if not isinstance(timeout, int) or timeout < 1:
            raise ValidationError("timeout must be >= 1 ticks (or forever)")
        return timeout

    def _block_with_timeout(self, api, reason, wait_kind, timeout, cancel):
        """Arm an optional timeout, then block; returns SvcResult."""
        tid = api.thread_id
        tcb = self._tcb(tid)
        tcb.wait_gen += 1
        tcb.wait_kind = wait_kind
        if timeout is not None:
            self._push_timer(
                self.engine.now + timeout,
                _EV_DELAY if wait_kind == "delay" else
                (_EV_SLEEP if wait_kind == "sleep" else _EV_WAIT),
                (tid, tcb.wait_gen, cancel),
            )
        value = yield _BlockRequest(reason)
        payload = value.payload if value.payload is not None else (RESULT_OK, None)
        return SvcResult(*payload)

    def _release(self, thread_id, code=RESULT_OK, value=None):
        tcb = self.tcb.get(thread_id)
        if tcb is not None:
            tcb.wait_kind = None
        self.engine.release(thread_id, EventKind.SLEEP_ARRIVAL, (code, value))

    @staticmethod
    def _object(registry, obj_id, what):
        obj = registry.get(obj_id)
        if obj is None:
            raise NotFoundError(f"no {what} with id {obj_id}")
        return obj

    # ------------------------------------------------------------------
    # task services

    def sleep(self, api, timeout=None):
        """Sleep until wakeup or timeout.  A queued wakeup is consumed
        immediately without blocking."""
        timeout = self._validate_timeout(timeout)

        def take_wakeup():
            tcb = self._tcb(api.thread_id)
            if tcb.wakeup_count > 0:
                tcb.wakeup_count -= 1
                return True
            return False

        if (yield from self._svc(api, take_wakeup)):
            return SvcResult(RESULT_OK)
        result = yield from self._block_with_timeout(
            api, "sleep", "sleep", timeout, None)
        return result

    def wakeup(self, api, task_id):
        def op():
            th = self._task_thread(task_id)
            tcb = self._tcb(task_id)
            if th.state in (ThreadState.DORMANT, ThreadState.NON_EXISTENT):
                raise ObjectStateError(f"cannot wake dormant task {th.name}")
            if th.state is ThreadState.WAITING and tcb.wait_kind == "sleep":
                self._release(task_id)
            else:
                tcb.wakeup_count += 1

        yield from self._svc(api, op)
        return SvcResult(RESULT_OK)

    def delay(self, api, ticks):
        """Unconditional delay: only expiry releases it; wakeups queue up."""
        if not isinstance(ticks, int) or ticks < 1:
            raise ValidationError("delay must be >= 1 ticks")
        yield from self._svc(api, lambda: None)
        result = yield from self._block_with_timeout(
            api, "delay", "delay", ticks, None)
        return result

    def start_task(self, api, task_id):
        def op():
            self._task_thread(task_id)
            self.engine.start_thread(task_id)

        yield from self._svc(api, op)
        return SvcResult(RESULT_OK)

    def exit_task(self, api):
        yield from self._svc(api, lambda: None)
        yield from api.exit()

    # ------------------------------------------------------------------
    # synchronization services

    def sem_wait(self, api, sem_id, n=1, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted = yield from self._svc(api, lambda: self._object(
            self.semaphores, sem_id, "semaphore").acquire(tid, n))
        if granted:
            return SvcResult(RESULT_OK)
        sem = self.semaphores[sem_id]
        result = yield from self._block_with_timeout(
            api, f"semaphore {sem_id}", "semaphore", timeout,
            lambda: sem.cancel_wait(tid))
        return result

    def sem_signal(self, api, sem_id, n=1):
        released = yield from self._svc(api, lambda: self._object(
            self.semaphores, sem_id, "semaphore").signal(n))
        for tid in released:
            self._release(tid)
        return SvcResult(RESULT_OK)

    def flag_wait(self, api, flg_id, pattern, mode, *, clear=False, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, snapshot = yield from self._svc(api, lambda: self._object(
            self.flags, flg_id, "event flag").wait(tid, pattern, mode, clear))
        if granted:
            return SvcResult(RESULT_OK, snapshot)
        flg = self.flags[flg_id]
        result = yield from self._block_with_timeout(
            api, f"event flag {flg_id}", "flag", timeout,
            lambda: flg.cancel_wait(tid))
        return result

    def flag_set(self, api, flg_id, bits):
        released = yield from self._svc(api, lambda: self._object(
            self.flags, flg_id, "event flag").set_bits(bits))
        for tid, snapshot in released:
            self._release(tid, RESULT_OK, snapshot)
        return SvcResult(RESULT_OK)

    def flag_clear(self, api, flg_id, mask):
        yield from self._svc(api, lambda: self._object(
            self.flags, flg_id, "event flag").clear_bits(mask))
        return SvcResult(RESULT_OK)

    def mbx_send(self, api, mbx_id, payload, priority=0):
        delivery = yield from self._svc(api, lambda: self._object(
            self.mailboxes, mbx_id, "mailbox").send(priority, payload))
        if delivery is not None:
            tid, msg = delivery
            self._release(tid, RESULT_OK, msg)
        return SvcResult(RESULT_OK)

    def mbx_recv(self, api, mbx_id, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, msg = yield from self._svc(api, lambda: self._object(
            self.mailboxes, mbx_id, "mailbox").recv(tid))
        if granted:
            return SvcResult(RESULT_OK, msg)
        mbx = self.mailboxes[mbx_id]
        result = yield from self._block_with_timeout(
            api, f"mailbox {mbx_id}", "mailbox", timeout,
            lambda: mbx.cancel_wait(tid))
        return result

    def mbf_send(self, api, mbf_id, data, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, deliveries = yield from self._svc(api, lambda: self._object(
            self.buffers, mbf_id, "message buffer").send(tid, data))
        for rtid, msg in deliveries:
            self._release(rtid, RESULT_OK, msg)
        if granted:
            return SvcResult(RESULT_OK)
        buf = self.buffers[mbf_id]
        result = yield from self._block_with_timeout(
            api, f"message buffer {mbf_id}", "buffer", timeout,
            lambda: buf.cancel_wait(tid))
        return result

    def mbf_recv(self, api, mbf_id, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, msg, unblocked = yield from self._svc(api, lambda: self._object(
            self.buffers, mbf_id, "message buffer").recv(tid))
        for stid in unblocked:
            self._release(stid)
        if granted:
            return SvcResult(RESULT_OK, msg)
        buf = self.buffers[mbf_id]
        result = yield from self._block_with_timeout(
            api, f"message buffer {mbf_id}", "buffer", timeout,
            lambda: buf.cancel_wait(tid))
        return result

    def mtx_lock(self, api, mtx_id, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id

        def op():
            granted = self._object(self.mutexes, mtx_id, "mutex").lock(tid)
            if not granted:
                self._recompute_inheritance()
            return granted

        if (yield from self._svc(api, op)):
            return SvcResult(RESULT_OK)
        mtx = self.mutexes[mtx_id]

        def cancel():
            mtx.cancel_wait(tid)
            self._recompute_inheritance()

        result = yield from self._block_with_timeout(
            api, f"mutex {mtx_id}", "mutex", timeout, cancel)
        return result

    def mtx_unlock(self, api, mtx_id):
        next_owner = yield from self._svc(api, lambda: self._object(
            self.mutexes, mtx_id, "mutex").unlock(api.thread_id))
        if next_owner is not None:
            self._release(next_owner)
        self._recompute_inheritance()
        return SvcResult(RESULT_OK)

    def pool_get(self, api, pool_id, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, index = yield from self._svc(api, lambda: self._object(
            self.fixed_pools, pool_id, "fixed pool").get(tid))
        if granted:
            return SvcResult(RESULT_OK, index)
        pool = self.fixed_pools[pool_id]
        result = yield from self._block_with_timeout(
            api, f"fixed pool {pool_id}", "pool", timeout,
            lambda: pool.cancel_wait(tid))
        return result

    def pool_release(self, api, pool_id, index):
        handoff = yield from self._svc(api, lambda: self._object(
            self.fixed_pools, pool_id, "fixed pool").release(index))
        if handoff is not None:
            tid, idx = handoff
            self._release(tid, RESULT_OK, idx)
        return SvcResult(RESULT_OK)

    def vpool_get(self, api, pool_id, size, timeout=None):
        timeout = self._validate_timeout(timeout)
        tid = api.thread_id
        granted, offset = yield from self._svc(api, lambda: self._object(
            self.variable_pools, pool_id, "variable pool").get(tid, size))
        if granted:
            return SvcResult(RESULT_OK, offset)
        pool = self.variable_pools[pool_id]
        result = yield from self._block_with_timeout(
            api, f"variable pool {pool_id}", "pool", timeout,
            lambda: pool.cancel_wait(tid))
        return result

    def vpool_release(self, api, pool_id, offset):
        grants = yield from self._svc(api, lambda: self._object(
            self.variable_pools, pool_id, "variable pool").release(offset))
        for tid, off, _n in grants:
            self._release(tid, RESULT_OK, off)
        return SvcResult(RESULT_OK)

    # ------------------------------------------------------------------
    # peripherals

    def bfm_call(self, api, device, access, args=None):
        """Perform a device access, then charge its cycle/energy budget.

        Deliberately not a critical section: a long transfer stays
        preemptible and interruptible, only the accounting is atomic
        per tick.  The device mutation happens before any charging, so
        a zero-cycle access still takes effect.
        """
        response, spec = self.devices.perform(
            self.engine.now, device, access, args)
        etm = -(-spec.cycles // self.cycles_per_tick)  # ceil division
        ann = Annotation(f"bfm:{device}.{access}", etm, spec.eem_uj)
        yield from api.wait(ann, ContextKind.BFM)
        return SvcResult(RESULT_OK, response)

    # ------------------------------------------------------------------
    # priority inheritance

    def _recompute_inheritance(self):
        """Owner priority = min(base, best waiter across owned mutexes),
        iterated to a fixpoint so chains propagate transitively."""
        eng = self.engine
        for _round in range(len(self.tcb) + 1):
            changed = False
            targets = {}
            for mtx in self.mutexes.values():
                if mtx.owner is None:
                    continue
                for waiter in mtx.queue.waiters():
                    prio = eng.thread(waiter).current_priority
                    cur = targets.get(mtx.owner)
                    if cur is None or prio < cur:
                        targets[mtx.owner] = prio
            for th in eng.threads():
                want = min(th.base_priority,
                           targets.get(th.id, th.base_priority))
                if th.current_priority != want:
                    th.current_priority = want
                    changed = True
            if not changed:
                break
        eng.recheck_preemption()
