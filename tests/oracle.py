"""Brute-force reference simulator for the randomized equivalence suite.

Deliberately naive: flat instruction lists with a program counter, plain
lists for queues, one loop per tick.  It shares no code with the package
under test; where the production engine trampolines generators, this one
grinds out the same scheduling rules in the dumbest way that could work.

`generate_spec(seed)` draws a random system description (a plain dict,
no package types), `RefSim(spec).run()` simulates it and returns the
per-tick running-thread vector plus final per-thread totals; it keeps
the tasks' current priorities after every tick in `RefSim.priorities`.
Seeds from `MUTEX_SEED_BASE` on draw systems built around
priority-inheritance mutexes; a run that hits a service error (say, an
unlock after a lock that timed out) stops there and keeps the tick in
`RefSim.error_tick`.
"""

import heapq
import random

IDLE_PRIO = 999          # must only be worse than every user priority
_IDLE_LABEL = "__idle__"
MUTEX_SEED_BASE = 1_000_000


class ServiceFault(Exception):
    """A service call the kernel rejects; it ends the run."""


def inherit_fixpoint(base, current, holdings):
    """Priority inheritance recomputed from scratch over every mutex.

    ``base`` and ``current`` map thread id to priority, ``holdings`` is
    a list of (owner, waiter ids) per owned mutex.  Each round sets every
    thread to min(base, best waiter on the mutexes it owns), reading the
    previous round's priorities, until a round changes nothing or
    threads+1 rounds have run.  Returns the new current priorities.
    """
    current = dict(current)
    for _round in range(len(current) + 1):
        targets = {}
        for owner, waiters in holdings:
            for tid in waiters:
                prio = current[tid]
                if owner not in targets or prio < targets[owner]:
                    targets[owner] = prio
        changed = False
        for tid, prio in base.items():
            want = min(prio, targets.get(tid, prio))
            if current[tid] != want:
                current[tid] = want
                changed = True
        if not changed:
            break
    return current


# ----------------------------------------------------------------------
# program flattening

def flatten_program(stmts):
    """Unroll bounded loops; a forever loop becomes a backward jump."""
    out = []
    _flatten(stmts, out)
    return out


def _flatten(stmts, out):
    for op in stmts:
        if op[0] == "loop":
            _kind, count, body = op
            if count is None:
                start = len(out)
                _flatten(body, out)
                out.append(("jump", start))
            else:
                for _ in range(count):
                    _flatten(body, out)
        else:
            out.append(op)


class _Thread:
    def __init__(self, tid, name, prio, program, is_handler=False):
        self.id = tid
        self.name = name
        self.base = prio
        self.prio = prio         # current priority, inheritance included
        self.program = program
        self.is_handler = is_handler
        self.state = "parked" if is_handler else "ready"
        self.ready_stamp = 0
        self.pc = 0
        self.seg = None          # [remaining, per_tick_uj, remainder_uj]
        self.effect = None       # service awaiting its post-charge effect
        self.wait_kind = None
        self.wait_gen = 0
        self.blocked_on = None   # mutex id while queued on one
        self.wakeup_count = 0
        self.queued = False      # activation already queued (handlers)
        self.cet = 0
        self.cee = 0


class _Sem:
    def __init__(self, initial):
        self.count = initial
        self.queue = []          # (tid, arrival_seq, need)
        self.arrivals = 0


class _Mtx:
    def __init__(self):
        self.owner = None
        self.queue = []          # (tid, arrival_seq)
        self.arrivals = 0


class RefSim:
    def __init__(self, spec):
        self.T = spec["run_ticks"]
        self.svc_etm = spec["svc_etm"]
        self.svc_eem = spec["svc_eem"]
        self.ann = dict(spec["annotations"])
        self.ann[_IDLE_LABEL] = (1, 0)

        self.threads = {}
        for t in spec["tasks"]:
            self.threads[t["id"]] = _Thread(
                t["id"], t["name"], t["priority"],
                flatten_program(t["program"]))
        self.isr_lines = {}
        cyclics = []
        alarms = []
        for h in spec["handlers"]:
            th = _Thread(h["id"], h["name"], 0,
                         flatten_program(h["program"]), is_handler=True)
            self.threads[h["id"]] = th
            if h["kind"] == "isr":
                self.isr_lines[h["line"]] = h["id"]
            elif h["kind"] == "cyclic":
                cyclics.append(h)
            else:
                alarms.append(h)

        idle_id = max(self.threads) + 1
        idle = _Thread(idle_id, "IDLE", IDLE_PRIO,
                       [("compute", _IDLE_LABEL), ("jump", 0)])
        self.threads[idle_id] = idle
        self.idle_id = idle_id

        self.sems = {s["id"]: _Sem(s["initial"])
                     for s in spec.get("semaphores", [])}
        self.mutexes = {m["id"]: _Mtx() for m in spec.get("mutexes", [])}

        # timer heap mirrors the kernel's (due, insertion_seq) discipline;
        # stale timeout entries are discarded at pop, never removed early
        self.heap = []
        self.heap_seq = 0
        for h in spec["handlers"]:
            if h["kind"] == "cyclic":
                phase = h["phase"] if h["phase"] >= 1 else h["period"]
                self._push(phase, "cyclic", (h["id"], h["period"]))
            elif h["kind"] == "alarm":
                self._push(h["offset"], "alarm", h["id"])

        self.stimuli = sorted(
            ((tick, line) for tick, line in spec.get("stimuli", [])),
            key=lambda p: (p[0],),
        )
        # stable sort keeps declaration order within one tick
        self.stim_i = 0

        self.ready = {tid for tid, th in self.threads.items()
                      if not th.is_handler}
        self.current = None
        self.depth = 0           # critical section depth (0 or 1 here)
        self.pending = []        # queued handler activations, FIFO
        self.stack = []          # (handler_id, interrupted_id)
        self.vector = [None] * self.T
        self.error_tick = None
        self.task_ids = sorted(t["id"] for t in spec["tasks"])
        self.priorities = []     # per tick: task priorities, in id order
        # what the mutex traffic reached, for the corpus to count
        self.coverage = {"chain3": False, "cycle": False, "withdrawn": False}

    # -- infrastructure ------------------------------------------------

    def _push(self, due, kind, data):
        heapq.heappush(self.heap, (due, self.heap_seq, kind, data))
        self.heap_seq += 1

    def _pick(self):
        best = None
        best_key = None
        for tid in self.ready:
            th = self.threads[tid]
            key = (th.prio, th.ready_stamp, tid)
            if best_key is None or key < best_key:
                best, best_key = tid, key
        return best

    def _head(self, queue):
        """The queue entry served next: best current priority, then arrival."""
        return min(queue, key=lambda e: (self.threads[e[0]].prio, e[1]))

    def _inherit(self):
        """Recompute every current priority; True if one changed."""
        prios = inherit_fixpoint(
            {tid: th.base for tid, th in self.threads.items()},
            {tid: th.prio for tid, th in self.threads.items()},
            [(m.owner, [tid for tid, _seq in m.queue])
             for m in self.mutexes.values() if m.owner is not None])
        changed = False
        for tid, prio in prios.items():
            th = self.threads[tid]
            changed |= th.prio != prio
            th.prio = prio
        return changed

    def _note_chain(self, tid):
        """Walk waiter -> owner from a newly queued thread; a chain counts
        as transitive when it links three threads, the waiters queued on
        this thread's own mutexes included."""
        upstream = any(m.owner == tid and m.queue for m in self.mutexes.values())
        seen = []
        while tid is not None and tid not in seen:
            seen.append(tid)
            mtx_id = self.threads[tid].blocked_on
            tid = None if mtx_id is None else self.mutexes[mtx_id].owner
        if tid is not None:
            self.coverage["cycle"] = True
        elif len(seen) + upstream >= 3:
            self.coverage["chain3"] = True

    def _serve_sem(self, sem, stamp):
        """Release the semaphore's waiters head first while the head's
        need fits the count."""
        while sem.queue:
            head = self._head(sem.queue)
            if head[2] > sem.count:
                break
            sem.queue.remove(head)
            sem.count -= head[2]
            self._release(self.threads[head[0]], stamp)

    def _release(self, th, stamp):
        th.state = "ready"
        th.wait_kind = None
        th.ready_stamp = stamp
        self.ready.add(th.id)

    def _activate_if_free(self, hid):
        h = self.threads[hid]
        if h.state == "parked" and not h.queued:
            h.queued = True
            self.pending.append(hid)
        # otherwise the handler is busy and the request is dropped

    # -- per-tick machinery ----------------------------------------------

    def run(self):
        for t in range(self.T):
            try:
                self._interval(t)
            except ServiceFault:
                self.error_tick = t
                break
            self._boundary(t + 1)
            self.priorities.append(
                tuple(self.threads[tid].prio for tid in self.task_ids))
        totals = {tid: (th.cet, th.cee) for tid, th in self.threads.items()}
        return self.vector, totals

    def _interval(self, t):
        while True:
            # gate: activations enter first, then dispatch, then preemption
            if self.pending and self.depth == 0:
                self._enter(self.pending.pop(0))
                continue
            if self.current is None:
                tid = self._pick()
                self.ready.discard(tid)
                self.threads[tid].state = "running"
                self.current = tid
                continue
            th = self.threads[self.current]
            if not th.is_handler and self.depth == 0:
                best = self._pick()
                if best is not None and self.threads[best].prio < th.prio:
                    th.state = "ready"       # original stamp kept
                    self.ready.add(th.id)
                    self.current = None
                    continue
            if self._advance(th, t):
                return

    def _enter(self, hid):
        cur = self.current
        if cur is not None:
            it = self.threads[cur]
            it.state = "ready"
            if not it.is_handler:
                self.ready.add(cur)
            # an interrupted handler resumes via the stack, not the ready set
        self.stack.append((hid, cur))
        h = self.threads[hid]
        h.queued = False
        h.state = "running"
        h.pc = 0
        h.seg = None
        h.effect = None
        self.current = hid

    def _advance(self, th, t):
        """One resume: consume a tick, or make one zero-time transition."""
        seg = th.seg
        if seg is not None and seg[0] > 0:
            seg[0] -= 1
            share = seg[1]
            if seg[0] == 0:
                share += seg[2]
            th.cet += 1
            th.cee += share
            self.vector[t] = th.id
            return True
        th.seg = None
        if th.effect is not None:
            op = th.effect
            th.effect = None
            blocked = self._apply_effect(th, op, t)
            self.depth = 0
            if blocked:
                th.state = "waiting"
                self.current = None
                return False
            self._fetch(th)
            return False
        self._fetch(th)
        return False

    def _fetch(self, th):
        prog = th.program
        while th.pc < len(prog) and prog[th.pc][0] == "jump":
            th.pc = prog[th.pc][1]
        if th.pc >= len(prog):
            if th.is_handler:
                self._ret_int(th)
            else:
                th.state = "done"
                self.current = None
            return
        op = prog[th.pc]
        th.pc += 1
        if op[0] == "compute":
            etm, eem = self.ann[op[1]]
            th.seg = [etm, eem // etm, eem % etm]
        else:
            self.depth = 1
            etm, eem = self.svc_etm, self.svc_eem
            th.seg = [etm, eem // etm, eem % etm]
            th.effect = op

    def _ret_int(self, th):
        th.state = "parked"
        self.current = None
        _hid, interrupted = self.stack.pop()
        if interrupted is None:
            return
        it = self.threads[interrupted]
        if it.is_handler:
            it.state = "running"
            self.current = interrupted
            return
        # delayed dispatching: only a strictly higher-priority thread
        # displaces the interrupted task
        best = self._pick()
        if best is not None and best != interrupted and (
                self.threads[best].prio < it.prio):
            return
        self.ready.discard(interrupted)
        it.state = "running"
        self.current = interrupted

    # -- service effects (run after the charge segment completes) --------

    def _apply_effect(self, th, op, t):
        kind = op[0]
        if kind == "sleep":
            timeout = op[1]
            if th.wakeup_count > 0:
                th.wakeup_count -= 1
                return False
            th.wait_kind = "sleep"
            th.wait_gen += 1
            if timeout is not None:
                self._push(t + timeout, "timeout", (th.id, th.wait_gen, None))
            return True
        if kind == "delay":
            th.wait_kind = "delay"
            th.wait_gen += 1
            self._push(t + op[1], "timeout", (th.id, th.wait_gen, None))
            return True
        if kind == "wakeup":
            target = self.threads[op[1]]
            if target.state == "waiting" and target.wait_kind == "sleep":
                self._release(target, t)
            else:
                target.wakeup_count += 1
            return False
        if kind == "sem_wait":
            _k, sem_id, need, timeout = op
            sem = self.sems[sem_id]
            if not sem.queue and sem.count >= need:
                sem.count -= need
                return False
            sem.queue.append((th.id, sem.arrivals, need))
            sem.arrivals += 1
            th.wait_kind = "sem"
            th.wait_gen += 1
            if timeout is not None:
                self._push(t + timeout, "timeout",
                           (th.id, th.wait_gen, ("sem", sem_id)))
            return True
        if kind == "sem_signal":
            _k, sem_id, n = op
            sem = self.sems[sem_id]
            sem.count += n
            self._serve_sem(sem, t)
            return False
        if kind == "mtx_lock":
            _k, mtx_id, timeout = op
            mtx = self.mutexes[mtx_id]
            if mtx.owner is None:
                mtx.owner = th.id
                return False
            if mtx.owner == th.id:
                raise ServiceFault(f"mutex {mtx_id}: already held")
            mtx.queue.append((th.id, mtx.arrivals))
            mtx.arrivals += 1
            th.blocked_on = mtx_id
            self._note_chain(th.id)
            self._inherit()
            th.wait_kind = "mutex"
            th.wait_gen += 1
            if timeout is not None:
                self._push(t + timeout, "timeout",
                           (th.id, th.wait_gen, ("mutex", mtx_id)))
            return True
        if kind == "mtx_unlock":
            mtx = self.mutexes[op[1]]
            if mtx.owner != th.id:
                raise ServiceFault(f"mutex {op[1]}: unlock by non-owner")
            mtx.owner = None
            if mtx.queue:
                head = self._head(mtx.queue)
                mtx.queue.remove(head)
                mtx.owner = head[0]
                self.threads[head[0]].blocked_on = None
                self._release(self.threads[head[0]], t)
            self._inherit()
            return False
        raise AssertionError(f"unknown op {op!r}")

    # -- boundary processing ---------------------------------------------

    def _boundary(self, b):
        heap = self.heap
        while heap and heap[0][0] <= b:
            _due, _seq, kind, data = heapq.heappop(heap)
            if kind == "cyclic":
                hid, period = data
                self._activate_if_free(hid)
                self._push(b + period, "cyclic", data)
            elif kind == "alarm":
                self._activate_if_free(data)
            else:
                tid, gen, wait_obj = data
                th = self.threads[tid]
                if th.wait_gen != gen or th.state != "waiting":
                    continue  # stale: released some other way already
                if wait_obj is not None:
                    kind, obj_id = wait_obj
                    obj = (self.sems if kind == "sem" else self.mutexes)[obj_id]
                    obj.queue = [e for e in obj.queue if e[0] != tid]
                    if kind == "mutex":
                        th.blocked_on = None
                        if self._inherit():   # the waiter's boost is withdrawn
                            self.coverage["withdrawn"] = True
                self._release(th, b)
                if wait_obj is not None and wait_obj[0] == "sem":
                    # a head that gave up may let the waiters behind it in
                    self._serve_sem(self.sems[wait_obj[1]], b)
        stimuli = self.stimuli
        while self.stim_i < len(stimuli) and stimuli[self.stim_i][0] == b:
            _tick, line = stimuli[self.stim_i]
            self.stim_i += 1
            self._activate_if_free(self.isr_lines[line])


# ----------------------------------------------------------------------
# random system generator

def generate_spec(seed):
    """One random small system: a plain dict, no package types.

    Bounds follow the equivalence suite's charter: at most 5 threads
    over at most 3 priority levels, runs of at most 200 ticks, bodies
    drawn from sleeps, wakeups, semaphore traffic, computes, and
    scripted interrupt stimuli.  Seeds from MUTEX_SEED_BASE on draw
    `generate_mutex_spec` systems instead.
    """
    if seed >= MUTEX_SEED_BASE:
        return generate_mutex_spec(seed)
    rng = random.Random(seed)
    run_ticks = rng.randint(20, 200)
    svc_etm = rng.choice((1, 1, 1, 2))
    svc_eem = rng.choice((0, 1, 2, 3, 7))

    labels = {}
    for i in range(rng.randint(2, 5)):
        labels[f"w{i}"] = (rng.randint(1, 7), rng.randint(0, 50))

    n_sems = rng.randint(0, 2)
    semaphores = [{"id": i + 1, "initial": rng.randint(0, 2)}
                  for i in range(n_sems)]

    n_tasks = rng.randint(1, 4)
    n_handlers = rng.randint(0, min(2, 5 - n_tasks))
    prio_pool = (2, 4, 6)
    task_ids = list(range(1, n_tasks + 1))

    def draw_stmt(in_handler):
        choices = ["compute", "compute", "sleep", "delay", "wakeup"]
        if n_sems:
            choices += ["sem_wait", "sem_signal", "sem_signal"]
        if in_handler:
            choices = ["compute", "wakeup"]
            if n_sems:
                choices.append("sem_signal")
        kind = rng.choice(choices)
        if kind == "compute":
            return ("compute", rng.choice(sorted(labels)))
        if kind == "sleep":
            timeout = None if rng.random() < 0.3 else rng.randint(1, 25)
            return ("sleep", timeout)
        if kind == "delay":
            return ("delay", rng.randint(1, 20))
        if kind == "wakeup":
            return ("wakeup", rng.choice(task_ids))
        if kind == "sem_wait":
            timeout = None if rng.random() < 0.4 else rng.randint(1, 20)
            need = 1 if rng.random() < 0.8 else 2
            return ("sem_wait", rng.randint(1, n_sems), need, timeout)
        return ("sem_signal", rng.randint(1, n_sems), rng.choice((1, 1, 2)))

    tasks = []
    for tid in task_ids:
        body = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.15:
                body.append(("loop", rng.randint(2, 3),
                             [draw_stmt(False)
                              for _ in range(rng.randint(1, 2))]))
            else:
                body.append(draw_stmt(False))
        tail = [draw_stmt(False) for _ in range(rng.randint(1, 3))]
        body.append(("loop", None, tail))
        tasks.append({
            "id": tid,
            "name": f"T{tid}",
            "priority": rng.choice(prio_pool),
            "program": body,
        })

    handlers = []
    isr_lines = []
    hid = n_tasks
    for _ in range(n_handlers):
        hid += 1
        kind = rng.choice(("isr", "isr", "cyclic", "alarm"))
        h = {
            "id": hid,
            "name": f"H{hid}",
            "kind": kind,
            "period": 0,
            "phase": 0,
            "offset": 0,
            "line": 0,
            "program": [draw_stmt(True) for _ in range(rng.randint(1, 3))],
        }
        if kind == "isr":
            h["line"] = len(isr_lines)
            isr_lines.append(h["line"])
        elif kind == "cyclic":
            h["period"] = rng.randint(3, 40)
            h["phase"] = rng.randint(0, h["period"])
        else:
            h["offset"] = rng.randint(1, run_ticks + 10)
        handlers.append(h)

    stimuli = []
    if isr_lines:
        for _ in range(rng.randint(0, 8)):
            stimuli.append((rng.randint(1, run_ticks),
                            rng.choice(isr_lines)))

    return {
        "seed": seed,
        "run_ticks": run_ticks,
        "svc_etm": svc_etm,
        "svc_eem": svc_eem,
        "annotations": labels,
        "tasks": tasks,
        "handlers": handlers,
        "semaphores": semaphores,
        "stimuli": stimuli,
    }


def generate_mutex_spec(seed):
    """One random system built around priority-inheritance mutexes.

    Up to 5 tasks over 6 priority levels share up to 3 mutexes.  Task
    bodies draw lock/unlock pairs around computes, sleeps, delays and
    semaphore traffic, nested up to two deep, so owner chains run
    transitively through three threads and opposite lock orders close
    deadlock cycles.  Some locks carry a timeout: a waiter that gives up
    withdraws its boost, and its later unlock of a mutex it does not own
    ends the run with a service error.  Handlers stay off the mutexes.
    """
    rng = random.Random(seed)
    run_ticks = rng.randint(30, 200)
    svc_etm = rng.choice((1, 1, 1, 2))
    svc_eem = rng.choice((0, 1, 2, 3, 7))

    labels = {}
    for i in range(rng.randint(2, 4)):
        labels[f"w{i}"] = (rng.randint(1, 6), rng.randint(0, 50))

    mutexes = [{"id": i + 1} for i in range(rng.choice((1, 2, 2, 3, 3)))]
    n_sems = rng.randint(0, 1)
    semaphores = [{"id": 1, "initial": rng.randint(0, 1)}] if n_sems else []

    n_tasks = rng.randint(3, 5)
    n_handlers = rng.randint(0, min(1, 5 - n_tasks))
    task_ids = list(range(1, n_tasks + 1))

    def draw(out, held, in_handler=False):
        choices = ["compute", "wakeup"]
        if not in_handler:
            choices += ["lock", "lock", "lock", "sleep", "delay"]
            if held:
                choices += ["lock", "lock", "delay"]  # nest, or hold long
        if n_sems:
            choices.append("sem_signal")
            if not in_handler:
                choices.append("sem_wait")
        kind = rng.choice(choices)
        free = [m["id"] for m in mutexes if m["id"] not in held]
        if kind == "lock" and len(held) < 2 and free:
            mtx_id = rng.choice(free)
            timeout = None if rng.random() < 0.7 else rng.randint(2, 40)
            out.append(("mtx_lock", mtx_id, timeout))
            for _ in range(rng.randint(1, 2)):
                draw(out, held | {mtx_id})
            out.append(("mtx_unlock", mtx_id))
        elif kind in ("compute", "lock"):
            out.append(("compute", rng.choice(sorted(labels))))
        elif kind == "sleep":
            out.append(("sleep", rng.randint(1, 25)))
        elif kind == "delay":
            out.append(("delay", rng.randint(1, 12)))
        elif kind == "wakeup":
            out.append(("wakeup", rng.choice(task_ids)))
        elif kind == "sem_wait":
            timeout = None if rng.random() < 0.5 else rng.randint(1, 20)
            out.append(("sem_wait", 1, 1, timeout))
        else:
            out.append(("sem_signal", 1, 1))

    tasks = []
    for tid in task_ids:
        body = []
        for _ in range(rng.randint(0, 2)):
            draw(body, frozenset())
        tail = []
        for _ in range(rng.randint(1, 3)):
            draw(tail, frozenset())
        body.append(("loop", None, tail))
        tasks.append({
            "id": tid,
            "name": f"T{tid}",
            "priority": rng.randint(1, 6),
            "program": body,
        })

    handlers = []
    stimuli = []
    for hid in range(n_tasks + 1, n_tasks + 1 + n_handlers):
        program = []
        for _ in range(rng.randint(1, 2)):
            draw(program, frozenset(), in_handler=True)
        h = {"id": hid, "name": f"H{hid}", "kind": rng.choice(("isr", "cyclic")),
             "period": 0, "phase": 0, "offset": 0, "line": 0,
             "program": program}
        if h["kind"] == "cyclic":
            h["period"] = rng.randint(5, 40)
            h["phase"] = rng.randint(0, h["period"])
        else:
            stimuli = [(rng.randint(1, run_ticks), 0)
                       for _ in range(rng.randint(1, 6))]
        handlers.append(h)

    return {
        "seed": seed,
        "run_ticks": run_ticks,
        "svc_etm": svc_etm,
        "svc_eem": svc_eem,
        "annotations": labels,
        "tasks": tasks,
        "handlers": handlers,
        "semaphores": semaphores,
        "mutexes": mutexes,
        "stimuli": stimuli,
    }
