"""Exhaustive small-instance checks of the synchronization cores.

Every op sequence up to length 4 (with up to 3 distinct waiters) is run
against both the real object and a deliberately naive reference written
over plain lists (a bitmap, for the byte pool).  Logs of per-op results
and the final observable state must match exactly.

The reference models restate the contract from scratch: priority first,
enqueue order second, no newcomer ever passes a waiting queue head, and a
waiter that leaves lets in the waiters it held back.  Each logs a take's
answer as (granted, value, served) and a give's or a cancel's as the
(waiter, value) pairs it served, as the cores answer.
"""

import itertools

import pytest

from rtksim.errors import ObjectStateError, ValidationError
from rtksim.objects import (
    FLAG_MODE_AND,
    FLAG_MODE_OR,
    EventFlag,
    FixedPool,
    Mailbox,
    MessageBuffer,
    Mutex,
    Semaphore,
    VariablePool,
    WaitQueue,
)

# waiter identity -> static priority; 0 and 2 tie, 1 and 3 outrank them
_PRIO = {0: 2, 1: 1, 2: 2, 3: 1}


def _lookup(w, _m=_PRIO):
    return _m[w]


def _enum(alphabet, max_len=4):
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def _service_order(entries, keyfields=(0, 1)):
    wi, si = keyfields
    return sorted(entries, key=lambda e: (_PRIO[e[wi]], e[si]))


# --------------------------------------------------------------------------
# semaphore

SEM_ALPHA = (("acq", 1), ("acq", 2), ("sig", 1), ("sig", 2), ("cancel",))
SEM_MAX = 3


def run_sem_impl(seq, initial):
    s = Semaphore(1, initial, priority_of=_lookup, max_count=SEM_MAX)
    log = []
    acq_i = 0
    for op in seq:
        if op[0] == "acq":
            w = acq_i
            acq_i += 1
            log.append(("acq", w, s.acquire(w, op[1])))
        elif op[0] == "sig":
            try:
                log.append(("sig", tuple(s.signal(op[1]))))
            except ObjectStateError:
                log.append(("err", "overflow"))
        else:
            ws = s.queue.waiters()
            if ws:
                log.append(("cancel", ws[0], tuple(s.cancel_wait(ws[0]))))
            else:
                log.append(("cancel", None, False))
    log.append(("final", s.count, tuple(s.queue.ordered())))
    return log


def run_sem_oracle(seq, initial):
    count = initial
    q = []  # (waiter, seqno, need)
    seqno = 0
    acq_i = 0
    log = []

    def serve():
        nonlocal count
        out = []
        while q:
            head = _service_order(q)[0]
            if head[2] > count:
                break
            q.remove(head)
            count -= head[2]
            out.append((head[0], None))
        return tuple(out)

    for op in seq:
        if op[0] == "acq":
            w = acq_i
            acq_i += 1
            if not q and count >= op[1]:
                count -= op[1]
                log.append(("acq", w, (True, None, ())))
            else:
                q.append((w, seqno, op[1]))
                seqno += 1
                log.append(("acq", w, (False, None, ())))
        elif op[0] == "sig":
            if count + op[1] > SEM_MAX:
                log.append(("err", "overflow"))
                continue
            count += op[1]
            log.append(("sig", serve()))
        else:
            if q:
                first = min(q, key=lambda e: e[1])
                q.remove(first)
                log.append(("cancel", first[0], serve()))
            else:
                log.append(("cancel", None, False))
    log.append(("final", count,
                tuple((e[0], e[2]) for e in _service_order(q))))
    return log


def test_semaphore_exhaustive():
    checked = 0
    for initial in (0, 1, 2):
        for seq in _enum(SEM_ALPHA):
            if sum(1 for op in seq if op[0] == "acq") > 3:
                continue
            got = run_sem_impl(seq, initial)
            want = run_sem_oracle(seq, initial)
            assert got == want, (initial, seq)
            checked += 1
    assert checked > 1500


# --------------------------------------------------------------------------
# event flag

FLAG_ALPHA = (
    ("wait", 0b01, FLAG_MODE_OR, False),
    ("wait", 0b11, FLAG_MODE_AND, True),
    ("wait", 0b10, FLAG_MODE_OR, True),
    ("set", 0b01),
    ("set", 0b10),
    ("clearmask", 0b10),
)


def _flag_sat(pattern, wanted, mode):
    if mode == FLAG_MODE_AND:
        return pattern & wanted == wanted
    return pattern & wanted != 0


def run_flag_impl(seq, initial):
    f = EventFlag(1, initial, priority_of=_lookup)
    log = []
    wait_i = 0
    for op in seq:
        if op[0] == "wait":
            w = wait_i
            wait_i += 1
            log.append(("wait", w, f.wait(w, op[1], op[2], op[3])))
        elif op[0] == "set":
            log.append(("set", tuple(f.set_bits(op[1]))))
        else:
            log.append(("clear", tuple(f.clear_bits(op[1]))))
    log.append(("final", f.pattern, tuple(f.queue.ordered())))
    return log


def run_flag_oracle(seq, initial):
    pattern = initial
    q = []  # (waiter, seqno, wanted, mode, clear)
    seqno = 0
    wait_i = 0
    log = []
    for op in seq:
        if op[0] == "wait":
            w = wait_i
            wait_i += 1
            if _flag_sat(pattern, op[1], op[2]):
                snap = pattern
                if op[3]:
                    pattern = 0
                log.append(("wait", w, (True, snap, ())))
            else:
                q.append((w, seqno, op[1], op[2], op[3]))
                seqno += 1
                log.append(("wait", w, (False, None, ())))
        elif op[0] == "set":
            pattern |= op[1]
            out = []
            # membership snapshot first; pattern evolves inside the pass
            for entry in _service_order(list(q)):
                _w, _s, wanted, mode, clear = entry
                if _flag_sat(pattern, wanted, mode):
                    out.append((entry[0], pattern))
                    q.remove(entry)
                    if clear:
                        pattern = 0
            log.append(("set", tuple(out)))
        else:
            pattern &= op[1]
            log.append(("clear", ()))
    log.append(("final", pattern,
                tuple((e[0], (e[2], e[3], e[4])) for e in _service_order(q))))
    return log


def test_event_flag_exhaustive():
    checked = 0
    for initial in (0, 0b01):
        for seq in _enum(FLAG_ALPHA):
            if sum(1 for op in seq if op[0] == "wait") > 3:
                continue
            got = run_flag_impl(seq, initial)
            want = run_flag_oracle(seq, initial)
            assert got == want, (initial, seq)
            checked += 1
    assert checked > 2000


# --------------------------------------------------------------------------
# mailbox

MBX_ALPHA = (("send", 0), ("send", 5), ("recv",), ("cancel",))


def run_mbx_impl(seq):
    m = Mailbox(1, priority_of=_lookup)
    log = []
    recv_i = 0
    for i, op in enumerate(seq):
        if op[0] == "send":
            log.append(("send", tuple(m.send(op[1], f"m{i}"))))
        elif op[0] == "recv":
            w = recv_i
            recv_i += 1
            log.append(("recv", w, m.recv(w)))
        else:
            ws = m.queue.waiters()
            if ws:
                log.append(("cancel", ws[0], tuple(m.cancel_wait(ws[0]))))
            else:
                log.append(("cancel", None, False))
    drained = []
    while m.message_count:
        drained.append(m.recv(900)[1])
    log.append(("final", tuple(drained),
                tuple(w for (w, _aux) in m.queue.ordered())))
    return log


def run_mbx_oracle(seq):
    msgs = []  # (priority, seqno, payload)
    q = []     # (waiter, seqno)
    mseq = wseq = 0
    recv_i = 0
    log = []

    def pop_msg():
        best = min(msgs, key=lambda e: (e[0], e[1]))
        msgs.remove(best)
        return best[2]

    for i, op in enumerate(seq):
        if op[0] == "send":
            msgs.append((op[1], mseq, f"m{i}"))
            mseq += 1
            if q:
                head = _service_order(q)[0]
                q.remove(head)
                log.append(("send", ((head[0], pop_msg()),)))
            else:
                log.append(("send", ()))
        elif op[0] == "recv":
            w = recv_i
            recv_i += 1
            if msgs:
                log.append(("recv", w, (True, pop_msg(), ())))
            else:
                q.append((w, wseq))
                wseq += 1
                log.append(("recv", w, (False, None, ())))
        else:
            if q:
                first = min(q, key=lambda e: e[1])
                q.remove(first)
                log.append(("cancel", first[0], ()))
            else:
                log.append(("cancel", None, False))
    drained = []
    while msgs:
        drained.append(pop_msg())
    log.append(("final", tuple(drained),
                tuple(e[0] for e in _service_order(q))))
    return log


def test_mailbox_exhaustive():
    checked = 0
    for seq in _enum(MBX_ALPHA):
        if sum(1 for op in seq if op[0] == "recv") > 3:
            continue
        assert run_mbx_impl(seq) == run_mbx_oracle(seq), seq
        checked += 1
    assert checked > 300


# --------------------------------------------------------------------------
# message buffer

MBF_ALPHA = (("send", 2), ("send", 3), ("recv",), ("cancel",))
MBF_CAP = 4


def run_mbf_impl(seq):
    b = MessageBuffer(1, MBF_CAP, priority_of=_lookup)
    log = []
    for i, op in enumerate(seq):
        w = i % 3
        if op[0] == "send":
            granted, value, released = b.send(w, bytes([i]) * op[1])
            log.append(("send", w, granted, value, tuple(released)))
        elif op[0] == "recv":
            granted, msg, released = b.recv(w)
            log.append(("recv", w, granted, msg, tuple(released)))
        else:
            sq, rq = b.send_queue.waiters(), b.recv_queue.waiters()
            target = sq[0] if sq else (rq[0] if rq else None)
            if target is None:
                log.append(("cancel", None, False))
            else:
                log.append(("cancel", target, tuple(b.cancel_wait(target))))
    drained = []
    di = 0
    while b.message_count:
        granted, msg, released = b.recv(800 + di)
        di += 1
        drained.append((msg, tuple(released)))
    log.append(("final", tuple(drained), b.free_bytes,
                tuple(b.send_queue.ordered()),
                tuple(w for (w, _a) in b.recv_queue.ordered())))
    return log


def run_mbf_oracle(seq):
    msgs = []            # bytes, FIFO
    sendq = []           # (waiter, seqno, data)
    recvq = []           # (waiter, seqno)
    sseq = rseq = 0
    log = []

    def free():
        return MBF_CAP - sum(len(m) for m in msgs)

    def drain_receivers():
        out = []
        while msgs and recvq:
            head = _service_order(recvq)[0]
            recvq.remove(head)
            out.append((head[0], msgs.pop(0)))
        return out

    def drain_senders():
        out = []
        while sendq:
            head = _service_order(sendq)[0]
            if len(head[2]) > free():
                break
            sendq.remove(head)
            msgs.append(head[2])
            out.append((head[0], None))
        return out

    for i, op in enumerate(seq):
        w = i % 3
        if op[0] == "send":
            data = bytes([i]) * op[1]
            if not sendq and len(data) <= free():
                msgs.append(data)
                log.append(("send", w, True, None, tuple(drain_receivers())))
            else:
                sendq.append((w, sseq, data))
                sseq += 1
                log.append(("send", w, False, None, ()))
        elif op[0] == "recv":
            if msgs:
                msg = msgs.pop(0)
                log.append(("recv", w, True, msg, tuple(drain_senders())))
            else:
                recvq.append((w, rseq))
                rseq += 1
                log.append(("recv", w, False, None, ()))
        else:
            if sendq:
                first = min(sendq, key=lambda e: e[1])
                sendq.remove(first)
                log.append(("cancel", first[0], tuple(drain_senders())))
            elif recvq:
                first = min(recvq, key=lambda e: e[1])
                recvq.remove(first)
                log.append(("cancel", first[0], tuple(drain_senders())))
            else:
                log.append(("cancel", None, False))
    drained = []
    while msgs:
        drained.append((msgs.pop(0), tuple(drain_senders())))
    log.append(("final", tuple(drained), free(),
                tuple((e[0], e[2]) for e in _service_order(sendq)),
                tuple(e[0] for e in _service_order(recvq))))
    return log


def test_message_buffer_exhaustive():
    checked = 0
    for seq in _enum(MBF_ALPHA):
        assert run_mbf_impl(seq) == run_mbf_oracle(seq), seq
        checked += 1
    assert checked > 300


# --------------------------------------------------------------------------
# mutex

MTX_ALPHA = tuple(("lock", w) for w in (0, 1, 2)) + \
    tuple(("unlock", w) for w in (0, 1, 2))


def run_mtx_impl(seq):
    m = Mutex(1, priority_of=_lookup)
    log = []
    for op in seq:
        try:
            if op[0] == "lock":
                log.append(("lock", op[1], m.lock(op[1])))
            else:
                log.append(("unlock", op[1], tuple(m.unlock(op[1]))))
        except ObjectStateError:
            log.append(("err", op[0], op[1]))
    log.append(("final", m.owner,
                tuple(w for (w, _a) in m.queue.ordered())))
    return log


def run_mtx_oracle(seq):
    owner = None
    q = []  # (waiter, seqno)
    seqno = 0
    log = []
    for op in seq:
        w = op[1]
        if op[0] == "lock":
            if owner is None:
                owner = w
                log.append(("lock", w, (True, None, ())))
            elif owner == w:
                log.append(("err", "lock", w))
            else:
                q.append((w, seqno))
                seqno += 1
                log.append(("lock", w, (False, None, ())))
        else:
            if owner != w:
                log.append(("err", "unlock", w))
            elif q:
                head = _service_order(q)[0]
                q.remove(head)
                owner = head[0]
                log.append(("unlock", w, ((head[0], None),)))
            else:
                owner = None
                log.append(("unlock", w, ()))
    log.append(("final", owner, tuple(e[0] for e in _service_order(q))))
    return log


def test_mutex_exhaustive():
    checked = 0
    for seq in _enum(MTX_ALPHA):
        assert run_mtx_impl(seq) == run_mtx_oracle(seq), seq
        checked += 1
    assert checked > 1500


# --------------------------------------------------------------------------
# fixed-size pool

FPL_ALPHA = (("get",), ("rel", 0), ("rel", 1), ("cancel",))


def run_fpl_impl(seq):
    p = FixedPool(1, block_count=2, block_size=4, priority_of=_lookup)
    log = []
    get_i = 0
    for op in seq:
        if op[0] == "get":
            w = get_i % 3
            get_i += 1
            log.append(("get", w, p.get(w)))
        elif op[0] == "rel":
            try:
                log.append(("rel", op[1], tuple(p.release(op[1]))))
            except ObjectStateError:
                log.append(("err", "rel", op[1]))
        else:
            ws = p.queue.waiters()
            if ws:
                log.append(("cancel", ws[0], tuple(p.cancel_wait(ws[0]))))
            else:
                log.append(("cancel", None, False))
    log.append(("final", p.free_count, p.max_used,
                tuple(w for (w, _a) in p.queue.ordered())))
    return log


def run_fpl_oracle(seq):
    free = {0, 1}
    held = set()
    q = []  # (waiter, seqno)
    seqno = 0
    max_used = 0
    get_i = 0
    log = []

    def grant():
        nonlocal max_used
        idx = min(free)
        free.discard(idx)
        held.add(idx)
        max_used = max(max_used, len(held))
        return idx

    for op in seq:
        if op[0] == "get":
            w = get_i % 3
            get_i += 1
            if not q and free:
                log.append(("get", w, (True, grant(), ())))
            else:
                q.append((w, seqno))
                seqno += 1
                log.append(("get", w, (False, None, ())))
        elif op[0] == "rel":
            if op[1] not in held:
                log.append(("err", "rel", op[1]))
                continue
            held.discard(op[1])
            free.add(op[1])
            if q:
                head = _service_order(q)[0]
                q.remove(head)
                log.append(("rel", op[1], ((head[0], grant()),)))
            else:
                log.append(("rel", op[1], ()))
        else:
            if q:
                first = min(q, key=lambda e: e[1])
                q.remove(first)
                log.append(("cancel", first[0], ()))
            else:
                log.append(("cancel", None, False))
    log.append(("final", len(free), max_used,
                tuple(e[0] for e in _service_order(q))))
    return log


def test_fixed_pool_exhaustive():
    checked = 0
    for seq in _enum(FPL_ALPHA):
        assert run_fpl_impl(seq) == run_fpl_oracle(seq), seq
        checked += 1
    assert checked > 300


# --------------------------------------------------------------------------
# variable-size pool (reference keeps a plain byte bitmap)

VPL_ALPHA = (("get", 3), ("get", 5), ("rel", "old"), ("rel", "new"),
             ("cancel",))
VPL_SIZE = 8


def run_vpl_impl(seq):
    p = VariablePool(1, VPL_SIZE, priority_of=_lookup)
    held = []  # offsets in grant order
    log = []
    for i, op in enumerate(seq):
        if op[0] == "get":
            granted, off, served = p.get(i % 3, op[1])
            if granted:
                held.append(off)
            log.append(("get", i % 3, granted, off, served))
        elif op[0] == "rel":
            if not held:
                log.append(("rel", None))
                continue
            handed = p.release(held.pop(0 if op[1] == "old" else -1))
            held.extend(o for (_w, o) in handed)
            log.append(("rel", tuple(handed)))
        else:
            ws = p.queue.waiters()
            if not ws:
                log.append(("cancel", None, False))
                continue
            handed = p.cancel_wait(ws[0])
            held.extend(o for (_w, o) in handed)
            log.append(("cancel", ws[0], tuple(handed)))
    log.append(("final", p.used_bytes, p.max_used,
                tuple(p.queue.ordered())))
    return log


def run_vpl_oracle(seq):
    used = bytearray(VPL_SIZE)  # 1 = allocated
    q = []                      # (waiter, seqno, need)
    seqno = 0
    max_used = 0
    held = []
    log = []

    def try_alloc(n):
        nonlocal max_used
        for off in range(VPL_SIZE - n + 1):
            if not any(used[off:off + n]):
                used[off:off + n] = b"\x01" * n
                max_used = max(max_used, sum(used))
                return off
        return None

    def serve_queue():
        out = []
        while q:
            head = _service_order(q)[0]
            off = try_alloc(head[2])
            if off is None:
                break
            q.remove(head)
            out.append((head[0], off))
            held.append((off, head[2]))
        return out

    for i, op in enumerate(seq):
        if op[0] == "get":
            w = i % 3
            off = None if q else try_alloc(op[1])
            if off is None:
                q.append((w, seqno, op[1]))
                seqno += 1
                log.append(("get", w, False, None, ()))
            else:
                held.append((off, op[1]))
                log.append(("get", w, True, off, ()))
        elif op[0] == "rel":
            if not held:
                log.append(("rel", None))
                continue
            off, n = held.pop(0 if op[1] == "old" else -1)
            used[off:off + n] = b"\x00" * n
            log.append(("rel", tuple(serve_queue())))
        else:
            if not q:
                log.append(("cancel", None, False))
                continue
            first = min(q, key=lambda e: e[1])
            q.remove(first)
            log.append(("cancel", first[0], tuple(serve_queue())))
    log.append(("final", sum(used), max_used,
                tuple((e[0], e[2]) for e in _service_order(q))))
    return log


def test_variable_pool_exhaustive():
    checked = 0
    for seq in _enum(VPL_ALPHA):
        assert run_vpl_impl(seq) == run_vpl_oracle(seq), seq
        checked += 1
    assert checked > 300


# --------------------------------------------------------------------------
# directed cases the enumeration cannot reach

def test_wait_queue_reads_priority_live():
    prio = {1: 5, 2: 3}
    q = WaitQueue(lambda w: prio[w])
    q.add(1)
    q.add(2)
    prio[1] = 1   # boosted after enqueue, e.g. by inheritance
    assert q.pop() == (1, None)
    assert q.pop() == (2, None)
    assert q.pop() is None
    assert q.peek() is None


def test_wait_queue_fifo_within_priority():
    q = WaitQueue(lambda w: 7)
    for w in (3, 1, 2):
        q.add(w)
    assert [q.pop()[0] for _ in range(3)] == [3, 1, 2]


def test_semaphore_validation():
    s = Semaphore(9, 1, priority_of=_lookup, max_count=2)
    with pytest.raises(ValidationError):
        s.acquire(1, 0)
    with pytest.raises(ValidationError):
        s.acquire(1, 3)       # beyond the maximum can never be granted
    with pytest.raises(ValidationError):
        s.signal(0)
    with pytest.raises(ValidationError):
        Semaphore(9, -1, priority_of=_lookup)
    with pytest.raises(ValidationError):
        Semaphore(9, 5, priority_of=_lookup, max_count=4)


# `True` is an `int` to Python; no count, size, pattern, priority or
# block takes it for 1, at construction or per call
@pytest.mark.parametrize("call", [
    lambda: Semaphore(9, True, priority_of=_lookup),
    lambda: Semaphore(9, 0, priority_of=_lookup, max_count=True),
    lambda: Semaphore(9, 1, priority_of=_lookup).acquire(1, True),
    lambda: Semaphore(9, 0, priority_of=_lookup).signal(True),
    lambda: EventFlag(9, True, priority_of=_lookup),
    lambda: EventFlag(9, 1, priority_of=_lookup).wait(1, True, FLAG_MODE_OR, False),
    lambda: EventFlag(9, 0, priority_of=_lookup).set_bits(True),
    lambda: EventFlag(9, 1, priority_of=_lookup).clear_bits(False),
    lambda: Mailbox(9, priority_of=_lookup).send(True, "m"),
    lambda: MessageBuffer(9, True, priority_of=_lookup),
    lambda: FixedPool(9, True, 4, priority_of=_lookup),
    lambda: FixedPool(9, 2, True, priority_of=_lookup),
    lambda: VariablePool(9, True, priority_of=_lookup),
    lambda: VariablePool(9, 4, priority_of=_lookup).get(1, True),
], ids=["sem-initial", "sem-max", "acquire", "signal", "flag-initial",
        "flag-wait", "set-bits", "clear-bits", "mbx-priority",
        "mbf-capacity", "fpl-count", "fpl-size", "vpl-size", "vpl-get"])
def test_a_bool_is_no_integer(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("block", [True, 1.0])
def test_a_block_is_named_by_an_int(block):
    # True == 1.0 == 1, and each hashes as 1
    fpl = FixedPool(9, 2, 4, priority_of=_lookup)
    assert [fpl.get(w) for w in (1, 2)] == [(True, 0, ()), (True, 1, ())]
    with pytest.raises(ObjectStateError):
        fpl.release(block)
    vpl = VariablePool(9, 4, priority_of=_lookup)
    assert [vpl.get(w, 1) for w in (1, 2)] == [(True, 0, ()), (True, 1, ())]
    with pytest.raises(ObjectStateError):
        vpl.release(block)
    assert (fpl.free_count, vpl.used_bytes) == (0, 2)


def test_semaphore_overflow_leaves_state_intact():
    s = Semaphore(9, 2, priority_of=_lookup, max_count=2)
    with pytest.raises(ObjectStateError):
        s.signal(1)
    assert s.count == 2


def test_event_flag_validation():
    f = EventFlag(9, 0, priority_of=_lookup)
    with pytest.raises(ValidationError):
        f.wait(1, 0, FLAG_MODE_OR, False)          # empty pattern
    with pytest.raises(ValidationError):
        f.wait(1, 1 << 32, FLAG_MODE_OR, False)    # past 32 bits
    with pytest.raises(ValidationError):
        f.wait(1, 1, "XOR", False)
    with pytest.raises(ValidationError):
        f.set_bits(-1)
    with pytest.raises(ValidationError):
        EventFlag(9, 1 << 32, priority_of=_lookup)


@pytest.mark.parametrize("clear", ["no", 1, 0, None])
def test_event_flag_clear_is_true_or_false(clear):
    # a truthy non-bool used to be granted and zero the pattern
    f = EventFlag(9, 0b11, priority_of=_lookup)
    with pytest.raises(ValidationError):
        f.wait(1, 0b01, FLAG_MODE_OR, clear)
    assert f.pattern == 0b11 and not f.queue


def test_event_flag_clear_on_grant_zeroes_whole_pattern():
    f = EventFlag(9, 0b1110, priority_of=_lookup)
    assert f.wait(1, 0b0010, FLAG_MODE_OR, True) == (True, 0b1110, ())
    assert f.pattern == 0      # not merely the waited bits


def test_mutex_misuse():
    m = Mutex(9, priority_of=_lookup)
    with pytest.raises(ObjectStateError):
        m.unlock(1)            # never locked
    assert m.lock(1) == (True, None, ())
    with pytest.raises(ObjectStateError):
        m.lock(1)              # recursion not supported
    with pytest.raises(ObjectStateError):
        m.unlock(2)            # non-owner


def test_message_buffer_validation():
    b = MessageBuffer(9, 4, priority_of=_lookup)
    with pytest.raises(ValidationError):
        b.send(1, b"")
    with pytest.raises(ValidationError):
        b.send(1, b"12345")    # longer than the whole buffer
    with pytest.raises(ValidationError):
        b.send(1, "text")
    with pytest.raises(ValidationError):
        MessageBuffer(9, 0, priority_of=_lookup)


def test_message_buffer_accepts_bytearray():
    b = MessageBuffer(9, 4, priority_of=_lookup)
    assert b.send(1, bytearray(b"ab")) == (True, None, ())
    _granted, msg, _served = b.recv(2)
    assert msg == b"ab" and isinstance(msg, bytes)


def test_fixed_pool_misuse():
    p = FixedPool(9, block_count=2, block_size=8, priority_of=_lookup)
    with pytest.raises(ObjectStateError):
        p.release(0)           # block 0 is free
    with pytest.raises(ObjectStateError):
        p.release(5)           # no such block
    with pytest.raises(ValidationError):
        FixedPool(9, block_count=0, block_size=8, priority_of=_lookup)


def test_fixed_pool_grants_lowest_index():
    p = FixedPool(9, block_count=3, block_size=8, priority_of=_lookup)
    assert p.get(1) == (True, 0, ())
    assert p.get(1) == (True, 1, ())
    p.release(0)
    assert p.get(1) == (True, 0, ())


def test_variable_pool_first_fit_and_coalescing():
    p = VariablePool(9, 10, priority_of=_lookup)
    a = p.get(1, 4)[1]
    b = p.get(1, 4)[1]
    assert (a, b) == (0, 4)
    p.release(a)
    # hole of 4 at offset 0; request of 2 goes there, not to the tail
    assert p.get(1, 2) == (True, 0, ())
    p.release(b)
    p.release(0)
    # 0..2 free, 2..4 free from the first release, 4..8 from the second:
    # all coalesced, so a full-size request fits again
    assert p.get(1, 10) == (True, 0, ())


def test_variable_pool_misuse():
    p = VariablePool(9, 8, priority_of=_lookup)
    with pytest.raises(ValidationError):
        p.get(1, 0)
    with pytest.raises(ValidationError):
        p.get(1, 9)
    with pytest.raises(ObjectStateError):
        p.release(3)
