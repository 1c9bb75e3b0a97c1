"""Synchronization and resource objects, engine-agnostic.

Each core holds pure bookkeeping, never blocks a caller and answers in
the kernel's terms.  A take (``acquire``, ``EventFlag.wait``, the
``recv``s, ``MessageBuffer.send``, ``lock``, the ``get``s) returns
``(granted, value, served)``; a give (``signal``, ``set_bits``,
``clear_bits``, ``Mailbox.send``, ``unlock``, the ``release``s) and
``cancel_wait`` return the ``(waiter, value)`` pairs they served.  Tests
can drive the cores directly with plain ints as waiters.

Waiters are ordered by priority (smaller wins, read live at serve time
through the priority_of callable), then enqueue order.  Every kind but
the event flag keeps one rule: a newcomer is granted at once only when
nobody waits (``_take``), and a change serves the queue head first or
nobody (``WaitQueue.serve``), a head that leaves by timeout included.
Such a kind supplies only ``_grant(waiter, request)``: what it can hand
out now, or ``_WAIT``.  The flag grants, in queue order, every waiter
its pattern satisfies.

No integer argument takes a bool.  A constructor tests with
``trace.is_int``; a per-call method tests ``type(n) is bool`` inline, so
a service call makes no extra Python call.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import ObjectStateError, ValidationError
from .trace import is_int

FLAG_MODE_AND = "AND"
FLAG_MODE_OR = "OR"

_PATTERN_MASK = 0xFFFFFFFF
DEFAULT_SEMAPHORE_MAX = 65535

# what a kind's _grant returns when it cannot serve the request now
_WAIT = object()


class WaitQueue:
    """Priority/FIFO wait queue with live priority resolution."""

    def __init__(self, priority_of):
        self._priority_of = priority_of
        self._entries = []  # (waiter, seq, request)
        self._seq = 0

    def add(self, waiter, request=None):
        self._entries.append((waiter, self._seq, request))
        self._seq += 1

    def _best_index(self):
        best = None
        best_key = None
        for i, (waiter, seq, _request) in enumerate(self._entries):
            key = (self._priority_of(waiter), seq)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def serve(self, grant):
        """The (waiter, value) pairs served, head first, while
        ``grant(waiter, request)`` returns a value, not _WAIT: one scan
        per waiter served."""
        entries = self._entries
        served = []
        while entries:
            i = self._best_index()
            waiter, _seq, request = entries[i]
            value = grant(waiter, request)
            if value is _WAIT:
                break
            del entries[i]
            served.append((waiter, value))
        return served

    # peek and pop serve nothing in the package; the benchmark's tracer
    # (perfbench/tracer.py) wraps every name in its WAITQUEUE_METHODS
    def peek(self):
        i = self._best_index()
        if i is None:
            return None
        waiter, _seq, request = self._entries[i]
        return waiter, request

    def pop(self):
        i = self._best_index()
        if i is None:
            return None
        waiter, _seq, request = self._entries.pop(i)
        return waiter, request

    def remove(self, waiter) -> bool:
        for i, (w, _seq, _request) in enumerate(self._entries):
            if w == waiter:
                del self._entries[i]
                return True
        return False

    def waiters(self):
        return [w for (w, _s, _r) in self._entries]

    def ordered(self):
        """Entries as (waiter, request) in service order (priority, then seq)."""
        return [
            (w, request)
            for (w, seq, request) in sorted(
                self._entries, key=lambda e: (self._priority_of(e[0]), e[1])
            )
        ]

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)


def _take(queue, grant, waiter, request, other=None):
    """Grant ``request`` now if nobody waits and ``grant`` can, then
    serve the ``other`` queue; or else queue the waiter."""
    if not queue:
        value = grant(waiter, request)
        if value is not _WAIT:
            return True, value, other.serve(grant) if other else ()
    queue.add(waiter, request)
    return False, None, ()


class WaitObject:
    """An object with one wait queue: its id, extended information and
    queue, and the queue's cancel and count.  Every kind but the message
    buffer, which has a queue each for senders and receivers."""

    def __init__(self, obj_id: int, priority_of, extended_info: int):
        self.id = obj_id
        self.extended_info = extended_info
        self.queue = WaitQueue(priority_of)

    def cancel_wait(self, waiter):
        """Take ``waiter`` off the queue; serve the waiters it held back."""
        self.queue.remove(waiter)
        return self.queue.serve(self._grant)

    @property
    def waiting_count(self) -> int:
        return len(self.queue)


class Semaphore(WaitObject):
    """Counting semaphore with multi-unit acquire; a grant's value is None."""

    def __init__(self, obj_id: int, initial: int, *, priority_of,
                 max_count: int = DEFAULT_SEMAPHORE_MAX, extended_info: int = 0):
        if not is_int(initial) or initial < 0:
            raise ValidationError(f"semaphore {obj_id}: initial count must be >= 0")
        if not is_int(max_count) or max_count < 1 or initial > max_count:
            raise ValidationError(f"semaphore {obj_id}: bad maximum count")
        super().__init__(obj_id, priority_of, extended_info)
        self.count = initial
        self.max_count = max_count

    def _grant(self, _waiter, n):
        if n > self.count:
            return _WAIT
        self.count -= n
        return None

    def acquire(self, waiter, n: int = 1):
        if not isinstance(n, int) or type(n) is bool or n < 1:
            raise ValidationError(f"semaphore {self.id}: acquire count must be >= 1")
        if n > self.max_count:
            raise ValidationError(f"semaphore {self.id}: request exceeds maximum")
        return _take(self.queue, self._grant, waiter, n)

    def signal(self, n: int = 1):
        if not isinstance(n, int) or type(n) is bool or n < 1:
            raise ValidationError(f"semaphore {self.id}: signal count must be >= 1")
        if self.count + n > self.max_count:
            raise ObjectStateError(
                f"semaphore {self.id}: count would exceed {self.max_count}"
            )
        self.count += n
        return self.queue.serve(self._grant)


class EventFlag(WaitObject):
    """32-bit event flag; a request is (pattern, mode, clear), a grant's
    value the pattern that satisfied it.  Every waiter left after a pass
    is one the pattern does not satisfy, so a leaving waiter lets none
    in."""

    def __init__(self, obj_id: int, initial: int = 0, *, priority_of,
                 extended_info: int = 0):
        if not is_int(initial) or not (0 <= initial <= _PATTERN_MASK):
            raise ValidationError(f"event flag {obj_id}: pattern must fit 32 bits")
        super().__init__(obj_id, priority_of, extended_info)
        self.pattern = initial

    def _grant(self, _waiter, request):
        wanted, mode, clear = request
        pattern = self.pattern
        if (pattern & wanted == wanted if mode == FLAG_MODE_AND
                else pattern & wanted):
            if clear:
                self.pattern = 0  # whole pattern, not just the wanted bits
            return pattern
        return _WAIT

    def wait(self, waiter, wanted: int, mode: str, clear: bool):
        """Granted whenever the pattern satisfies it, waiters or not."""
        if (not isinstance(wanted, int) or type(wanted) is bool
                or not (1 <= wanted <= _PATTERN_MASK)):
            raise ValidationError("event flag: wait pattern must be a nonzero 32-bit mask")
        if mode not in (FLAG_MODE_AND, FLAG_MODE_OR):
            raise ValidationError(f"event flag: unknown mode {mode!r}")
        if clear is not True and clear is not False:
            raise ValidationError(f"event flag: clear must be a bool, not {clear!r}")
        request = (wanted, mode, clear)
        value = self._grant(waiter, request)
        if value is _WAIT:
            self.queue.add(waiter, request)
            return False, None, ()
        return True, value, ()

    def set_bits(self, bits: int):
        """OR the bits in, then grant each waiter in queue order that the
        pattern satisfies: a clear-on-release waiter zeroes the pattern
        for everyone behind it in the same pass."""
        if (not isinstance(bits, int) or type(bits) is bool
                or not (0 <= bits <= _PATTERN_MASK)):
            raise ValidationError(f"event flag {self.id}: pattern must fit 32 bits")
        self.pattern |= bits
        served = []
        for waiter, request in self.queue.ordered():
            value = self._grant(waiter, request)
            if value is not _WAIT:
                self.queue.remove(waiter)
                served.append((waiter, value))
        return served

    def clear_bits(self, mask: int):
        """AND the mask in; fewer bits serve nobody."""
        if (not isinstance(mask, int) or type(mask) is bool
                or not (0 <= mask <= _PATTERN_MASK)):
            raise ValidationError(f"event flag {self.id}: pattern must fit 32 bits")
        self.pattern &= mask
        return ()


class Mailbox(WaitObject):
    """Unbounded message queue; delivery by message priority then FIFO."""

    def __init__(self, obj_id: int, *, priority_of, extended_info: int = 0):
        super().__init__(obj_id, priority_of, extended_info)
        self._messages = []  # heap of (priority, seq, payload)
        self._seq = 0

    def _grant(self, _waiter, _request):
        if not self._messages:
            return _WAIT
        return heapq.heappop(self._messages)[2]

    def send(self, priority: int, payload):
        if not isinstance(priority, int) or type(priority) is bool or priority < 0:
            raise ValidationError(f"mailbox {self.id}: message priority must be >= 0")
        heapq.heappush(self._messages, (priority, self._seq, payload))
        self._seq += 1
        return self.queue.serve(self._grant)

    def recv(self, waiter):
        return _take(self.queue, self._grant, waiter, None)

    @property
    def message_count(self) -> int:
        return len(self._messages)


class MessageBuffer:
    """Bounded byte FIFO preserving message boundaries.  A sender's
    request is its message, a receiver's None: a send serves waiting
    receivers, a receive the senders the freed space admits."""

    def __init__(self, obj_id: int, capacity: int, *, priority_of,
                 extended_info: int = 0):
        if not is_int(capacity) or capacity < 1:
            raise ValidationError(f"message buffer {obj_id}: capacity must be >= 1")
        self.id = obj_id
        self.capacity = capacity
        self.extended_info = extended_info
        self.send_queue = WaitQueue(priority_of)
        self.recv_queue = WaitQueue(priority_of)
        self._messages = deque()
        self._used = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def message_count(self) -> int:
        return len(self._messages)

    def _grant(self, _waiter, data):
        if data is None:  # a receiver takes the oldest message
            if not self._messages:
                return _WAIT
            msg = self._messages.popleft()
            self._used -= len(msg)
            return msg
        if len(data) > self.capacity - self._used:
            return _WAIT
        self._messages.append(data)
        self._used += len(data)
        return None

    def send(self, waiter, data: bytes):
        if not isinstance(data, (bytes, bytearray)):
            raise ValidationError(f"message buffer {self.id}: data must be bytes")
        data = bytes(data)
        if not (1 <= len(data) <= self.capacity):
            raise ValidationError(
                f"message buffer {self.id}: message length {len(data)} "
                f"outside 1..{self.capacity}"
            )
        return _take(self.send_queue, self._grant, waiter, data, self.recv_queue)

    def recv(self, waiter):
        return _take(self.recv_queue, self._grant, waiter, None, self.send_queue)

    def cancel_wait(self, waiter):
        """Take ``waiter`` off its queue; serve the senders it held back.
        A receiver waits only while the buffer is empty, so its leaving
        lets nobody in."""
        self.send_queue.remove(waiter) or self.recv_queue.remove(waiter)
        return self.send_queue.serve(self._grant)

    @property
    def waiting_count(self) -> int:
        return len(self.send_queue) + len(self.recv_queue)


class Mutex(WaitObject):
    """Non-recursive mutex; a grant's value is None.  Priority inheritance
    is computed by the kernel from owner/waiter visibility; the core only
    tracks them."""

    def __init__(self, obj_id: int, *, priority_of, extended_info: int = 0):
        super().__init__(obj_id, priority_of, extended_info)
        self.owner = None

    def _grant(self, waiter, _request):
        if self.owner is not None:
            return _WAIT
        self.owner = waiter
        return None

    def lock(self, waiter):
        if self.owner == waiter:
            raise ObjectStateError(f"mutex {self.id}: already held by the caller")
        return _take(self.queue, self._grant, waiter, None)

    def unlock(self, waiter):
        """Hand the mutex to its best waiter, if any."""
        if self.owner != waiter:
            raise ObjectStateError(f"mutex {self.id}: unlock by non-owner")
        self.owner = None
        return self.queue.serve(self._grant)


class FixedPool(WaitObject):
    """Fixed-size block pool; grants the lowest free block index."""

    def __init__(self, obj_id: int, block_count: int, block_size: int, *,
                 priority_of, extended_info: int = 0):
        if not is_int(block_count) or block_count < 1:
            raise ValidationError(f"fixed pool {obj_id}: block count must be >= 1")
        if not is_int(block_size) or block_size < 1:
            raise ValidationError(f"fixed pool {obj_id}: block size must be >= 1")
        super().__init__(obj_id, priority_of, extended_info)
        self.block_count = block_count
        self.block_size = block_size
        self._free = list(range(block_count))
        heapq.heapify(self._free)
        self._allocated = set()
        self.max_used = 0

    def _grant(self, _waiter, _request):
        if not self._free:
            return _WAIT
        idx = heapq.heappop(self._free)
        self._allocated.add(idx)
        if len(self._allocated) > self.max_used:
            self.max_used = len(self._allocated)
        return idx

    def get(self, waiter):
        return _take(self.queue, self._grant, waiter, None)

    def release(self, index: int):
        if (not isinstance(index, int) or type(index) is bool
                or not (0 <= index < self.block_count)):
            raise ObjectStateError(f"fixed pool {self.id}: no block {index}")
        if index not in self._allocated:
            raise ObjectStateError(f"fixed pool {self.id}: block {index} is free")
        self._allocated.discard(index)
        heapq.heappush(self._free, index)
        return self.queue.serve(self._grant)

    @property
    def free_count(self) -> int:
        return len(self._free)


class VariablePool(WaitObject):
    """Byte pool, first-fit at the lowest offset, free-list coalescing;
    a request is a size, a grant's value its offset."""

    def __init__(self, obj_id: int, size: int, *, priority_of,
                 extended_info: int = 0):
        if not is_int(size) or size < 1:
            raise ValidationError(f"variable pool {obj_id}: size must be >= 1")
        super().__init__(obj_id, priority_of, extended_info)
        self.size = size
        self._free = [(0, size)]  # (offset, length), offset-sorted, coalesced
        self._allocated = {}      # offset -> length
        self.max_used = 0

    def _grant(self, _waiter, n):
        for i, (off, length) in enumerate(self._free):
            if length >= n:
                if length == n:
                    del self._free[i]
                else:
                    self._free[i] = (off + n, length - n)
                self._allocated[off] = n
                used = self.used_bytes
                if used > self.max_used:
                    self.max_used = used
                return off
        return _WAIT

    def _free_block(self, off: int, n: int):
        self._free.append((off, n))
        self._free.sort()
        merged = []
        for o, ln in self._free:
            if merged and merged[-1][0] + merged[-1][1] == o:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((o, ln))
        self._free = merged

    def get(self, waiter, n: int):
        if not isinstance(n, int) or type(n) is bool or not (1 <= n <= self.size):
            raise ValidationError(
                f"variable pool {self.id}: request {n} outside 1..{self.size}"
            )
        return _take(self.queue, self._grant, waiter, n)

    def release(self, offset: int):
        # get hands out plain ints; True or 1.0 would find offset 1
        if type(offset) is not int or offset not in self._allocated:
            raise ObjectStateError(
                f"variable pool {self.id}: offset {offset} is not allocated"
            )
        self._free_block(offset, self._allocated.pop(offset))
        return self.queue.serve(self._grant)

    @property
    def used_bytes(self) -> int:
        return self.size - sum(length for _off, length in self._free)
