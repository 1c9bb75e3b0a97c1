"""Synchronization and resource objects, engine-agnostic.

Each core holds pure bookkeeping: it never blocks a caller, it only
answers "granted or queued" and reports which queued waiters a state
change released.  The kernel adapts these decisions to thread blocking;
tests can drive the cores directly with plain ints as waiters.

Waiter ordering everywhere: priority first (smaller wins, read live at
pop time through the priority_of callable), then enqueue order.  A
newcomer never bypasses a queued waiter even when the resource could
satisfy it immediately; the queue head is served first or nobody is.

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


class WaitQueue:
    """Priority/FIFO wait queue with live priority resolution."""

    def __init__(self, priority_of):
        self._priority_of = priority_of
        self._entries = []  # (waiter, seq, aux)
        self._seq = 0

    def add(self, waiter, aux=None):
        self._entries.append((waiter, self._seq, aux))
        self._seq += 1

    def _best_index(self):
        best = None
        best_key = None
        for i, (waiter, seq, _aux) in enumerate(self._entries):
            key = (self._priority_of(waiter), seq)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def peek(self):
        i = self._best_index()
        if i is None:
            return None
        waiter, _seq, aux = self._entries[i]
        return waiter, aux

    def pop(self):
        i = self._best_index()
        if i is None:
            return None
        waiter, _seq, aux = self._entries.pop(i)
        return waiter, aux

    def remove(self, waiter) -> bool:
        for i, (w, _seq, _aux) in enumerate(self._entries):
            if w == waiter:
                del self._entries[i]
                return True
        return False

    def waiters(self):
        return [w for (w, _s, _a) in self._entries]

    def ordered(self):
        """Entries as (waiter, aux) in service order (priority, then seq)."""
        return [
            (w, aux)
            for (w, seq, aux) in sorted(
                self._entries, key=lambda e: (self._priority_of(e[0]), e[1])
            )
        ]

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)


class WaitObject:
    """An object with one wait queue: its id, extended information and
    queue, and the queue's cancel and count.  Every kind but the message
    buffer, which has a queue each for senders and receivers."""

    def __init__(self, obj_id: int, priority_of, extended_info: int):
        self.id = obj_id
        self.extended_info = extended_info
        self.queue = WaitQueue(priority_of)

    def cancel_wait(self, waiter) -> bool:
        return self.queue.remove(waiter)

    @property
    def waiting_count(self) -> int:
        return len(self.queue)


class Semaphore(WaitObject):
    """Counting semaphore with multi-unit acquire.

    Releases follow the no-bypass head rule: on signal, the best queued
    waiter is served repeatedly while its request fits the count; the
    count never leaks past a waiting head to a newcomer.
    """

    def __init__(self, obj_id: int, initial: int, *, priority_of,
                 max_count: int = DEFAULT_SEMAPHORE_MAX, extended_info: int = 0):
        if not is_int(initial) or initial < 0:
            raise ValidationError(f"semaphore {obj_id}: initial count must be >= 0")
        if not is_int(max_count) or max_count < 1 or initial > max_count:
            raise ValidationError(f"semaphore {obj_id}: bad maximum count")
        super().__init__(obj_id, priority_of, extended_info)
        self.count = initial
        self.max_count = max_count

    def acquire(self, waiter, n: int = 1) -> bool:
        if not isinstance(n, int) or type(n) is bool or n < 1:
            raise ValidationError(f"semaphore {self.id}: acquire count must be >= 1")
        if n > self.max_count:
            raise ValidationError(f"semaphore {self.id}: request exceeds maximum")
        if not self.queue and self.count >= n:
            self.count -= n
            return True
        self.queue.add(waiter, n)
        return False

    def signal(self, n: int = 1):
        """Returns the waiters released by this signal, in release order."""
        if not isinstance(n, int) or type(n) is bool or n < 1:
            raise ValidationError(f"semaphore {self.id}: signal count must be >= 1")
        if self.count + n > self.max_count:
            raise ObjectStateError(
                f"semaphore {self.id}: count would exceed {self.max_count}"
            )
        self.count += n
        released = []
        while self.queue:
            waiter, need = self.queue.peek()
            if need > self.count:
                break
            self.queue.pop()
            self.count -= need
            released.append(waiter)
        return released


class EventFlag(WaitObject):
    """32-bit event flag; waiters carry (pattern, mode, clear)."""

    def __init__(self, obj_id: int, initial: int = 0, *, priority_of,
                 extended_info: int = 0):
        if not is_int(initial) or not (0 <= initial <= _PATTERN_MASK):
            raise ValidationError(f"event flag {obj_id}: pattern must fit 32 bits")
        super().__init__(obj_id, priority_of, extended_info)
        self.pattern = initial

    @staticmethod
    def _satisfied(pattern, wanted, mode):
        if mode == FLAG_MODE_AND:
            return pattern & wanted == wanted
        return pattern & wanted != 0

    @staticmethod
    def _check(wanted, mode):
        if (not isinstance(wanted, int) or type(wanted) is bool
                or not (1 <= wanted <= _PATTERN_MASK)):
            raise ValidationError("event flag: wait pattern must be a nonzero 32-bit mask")
        if mode not in (FLAG_MODE_AND, FLAG_MODE_OR):
            raise ValidationError(f"event flag: unknown mode {mode!r}")

    def wait(self, waiter, wanted: int, mode: str, clear: bool):
        """Immediate satisfaction check; (granted, pattern snapshot)."""
        self._check(wanted, mode)
        if self._satisfied(self.pattern, wanted, mode):
            snapshot = self.pattern
            if clear:
                self.pattern = 0  # whole pattern, not just the wanted bits
            return True, snapshot
        self.queue.add(waiter, (wanted, mode, clear))
        return False, None

    def set_bits(self, bits: int):
        """OR the bits in, then re-evaluate waiters in queue order.

        A clear-on-release waiter zeroes the pattern for everyone behind
        it in the same evaluation pass.  Returns (waiter, snapshot)
        pairs in release order.
        """
        if (not isinstance(bits, int) or type(bits) is bool
                or not (0 <= bits <= _PATTERN_MASK)):
            raise ValidationError(f"event flag {self.id}: pattern must fit 32 bits")
        self.pattern |= bits
        released = []
        for waiter, (wanted, mode, clear) in self.queue.ordered():
            if self._satisfied(self.pattern, wanted, mode):
                released.append((waiter, self.pattern))
                self.queue.remove(waiter)
                if clear:
                    self.pattern = 0
        return released

    def clear_bits(self, mask: int):
        if (not isinstance(mask, int) or type(mask) is bool
                or not (0 <= mask <= _PATTERN_MASK)):
            raise ValidationError(f"event flag {self.id}: pattern must fit 32 bits")
        self.pattern &= mask


class Mailbox(WaitObject):
    """Unbounded message queue; delivery by message priority then FIFO."""

    def __init__(self, obj_id: int, *, priority_of, extended_info: int = 0):
        super().__init__(obj_id, priority_of, extended_info)
        self._messages = []  # heap of (priority, seq, payload)
        self._seq = 0

    def send(self, priority: int, payload):
        """Queue a message; returns (receiver, message) if one was waiting."""
        if not isinstance(priority, int) or type(priority) is bool or priority < 0:
            raise ValidationError(f"mailbox {self.id}: message priority must be >= 0")
        heapq.heappush(self._messages, (priority, self._seq, payload))
        self._seq += 1
        if self.queue:
            waiter, _aux = self.queue.pop()
            _prio, _seq, msg = heapq.heappop(self._messages)
            return waiter, msg
        return None

    def recv(self, waiter):
        if self._messages:
            _prio, _seq, msg = heapq.heappop(self._messages)
            return True, msg
        self.queue.add(waiter)
        return False, None

    @property
    def message_count(self) -> int:
        return len(self._messages)


class MessageBuffer:
    """Bounded byte FIFO preserving message boundaries.

    Senders block while their message does not fit; freed space admits
    queued senders head-first, never a later sender past a waiting head.
    """

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

    def _store(self, data: bytes):
        self._messages.append(data)
        self._used += len(data)

    def _drain_receivers(self, released):
        while self._messages and self.recv_queue:
            waiter, _aux = self.recv_queue.pop()
            msg = self._messages.popleft()
            self._used -= len(msg)
            released.append((waiter, msg))

    def _drain_senders(self, released):
        while self.send_queue:
            peeked = self.send_queue.peek()
            _waiter, data = peeked
            if len(data) > self.free_bytes:
                break
            waiter, data = self.send_queue.pop()
            self._store(data)
            released.append(waiter)

    def send(self, waiter, data: bytes):
        """(granted, receivers released with their messages)."""
        if not isinstance(data, (bytes, bytearray)):
            raise ValidationError(f"message buffer {self.id}: data must be bytes")
        data = bytes(data)
        if not (1 <= len(data) <= self.capacity):
            raise ValidationError(
                f"message buffer {self.id}: message length {len(data)} "
                f"outside 1..{self.capacity}"
            )
        if not self.send_queue and len(data) <= self.free_bytes:
            self._store(data)
            released = []
            self._drain_receivers(released)
            return True, released
        self.send_queue.add(waiter, data)
        return False, []

    def recv(self, waiter):
        """(granted, message, senders released by the freed space)."""
        if self._messages:
            msg = self._messages.popleft()
            self._used -= len(msg)
            released = []
            self._drain_senders(released)
            return True, msg, released
        self.recv_queue.add(waiter)
        return False, None, []

    def cancel_wait(self, waiter) -> bool:
        return self.send_queue.remove(waiter) or self.recv_queue.remove(waiter)

    @property
    def waiting_count(self) -> int:
        return len(self.send_queue) + len(self.recv_queue)


class Mutex(WaitObject):
    """Non-recursive mutex.  Priority inheritance is computed by the
    kernel from owner/waiter visibility; the core only tracks them."""

    def __init__(self, obj_id: int, *, priority_of, extended_info: int = 0):
        super().__init__(obj_id, priority_of, extended_info)
        self.owner = None

    def lock(self, waiter) -> bool:
        if self.owner is None:
            self.owner = waiter
            return True
        if self.owner == waiter:
            raise ObjectStateError(f"mutex {self.id}: already held by the caller")
        self.queue.add(waiter)
        return False

    def unlock(self, waiter):
        """Returns the next owner, or None when the mutex goes free."""
        if self.owner != waiter:
            raise ObjectStateError(f"mutex {self.id}: unlock by non-owner")
        if self.queue:
            nxt, _aux = self.queue.pop()
            self.owner = nxt
            return nxt
        self.owner = None
        return None


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

    def _grant(self):
        idx = heapq.heappop(self._free)
        self._allocated.add(idx)
        if len(self._allocated) > self.max_used:
            self.max_used = len(self._allocated)
        return idx

    def get(self, waiter):
        if not self.queue and self._free:
            return True, self._grant()
        self.queue.add(waiter)
        return False, None

    def release(self, index: int):
        """Returns (waiter, index) when the block goes straight to a waiter."""
        if (not isinstance(index, int) or type(index) is bool
                or not (0 <= index < self.block_count)):
            raise ObjectStateError(f"fixed pool {self.id}: no block {index}")
        if index not in self._allocated:
            raise ObjectStateError(f"fixed pool {self.id}: block {index} is free")
        self._allocated.discard(index)
        heapq.heappush(self._free, index)
        if self.queue:
            waiter, _aux = self.queue.pop()
            return waiter, self._grant()
        return None

    @property
    def free_count(self) -> int:
        return len(self._free)


class VariablePool(WaitObject):
    """Byte pool, first-fit at the lowest offset, free-list coalescing."""

    def __init__(self, obj_id: int, size: int, *, priority_of,
                 extended_info: int = 0):
        if not is_int(size) or size < 1:
            raise ValidationError(f"variable pool {obj_id}: size must be >= 1")
        super().__init__(obj_id, priority_of, extended_info)
        self.size = size
        self._free = [(0, size)]  # (offset, length), offset-sorted, coalesced
        self._allocated = {}      # offset -> length
        self.max_used = 0

    def _try_alloc(self, n: int):
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
        return None

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
        if not self.queue:
            off = self._try_alloc(n)
            if off is not None:
                return True, off
        self.queue.add(waiter, n)
        return False, None

    def release(self, offset: int):
        """Returns [(waiter, offset, n)] granted out of the freed space."""
        # get hands out plain ints; True or 1.0 would find offset 1
        if type(offset) is not int or offset not in self._allocated:
            raise ObjectStateError(
                f"variable pool {self.id}: offset {offset} is not allocated"
            )
        n = self._allocated.pop(offset)
        self._free_block(offset, n)
        granted = []
        while self.queue:
            waiter, need = self.queue.peek()
            off = self._try_alloc(need)
            if off is None:
                break  # head does not fit; nobody behind it may pass
            self.queue.pop()
            granted.append((waiter, off, need))
        return granted

    @property
    def used_bytes(self) -> int:
        return self.size - sum(length for _off, length in self._free)
