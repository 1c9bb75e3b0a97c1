"""Transaction-level peripheral models behind named, cost-annotated accesses.

A scenario declares devices and, per device, an access table: each
access name binds one operation verb to a cycle budget and an energy
estimate.  The kernel performs the device behavior first, then charges
the caller; this module owns only the device state and the output log.

Byte-oriented throughout: stored values are 0..255.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import ConflictError, DeviceError, NotFoundError, ValidationError
from .trace import is_int

KIND_MEMORY = "memory"
KIND_SERIAL = "serial_io"
KIND_PARALLEL = "parallel_io"
KIND_INTC = "intc"
KIND_RTC = "rtc"

# operation verbs accepted per device kind
_OPS_BY_KIND = {
    KIND_MEMORY: ("read", "write"),
    KIND_SERIAL: ("read", "write"),
    KIND_PARALLEL: ("in", "out"),
    KIND_INTC: (),
    KIND_RTC: (),
}

DEFAULT_SERIAL_CAPACITY = 16
DEFAULT_INTC_LINES = 8
MEMORY_WIDTHS = (1, 2, 4)  # bytes per aligned access


@dataclass(frozen=True)
class AccessSpec:
    """One row of a device's access table."""

    name: str
    op: str
    cycles: int
    eem_uj: int

    def validate(self, kind: str, device: str):
        if self.op not in _OPS_BY_KIND[kind]:
            raise ValidationError(
                f"device {device}: op {self.op!r} not valid for kind {kind}"
            )
        if not is_int(self.cycles) or self.cycles < 0:
            raise ValidationError(
                f"device {device}: access {self.name!r} cycles must be >= 0"
            )
        if not is_int(self.eem_uj) or self.eem_uj < 0:
            raise ValidationError(
                f"device {device}: access {self.name!r} energy must be >= 0"
            )


def _check_byte(device: str, value) -> int:
    if not is_int(value) or not (0 <= value <= 0xFF):
        raise ValidationError(f"device {device}: value must be a byte (0..255)")
    return value


class BfmDevice:
    """Base: an access table plus kind-specific state."""

    kind = None

    def __init__(self, name: str, accesses: dict[str, AccessSpec]):
        self.name = name
        self.accesses = dict(accesses)
        for spec in self.accesses.values():
            spec.validate(self.kind, name)

    def access(self, access_name: str) -> AccessSpec:
        try:
            return self.accesses[access_name]
        except KeyError:
            raise NotFoundError(
                f"device {self.name}: no access named {access_name!r}"
            ) from None

    def perform(self, op: str, args: dict):
        raise NotFoundError(f"device {self.name}: kind {self.kind} has no operations")


class Memory(BfmDevice):
    """Byte-addressed store.  width > 1 enforces address alignment."""

    kind = KIND_MEMORY

    def __init__(self, name, accesses, *, size: int = 65536, width: int = 1):
        super().__init__(name, accesses)
        if not is_int(size) or size < 1:
            raise ValidationError(f"device {name}: size must be >= 1")
        if not is_int(width) or width not in MEMORY_WIDTHS:
            raise ValidationError(f"device {name}: width must be 1, 2 or 4")
        self.size = size
        self.width = width
        self._bytes: dict[int, int] = {}

    def _check_addr(self, addr) -> int:
        if not is_int(addr) or not (0 <= addr < self.size):
            raise DeviceError(f"device {self.name}: address {addr} out of range")
        if addr % self.width != 0:
            raise DeviceError(
                f"device {self.name}: address {addr} not aligned to {self.width}"
            )
        return addr

    def perform(self, op, args):
        addr = self._check_addr(args.get("addr", 0))
        if op == "write":
            value = _check_byte(self.name, args.get("value", 0))
            self._bytes[addr] = value
            return value, True
        return self._bytes.get(addr, 0), False


class SerialIO(BfmDevice):
    """Two byte FIFOs.  Writes append to the out FIFO until its capacity
    is hit (device error); reads pop the in FIFO, 0 when empty."""

    kind = KIND_SERIAL

    def __init__(self, name, accesses, *, out_capacity: int = DEFAULT_SERIAL_CAPACITY):
        super().__init__(name, accesses)
        if not is_int(out_capacity) or out_capacity < 1:
            raise ValidationError(f"device {name}: out capacity must be >= 1")
        self.out_capacity = out_capacity
        self.out_fifo: deque[int] = deque()
        self.in_fifo: deque[int] = deque()

    def feed(self, value: int):
        """Stimulus path: push one byte into the in FIFO."""
        self.in_fifo.append(_check_byte(self.name, value))

    def perform(self, op, args):
        if op == "write":
            value = _check_byte(self.name, args.get("value", 0))
            if len(self.out_fifo) >= self.out_capacity:
                raise DeviceError(
                    f"device {self.name}: out FIFO overflow at {self.out_capacity}"
                )
            self.out_fifo.append(value)
            return value, True
        if not self.in_fifo:
            return 0, False
        return self.in_fifo.popleft(), False


class ParallelIO(BfmDevice):
    """Input latch written by stimuli, output latch written by accesses."""

    kind = KIND_PARALLEL

    def __init__(self, name, accesses):
        super().__init__(name, accesses)
        self.in_latch = 0
        self.out_latch = 0

    def set_input(self, value: int):
        self.in_latch = _check_byte(self.name, value)

    def perform(self, op, args):
        if op == "out":
            value = _check_byte(self.name, args.get("value", 0))
            self.out_latch = value
            return value, True
        return self.in_latch, False


class InterruptController(BfmDevice):
    """Line-to-handler binding registry; stimuli assert the lines."""

    kind = KIND_INTC

    def __init__(self, name, accesses, *, lines: int = DEFAULT_INTC_LINES):
        super().__init__(name, accesses)
        if not is_int(lines) or lines < 1:
            raise ValidationError(f"device {name}: line count must be >= 1")
        self.lines = lines
        self.bindings: dict[int, int] = {}  # line -> handler thread id

    def attach(self, line: int, handler_id: int):
        if not is_int(line) or not (0 <= line < self.lines):
            raise ValidationError(
                f"device {self.name}: line {line} outside 0..{self.lines - 1}"
            )
        if line in self.bindings:
            raise ConflictError(f"device {self.name}: line {line} already bound")
        self.bindings[line] = handler_id

    def bound_handler(self, line: int):
        return self.bindings.get(line)


class Rtc(BfmDevice):
    """Placeholder for the clock source; the tick stream is implicit."""

    kind = KIND_RTC


_KIND_CLASSES = {
    KIND_MEMORY: Memory,
    KIND_SERIAL: SerialIO,
    KIND_PARALLEL: ParallelIO,
    KIND_INTC: InterruptController,
    KIND_RTC: Rtc,
}


def make_device(kind: str, name: str, accesses, **options) -> BfmDevice:
    if kind not in _KIND_CLASSES:
        raise ValidationError(f"unknown device kind {kind!r}")
    return _KIND_CLASSES[kind](name, accesses, **options)


@dataclass(frozen=True)
class DeviceLogRow:
    tick: int
    device: str
    access: str
    payload_hex: str

    def csv_row(self) -> str:
        return f"{self.tick},{self.device},{self.access},{self.payload_hex}"


DEVICE_LOG_HEADER = "tick,device,access,payload_hex"


class DeviceRegistry:
    """All devices of one run, plus the peripheral output log."""

    def __init__(self):
        self._devices: dict[str, BfmDevice] = {}
        self.log: list[DeviceLogRow] = []

    def add(self, device: BfmDevice):
        if device.name in self._devices:
            raise ConflictError(f"device {device.name} already registered")
        self._devices[device.name] = device

    def get(self, name: str) -> BfmDevice:
        try:
            return self._devices[name]
        except KeyError:
            raise NotFoundError(f"no device named {name!r}") from None

    def perform(self, tick: int, device_name: str, access_name: str, args: dict):
        """Mutate device state; returns (response, AccessSpec).

        Output operations append to the device log with the payload in
        lowercase hex.  Charging is the caller's business.
        """
        dev = self.get(device_name)
        spec = dev.access(access_name)
        response, logged = dev.perform(spec.op, args or {})
        if logged:
            self.log.append(DeviceLogRow(
                tick, device_name, access_name, f"{response:02x}"
            ))
        return response, spec

    def log_csv(self) -> str:
        lines = [DEVICE_LOG_HEADER]
        lines.extend(row.csv_row() for row in self.log)
        lines.append("")
        return "\n".join(lines)
