"""Peripheral model behavior and the device output log."""

import pytest

from rtksim.bfm import (
    DEVICE_LOG_HEADER,
    AccessSpec,
    DeviceRegistry,
    InterruptController,
    Memory,
    ParallelIO,
    Rtc,
    SerialIO,
    make_device,
)
from rtksim.errors import (
    ConflictError,
    DeviceError,
    NotFoundError,
    ValidationError,
)


def acc(name, op, cycles=100, eem=5):
    return {name: AccessSpec(name, op, cycles, eem)}


def rw_table():
    return {
        "rd": AccessSpec("rd", "read", 80, 2),
        "wr": AccessSpec("wr", "write", 120, 3),
    }


class TestAccessSpec:
    def test_op_must_match_kind(self):
        with pytest.raises(ValidationError):
            Memory("m", acc("x", "out"))          # parallel verb on memory
        with pytest.raises(ValidationError):
            ParallelIO("p", acc("x", "read"))

    def test_negative_budgets_rejected(self):
        with pytest.raises(ValidationError):
            Memory("m", {"x": AccessSpec("x", "read", -1, 0)})
        with pytest.raises(ValidationError):
            Memory("m", {"x": AccessSpec("x", "read", 0, -1)})

    def test_zero_cycles_allowed(self):
        Memory("m", {"x": AccessSpec("x", "read", 0, 0)})


class TestMemory:
    def test_write_then_read(self):
        m = Memory("m", rw_table(), size=256)
        assert m.perform("write", {"addr": 10, "value": 0x5A}) == (0x5A, True)
        assert m.perform("read", {"addr": 10}) == (0x5A, False)

    def test_unwritten_reads_zero(self):
        m = Memory("m", rw_table())
        assert m.perform("read", {"addr": 4096}) == (0, False)

    def test_out_of_range_address(self):
        m = Memory("m", rw_table(), size=16)
        with pytest.raises(DeviceError):
            m.perform("read", {"addr": 16})
        with pytest.raises(DeviceError):
            m.perform("read", {"addr": -1})

    def test_alignment(self):
        m = Memory("m", rw_table(), width=4)
        m.perform("write", {"addr": 8, "value": 1})
        with pytest.raises(DeviceError):
            m.perform("read", {"addr": 6})

    def test_value_must_be_byte(self):
        m = Memory("m", rw_table())
        with pytest.raises(ValidationError):
            m.perform("write", {"addr": 0, "value": 256})

    def test_bad_geometry(self):
        with pytest.raises(ValidationError):
            Memory("m", rw_table(), size=0)
        with pytest.raises(ValidationError):
            Memory("m", rw_table(), width=3)


class TestSerialIO:
    def test_write_fills_out_fifo_until_overflow(self):
        s = SerialIO("u", rw_table(), out_capacity=2)
        s.perform("write", {"value": 1})
        s.perform("write", {"value": 2})
        with pytest.raises(DeviceError):
            s.perform("write", {"value": 3})
        assert list(s.out_fifo) == [1, 2]

    def test_read_pops_fed_bytes_in_order(self):
        s = SerialIO("u", rw_table())
        s.feed(7)
        s.feed(9)
        assert s.perform("read", {}) == (7, False)
        assert s.perform("read", {}) == (9, False)

    def test_read_empty_returns_zero(self):
        s = SerialIO("u", rw_table())
        assert s.perform("read", {}) == (0, False)

    def test_feed_validates(self):
        s = SerialIO("u", rw_table())
        with pytest.raises(ValidationError):
            s.feed(300)


class TestParallelIO:
    def test_latches(self):
        table = {
            "get": AccessSpec("get", "in", 10, 0),
            "put": AccessSpec("put", "out", 10, 0),
        }
        p = ParallelIO("gpio", table)
        assert p.perform("in", {}) == (0, False)
        p.set_input(0x42)
        assert p.perform("in", {}) == (0x42, False)
        assert p.perform("in", {}) == (0x42, False)   # latch, not a FIFO
        assert p.perform("out", {"value": 0x99}) == (0x99, True)
        assert p.out_latch == 0x99


class TestInterruptController:
    def test_binding(self):
        c = InterruptController("pic", {}, lines=4)
        c.attach(0, 11)
        c.attach(3, 12)
        assert c.bound_handler(0) == 11
        assert c.bound_handler(1) is None

    def test_double_bind_conflicts(self):
        c = InterruptController("pic", {}, lines=4)
        c.attach(1, 11)
        with pytest.raises(ConflictError):
            c.attach(1, 12)

    def test_line_range(self):
        c = InterruptController("pic", {}, lines=4)
        with pytest.raises(ValidationError):
            c.attach(4, 11)

    def test_has_no_access_operations(self):
        # no op is valid for the kind, so no access can reach its state
        with pytest.raises(ValidationError, match="not valid for kind intc"):
            InterruptController("pic", rw_table(), lines=4)
        reg = DeviceRegistry()
        reg.add(InterruptController("pic", {}, lines=4))
        with pytest.raises(NotFoundError, match="no access named 'rd'"):
            reg.perform(0, "pic", "rd", {})


def test_rtc_is_inert():
    with pytest.raises(ValidationError, match="not valid for kind rtc"):
        Rtc("clock", rw_table())
    reg = DeviceRegistry()
    reg.add(Rtc("clock", {}))
    with pytest.raises(NotFoundError, match="no access named 'rd'"):
        reg.perform(0, "clock", "rd", {})


class TestMakeDevice:
    def test_dispatches_by_kind(self):
        d = make_device("serial_io", "u", rw_table(), out_capacity=4)
        assert isinstance(d, SerialIO)
        assert d.out_capacity == 4

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_device("dma", "x", {})


class TestRegistry:
    def test_duplicate_name_conflicts(self):
        reg = DeviceRegistry()
        reg.add(Memory("m", rw_table()))
        with pytest.raises(ConflictError):
            reg.add(SerialIO("m", rw_table()))

    def test_missing_lookups(self):
        reg = DeviceRegistry()
        reg.add(Memory("m", rw_table()))
        with pytest.raises(NotFoundError):
            reg.perform(0, "nope", "rd", {})
        with pytest.raises(NotFoundError):
            reg.perform(0, "m", "nope", {})

    def test_only_output_ops_are_logged(self):
        reg = DeviceRegistry()
        reg.add(SerialIO("uart", rw_table()))
        reg.perform(3, "uart", "wr", {"value": 0x5A})
        reg.perform(4, "uart", "rd", {})
        reg.perform(9, "uart", "wr", {"value": 7})
        assert [(r.tick, r.access, r.payload_hex) for r in reg.log] == [
            (3, "wr", "5a"),
            (9, "wr", "07"),
        ]

    def test_perform_returns_response_and_spec(self):
        reg = DeviceRegistry()
        reg.add(SerialIO("uart", rw_table()))
        response, spec = reg.perform(0, "uart", "wr", {"value": 0x10})
        assert response == 0x10
        assert (spec.cycles, spec.eem_uj) == (120, 3)

    def test_log_csv_shape(self):
        reg = DeviceRegistry()
        reg.add(SerialIO("uart", rw_table()))
        reg.perform(5, "uart", "wr", {"value": 0xAB})
        assert reg.log_csv() == (
            DEVICE_LOG_HEADER + "\n"
            "5,uart,wr,ab\n"
        )

    def test_empty_log_csv_is_header_only(self):
        assert DeviceRegistry().log_csv() == DEVICE_LOG_HEADER + "\n"


# `True` is an `int` to Python (and `True in (1, 2, 4)`); no option,
# budget, byte, address or line takes it for 1
@pytest.mark.parametrize("build", [
    lambda: Memory("m", {}, width=True),
    lambda: Memory("m", {}, size=True),
    lambda: SerialIO("s", {}, out_capacity=True),
    lambda: InterruptController("i", {}, lines=True),
    lambda: InterruptController("i", {}).attach(True, 5),
    lambda: Memory("m", {"x": AccessSpec("x", "read", True, 0)}),
    lambda: Memory("m", {"x": AccessSpec("x", "read", 0, True)}),
    lambda: ParallelIO("p", {}).set_input(True),
    lambda: SerialIO("s", {}).feed(False),
    lambda: Memory("m", rw_table()).perform("write", {"value": True}),
], ids=["width", "size", "capacity", "lines", "line", "cycles", "energy",
        "latch", "feed", "value"])
def test_a_bool_is_no_integer(build):
    with pytest.raises(ValidationError):
        build()


def test_a_bool_is_no_address():
    with pytest.raises(DeviceError, match="out of range"):
        Memory("m", rw_table()).perform("read", {"addr": False})
