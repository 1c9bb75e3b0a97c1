"""Exception hierarchy for the simulator.

Everything raised on purpose derives from SimError so callers can catch
one base class.  Service-level timeouts are not exceptions; blocking
kernel services return a result code instead.
"""


class SimError(Exception):
    pass


class UsageError(SimError):
    """API misuse: declaring after boot, booting twice, running unbooted."""


class ValidationError(SimError):
    """A value is out of range or otherwise malformed."""


class ScenarioError(ValidationError):
    """Scenario file rejected.  Carries (location, message) pairs."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "\n".join(f"  {loc}: {msg}" for loc, msg in self.problems)
        super().__init__("scenario validation failed:\n" + lines)


class ConflictError(SimError):
    """Duplicate identifier or double binding."""


class NotFoundError(SimError):
    pass


class ProtocolError(SimError):
    """Operation issued from the wrong context or in the wrong order."""


class StateError(SimError):
    """Illegal thread state transition."""


class ObjectStateError(SimError):
    """Kernel object cannot satisfy the request in its current state."""


class ConsistencyError(SimError):
    """Internal bookkeeping disagrees with itself (e.g. trace overlap)."""


class SchedulerEmptyError(SimError):
    """Nothing runnable and no idle thread configured."""


class DeviceError(SimError):
    pass


class DeadlockError(SimError):
    """Raised when no thread can ever run again.

    ``blocked`` lists (thread_id, thread_name, reason) for every thread
    that is stuck waiting.
    """

    def __init__(self, tick, blocked):
        self.tick = tick
        self.blocked = list(blocked)
        names = ", ".join(f"{tid}:{name} ({why})" for tid, name, why in self.blocked)
        super().__init__(f"deadlock at tick {tick}: {names}")
