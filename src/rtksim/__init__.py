"""rtksim: a deterministic simulator for small priority-preemptive RTOS
systems.

Tasks, cyclic/alarm handlers, and interrupt service routines run as
time- and energy-annotated resumable activities over a strict-priority
kernel with the usual synchronization objects (semaphores, event flags,
mutexes, mailboxes, message buffers, memory pools).  Every run is an
exact function of its scenario file: traces, usage reports, battery
projections, and kernel-state dumps are byte-reproducible.

Typical use goes through scenario files and the ``rtk-sim`` command;
the pieces are importable for programmatic runs:

    from rtksim import load_scenario, build_kernel, ListSink

    scn = load_scenario("system.yaml")
    kernel = build_kernel(scn)
    sink = ListSink()
    kernel.attach_sinks(trace_sink=sink)
    kernel.boot()
    kernel.run(scn.run_ticks)
    kernel.finish()
"""

from .engine import Annotation, ContextKind, EventKind, ThreadKind, ThreadState
from .errors import (
    ConflictError,
    ConsistencyError,
    DeadlockError,
    DeviceError,
    NotFoundError,
    ObjectStateError,
    ProtocolError,
    ScenarioError,
    SchedulerEmptyError,
    SimError,
    StateError,
    UsageError,
    ValidationError,
)
from .kernel import Kernel, RESULT_OK, RESULT_TIMEOUT
from .debugds import dump_listing, parse_listing, take_snapshot
from .report import BatteryModel, build_report, usage_from_records
from .gantt import render_svg_gantt, render_text_gantt
from .scenario import (
    Scenario,
    build_kernel,
    demo_scenario_path,
    load_scenario,
    parse_scenario_text,
    save_scenario,
    scenario_to_yaml,
)
from .trace import CSV_HEADER, ListSink, CsvFileSink, TraceRecord, records_to_csv, running_vector

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "BatteryModel",
    "CSV_HEADER",
    "ContextKind",
    "ConflictError",
    "ConsistencyError",
    "CsvFileSink",
    "DeadlockError",
    "DeviceError",
    "EventKind",
    "Kernel",
    "ListSink",
    "NotFoundError",
    "ObjectStateError",
    "ProtocolError",
    "RESULT_OK",
    "RESULT_TIMEOUT",
    "Scenario",
    "ScenarioError",
    "SchedulerEmptyError",
    "SimError",
    "StateError",
    "ThreadKind",
    "ThreadState",
    "TraceRecord",
    "UsageError",
    "ValidationError",
    "build_kernel",
    "build_report",
    "demo_scenario_path",
    "dump_listing",
    "load_scenario",
    "parse_listing",
    "parse_scenario_text",
    "records_to_csv",
    "render_svg_gantt",
    "render_text_gantt",
    "running_vector",
    "save_scenario",
    "scenario_to_yaml",
    "take_snapshot",
    "usage_from_records",
    "__version__",
]
