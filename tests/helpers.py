"""Helpers shared by the test modules; pytest does not collect this file.

``perfbench(name)`` imports a module of the benchmark under
``perfbench/`` the way its siblings import it, by plain name, so a test
module and the benchmark share one copy; ``compute`` is a kernel body's
annotated segment.
"""

import importlib
import sys
from pathlib import Path

from rtksim.engine import Annotation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench(name):
    """The module ``perfbench/<name>.py``, imported with ``perfbench/``
    first on the path for the while, and writing no bytecode there."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


def compute(ctx, label, ticks, eem=0):
    """Charge one segment of ``ticks`` ticks and ``eem`` uJ, labelled
    ``label``, in the calling thread's own context."""
    yield from ctx.api.wait(Annotation(label, ticks, eem))
