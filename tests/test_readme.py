"""The README's Python examples run as written.

The engine example leaves ``body`` and ``sink`` to its reader; the test
supplies a three-tick task body and a ListSink.  The kernel example
declares its two tasks in Python.
"""

import re
from pathlib import Path

from rtksim.engine import Annotation
from rtksim.trace import ListSink, rows

README = Path(__file__).resolve().parent.parent / "README.md"
LIBRARY_USE, ENGINE, KERNEL = re.findall(
    r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL)


def test_the_library_use_example_runs(capsys):
    exec(LIBRARY_USE, {})
    assert int(capsys.readouterr().out) > 0   # thread 1's execution time


def test_the_engine_example_runs():
    def body(api):
        yield from api.wait(Annotation("work", 3, 6))

    sink = ListSink()
    names = {"body": body, "sink": sink}
    exec(ENGINE, names)
    eng = names["eng"]
    assert eng.thread(2).is_idle and not eng.thread(1).is_idle
    assert eng.thread(1).token.cee_uj == 6
    assert [(r.tick_start, r.tick_end, r.label) for r in rows(sink.records)
            if not r.is_control] == [
        (0, 3, "work"), *((t, t + 1, "idle") for t in range(3, 10))]


def test_the_kernel_example_runs(capsys):
    names = {}
    exec(KERNEL, names)
    # each receipt: the consumer's wait ends as the producer's signal does
    assert capsys.readouterr().out == "[4, 9, 14]\n"
    k = names["k"]
    assert k.semaphores[1].count == 0
    assert [k.engine.thread(tid).token.cet for tid in (1, 2)] == [9, 6]
