"""Mutation gate: every listed mutant must make the tier-1 suite fail.

Usage: ``python3 tests/mutants.py``; it runs every listed mutant.

A mutant is a named ``(module, file, old, new)`` entry: ``old`` must
occur exactly once in ``file``, and ``module`` is the test module that
kills it.  A mutant that needs several edits gives ``old`` and ``new``
as tuples of the same length.  For each mutant the runner copies the
tree, without ``.git``, caches, ``.venv``, ``build`` or ``*.egg-info``
and with symlinks kept as links, to a temporary directory, makes the
replacement there and runs the tier-1 command with ``-x`` in the copy,
first on ``module`` alone and then, only if that passes, on the whole
suite:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x [module]

So a mutant still meets every test, but the run that kills it is most
often the short one.  Each run has its own TIMEOUT_S and RLIMIT_AS.  A
failing run kills the mutant; a passing suite lets it survive.  A run that hangs, runs out of
memory, dies by a signal or cannot run its tests is a finding: the suite
neither passed nor failed, and someone should look.  The unmutated tree
runs first the same way and must pass, so that a broken suite cannot
kill every mutant.  The runner writes nothing into the checkout, and it
exits 1 unless every mutant is killed.  Stdlib only; pytest does not
collect this file.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
ADDRESS_SPACE = 2 << 30   # bytes; the unmutated suite passes in half of it
TIER1 = (sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-x")

ENGINE = "src/rtksim/engine.py"
KERNEL = "src/rtksim/kernel.py"
OBJECTS = "src/rtksim/objects.py"
SCENARIO = "src/rtksim/scenario.py"
TRACE = "src/rtksim/trace.py"

ACCEPTANCE = "tests/test_acceptance.py"
BEHAVIOR_T = "tests/test_behavior.py"
BENCH_CALLS = "tests/test_bench_calls.py"
BENCH_DIGESTS = "tests/test_bench_digests.py"
BENCH_TRACED = "tests/test_bench_traced.py"
CLI = "tests/test_cli.py"
DEBUGDS_T = "tests/test_debugds.py"
DEMO_DIGESTS = "tests/test_demo_digests.py"
ENGINE_T = "tests/test_engine.py"
KERNEL_T = "tests/test_kernel.py"
RENDER_T = "tests/test_render_batches.py"
REPORT_T = "tests/test_report.py"
SCENARIO_T = "tests/test_scenario.py"
SECTIONS_T = "tests/test_section_records.py"
TRACE_T = "tests/test_trace.py"

# (name, module that kills it, file, old, new)
MUTANTS = (
    # -- run by hand for the stepped-tick change, before this gate existed
    ("gate-check-without-pending-activations", ACCEPTANCE, ENGINE,
     "                    self._pending_activations\n"
     "                    or self._ready_bits & table[cur].outranked_by):",
     "                    self._ready_bits & table[cur].outranked_by):"),
    ("gate-check-without-outranking-term", ACCEPTANCE, ENGINE,
     "                    self._pending_activations\n"
     "                    or self._ready_bits & table[cur].outranked_by):",
     "                    self._pending_activations):"),
    ("timer-tick-never-checks-deadlock", CLI, KERNEL,
     "            self._check_deadlock(now)\n",
     "            pass\n"),
    ("granted-take-drops-its-value", BEHAVIOR_T, KERNEL,
     "return _OK if value is None else SvcResult(RESULT_OK, value)",
     "return _OK"),
    ("preemption-loop-guard-removed", ENGINE_T, ENGINE,
     "                if self._pick_ready() == th.id:\n",
     "                if False:\n"),
    ("set-priority-takes-any-value", ENGINE_T, ENGINE,
     "        if not is_int(priority) or priority < 0:\n"
     "            raise ValidationError(\"priority must be an integer >= 0\")\n"
     "        th = self._get(thread_id)\n",
     "        th = self._get(thread_id)\n"),
    # -- the prototype of this gate
    ("cyclic-period-one-tick-longer", ACCEPTANCE, KERNEL,
     "self._schedule(now + period, _RANK_TIMER, self._activate, data)",
     "self._schedule(now + period + 1, _RANK_TIMER, self._activate, data)"),
    ("release-without-heapify", ACCEPTANCE, KERNEL,
     "            heapq.heapify(self._agenda)\n",
     ""),
    ("preemption-mask-shifted", ACCEPTANCE, ENGINE,
     "self.outranked_by = (1 << priority) - 1 if kind",
     "self.outranked_by = ((1 << priority) - 1) >> 1 if kind"),
    ("flag-waits-always-or", ACCEPTANCE, OBJECTS,
     "pattern & wanted == wanted if mode == FLAG_MODE_AND",
     "pattern & wanted != 0 if mode == FLAG_MODE_AND"),
    ("set-priority-keeps-outranked-by", ACCEPTANCE, ENGINE,
     "        th.outranked_by = (1 << priority) - 1"
     " if th.kind is ThreadKind.TASK else 0\n",
     ""),
    # -- the debug-listing parser and the wait reason of sleep
    ("parse-listing-without-rerender-check", DEBUGDS_T,
     "src/rtksim/debugds.py",
     "    if lines != want:\n",
     "    if False:\n"),
    ("wakeup-ends-any-wait", ACCEPTANCE, KERNEL,
     "            if th.waiting_reason == _SLEEP:\n",
     "            if th.state is ThreadState.WAITING:\n"),
    # -- the scenario file as field rows, and the run-control order
    ("thread-id-rule-ignores-handler-ids", SCENARIO_T, SCENARIO,
     "    seen = {h.id for h in scn.handlers}\n",
     "    seen = set()\n"),
    ("section-without-duplicate-check", SCENARIO_T, SCENARIO,
     "                if key in seen:\n",
     "                if False:\n"),
    ("one-idle-rule-removed", SCENARIO_T, SCENARIO,
     "        elif t.kind == \"idle\" and idle:\n",
     "        elif False:\n"),
    ("battery-raw-writes-microjoules", DEMO_DIGESTS, SCENARIO,
     "            return uj // self.per\n",
     "            return uj if self.per == UJ_PER_WH else uj // self.per\n"),
    ("run-after-finish-not-refused", KERNEL_T, KERNEL,
     "        if eng._finished:\n",
     "        if False:\n"),
    ("report-takes-any-tick-length", REPORT_T,
     "src/rtksim/report.py",
     "    if not is_int(tick_us) or tick_us < 1:\n",
     "    if False:\n"),
    # -- a coasted stretch's CSV rows, 100 to a joined block
    ("block-last-row-keeps-its-prefix", BENCH_DIGESTS, TRACE,
     "{str(q).join(pieces)}{q + 1}{last}",
     "{str(q).join(pieces)}{q}{last}"),
    ("first-block-rounded-down", BENCH_DIGESTS, TRACE,
     "first = max(-(-start // _BLOCK), 1)",
     "first = max(start // _BLOCK, 1)"),
    ("block-of-ticks-below-100", TRACE_T, TRACE,
     "first = max(-(-start // _BLOCK), 1)",
     "first = -(-start // _BLOCK)"),
    # -- one grant rule for the kernel objects
    ("take-grants-while-others-wait", ACCEPTANCE, OBJECTS,
     "    if not queue:\n"
     "        value = grant(waiter, request)\n",
     "    if True:\n"
     "        value = grant(waiter, request)\n"),
    ("serve-passes-a-head-it-cannot-serve", ACCEPTANCE, OBJECTS,
     "        while entries:\n"
     "            i = self._best_index()\n"
     "            waiter, _seq, request = entries[i]\n"
     "            value = grant(waiter, request)\n"
     "            if value is _WAIT:\n"
     "                break\n"
     "            del entries[i]\n"
     "            served.append((waiter, value))\n",
     "        for waiter, request in self.ordered():\n"
     "            value = grant(waiter, request)\n"
     "            if value is not _WAIT:\n"
     "                self.remove(waiter)\n"
     "                served.append((waiter, value))\n"),
    ("cancel-wait-serves-nobody", ACCEPTANCE, OBJECTS,
     "        self.queue.remove(waiter)\n"
     "        return self.queue.serve(self._grant)\n",
     "        self.queue.remove(waiter)\n"
     "        return []\n"),
    ("mailbox-grants-the-oldest-message", ACCEPTANCE, OBJECTS,
     "        return heapq.heappop(self._messages)[2]\n",
     "        oldest = min(self._messages, key=lambda m: m[1])\n"
     "        self._messages.remove(oldest)\n"
     "        heapq.heapify(self._messages)\n"
     "        return oldest[2]\n"),
    # -- the idle thread's one endless segment
    ("idle-stretch-opens-with-continue-run", ACCEPTANCE, ENGINE,
     "                seg.eem_uj, th.rec_event._value_))\n"
     "            self._record(TraceRecord(\n",
     "                seg.eem_uj, EventKind.CONTINUE_RUN._value_))\n"
     "            self._record(TraceRecord(\n"),
    ("idle-stretch-repeats-one-row-too-many", BENCH_TRACED, ENGINE,
     "                now - start - 1))\n",
     "                now - start))\n"),
    ("idle-resumed-every-tick", BENCH_CALLS, ENGINE,
     "th.seg_left = _ENDLESS if req is _IDLE_SEGMENT else req.etm",
     "th.seg_left = req.etm"),
    # -- the scenario's data built in one walk of the parser's events
    ("walk-reads-every-scalar-as-its-text", ACCEPTANCE, SCENARIO,
     "            if tag == _STR:\n"
     "                return event.value\n",
     "            return event.value\n"),
    ("walk-without-duplicate-key-check", SCENARIO_T, SCENARIO,
     "                elif key in data:\n",
     "                elif False:\n"),
    ("walk-lets-aliases-through", SCENARIO_T, SCENARIO,
     "            return refuse(event, \"YAML aliases are not supported\")\n",
     "            problems.append((event.start_mark.line + 1,\n"
     "                             \"YAML aliases are not supported\"))\n"
     "            return None\n"),
    ("walk-paths-hold-key-text", SCENARIO_T, SCENARIO,
     "                here = path + (key,)\n",
     "                here = path + (getattr(event, \"value\", key),)\n"),
    # -- a scenario read as a strict YAML subset, each refusal at its node
    ("walk-accepts-a-merge-key", SCENARIO_T, SCENARIO,
     "            if tag == _STR:\n",
     "            if tag == _STR or key and tag == _TAG + \"merge\":\n"),
    ("refusal-at-line-one", SCENARIO_T, SCENARIO,
     "        problems.append((event.start_mark.line + 1, message))\n",
     "        problems.append((1, message))\n"),
    # -- each service's critical section run by the engine, one record
    ("gate-preempts-inside-a-section", ACCEPTANCE, ENGINE,
     "            if cur is None or self._section is None and (\n",
     "            if cur is None or (\n"),
    ("section-exit-row-at-the-start-tick", SECTIONS_T, TRACE,
     "\n                   f\"{end},{end},{leave}\")\n",
     "\n                   f\"{start},{start},{leave}\")\n"),
    ("finish-drops-an-open-sections-enter-row", SECTIONS_T, ENGINE,
     "            if self._section is not None:  # the window ends inside it\n",
     "            if False:\n"),
    ("section-never-closes", SECTIONS_T, ENGINE,
     "            self._section or \"\"))\n"
     "        self._section = None\n",
     "            self._section or \"\"))\n"),
    # -- one writer of a segment's record, one stalled-run query
    ("zero-tick-energy-not-charged", ENGINE_T, ENGINE,
     "            if not seg.etm:\n"
     "                th.token.cee_uj += uj\n",
     ""),
    ("zero-tick-segment-written-at-its-preemption", ENGINE_T, ENGINE,
     "        if th.seg is not None and self.now > th.rec_start:\n",
     "        if th.seg is not None:\n"),
    ("segment-preempted-at-its-end-written-twice", ENGINE_T, ENGINE,
     "        if now == start and seg.etm:\n",
     "        if now == start and th.seg_left:\n"),
    ("stalled-ignores-a-pending-activation", KERNEL_T, ENGINE,
     "        if self._pending_activations or any(\n",
     "        if any(\n"),
    # -- the trace CSV and the SVG Gantt rendered a batch of records at a time
    ("csv-chunks-joined-without-newline", RENDER_T, TRACE,
     ("    append(\"\")\n"
      "    return \"\\n\".join(lines)\n",
      "    return \"\".join(chunks)\n"),
     ("    return \"\\n\".join(lines)\n",
      "    return \"\".join(chunks) + \"\\n\"\n")),
    ("last-partial-batch-dropped", RENDER_T, TRACE,
     "        yield batch\n"
     "        if len(batch) < BATCH:\n"
     "            return\n",
     "        if len(batch) < BATCH:\n"
     "            return\n"
     "        yield batch\n"),
    ("csv-header-repeated-per-batch", RENDER_T, TRACE,
     "        lines = []\n"
     "    return \"\".join(chunks)\n",
     "        lines = [CSV_HEADER]\n"
     "    return \"\".join(chunks)\n"),
    # -- CsvFileSink writing records_to_csv's chunk a batch at a time
    ("sink-header-repeated-per-batch", SECTIONS_T, TRACE,
     "        self._lines, self._held = [], 0\n",
     "        self._lines, self._held = [CSV_HEADER], 0\n"),
    ("sink-drops-the-records-it-holds-at-close", TRACE_T, TRACE,
     "        if not self._fh.closed:\n"
     "            self._write()\n",
     "        if not self._fh.closed:\n"),
    # -- every service and body operation acting for the running thread
    ("take-lets-a-handler-wait", KERNEL_T, KERNEL,
     "        if tid in self._handlers:\n"
     "            raise self._handler_wait_error(tid, f\"{what} {obj_id}\")\n",
     ""),
    ("segment-defaults-to-task-context", ENGINE_T, ENGINE,
     "            context_kind = eng._table[eng.current_id].default_context\n",
     "            context_kind = ContextKind.TASK\n"),
    ("sink-formats-each-record-on-its-own", BENCH_CALLS, TRACE,
     "        held = self._held\n"
     "        self._batch[held] = rec\n"
     "        self._held = held = held + 1\n"
     "        if held == BATCH:\n"
     "            self._write()\n",
     "        self._fh.write(rec.csv_row() + \"\\n\")\n"),
    # -- the scenario read from the parser's events, with no composed tree
    ("second-document-accepted", SCENARIO_T, SCENARIO,
     "    if not loader.check_event(yaml.StreamEndEvent):\n"
     "        raise",
     "    if False:\n"
     "        raise"),
    ("depth-limit-one-level-deeper", SCENARIO_T, SCENARIO,
     "        if len(path) > _NODE_DEPTH_LIMIT:\n",
     "        if len(path) > _NODE_DEPTH_LIMIT + 1:\n"),
    ("refused-collections-contents-skipped", SCENARIO_T, SCENARIO,
     "        if why:\n"
     "            refuse(event, why)\n",
     "        if why:\n"
     "            refuse(event, why)\n"
     "            depth = 1\n"
     "            while depth:\n"
     "                event = get_event()\n"
     "                depth += (isinstance(event, yaml.CollectionStartEvent)\n"
     "                          - isinstance(event, yaml.CollectionEndEvent))\n"
     "            return _REFUSED\n"),
    ("alias-read-as-null", SCENARIO_T, SCENARIO,
     "            return refuse(event, \"YAML aliases are not supported\")\n",
     "            return None\n"),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_suite(tree: Path, module=None) -> tuple:
    """Run tier-1 in ``tree``, or only its test ``module``: (verdict,
    detail), verdict one of "passed", "failed" or "finding"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        TIER1 + ((module,) if module else ()), cwd=tree, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
        preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "finding", f"hung: no result in {TIMEOUT_S} s"
    if "MemoryError" in out:
        return "finding", f"ran out of its {ADDRESS_SPACE >> 20} MiB"
    if proc.returncode == 0:
        return "passed", out.strip().splitlines()[-1]
    if proc.returncode < 0:
        return "finding", f"died by signal {-proc.returncode}"
    # a test that failed or errored; a module that cannot be collected
    # (say, a mutant that does not compile) kills nothing
    failed = re.search(r"^(?:FAILED|ERROR) (\S+::\S+)", out, re.MULTILINE)
    if proc.returncode == 1 and failed:
        return "failed", failed.group(1)
    return "finding", f"pytest exited {proc.returncode}:\n{out[-2000:]}"


def try_tree(mutant=None) -> tuple:
    """Copy the tree, apply ``mutant`` (module, file, old, new) if
    given, and run tier-1 on the copy, its module first."""
    with tempfile.TemporaryDirectory(prefix="rtksim-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, symlinks=True,
                        ignore=shutil.ignore_patterns(
                            ".git", "__pycache__", ".pytest_cache",
                            ".hypothesis", ".venv", "build", "*.egg-info"))
        if mutant is None:
            return run_suite(tree)
        module, file, old, new = mutant
        if isinstance(old, str):
            old, new = (old,), (new,)
        path = tree / file
        text = path.read_text()
        for each_old, each_new in zip(old, new, strict=True):
            if text.count(each_old) != 1:
                return "finding", (f"stale: the text to replace occurs "
                                   f"{text.count(each_old)} times in {file}")
            text = text.replace(each_old, each_new)
        path.write_text(text)
        verdict, detail = run_suite(tree, module)
        if verdict != "passed":
            return verdict, detail
        return run_suite(tree)


def main() -> int:
    start = time.perf_counter()
    verdict, detail = try_tree()
    print(f"unmutated tree: {verdict}, {detail} "
          f"({time.perf_counter() - start:.1f} s)", flush=True)
    if verdict != "passed":
        return 1
    killed = 0
    for name, *mutant in MUTANTS:
        began = time.perf_counter()
        verdict, detail = try_tree(mutant)
        killed += verdict == "failed"
        outcome = {"failed": "killed by", "passed": "SURVIVED:"}.get(
            verdict, "FINDING:")
        print(f"{name}: {outcome} {detail} "
              f"({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
