"""Mutation gate: every listed mutant must make the tier-1 suite fail.

Usage: ``python3 tests/mutants.py``; it runs every listed mutant.

A mutant is a named ``(file, old, new)`` triple, and ``old`` must occur
exactly once in the file.  For each mutant the runner copies the tree,
without ``.git``, caches, ``.venv``, ``build`` or ``*.egg-info`` and with
symlinks kept as links, to a temporary directory, makes the replacement
there and runs the tier-1 command with ``-x`` in the copy:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -x

Each run has its own TIMEOUT_S and RLIMIT_AS.  A failing suite kills the
mutant; a passing one lets it survive.  A run that hangs, runs out of
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

# (name, file, old, new)
MUTANTS = (
    # -- run by hand for the stepped-tick change, before this gate existed
    ("gate-check-without-pending-activations", ENGINE,
     "                    self._pending_activations\n"
     "                    or self._ready_bits & table[cur].outranked_by):",
     "                    self._ready_bits & table[cur].outranked_by):"),
    ("gate-check-without-outranking-term", ENGINE,
     "                    self._pending_activations\n"
     "                    or self._ready_bits & table[cur].outranked_by):",
     "                    self._pending_activations):"),
    ("timer-tick-never-checks-deadlock", KERNEL,
     "            self._check_deadlock(now)\n",
     "            pass\n"),
    ("granted-take-drops-its-value", KERNEL,
     "return _OK if value is None else SvcResult(RESULT_OK, value)",
     "return _OK"),
    ("preemption-loop-guard-removed", ENGINE,
     "                if self._pick_ready() == th.id:\n",
     "                if False:\n"),
    ("set-priority-takes-any-value", ENGINE,
     "        if not is_int(priority) or priority < 0:\n"
     "            raise ValidationError(\"priority must be an integer >= 0\")\n"
     "        th = self._get(thread_id)\n",
     "        th = self._get(thread_id)\n"),
    # -- the prototype of this gate
    ("cyclic-period-one-tick-longer", KERNEL,
     "self._schedule(now + period, _RANK_TIMER, self._activate, data)",
     "self._schedule(now + period + 1, _RANK_TIMER, self._activate, data)"),
    ("release-without-heapify", KERNEL,
     "            heapq.heapify(self._agenda)\n",
     ""),
    ("preemption-mask-shifted", ENGINE,
     "self.outranked_by = (1 << priority) - 1 if kind",
     "self.outranked_by = ((1 << priority) - 1) >> 1 if kind"),
    ("flag-waits-always-or", OBJECTS,
     "pattern & wanted == wanted if mode == FLAG_MODE_AND",
     "pattern & wanted != 0 if mode == FLAG_MODE_AND"),
    ("set-priority-keeps-outranked-by", ENGINE,
     "        th.outranked_by = (1 << priority) - 1"
     " if th.kind is ThreadKind.TASK else 0\n",
     ""),
    # -- the debug-listing parser and the wait reason of sleep
    ("parse-listing-without-rerender-check", "src/rtksim/debugds.py",
     "    if lines != want:\n",
     "    if False:\n"),
    ("wakeup-ends-any-wait", KERNEL,
     "            if th.waiting_reason == _SLEEP:\n",
     "            if th.state is ThreadState.WAITING:\n"),
    # -- the scenario file as field rows, and the run-control order
    ("thread-id-rule-ignores-handler-ids", SCENARIO,
     "    seen = {h.id for h in scn.handlers}\n",
     "    seen = set()\n"),
    ("section-without-duplicate-check", SCENARIO,
     "                if key in seen:\n",
     "                if False:\n"),
    ("one-idle-rule-removed", SCENARIO,
     "        elif t.kind == \"idle\" and idle:\n",
     "        elif False:\n"),
    ("battery-raw-writes-microjoules", SCENARIO,
     "            return uj // self.per\n",
     "            return uj if self.per == UJ_PER_WH else uj // self.per\n"),
    ("run-after-finish-not-refused", KERNEL,
     "        if eng._finished:\n",
     "        if False:\n"),
    ("report-takes-any-tick-length", "src/rtksim/report.py",
     "    if not is_int(tick_us) or tick_us < 1:\n",
     "    if False:\n"),
    # -- a coasted stretch's CSV rows, 100 to a joined block
    ("block-last-row-keeps-its-prefix", TRACE,
     "{str(q).join(pieces)}{q + 1}{last}",
     "{str(q).join(pieces)}{q}{last}"),
    ("first-block-rounded-down", TRACE,
     "first = max(-(-start // _BLOCK), 1)",
     "first = max(start // _BLOCK, 1)"),
    ("block-of-ticks-below-100", TRACE,
     "first = max(-(-start // _BLOCK), 1)",
     "first = -(-start // _BLOCK)"),
    # -- one grant rule for the kernel objects
    ("take-grants-while-others-wait", OBJECTS,
     "    if not queue:\n"
     "        value = grant(waiter, request)\n",
     "    if True:\n"
     "        value = grant(waiter, request)\n"),
    ("serve-passes-a-head-it-cannot-serve", OBJECTS,
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
    ("cancel-wait-serves-nobody", OBJECTS,
     "        self.queue.remove(waiter)\n"
     "        return self.queue.serve(self._grant)\n",
     "        self.queue.remove(waiter)\n"
     "        return []\n"),
    ("mailbox-grants-the-oldest-message", OBJECTS,
     "        return heapq.heappop(self._messages)[2]\n",
     "        oldest = min(self._messages, key=lambda m: m[1])\n"
     "        self._messages.remove(oldest)\n"
     "        heapq.heapify(self._messages)\n"
     "        return oldest[2]\n"),
    # -- the idle thread's one endless segment
    ("idle-stretch-opens-with-continue-run", ENGINE,
     "                    seg.eem_uj, th.rec_event._value_))\n"
     "                self._record(TraceRecord(\n",
     "                    seg.eem_uj, EventKind.CONTINUE_RUN._value_))\n"
     "                self._record(TraceRecord(\n"),
    ("idle-stretch-repeats-one-row-too-many", ENGINE,
     "                    now - start - 1))\n",
     "                    now - start))\n"),
    ("idle-resumed-every-tick", ENGINE,
     "th.seg_left = _ENDLESS if req is _IDLE_SEGMENT else req.etm",
     "th.seg_left = req.etm"),
    # -- the scenario's data built in one walk of the YAML node tree
    ("walk-reads-every-scalar-as-its-text", SCENARIO,
     "            data = built[node] = value if tag == _STR else construct(node)\n",
     "            data = built[node] = value\n"),
    ("walk-without-duplicate-key-check", SCENARIO,
     "                if text in texts:\n",
     "                if False:\n"),
    ("walk-lets-aliases-through", SCENARIO,
     "            problems.append((path, \"YAML aliases are not supported\"))\n",
     "            pass\n"),
    ("walk-paths-hold-key-text", SCENARIO,
     "                here = path + (key,)\n",
     "                here = path + (text,)\n"),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_suite(tree: Path) -> tuple:
    """Run tier-1 in ``tree``: (verdict, detail), verdict one of
    "passed", "failed" or "finding"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
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
    """Copy the tree, apply ``mutant`` (file, old, new) if given, and
    run tier-1 on the copy."""
    with tempfile.TemporaryDirectory(prefix="rtksim-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, symlinks=True,
                        ignore=shutil.ignore_patterns(
                            ".git", "__pycache__", ".pytest_cache",
                            ".hypothesis", ".venv", "build", "*.egg-info"))
        if mutant is not None:
            file, old, new = mutant
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                return "finding", (f"stale: the text to replace occurs "
                                   f"{text.count(old)} times in {file}")
            path.write_text(text.replace(old, new))
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
