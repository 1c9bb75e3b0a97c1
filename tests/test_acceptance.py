"""Acceptance gate: ten checks, one test (one pass/fail line) each.

Expected values come from sources independent of the production engine:
the brute-force tick-stepping simulator in tests/oracle.py, the
list-based object models in tests/test_objects.py, and literals frozen
below after hand-stepping the scheduler rules on paper.  The randomized
corpus shared by checks 1, 3 and 4 is built once per session.

Tolerances: tick counts, energies and trace bytes are compared exactly;
the only non-exact figure is the corpus wall-clock budget (60 s) and
the demo throughput smoke check, which warns instead of failing.
"""

import time
import warnings
from fractions import Fraction

import pytest
import yaml

from oracle import MUTEX_SEED_BASE, RefSim, generate_spec
from rtksim.debugds import dump_listing, parse_listing, take_snapshot
from rtksim.engine import Annotation
from rtksim.errors import SimError
from rtksim.kernel import Kernel
from rtksim.report import BatteryModel, build_report, render_text, usage_from_records
from rtksim.scenario import (
    build_kernel,
    demo_scenario_path,
    load_scenario,
    parse_scenario_text,
)
from rtksim.trace import (
    CSV_HEADER,
    CTL_CRIT_ENTER,
    CTL_CRIT_EXIT,
    CTL_DISPATCH,
    CTL_INT_ENTER,
    CTL_INT_RETURN,
    ListSink,
    NullSink,
    rows,
    running_vector,
)

import test_objects as obj

N_SEEDS = 1000                  # size of the randomized equivalence corpus
N_MUTEX_SEEDS = 600             # mutex systems, seeds from MUTEX_SEED_BASE
MIN_CRIT_EVENTS = 100_000       # service-call windows the atomicity scan must cover
# the windows the scan covers: those of the corpus seeds, then of as many
# more seeds as it takes to reach MIN_CRIT_EVENTS
CRIT_WINDOWS = 100_007
CORPUS_BUDGET_S = 60.0


# --------------------------------------------------------------------------
# random spec -> scenario YAML -> engine run

def stmt_to_yaml(op):
    k = op[0]
    if k == "compute":
        return {"compute": op[1]}
    if k == "sleep":
        raw = {"call": "sleep"}
        if op[1] is not None:
            raw["timeout"] = op[1]
        return raw
    if k == "delay":
        return {"call": "delay", "ticks": op[1]}
    if k == "wakeup":
        return {"call": "wakeup", "task": op[1]}
    if k == "sem_wait":
        raw = {"call": "sem_wait", "sem": op[1], "count": op[2]}
        if op[3] is not None:
            raw["timeout"] = op[3]
        return raw
    if k == "sem_signal":
        return {"call": "sem_signal", "sem": op[1], "count": op[2]}
    if k == "mtx_lock":
        raw = {"call": "mtx_lock", "mutex": op[1]}
        if op[2] is not None:
            raw["timeout"] = op[2]
        return raw
    if k == "mtx_unlock":
        return {"call": "mtx_unlock", "mutex": op[1]}
    if k == "loop":
        raw = {"loop": "forever" if op[1] is None else True}
        if op[1] is not None:
            raw["count"] = op[1]
        raw["body"] = [stmt_to_yaml(s) for s in op[2]]
        return raw
    raise AssertionError(op)


def spec_to_raw(spec):
    raw = {
        "name": f"rnd{spec['seed']}",
        "run_ticks": spec["run_ticks"],
        "on_deadlock": "report",
        "svc_cost": {"etm": spec["svc_etm"], "eem": spec["svc_eem"] / 1000},
        "annotations": {
            lbl: {"etm": etm, "eem": eem / 1000}
            for lbl, (etm, eem) in spec["annotations"].items()
        },
        "tasks": [
            {"id": t["id"], "name": t["name"], "priority": t["priority"],
             "behavior": [stmt_to_yaml(s) for s in t["program"]]}
            for t in spec["tasks"]
        ],
    }
    handlers = []
    lines = set()
    for h in spec["handlers"]:
        entry = {"id": h["id"], "name": h["name"], "kind": h["kind"]}
        if h["kind"] == "isr":
            entry["device"] = "ctl"
            entry["line"] = h["line"]
            lines.add(h["line"])
        elif h["kind"] == "cyclic":
            entry["period"] = h["period"]
            entry["phase"] = h["phase"]
        else:
            entry["offset"] = h["offset"]
        entry["behavior"] = [stmt_to_yaml(s) for s in h["program"]]
        handlers.append(entry)
    if handlers:
        raw["handlers"] = handlers
    if lines:
        raw["devices"] = [{"name": "ctl", "kind": "intc", "lines": max(lines) + 1}]
    objects = {}
    if spec["semaphores"]:
        objects["semaphores"] = [dict(s) for s in spec["semaphores"]]
    if spec.get("mutexes"):
        objects["mutexes"] = [dict(m) for m in spec["mutexes"]]
    if objects:
        raw["objects"] = objects
    if spec["stimuli"]:
        raw["stimuli"] = [{"tick": t, "kind": "irq", "device": "ctl", "line": line}
                          for t, line in spec["stimuli"]]
    return raw


# libyaml's emitter writes the same text as yaml.safe_dump, ~4x faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def spec_to_yaml(spec):
    return yaml.dump(spec_to_raw(spec), Dumper=_DUMPER, sort_keys=False)


def run_engine(spec):
    """(running vector, per-thread totals, records, tick of the SimError
    that ended the run or None, the tasks' current priorities after every
    tick, the ticks the kernel coasted past without its tick hook).

    The priorities are sampled after each tick hook, which runs only
    after a stepped tick.  A priority changes only inside a stepped tick
    or a hook, so a coasted tick carries the sample before it forward.
    """
    scn = parse_scenario_text(spec_to_yaml(spec), filename=f"rnd{spec['seed']}")
    k = build_kernel(scn)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink, report_sink=None)
    k.boot()
    tasks = [k.engine.thread(t["id"]) for t in sorted(spec["tasks"], key=lambda t: t["id"])]
    samples = []   # (tick, the tasks' priorities after its hook)
    timer_tick = k.engine.on_tick

    def on_tick(now):
        timer_tick(now)
        samples.append((now, tuple(th.current_priority for th in tasks)))

    k.engine.on_tick = on_tick
    error_tick = None
    try:
        k.run(spec["run_ticks"])
    except SimError:
        error_tick = k.engine.now
    k.finish()
    priorities = []
    for i, (tick, prios) in enumerate(samples):
        upto = samples[i + 1][0] if i + 1 < len(samples) else k.engine.now + 1
        priorities += [prios] * (upto - tick)
    vec = running_vector(sink.records, spec["run_ticks"])
    totals = {th.id: (th.token.cet, th.token.cee_uj)
              for th in k.engine.threads()}
    coasted = k.engine.now - len(samples)
    return vec, totals, sink.records, error_tick, priorities, coasted


def scan_atomicity(records):
    """(service-call windows seen, dispatch rows landing inside one),
    over the records' rows: a service's section is one record of its
    CRIT_ENTER row, its segment and its CRIT_EXIT row."""
    depth = 0
    windows = 0
    violations = 0
    for r in rows(records):
        if r.label == CTL_CRIT_ENTER:
            depth += 1
            windows += 1
        elif r.label == CTL_CRIT_EXIT:
            depth -= 1
        elif r.label == CTL_DISPATCH and depth > 0:
            violations += 1
    return windows, violations


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    mismatched = []
    unconserved = []
    errored = 0
    coverage = dict.fromkeys(("chain3", "cycle", "withdrawn"), 0)
    crit_windows = 0
    crit_violations = 0
    coasting_seeds = 0
    seeds = [*range(N_SEEDS),
             *range(MUTEX_SEED_BASE, MUTEX_SEED_BASE + N_MUTEX_SEEDS)]
    for seed in seeds:
        spec = generate_spec(seed)
        evec, etot, records, eerr, eprio, coasted = run_engine(spec)
        coasting_seeds += coasted > 0
        ref = RefSim(spec)
        rvec, rtot = ref.run()
        if (evec, etot, eerr, eprio) != (rvec, rtot, ref.error_tick,
                                         ref.priorities):
            mismatched.append(seed)
        ticks = spec["run_ticks"] if eerr is None else eerr
        if sum(cet for cet, _ in etot.values()) != ticks:
            unconserved.append(seed)
        errored += eerr is not None
        for key, reached in ref.coverage.items():
            coverage[key] += reached
        w, v = scan_atomicity(records)
        crit_windows += w
        crit_violations += v
    # keep generating engine-only runs until the atomicity scan has
    # covered enough service-call windows
    extra = N_SEEDS
    while crit_windows < MIN_CRIT_EVENTS and extra < 6 * N_SEEDS:
        records = run_engine(generate_spec(extra))[2]
        w, v = scan_atomicity(records)
        crit_windows += w
        crit_violations += v
        extra += 1
    return {
        "mismatched": mismatched,
        "unconserved": unconserved,
        "errored": errored,
        "coverage": coverage,
        "crit_windows": crit_windows,
        "crit_violations": crit_violations,
        "coasting_seeds": coasting_seeds,
        "wall_s": time.perf_counter() - t0,
    }


def test_01_scheduler_matches_reference_simulator(corpus):
    # per-tick running-thread vector, per-tick task priorities and final
    # per-thread CET/CEE must agree exactly with the brute-force
    # simulator on every seed
    assert corpus["mismatched"] == []
    assert corpus["wall_s"] < CORPUS_BUDGET_S
    # the mutex seeds reach transitive owner chains, deadlock cycles,
    # boosts withdrawn by a lock timeout, and runs cut short by an
    # unlock the kernel rejects
    assert min(corpus["coverage"].values()) >= 20, corpus["coverage"]
    assert corpus["errored"] >= 20
    # most seeds coast through quiet stretches, so the comparison covers
    # the coasted ticks as well as the stepped ones
    assert corpus["coasting_seeds"] >= 1000, corpus["coasting_seeds"]


# --------------------------------------------------------------------------
# delayed dispatching out of a nested interrupt

NESTED_SCENARIO = """\
name: nested
run_ticks: 16
svc_cost: {etm: 1, eem: 0}
annotations:
  bg: {etm: 8, eem: 0}
  hi: {etm: 2, eem: 0}
  h1: {etm: 2, eem: 0}
tasks:
  - id: 1
    name: HIGH
    priority: 1
    behavior:
      - {call: sleep}
      - {compute: hi}
  - id: 2
    name: LOW
    priority: 10
    behavior:
      - {compute: bg}
handlers:
  - id: 3
    name: ISR1
    kind: isr
    device: pic
    line: 0
    behavior:
      - {compute: h1}
  - id: 4
    name: ISR2
    kind: isr
    device: pic
    line: 1
    behavior:
      - {call: wakeup, task: 1}
devices:
  - {name: pic, kind: intc, lines: 2}
stimuli:
  - {tick: 2, kind: irq, device: pic, line: 0}
  - {tick: 3, kind: irq, device: pic, line: 1}
"""

# Hand-stepped timeline: ISR2 preempts ISR1 at tick 3 (depth 2) and its
# wakeup readies HIGH at tick 4, yet HIGH is dispatched only at tick 5,
# after both handler returns; LOW, outranked at that moment, resumes at 7.
NESTED_TRACE = """\
tick_start,tick_end,thread_id,thread_name,context_kind,label,etm_ticks,eem_mJ,event_kind
0,0,1,HIGH,STARTUP,DISPATCH,0,0,STARTUP
0,0,1,HIGH,TASK,CRIT_ENTER,0,0,
0,1,1,HIGH,SVC,svc,1,0,STARTUP
1,1,1,HIGH,TASK,CRIT_EXIT,0,0,
1,1,1,HIGH,TASK,BLOCK,0,0,
1,1,2,LOW,STARTUP,DISPATCH,0,0,STARTUP
1,2,2,LOW,TASK,bg,1,0,STARTUP
2,2,3,ISR1,ISR,INT_ENTER,0,0,STARTUP
2,3,3,ISR1,ISR,h1,1,0,STARTUP
3,3,4,ISR2,ISR,INT_ENTER,0,0,STARTUP
3,3,4,ISR2,ISR,CRIT_ENTER,0,0,
3,4,4,ISR2,SVC,svc,1,0,STARTUP
4,4,4,ISR2,ISR,CRIT_EXIT,0,0,
4,4,4,ISR2,ISR,INT_RETURN,0,0,RETURN_FROM_INTERRUPT
4,5,3,ISR1,ISR,h1,1,0,RETURN_FROM_INTERRUPT
5,5,3,ISR1,ISR,INT_RETURN,0,0,RETURN_FROM_INTERRUPT
5,5,1,HIGH,TASK,DISPATCH,0,0,SLEEP_ARRIVAL
5,7,1,HIGH,TASK,hi,2,0,SLEEP_ARRIVAL
7,7,1,HIGH,TASK,EXIT,0,0,
7,7,2,LOW,TASK,DISPATCH,0,0,RETURN_FROM_INTERRUPT
7,14,2,LOW,TASK,bg,7,0,RETURN_FROM_INTERRUPT
14,14,2,LOW,TASK,EXIT,0,0,
14,14,5,IDLE,STARTUP,DISPATCH,0,0,STARTUP
14,15,5,IDLE,IDLE,idle,1,0,STARTUP
15,16,5,IDLE,IDLE,idle,1,0,CONTINUE_RUN
"""


def _run_to_records(text, name):
    scn = parse_scenario_text(text, filename=name)
    k = build_kernel(scn)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(scn.run_ticks)
    k.finish()
    return k, sink.records


def test_02_nested_interrupt_delays_dispatch():
    _, records = _run_to_records(NESTED_SCENARIO, "nested.yaml")
    returns = [i for i, r in enumerate(records)
               if r.label == CTL_INT_RETURN]
    dispatch_high = [i for i, r in enumerate(records)
                     if r.label == CTL_DISPATCH and r.thread_id == 1
                     and r.tick_start > 0]
    assert len(returns) == 2 and len(dispatch_high) == 1
    assert dispatch_high[0] > max(returns)     # strictly after both returns
    got = CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in records)
    assert got == NESTED_TRACE


def test_03_no_dispatch_inside_critical_section(corpus):
    assert corpus["crit_windows"] == CRIT_WINDOWS
    assert corpus["crit_violations"] == 0


def test_04_cpu_time_is_conserved(corpus):
    # every tick of every corpus run is owned by exactly one thread
    assert corpus["unconserved"] == []


# --------------------------------------------------------------------------
# linear accumulation of a repeated segment

def test_05_repeated_segment_accumulates_linearly():
    etm, eem_uj = 3, 7
    for n in (1, 7, 100):
        k = Kernel(svc_etm=0, svc_eem_uj=0)
        ann = Annotation("s", etm, eem_uj)

        def worker(ctx, n=n):
            for _ in range(n):
                yield from ctx.api.wait(ann)

        k.declare_task(1, "W", 5, worker)
        k.boot()
        k.run(n * etm + 5)
        k.finish()
        tok = k.engine.thread(1).token
        assert tok.cet == n * etm, n
        assert tok.cee_uj == n * eem_uj, n


# --------------------------------------------------------------------------
# demo scenario

def _run_demo():
    scn = load_scenario(demo_scenario_path())
    k = build_kernel(scn)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(scn.run_ticks)
    k.finish()
    return k, sink.records


def _csv_text(records):
    return CSV_HEADER + "\n" + "".join(r.csv_row() + "\n" for r in records)


def test_06_demo_scenario_counts_and_stability():
    k, records = _run_demo()
    assert k.engine.now == 1000 and k.tick_us == 1000
    assert k.engine.thread(5).token.cycles == 100        # cyclic H1
    assert k.engine.thread(6).token.cycles == 1          # one-shot H2
    h2_entries = [r for r in records
                  if r.thread_id == 6 and r.label == CTL_INT_ENTER]
    assert [r.tick_start for r in h2_entries] == [500]
    # identical bytes on a second run
    _, again = _run_demo()
    assert _csv_text(records) == _csv_text(again)
    # the state dump survives a parse/render round trip
    listing = dump_listing(take_snapshot(k))
    assert dump_listing(parse_listing(listing)) == listing
    # throughput smoke check: warn, never fail
    k2 = build_kernel(load_scenario(demo_scenario_path()))
    k2.attach_sinks(trace_sink=NullSink())
    k2.boot()
    t0 = time.perf_counter()
    k2.run(1000)
    wall = time.perf_counter() - t0
    rate = 1000 / wall if wall > 0 else float("inf")
    print(f"demo throughput: {rate:.0f} ticks/s")
    if rate < 1e5:
        warnings.warn(f"demo throughput {rate:.0f} ticks/s below 1e5 smoke level")


# --------------------------------------------------------------------------
# system-level run time line in the state dump

def test_07_system_level_runtime_line():
    k = Kernel()                                 # 1 ms tick, 1-tick services

    def chatty(ctx):
        for _ in range(30):
            yield from ctx.kernel.sem_signal(1)

    k.declare_semaphore(1, 0)
    k.declare_task(1, "CHATTY", 5, chatty)
    k.boot()
    k.run(40)
    k.finish()
    text = dump_listing(take_snapshot(k))
    assert "  > Cumulative System Level Run Time (ms) = 30\n" in text


# --------------------------------------------------------------------------
# battery projection

def test_08_battery_projection_exact():
    battery = BatteryModel.from_wh(10)
    # 1 mJ per 1 ms tick, measured over three window sizes
    for window in (1, 7, 1000):
        life = battery.lifespan_ticks(window * 1000, window)
        assert life == Fraction(36_000_000)
        assert life.denominator == 1
    # a real run's distribution reconstructs the consumed total exactly
    k = Kernel(svc_etm=1, svc_eem_uj=250)
    hungry = Annotation("hungry", 2, 1500)

    def eater(ctx):
        while True:
            yield from ctx.api.wait(hungry)
            yield from ctx.kernel.sem_signal(1)

    k.declare_semaphore(1, 0)
    k.declare_task(1, "EATER", 5, eater)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    k.run(90)
    k.finish()
    usages = usage_from_records(sink.records)
    consumed = sum(u.cee_uj for u in usages)
    assert consumed == sum(th.token.cee_uj for th in k.engine.threads())
    rep = build_report(usages, run_ticks=90, tick_us=1000,
                       battery_uj=battery.capacity_uj)
    assert rep.total_cee_uj == consumed
    assert rep.remaining == Fraction(battery.capacity_uj - consumed,
                                     battery.capacity_uj)


# --------------------------------------------------------------------------
# kernel objects against the list models

def test_09_kernel_objects_match_list_models():
    counts = {}

    def check(kind, got, want, case):
        assert got == want, (kind, case)
        counts[kind] = counts.get(kind, 0) + 1

    for initial in (0, 1, 2):
        for seq in obj._enum(obj.SEM_ALPHA):
            if sum(1 for op in seq if op[0] == "acq") > 3:
                continue
            check("semaphore", obj.run_sem_impl(seq, initial),
                  obj.run_sem_oracle(seq, initial), (initial, seq))
    for initial in (0, 0b01):
        for seq in obj._enum(obj.FLAG_ALPHA):
            if sum(1 for op in seq if op[0] == "wait") > 3:
                continue
            check("flag", obj.run_flag_impl(seq, initial),
                  obj.run_flag_oracle(seq, initial), (initial, seq))
    for seq in obj._enum(obj.MBX_ALPHA):
        if sum(1 for op in seq if op[0] == "recv") > 3:
            continue
        check("mailbox", obj.run_mbx_impl(seq), obj.run_mbx_oracle(seq), seq)
    for seq in obj._enum(obj.MBF_ALPHA):
        check("buffer", obj.run_mbf_impl(seq), obj.run_mbf_oracle(seq), seq)
    for seq in obj._enum(obj.MTX_ALPHA):
        check("mutex", obj.run_mtx_impl(seq), obj.run_mtx_oracle(seq), seq)
    for seq in obj._enum(obj.FPL_ALPHA):
        check("fixed pool", obj.run_fpl_impl(seq), obj.run_fpl_oracle(seq), seq)
    for seq in obj._enum(obj.VPL_ALPHA):
        check("variable pool", obj.run_vpl_impl(seq),
              obj.run_vpl_oracle(seq), seq)
    assert len(counts) == 7
    assert all(c >= 300 for c in counts.values()), counts


# --------------------------------------------------------------------------
# determinism of every artifact

def test_10_artifacts_are_deterministic(tmp_path):
    def artifacts():
        scn = load_scenario(demo_scenario_path())
        k = build_kernel(scn)
        sink = ListSink()
        k.attach_sinks(trace_sink=sink)
        k.boot()
        k.run(scn.run_ticks)
        k.finish()
        usages = usage_from_records(sink.records)
        rep = build_report(usages, run_ticks=scn.run_ticks, tick_us=scn.tick_us,
                           battery_uj=scn.battery_uj)
        return (_csv_text(sink.records), render_text(rep),
                dump_listing(take_snapshot(k)))

    first = artifacts()
    second = artifacts()
    assert first == second

    # stepping one tick at a time must reproduce the free run exactly
    scn = load_scenario(demo_scenario_path())
    k = build_kernel(scn)
    sink = ListSink()
    k.attach_sinks(trace_sink=sink)
    k.boot()
    while k.engine.now < scn.run_ticks:
        k.step()
    k.finish()
    assert _csv_text(sink.records) == first[0]
