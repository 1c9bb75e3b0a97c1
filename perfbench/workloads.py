"""Seeded scenario generators for the benchmark workloads.

Each generator returns scenario YAML text; rtksim sees nothing else.  The
seed moves timings, payloads and energy figures by small amounts while
the structure (thread set, objects, statement mix, window) stays fixed,
so the host work per run barely depends on the seed.

Every generated scenario runs its whole window without a deadlock and
without a DeviceError:

* serial output FIFOs hold at least one byte per tick of the window, so
  they cannot overflow (a write costs at least one tick);
* no thread ever holds two resources at once, so waits cannot form a
  cycle, and every blocking wait has a producer driven by a timer or
  by a thread that never blocks forever;
* memory addresses stay inside the declared size.
"""

from __future__ import annotations

import random

WORKLOADS = ("steady", "sparse", "wide")

# artifacts each workload asks for, in the order the CLI writes them
ARTIFACTS = {
    "steady": ("trace", "device_log", "dump", "report_text", "gantt_svg"),
    "sparse": ("trace", "report_json"),
    "wide": ("dump", "report_text"),
}

# simulated window at scale 1.0: long enough for thousands of scheduling
# decisions, short enough that one run takes well under a second, so a
# timed benchmark run holds dozens of them (see run.py on noisy hosts)
WINDOW = {"steady": 12_000, "sparse": 60_000, "wide": 8_000}


def generate(name: str, seed: int, scale: float = 1.0) -> str:
    """Scenario YAML for workload ``name``; same arguments, same text."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    return _emit(_GENERATORS[name](rng, window(name, scale)))


def window(name: str, scale: float = 1.0) -> int:
    """Simulated ticks of workload ``name`` at ``scale``."""
    return max(200, int(WINDOW[name] * scale))


# ----------------------------------------------------------------------
# YAML emission: block structure, flow style for scalar-only mappings

def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return str(v)
    if isinstance(v, str) and v.replace("_", "").replace(".", "").isalnum():
        return v
    raise ValueError(f"value needs quoting: {v!r}")


def _flat(d) -> bool:
    return isinstance(d, dict) and all(
        not isinstance(v, (dict, list)) for v in d.values())


def _flow(d: dict) -> str:
    return "{" + ", ".join(f"{k}: {_scalar(v)}" for k, v in d.items()) + "}"


def _emit_value(key_prefix: str, value, indent: str, out: list):
    if isinstance(value, dict):
        if _flat(value):
            out.append(f"{key_prefix} {_flow(value)}")
            return
        out.append(key_prefix)
        for k, v in value.items():
            _emit_value(f"{indent}  {k}:", v, indent + "  ", out)
    elif isinstance(value, list):
        out.append(key_prefix)
        for item in value:
            if _flat(item):
                out.append(f"{indent}  - {_flow(item)}")
                continue
            first = True
            for k, v in item.items():
                lead = f"{indent}  - " if first else f"{indent}    "
                _emit_value(f"{lead}{k}:", v, indent + "    ", out)
                first = False
    else:
        out.append(f"{key_prefix} {_scalar(value)}")


def _emit(doc: dict) -> str:
    out = []
    for k, v in doc.items():
        _emit_value(f"{k}:", v, "", out)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# statement helpers

def _call(service, **args):
    return {"call": service, **args}


def _loop(*body):
    return {"loop": "forever", "body": list(body)}


def _payload(rng) -> str:
    return "m%04x" % rng.randrange(0x10000)


def _mj(rng, lo_uj, hi_uj) -> float:
    """An energy figure in mJ with micro-joule resolution."""
    return rng.randrange(lo_uj, hi_uj + 1) / 1000


def _header(name, window, rng):
    return {
        "name": name,
        "tick_us": 1000,
        "cycles_per_tick": 12000,
        "run_ticks": window,
        "battery_wh": 10,
        "svc_cost": {"etm": 1, "eem": _mj(rng, 1, 4)},
    }


def _spread(rng, window, mean_gap, jitter, start=5):
    """Ticks from ``start`` to the window's end, ``mean_gap`` +- ``jitter``."""
    ticks = []
    t = start + rng.randrange(mean_gap)
    while t < window:
        ticks.append(t)
        t += mean_gap + rng.randint(-jitter, jitter)
    return ticks


# ----------------------------------------------------------------------
# steady: dense traffic through every object kind and device kind

def _steady(rng, window):
    doc = _header("steady", window, rng)
    doc["annotations"] = {
        "sense": {"etm": 1, "eem": _mj(rng, 10, 30)},
        "filter": {"etm": 2, "eem": _mj(rng, 30, 60)},
        "log": {"etm": 1, "eem": _mj(rng, 5, 15)},
        "control": {"etm": 2, "eem": _mj(rng, 20, 40)},
        "monitor": {"etm": 3, "eem": _mj(rng, 40, 80)},
        "house": {"etm": 2, "eem": _mj(rng, 10, 30)},
        "bg": {"etm": 3, "eem": _mj(rng, 20, 50)},
        "isr_work": {"etm": 1, "eem": _mj(rng, 5, 15)},
        "tick_work": {"etm": 1, "eem": _mj(rng, 2, 8)},
    }
    addr = lambda: rng.randrange(0, 4096, 4)  # noqa: E731 - aligned to width 4
    byte = lambda: rng.randrange(256)          # noqa: E731
    doc["tasks"] = [
        {"id": 1, "name": "SENSE", "priority": 3, "behavior": [_loop(
            _call("flg_wait", flag=1, pattern=1, mode="or", clear=True),
            {"bfm": "pio.scan"},
            {"compute": "sense"},
            _call("mbf_send", buffer=1, payload=_payload(rng)),
            _call("sem_signal", sem=1),
        )]},
        {"id": 2, "name": "FILTER", "priority": 4, "behavior": [_loop(
            _call("mbf_recv", buffer=1),
            {"compute": "filter"},
            _call("pool_get", pool=1, **{"as": "blk"}),
            _call("mbx_send", mailbox=1, payload=_payload(rng),
                  priority=rng.randrange(4)),
            _call("pool_rel", pool=1, ref="blk"),
        )]},
        {"id": 3, "name": "LOGGER", "priority": 5, "behavior": [_loop(
            _call("mbx_recv", mailbox=1),
            {"compute": "log"},
            {"bfm": "uart.tx", "value": byte()},
            {"bfm": "mem.wr", "addr": addr(), "value": byte()},
        )]},
        {"id": 4, "name": "CTRL", "priority": 4, "behavior": [_loop(
            _call("sem_wait", sem=1),
            _call("mtx_lock", mutex=1),
            {"compute": "control"},
            {"bfm": "pio.out", "value": byte()},
            _call("mtx_unlock", mutex=1),
        )]},
        {"id": 5, "name": "MONITOR", "priority": 6, "behavior": [_loop(
            _call("delay", ticks=57 + rng.randrange(6)),
            _call("mtx_lock", mutex=1),
            {"compute": "monitor"},
            _call("mtx_unlock", mutex=1),
            _call("vpool_get", pool=2, size=16 + rng.randrange(32),
                  **{"as": "region"}),
            {"compute": "log"},
            _call("vpool_rel", pool=2, ref="region"),
        )]},
        {"id": 6, "name": "COMM", "priority": 5, "behavior": [_loop(
            _call("flg_wait", flag=2, pattern=3, mode="or", clear=True),
            {"bfm": "uart.rx"},
            {"compute": "log"},
            _call("sem_signal", sem=2),
        )]},
        {"id": 7, "name": "HOUSE", "priority": 4, "behavior": [_loop(
            _call("sem_wait", sem=2),
            {"compute": "house"},
            {"bfm": "mem.rd", "addr": addr()},
            _call("wakeup", task=8),
        )]},
        {"id": 8, "name": "BG", "priority": 7, "behavior": [_loop(
            _call("sleep", timeout=60 + rng.randrange(10)),
            {"compute": "bg"},
            {"bfm": "mem.rd", "addr": addr()},
        )]},
        {"id": 9, "name": "IDLE", "idle": True},
    ]
    alarms = sorted(rng.sample(range(window // 8, window), 3))
    doc["handlers"] = [
        {"id": 10, "name": "TICK40", "kind": "cyclic", "period": 40,
         "phase": 3 + rng.randrange(10), "behavior": [
             _call("flg_set", flag=1, pattern=1)]},
        {"id": 11, "name": "TICK50", "kind": "cyclic", "period": 50,
         "phase": 7 + rng.randrange(20), "behavior": [
             {"compute": "tick_work"}]},
        {"id": 12, "name": "RXISR", "kind": "isr", "device": "intc",
         "line": 0, "behavior": [
             {"compute": "isr_work"},
             _call("flg_set", flag=2, pattern=1)]},
        {"id": 13, "name": "KEYISR", "kind": "isr", "device": "intc",
         "line": 1, "behavior": [
             {"bfm": "pio.scan"},
             _call("flg_set", flag=2, pattern=2)]},
    ] + [
        {"id": 14 + i, "name": f"ALARM{i}", "kind": "alarm", "offset": off,
         "behavior": [{"compute": "isr_work"}]}
        for i, off in enumerate(alarms)
    ]
    doc["objects"] = {
        "semaphores": [{"id": 1, "initial": 0}, {"id": 2, "initial": 0}],
        "flags": [{"id": 1, "initial": 0}, {"id": 2, "initial": 0}],
        "mutexes": [{"id": 1}],
        "mailboxes": [{"id": 1}],
        "buffers": [{"id": 1, "capacity": 24}],
        "fixed_pools": [{"id": 1, "blocks": 2, "block_size": 32}],
        "variable_pools": [{"id": 2, "size": 128}],
    }
    doc["devices"] = [
        {"name": "mem", "kind": "memory", "size": 4096, "width": 4,
         "accesses": {"rd": {"op": "read", "cycles": 6000, "eem": _mj(rng, 2, 6)},
                      "wr": {"op": "write", "cycles": 9000, "eem": _mj(rng, 3, 9)}}},
        {"name": "uart", "kind": "serial_io", "capacity": window,
         "accesses": {"tx": {"op": "write", "cycles": 12000, "eem": _mj(rng, 10, 30)},
                      "rx": {"op": "read", "cycles": 12000, "eem": _mj(rng, 5, 15)}}},
        {"name": "pio", "kind": "parallel_io",
         "accesses": {"scan": {"op": "in", "cycles": 4000, "eem": _mj(rng, 2, 6)},
                      "out": {"op": "out", "cycles": 12000, "eem": _mj(rng, 5, 15)}}},
        {"name": "intc", "kind": "intc", "lines": 2, "accesses": {}},
    ]
    stimuli = []
    for t in _spread(rng, window, 200, 50):
        stimuli.append((t, {"kind": "irq", "device": "intc", "line": 0}))
        if rng.random() < 0.1:  # a burst: the second request finds RXISR queued
            stimuli.append((t, {"kind": "irq", "device": "intc", "line": 0}))
    for t in _spread(rng, window, 500, 100):
        stimuli.append((t, {"kind": "irq", "device": "intc", "line": 1}))
    for t in _spread(rng, window, 800, 150):
        stimuli.append((t, {"kind": "serial_in", "device": "uart", "value": byte()}))
    for t in _spread(rng, window, 1600, 300):
        stimuli.append((t, {"kind": "pio_set", "device": "pio", "value": byte()}))
    stimuli.sort(key=lambda p: p[0])
    doc["stimuli"] = [{"tick": t, **s} for t, s in stimuli]
    return doc


# ----------------------------------------------------------------------
# sparse: a few long segments and long sleeps, idle most of the window.
# One flag, one mutex and one device access per few thousand ticks keep
# every layer measurable at almost no cost.

def _sparse(rng, window):
    doc = _header("sparse", window, rng)
    doc["annotations"] = {
        "batch": {"etm": 300 + rng.randrange(40), "eem": _mj(rng, 3000, 6000)},
        "crunch": {"etm": 150 + rng.randrange(30), "eem": _mj(rng, 1500, 3000)},
        "scrub": {"etm": 200 + rng.randrange(30), "eem": _mj(rng, 1000, 2000)},
        "beat": {"etm": 2, "eem": _mj(rng, 5, 15)},
    }
    doc["tasks"] = [
        {"id": 1, "name": "BATCH", "priority": 3, "behavior": [_loop(
            {"compute": "batch"},
            {"bfm": "nvm.wr", "addr": rng.randrange(256),
             "value": rng.randrange(256)},
            _call("delay", ticks=2400 + rng.randrange(200)),
        )]},
        {"id": 2, "name": "CRUNCH", "priority": 5, "behavior": [_loop(
            _call("flg_wait", flag=1, pattern=1, mode="or", clear=True),
            {"compute": "crunch"},
        )]},
        {"id": 3, "name": "SCRUB", "priority": 8, "behavior": [_loop(
            _call("delay", ticks=5000 + rng.randrange(400)),
            _call("mtx_lock", mutex=1),
            {"compute": "scrub"},
            _call("mtx_unlock", mutex=1),
        )]},
        {"id": 4, "name": "IDLE", "idle": True},
    ]
    doc["handlers"] = [
        {"id": 5, "name": "BEAT", "kind": "cyclic", "period": 3600,
         "phase": 100 + rng.randrange(100), "behavior": [
             {"compute": "beat"},
             _call("flg_set", flag=1, pattern=1)]},
    ]
    doc["objects"] = {"flags": [{"id": 1, "initial": 0}],
                      "mutexes": [{"id": 1}]}
    doc["devices"] = [
        {"name": "nvm", "kind": "memory", "size": 256,
         "accesses": {"wr": {"op": "write", "cycles": 24000,
                             "eem": _mj(rng, 20, 40)}}},
    ]
    return doc


# ----------------------------------------------------------------------
# wide: ~96 tasks over the whole priority range.  Four cyclic pulses each
# release a quarter of them at once.  Each released task holds a
# priority-inheritance mutex, then a counting semaphore, across a short
# delay, so the tasks behind it queue and the holder inherits their
# priority.  Resources are taken one at a time, so waits form no cycle.

WIDE_TASKS = 96
WIDE_GROUPS = 4
WIDE_MUTEXES = 8
WIDE_SEMAPHORES = 4
WIDE_PULSE = 1000  # a group needs ~9 CPU ticks per task per pulse: ~86% load


def _wide(rng, window):
    doc = _header("wide", window, rng)
    doc["annotations"] = {
        f"w{k}": {"etm": 1, "eem": _mj(rng, 5, 40)} for k in range(6)
    }
    prios = [1 + (i * 139) // (WIDE_TASKS - 1) for i in range(WIDE_TASKS)]
    rng.shuffle(prios)
    tasks = []
    for i in range(WIDE_TASKS):
        # every group shares every mutex and semaphore with the others
        mtx = 1 + (i // WIDE_GROUPS) % WIDE_MUTEXES
        sem = 1 + (i // WIDE_GROUPS) % WIDE_SEMAPHORES
        tasks.append({"id": i + 1, "name": f"T{i + 1:03d}",
                      "priority": prios[i], "behavior": [_loop(
                          _call("flg_wait", flag=1,
                                pattern=1 << (i % WIDE_GROUPS), mode="or"),
                          _call("mtx_lock", mutex=mtx),
                          {"compute": f"w{rng.randrange(6)}"},
                          _call("delay", ticks=2),
                          _call("mtx_unlock", mutex=mtx),
                          _call("sem_wait", sem=sem),
                          {"compute": f"w{rng.randrange(6)}"},
                          _call("delay", ticks=1),
                          _call("sem_signal", sem=sem),
                      )]})
    tasks.append({"id": WIDE_TASKS + 1, "name": "IDLE", "idle": True})
    doc["tasks"] = tasks
    step = WIDE_PULSE // WIDE_GROUPS
    doc["handlers"] = [
        {"id": WIDE_TASKS + 2 + g, "name": f"PULSE{g}", "kind": "cyclic",
         "period": WIDE_PULSE, "phase": 1 + g * step + rng.randrange(step // 4),
         "behavior": [{"bfm": "pio.scan"},
                      _call("flg_set", flag=1, pattern=1 << g),
                      _call("flg_clear", flag=1, mask=0xFFFFFFFF ^ (1 << g))]}
        for g in range(WIDE_GROUPS)
    ]
    doc["devices"] = [
        {"name": "pio", "kind": "parallel_io",
         "accesses": {"scan": {"op": "in", "cycles": 6000,
                               "eem": _mj(rng, 2, 6)}}},
    ]
    doc["objects"] = {
        "semaphores": [{"id": s + 1, "initial": 2}
                       for s in range(WIDE_SEMAPHORES)],
        "flags": [{"id": 1, "initial": 0}],
        "mutexes": [{"id": m + 1} for m in range(WIDE_MUTEXES)],
    }
    return doc


_GENERATORS = {"steady": _steady, "sparse": _sparse, "wide": _wide}
