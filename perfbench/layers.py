"""The traced run: per-layer metrics of one workload.

Untraced runs come first, to give the `wall_s` that the tracing overhead
is measured against; traced runs fill the rest of the time.  Every
number comes from the fastest traced run (see run.py for why the best
repetition), so the layer self times reported add up exactly to the
`bench.traced_run_s` reported beside them.  Layer times are raw host
times; `bench.calibration_us` is the host-speed calibration of the same
invocation, which scales them as run.py scales the end-to-end times.  Counts are exact and repeat
in every run of a seed.  A traced run fails when its artifacts differ
from the untraced ones, or when its layer self times do not add up to
its run phase (`run` + `finish`).
"""

from __future__ import annotations

import gc
import tracemalloc

import harness
import pipeline
from tracer import MUTEX_SERVICES, Probe

# span name -> per-layer metric summing its self time within the run phase
RUN_LAYERS = {
    "run": "engine.self_s",
    "hook": "kernel.tick_hook_s",
    "resume": "behavior.self_s",
    "behavior": "behavior.self_s",
    "waitqueue": "objects.waitqueue_s",
    "bfm.perform": "bfm.perform_s",
    "sink": "trace.sink_s",
}
SVC_LAYER = "kernel.svc_s"
MUTEX_LAYER = "kernel.mutex_svc_s"
# root spans outside the run phase, reported with their whole duration
SETUP_LAYERS = {"parse": "scenario.parse_s", "build": "scenario.build_s",
                "boot": "kernel.boot_s"}
ARTIFACT_LAYERS = {layer: kind for kind, (_f, layer, _r)
                   in reversed(pipeline.RENDERERS.items())}


def layer_times(probe):
    """(seconds per layer, span counts) of one traced simulation.

    Raises AssertionError when the run phase's layers do not add up.
    """
    ns = dict.fromkeys(set(RUN_LAYERS.values()) | {SVC_LAYER}, 0)
    mutex_ns = 0
    spans = {"resume": 0, "behavior": 0}
    run_ns = None
    for name, dur, self_ns in probe.spans.self_times():
        if name in SETUP_LAYERS or name in ARTIFACT_LAYERS:
            ns[SETUP_LAYERS.get(name, name)] = dur
            continue
        if name == "run":
            run_ns = dur
        if name.startswith("svc:"):
            ns[SVC_LAYER] += self_ns
            if name[4:] in MUTEX_SERVICES:
                mutex_ns += self_ns
        else:
            ns[RUN_LAYERS[name]] += self_ns
        if name in spans:
            spans[name] += 1
    summed = sum(ns[k] for k in set(RUN_LAYERS.values()) | {SVC_LAYER})
    if summed != run_ns:
        raise AssertionError(
            f"layer self times add up to {summed} ns, run phase is {run_ns} ns")
    ns[MUTEX_LAYER] = mutex_ns
    ns["bench.traced_run_s"] = run_ns
    return {k: v / 1e9 for k, v in ns.items()}, spans


def retained_bytes_per_tick(bench):
    """Memory the run phase leaves allocated (records and all), per tick."""
    gc.collect()
    scn, kernel = pipeline.setup(bench.text, bench.filename, pipeline.ListSink())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel.run(scn.run_ticks)
        kernel.finish()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / scn.run_ticks


def _percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _fastest_traced(bench, seconds):
    """Traced runs for ``seconds`` of their own wall time.

    Returns the fastest one as (run, probe, layer seconds, span counts),
    or None when none succeeded.
    """
    best = None
    done = 0
    spent = 0.0
    while done < harness.MIN_REPS or spent < seconds:
        if bench.too_many_failures():
            break
        probe = Probe()
        with probe.factories():
            run = bench.attempt(probe=probe, full_check=not done)
        if run is None:
            continue
        try:
            times, spans = layer_times(probe)
        except AssertionError as exc:
            bench.count([str(exc)])
            continue
        done += 1
        spent += run.wall_s
        if best is None or run.wall_s < best[0].wall_s:
            best = (run, probe, times, spans)
    return best


def traced(bench, seconds):
    bench.attempt(full_check=True)
    plain = harness.timed_runs(bench, seconds / 3)
    best = _fastest_traced(bench, seconds * 2 / 3) if plain else None
    if best is None:
        return {}
    run, probe, times, spans = best

    # renderers this workload does not request, timed on the same data
    requested = {pipeline.RENDERERS[k][1] for k in bench.artifacts}
    for layer in sorted(set(ARTIFACT_LAYERS) - requested):
        with probe.span(layer):
            pipeline.RENDERERS[ARTIFACT_LAYERS[layer]][2](run)
        times[layer] = (probe.spans.end[-1] - probe.spans.start[-1]) / 1e9
    probe.spans.write_csv(bench.outdir / "spans.csv")

    metric = harness.metric
    out = {name: metric(value, "s") for name, value in times.items()}
    ticks = sorted(probe.tick_ns)
    c = probe.counts
    out.update({
        "kernel.svc_calls": metric(c["svc_calls"], "count"),
        "objects.waitqueue_len_max": metric(probe.waitqueue_len_max, "count"),
        "engine.tick_us.p50": metric(_percentile(ticks, 0.50) / 1e3, "us"),
        "engine.tick_us.p99": metric(_percentile(ticks, 0.99) / 1e3, "us"),
        "engine.tick_us.samples": metric(len(ticks), "count"),
        "engine.resumes": metric(spans["resume"], "count"),
        "engine.dispatches": metric(c["DISPATCH"], "count"),
        "engine.preemptions": metric(c["PREEMPT"], "count"),
        "engine.int_entries": metric(c["INT_ENTER"], "count"),
        "engine.dropped_irqs": metric(c["dropped_irqs"], "count"),
        "behavior.resumes": metric(spans["behavior"], "count"),
        "trace.records": metric(c["records"], "count"),
        "trace.records_per_tick": metric(c["records"] / run.elapsed, "1/tick"),
        "trace.bytes_per_tick": metric(retained_bytes_per_tick(bench), "B/tick"),
        "bfm.accesses": metric(c["bfm_accesses"], "count"),
        "bench.calibration_us": metric(min(bench.calibration) * 1e6, "us"),
        "bench.tracing_overhead": metric(
            run.wall_s / min(r.wall_s for r in plain), "ratio"),
    })
    return dict(sorted(out.items()))
