"""The benchmark's traced run still sees every layer it instruments.

`perfbench/tracer.py` wraps the kernel's services, the engine's tick
hook and per-tick step, every thread generator and every body made by
`behavior.build_factory`.  A refactor that moves one of those hook points
changes the per-layer counts without changing any artifact, so this runs
traced `steady` and `wide` simulations at seed 1 and pins their counts,
the resumes of each service among them.  The modules are imported from
`perfbench/` as its scripts import them; the artifacts go to `tmp_path`
and nothing under `perfbench/` is written.
"""

from collections import Counter

from helpers import perfbench
from rtksim.trace import rows

SEED = 1

layers, pipeline, tracer, workloads = map(
    perfbench, ("layers", "pipeline", "tracer", "workloads"))


def service_resumes(probe):
    """Traced resumes of each kernel service, from its ``svc:<name>`` spans."""
    spans = probe.spans
    names = Counter(spans.names[nid] for nid in spans.name)
    return {name[len("svc:"):]: n for name, n in names.items()
            if name.startswith("svc:")}


def test_traced_steady_run_counts(tmp_path):
    name = "steady"
    probe = tracer.Probe()
    with probe.factories():
        run = pipeline.simulate(workloads.generate(name, SEED), f"{name}.yaml",
                                workloads.ARTIFACTS[name], tmp_path, probe=probe)
    assert run.elapsed == workloads.window(name)
    _times, spans = layers.layer_times(probe)   # raises unless they add up
    assert probe.counts["svc_calls"] == 6477
    assert spans == {"behavior": 10882, "resume": 10883}
    # an idle stretch is two records and a service's section one; the
    # CSV still has every row
    assert probe.counts["records"] == 14299
    assert run.texts["trace"].count("\n") - 1 == 25655
    assert service_resumes(probe) == {
        "bfm_call": 3152, "delay": 409, "flag_set": 774, "flag_wait": 1163,
        "mbf_recv": 902, "mbf_send": 600, "mbx_recv": 902, "mbx_send": 600,
        "mtx_lock": 873, "mtx_unlock": 872, "pool_get": 600,
        "pool_release": 600, "sem_signal": 774, "sem_wait": 1165,
        "sleep": 487, "vpool_get": 272, "vpool_release": 272, "wakeup": 174,
    }


def test_traced_wide_run_counts(tmp_path):
    # the hook points of the scheduling structures: preemptions, interrupt
    # entries and the longest wait queue
    name = "wide"
    probe = tracer.Probe()
    with probe.factories():
        run = pipeline.simulate(workloads.generate(name, SEED), f"{name}.yaml",
                                workloads.ARTIFACTS[name], tmp_path, probe=probe)
    assert run.elapsed == workloads.window(name)
    _times, spans = layers.layer_times(probe)
    assert probe.counts["svc_calls"] == 5479
    assert spans == {"behavior": 9415, "resume": 9416}
    assert probe.counts["records"] == 13557
    # a service's section is one record of three rows
    assert sum(r.repeat + 2 * bool(r.section) for r in run.records) == 25361
    assert sum(1 for _ in rows(run.records)) == 25361
    assert probe.counts["DISPATCH"] == 3218
    assert probe.counts["PREEMPT"] == 793
    assert probe.counts["INT_ENTER"] == 32
    assert probe.waitqueue_len_max == 96
    assert service_resumes(probe) == {
        "bfm_call": 64, "delay": 4532, "flag_clear": 64, "flag_set": 64,
        "flag_wait": 2457, "mtx_lock": 1544, "mtx_unlock": 1510,
        "sem_signal": 1510, "sem_wait": 1510,
    }
