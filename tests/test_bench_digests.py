"""The benchmark workloads at seed 1 reproduce their committed digests.

Runs each workload of `perfbench/` once through `pipeline.simulate`, as
`rtk-sim run` would, and compares the sha256 of every artifact with
`perfbench/digests.json`.  This checks byte identity on the benchmark's
scenarios without running the benchmark.  The modules are loaded from
their files and nothing under `perfbench/` is written.
"""

import json

import pytest

from helpers import PERFBENCH, perfbench

SEED = 1

pipeline, workloads = perfbench("pipeline"), perfbench("workloads")
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_artifacts_match_committed_digests(name, tmp_path):
    text = workloads.generate(name, SEED)
    run = pipeline.simulate(text, f"{name}.yaml", workloads.ARTIFACTS[name],
                            tmp_path)
    assert run.elapsed == workloads.window(name)
    assert run.digests() == DIGESTS[name]
