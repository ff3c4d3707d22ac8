"""The benchmark's reading path: `Call.read_trial` of perfbench/workloads.py
reads each trial back from its CSV, and its (converged, abort_t,
final_dist, steps) feed the benchmark's correctness check and step count.
Here they must equal what the trial's in-memory record says."""

import importlib.util
import math
import os
import sys

import pytest

from dynlearn import harness

ROOT = os.path.join(os.path.dirname(__file__), "..")
spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads  # its dataclass looks the module up there
spec.loader.exec_module(workloads)


def call_of(workload, arm, horizon=None):
    """The first call of arm in workload seed 0's round, at horizon when given."""
    call = next(c for c in workloads.build(workload, 0, os.path.join(ROOT, "configs")) if c.arm == arm)
    if horizon is not None:
        call = workloads.Call(call.arm, call.entry, call.cfg.with_overrides({"experiment.horizon": horizon}),
                              call.data_seed)
    return call


def in_memory(call):
    """{seed: (converged, abort_t, final_dist, steps)} of the call's one row,
    from the records harness.run_trials returns."""
    cfg = call.cfg
    grid = [(key.split(".", 1)[1], cfg.getlist(key)) for key in sorted(cfg.values) if key.startswith("sweep.")]
    ((_, _, row_cfg, error),) = harness._rows(cfg, False, grid)
    assert error is None
    tol = cfg.getfloat("experiment.tol", 1e-2)
    return {seed: (r.converged(tol), r.abort_t, r.final_dist(), call.horizon if r.abort_t is None else r.abort_t)
            for seed, r in harness.run_trials(row_cfg, call.seeds).items()}


@pytest.mark.parametrize("workload, arm, horizon", [
    ("tbptt_chain", "tbptt-fixed-1", 3000),
    ("small_state", "adam-adaptive", None),
])
def test_read_trial_matches_the_in_memory_records(workload, arm, horizon, tmp_path):
    call = call_of(workload, arm, horizon)
    call.invoke(str(tmp_path))
    want = in_memory(call)
    assert sorted(want) == sorted(call.seeds)
    for seed, (converged, abort_t, final, steps) in want.items():
        got = call.read_trial(str(tmp_path), seed)
        assert got[:2] == (converged, abort_t) and got[3] == steps
        assert got[2] == final or (math.isnan(got[2]) and math.isnan(final))
