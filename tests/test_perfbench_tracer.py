"""The benchmark's tracer (perfbench/tracer.py) times the library by
replacing its module attributes and class methods from outside. A name it
patches that the library renames or deletes either stops `install()` or
reads 0 in every traced round, so here every target must still be there
(the two names listed in STALE are gone already and only reported),
a traced run must count its trials and learner calls, and `uninstall()`
must put every original back."""

import importlib.util
import inspect
import os
import sys

from dynlearn import dynamics, harness, rankone, records, rtrl, schedules
from dynlearn.harness import ExperimentConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
tracer = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracer
spec.loader.exec_module(tracer)

STALE = {"dynlearn.rtrl.rtrl_step", "RankOneInjector.next_error"}

# Everything the tracer may patch: modules, classes and the reducer table.
OWNERS = [harness, rtrl, rankone, rankone._REDUCERS, rankone.RankOneInjector, schedules.StepSchedule,
          records.RecordBuilder, records.TrialRecord] + [
    cls for cls in vars(dynamics).values()
    if isinstance(cls, type) and issubclass(cls, dynamics.System) and not inspect.isabstract(cls)]


def table(owner):
    return owner if isinstance(owner, dict) else vars(owner)


def test_tracer_targets_exist_count_a_run_and_are_restored(tmp_path):
    cfg = ExperimentConfig({
        "experiment.name": "traced", "experiment.seeds": "0,1", "experiment.horizon": "20",
        "system.n_samples": "8", "system.dim": "3",
        "arms.uoro": "algorithm.name=uoro", "arms.tbptt": "algorithm.name=tbptt"})
    before = [dict(table(owner)) for owner in OWNERS]
    t = tracer.Tracer()
    t.install()
    try:
        patched = [(owner, attr, before[i][attr]) for i, owner in enumerate(OWNERS)
                   for attr, value in table(owner).items() if before[i].get(attr) is not value]
        assert len(patched) == len(t._patches)  # no patch lands outside OWNERS
        assert set(t.missing) <= STALE
        harness.run_experiment(cfg, str(tmp_path))
    finally:
        t.uninstall()
    # The looped arms go through run_trial once per seed, and each trial
    # calls its learner through the harness name the tracer patched.
    assert t.trials == 4
    assert t.calls("rtrl.run_learning") == 2 and t.calls("tbptt.run_tbptt") == 2
    assert t.calls("harness.run_experiment") == 1
    for owner, attr, original in patched:
        assert table(owner)[attr] is original, attr
