"""The benchmark's three workloads, each a list of calls into dynlearn.

A workload seed picks, from small fixed pools, the trial seeds and data
seeds that are written into the configs; the library only ever sees the
resulting configs. The pools are small on purpose: the result of every
trial any seed can select is stored in `reference.json` and checked on
every run.

Every arm is its own `run_experiment` / `run_sweep` call, so its wall time
can be taken from outside the library. Each call gets its own
`experiment.name`, which keeps the arms' output directories apart (the
name is part of the config hash, so it also keys the random streams).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from dynlearn import harness
from dynlearn.harness import ExperimentConfig
from dynlearn.records import TrialRecord

WORKLOADS = ("small_state", "rnn_dense", "tbptt_chain")

# Horizons of the full benchmark and of the smoke check. small_state is
# cut from the shipped 100k steps; tbptt_chain keeps its shipped 20k.
HORIZONS = {
    "full": {"small_state": 4000, "rnn_n32": 200, "rnn_n64": 60, "tbptt_chain": 20000},
    "smoke": {"small_state": 40, "rnn_n32": 8, "rnn_n64": 4, "tbptt_chain": 200},
}

# Seed pools. A window index k picks the trial seeds of every call.
SMALL_STATE_WINDOWS = 6      # seeds (2k, 2k+1)
SMALL_STATE_DATA = (1234, 5, 6, 7)
RNN_WINDOWS = 4              # seed k
RNN_DATA = (77, 78, 79)
RNN_ALGORITHMS = ("rtrl", "uoro", "nobacktrack", "tbptt")
RNN_SIZES = (32, 64)
TBPTT_WINDOWS = 4            # seeds (3k, 3k+1, 3k+2)
TBPTT_SPECS = ("fixed:1", "grow:0.2", "grow:0.4")

# The kernel of hostspeed.py that the host slows as it slows the workload.
HOST_KERNEL = {"small_state": "scalar", "rnn_dense": "dense", "tbptt_chain": "scalar"}


def _label(text: str) -> str:
    """Arm name usable inside a metric name ('grow:0.2' -> 'grow-0.2')."""
    return text.replace(":", "-")


ARMS = {
    "small_state": ["sgd-cycling", "sgd-iid", "adam-adaptive", "adam-fixed"],
    "rnn_dense": [f"{algo}-n{n}" for n in RNN_SIZES for algo in RNN_ALGORITHMS],
    "tbptt_chain": [f"tbptt-{_label(spec)}" for spec in TBPTT_SPECS],
}


@dataclass
class Call:
    """One public entry-point call: every seed of one arm."""

    arm: str
    entry: str  # "run_experiment" or "run_sweep"
    cfg: ExperimentConfig
    data_seed: int | None

    @property
    def seeds(self):
        return self.cfg.seeds

    @property
    def horizon(self):
        return self.cfg.horizon

    def invoke(self, outdir):
        # Looked up at call time so that a tracer can replace the attribute.
        return getattr(harness, self.entry)(self.cfg, outdir, jobs=1)

    def exp_dir(self, outdir):
        return os.path.join(outdir, self.cfg.name)

    def trial_key(self, seed):
        seeds = ",".join(str(s) for s in self.seeds)
        return f"{self.arm}|data={self.data_seed}|seeds={seeds}|T={self.horizon}|seed={seed}"

    def trial_csv(self, outdir, seed):
        exp_dir = self.exp_dir(outdir)
        if self.entry == "run_sweep":
            # A one-point sweep writes its trials under the point's label.
            (point,) = [d for d in os.listdir(exp_dir) if os.path.isdir(os.path.join(exp_dir, d))]
            exp_dir = os.path.join(exp_dir, point)
        return os.path.join(exp_dir, f"{seed}.csv")

    def read_trial(self, outdir, seed):
        """(converged, abort_t, final_dist, steps) of one finished trial."""
        record = TrialRecord.from_csv(self.trial_csv(outdir, seed))
        tol = self.cfg.getfloat("experiment.tol", 1e-2)
        final = record.final_dist()
        converged = record.abort_t is None and final <= tol
        steps = self.horizon if record.abort_t is None else record.abort_t
        return converged, record.abort_t, final, steps

    def shortened(self, horizon):
        """The same call at another horizon and a single seed (warm-up)."""
        cfg = self.cfg.with_overrides({
            "experiment.horizon": horizon,
            "experiment.seeds": self.seeds[0],
            "experiment.name": f"warmup-{self.arm}",
        })
        return Call(self.arm, self.entry, cfg, self.data_seed)


def _single_arm(cfg: ExperimentConfig, arm: str, label: str) -> ExperimentConfig:
    """The merged config of one [arms] entry, without the other arms."""
    merged = dict(cfg.arms())[arm]
    values = {k: v for k, v in merged.values.items() if not k.startswith("arms.")}
    values["experiment.name"] = label
    return ExperimentConfig(values)


def _small_state(configs, window, data_seed, horizons):
    seeds = f"{2 * window},{2 * window + 1}"
    common = {"experiment.horizon": horizons["small_state"], "experiment.seeds": seeds}
    sgd = ExperimentConfig.load(os.path.join(configs, "cycling_vs_iid.ini")).with_overrides(
        dict(common, **{"system.data_seed": data_seed}))
    adam = ExperimentConfig.load(os.path.join(configs, "adam_beta2.ini")).with_overrides(common)
    calls = [Call(f"sgd-{arm}", "run_experiment", _single_arm(sgd, arm, f"sgd-{arm}"), data_seed)
             for arm in ("cycling", "iid")]
    calls += [Call(f"adam-{arm}", "run_experiment", _single_arm(adam, arm, f"adam-{arm}"), None)
              for arm in ("adaptive", "fixed")]
    return calls


def _rnn_dense(configs, window, data_seed, horizons):
    base = ExperimentConfig.load(os.path.join(configs, "rnn_stability.ini"))
    calls = []
    for n in RNN_SIZES:
        for algo in RNN_ALGORITHMS:
            label = f"{algo}-n{n}"
            overrides = {
                "experiment.name": label,
                "experiment.seeds": window,
                "experiment.horizon": horizons[f"rnn_n{n}"],
                "system.n": n,
                "system.m": 1,
                "system.data_seed": data_seed,
                "algorithm.name": algo,
            }
            if algo == "tbptt":
                overrides["truncation.spec"] = "grow:0.4"
            calls.append(Call(label, "run_experiment", base.with_overrides(overrides), data_seed))
    return calls


def _tbptt_chain(configs, window, data_seed, horizons):
    # One call per seed: a call of all three seeds takes seconds, too long
    # for the host-speed kernel runs around it to describe (hostspeed.py).
    base = ExperimentConfig.load(os.path.join(configs, "influence_balancing_tbptt.ini"))
    calls = []
    for spec in TBPTT_SPECS:
        label = f"tbptt-{_label(spec)}"
        for seed in range(3 * window, 3 * window + 3):
            cfg = base.with_overrides({
                "experiment.name": f"{label}-s{seed}",
                "experiment.seeds": seed,
                "experiment.horizon": horizons["tbptt_chain"],
                "sweep.truncation.spec": spec,
            })
            calls.append(Call(label, "run_sweep", cfg, None))
    return calls


_BUILDERS = {
    "small_state": (_small_state, SMALL_STATE_WINDOWS, SMALL_STATE_DATA),
    "rnn_dense": (_rnn_dense, RNN_WINDOWS, RNN_DATA),
    "tbptt_chain": (_tbptt_chain, TBPTT_WINDOWS, (None,)),
}


def build(workload: str, seed: int, configs: str, profile: str = "full"):
    """The calls of one round of `workload` for workload seed `seed`."""
    builder, windows, data_pool = _BUILDERS[workload]
    rng = random.Random(seed)
    window = rng.randrange(windows)
    data_seed = rng.choice(data_pool)
    return builder(configs, window, data_seed, HORIZONS[profile])


def every_input(workload: str, configs: str, profile: str = "full"):
    """Every round any workload seed can select (for writing the reference)."""
    builder, windows, data_pool = _BUILDERS[workload]
    for window in range(windows):
        for data_seed in data_pool:
            yield builder(configs, window, data_seed, HORIZONS[profile])
