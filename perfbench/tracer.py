"""Span tracer that times calls into dynlearn's modules from outside.

`Tracer.install()` replaces module attributes and class methods of the
library with timing wrappers; `Tracer.uninstall()` puts the originals
back. No file of the library is edited. Each wrapper records a span
(name, start, end, parent span) and adds to a per-name aggregate of
calls and self time, where self time is the span's duration
minus the part covered by its child spans.

Spans of one trial share the trial id (arm, seed). Full spans are kept
only for the first `window` spans of each trial; the aggregates cover
everything, because a round makes millions of calls.
"""

from __future__ import annotations

import inspect
import os
from array import array
from time import perf_counter_ns

from dynlearn import dynamics, harness, rankone, records, rtrl, schedules

# System method -> span name; `loss` and `d_loss_ds` share one name.
SYSTEM_METHODS = {
    "transition": "dynamics.transition",
    "d_transition_ds": "dynamics.d_transition_ds",
    "d_transition_dtheta": "dynamics.d_transition_dtheta",
    "loss": "dynamics.loss",
    "d_loss_ds": "dynamics.loss",
}


class _Proxy:
    """Stands in for an update rule or a parameter-update operator and
    times its `apply`; any other attribute goes to the target."""

    def __init__(self, target, apply):
        self._target = target
        self.apply = apply

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Tracer:
    def __init__(self, window: int = 256):
        self.window = window
        self.arm = None
        self.trial = (None, None)
        self.agg = {}            # span name -> [calls, self_ns]
        self.spans = {}          # trial id -> [(id, parent, name, start_ns, end_ns)]
        self.step_ns = array("q")
        self.trials = 0
        self.aborted_trials = 0
        self.intervals = 0
        self.csv_bytes = 0
        self.missing = []        # patch targets the library no longer has
        self._stack = []         # [child_ns, span_id] of the open spans
        self._next_id = 0
        self._patches = []
        self._proxies = {}

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, durations=None):
        """fn wrapped in a span called `name`."""
        agg = self.agg.setdefault(name, [0, 0])
        stack = self._stack
        spans = self.spans
        window = self.window

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if durations is not None:
                    durations.append(dur)
                kept = spans.setdefault(self.trial, [])
                if len(kept) < window:
                    kept.append((frame[1], parent, name, start, end))

        return traced

    def calls(self, name):
        return self.agg.get(name, (0, 0))[0]

    def self_s(self, *names):
        return sum(self.agg.get(n, (0, 0))[1] for n in names) / 1e9

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr, make):
        """Set owner.attr to make(original); dicts are patched by key."""
        table = owner if isinstance(owner, dict) else vars(owner)
        original = table.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{attr}")
            return
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = make(original)
        else:
            setattr(owner, attr, make(original))

    def _patch(self, owner, attr, name, durations=None):
        self._replace(owner, attr, lambda fn: self.wrap(name, fn, durations))

    def _proxy(self, target, name):
        if target is None:
            return None
        cached = self._proxies.get(name)
        if cached is None or cached[0] is not target:
            cached = (target, _Proxy(target, self.wrap(name, target.apply)))
            self._proxies[name] = cached
        return cached[1]

    def install(self):
        for entry in ("run_experiment", "run_sweep"):
            self._patch(harness, entry, f"harness.{entry}")
        self._replace(harness, "run_trial", self._trial_wrapper)
        self._patch(harness, "run_learning", "rtrl.run_learning")
        self._patch(harness, "run_tbptt", "tbptt.run_tbptt")
        self._patch(harness, "sample_indices", "schedules.sample_indices")
        self._replace(rtrl, "rtrl_step", self._step_wrapper)
        self._patch(rankone, "error_term", "rankone.error_term")
        self._patch(rankone.RankOneInjector, "next_error", "rankone.next_error")
        # Injectors copy their reducer when built, so patch before any trial.
        for key in list(rankone._REDUCERS):
            self._patch(rankone._REDUCERS, key, "rankone.reduce")
        for cls in vars(dynamics).values():
            if (isinstance(cls, type) and issubclass(cls, dynamics.System)
                    and not inspect.isabstract(cls)):
                for method, name in SYSTEM_METHODS.items():
                    if method in vars(cls):
                        self._patch(cls, method, name)
        self._patch(schedules.StepSchedule, "eta", "schedules.eta")
        self._patch(records.RecordBuilder, "add", "records.add")
        self._replace(records.TrialRecord, "to_csv", self._csv_wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _trial_wrapper(self, run_trial):
        timed = self.wrap("harness.run_trial", run_trial)

        def traced_trial(cfg, seed, *args, **kwargs):
            self.trial = (self.arm, seed)
            try:
                record = timed(cfg, seed, *args, **kwargs)
            finally:
                self.trial = (self.arm, None)
                self._proxies.clear()
            self.trials += 1
            self.aborted_trials += record.abort_t is not None
            if record.interval_k is not None and len(record.interval_k):
                # the last row carries the index of the last interval run
                self.intervals += int(record.interval_k[-1])
            return record

        return traced_trial

    def _step_wrapper(self, rtrl_step):
        timed = self.wrap("rtrl.rtrl_step", rtrl_step, durations=self.step_ns)
        proxy = self._proxy

        def traced_step(sys, ls, eta_t, rule=None, phi=None, *args, **kwargs):
            return timed(sys, ls, eta_t, proxy(rule, "updates.rule"),
                         proxy(phi, "updates.phi"), *args, **kwargs)

        return traced_step

    def _csv_wrapper(self, to_csv):
        timed = self.wrap("records.csv", to_csv)

        def traced_csv(record, path, *args, **kwargs):
            out = timed(record, path, *args, **kwargs)
            self.csv_bytes += os.path.getsize(path)
            return out

        return traced_csv

    # -- output -----------------------------------------------------------

    def span_dump(self):
        """Kept spans, grouped by trial, as JSON-ready data."""
        return [
            {"arm": arm, "seed": seed,
             "spans": [dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s)) for s in kept]}
            for (arm, seed), kept in self.spans.items()
        ]
