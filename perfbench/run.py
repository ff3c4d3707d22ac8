"""dynlearn benchmark: learner steps per second on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload small_state --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): small_state, rnn_dense,
tbptt_chain. Every workload is a closed loop: one caller in one process,
`jobs=1`, and the next trial starts when the previous one ends.

--trace 0  runs warm-up, then rounds of the workload's calls until
           --seconds of call time have been measured, and reports
           steps_per_s (one round's steps over the round's time with every
           arm at its median seconds per step), setup_s (median of several
           fresh-interpreter set-ups) and peak_rss_mb. Every timing is
           rescaled to the host's reference speed (hostspeed.py).
--trace 1  runs the same untraced rounds, then one traced round, and
           reports the per-layer metrics. The traced round must write trial
           CSVs byte-identical to the untraced ones.

Every trial's (converged, abort_t, final_dist) is checked against
reference.json. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

`--write-reference` recomputes reference.json from the current library; it
is for a change that deliberately alters results, never for a failing run.
"""

import os

# BLAS threads are pinned before numpy is first imported: with default
# threads the dense workload's timings moved by a quarter between runs.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_REPEATS = 9
REL_TOL = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def _bootstrap():
    """Import dynlearn from this checkout's src/, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "dynlearn", "__init__.py")):
        raise BenchError(f"no dynlearn sources under {SRC}")
    sys.path.insert(0, SRC)
    import dynlearn

    if os.path.dirname(os.path.dirname(os.path.abspath(dynlearn.__file__))) != SRC:
        raise BenchError(f"imported dynlearn from {dynlearn.__file__}, not from {SRC}")


@dataclass
class Trial:
    call: object
    seed: int
    result: tuple | None  # (converged, abort_t, final_dist, steps)
    error: str | None


@dataclass
class Round:
    """One pass over the workload's calls; the last timed round may stop
    early, so its lists can be shorter than the calls. `seconds` is wall
    time; `call_seconds` are at the host's reference speed (hostspeed.py)."""

    seconds: float = 0.0
    call_seconds: list = field(default_factory=list)
    call_steps: list = field(default_factory=list)
    trials: list = field(default_factory=list)

    @property
    def steps(self):
        return sum(self.call_steps)


def run_round(calls, outdir, host, tracer=None, after_call=None, stop=None):
    """Each call once, timed from outside between two runs of the `host`
    kernel; results are read afterwards. `after_call()` runs untimed after
    each call; the round ends before a call when `stop(round)` is true."""
    rnd = Round()
    for call in calls:
        if stop is not None and stop(rnd):
            break
        shutil.rmtree(call.exp_dir(outdir), ignore_errors=True)
        if tracer is not None:
            tracer.arm = call.arm
            tracer.trial = (call.arm, None)

        def invoke(call=call):
            start = time.perf_counter()
            try:
                call.invoke(outdir)
            except Exception as exc:  # a raising trial is counted as failed
                return f"{type(exc).__name__}: {exc}", time.perf_counter() - start
            return None, time.perf_counter() - start

        (error, elapsed), scale = host.around(invoke)
        rnd.seconds += elapsed
        rnd.call_seconds.append(elapsed * scale)
        call_steps = 0
        for seed in call.seeds:
            result, trial_error = None, error
            if error is None:
                try:
                    result = call.read_trial(outdir, seed)
                except (OSError, ValueError, KeyError) as exc:
                    trial_error = f"unreadable trial output: {exc}"
            rnd.trials.append(Trial(call, seed, result, trial_error))
            call_steps += result[3] if result else 0
        rnd.call_steps.append(call_steps)
        if after_call is not None:
            after_call()
    return rnd


def check(trial, reference):
    """None when the trial matches its reference, else the reason."""
    if trial.error is not None:
        return trial.error
    key = trial.call.trial_key(trial.seed)
    expected = reference.get(key)
    if expected is None:
        return f"no reference for {key}"
    converged, abort_t, final, _ = trial.result
    ref_conv, ref_abort, ref_final = expected
    if (converged, abort_t) != (ref_conv, ref_abort):
        return f"{key}: (converged, abort_t) = {(converged, abort_t)}, reference {(ref_conv, ref_abort)}"
    if abs(final - ref_final) > REL_TOL * abs(ref_final):
        return f"{key}: final_dist {final!r}, reference {ref_final!r}"
    return None


def count_failures(rounds, reference):
    failed = 0
    for rnd in rounds:
        for trial in rnd.trials:
            reason = check(trial, reference)
            if reason is not None:
                failed += 1
                print(f"FAILED {reason}", file=sys.stderr)
    return failed


def timed_rounds(calls, outdir, host, seconds, after_call=None):
    """Calls, round after round, until `seconds` of wall call time; the
    first round is always whole. `after_call()` runs untimed after each call."""
    rounds = []
    while not rounds or sum(r.seconds for r in rounds) < seconds:
        before = sum(r.seconds for r in rounds)
        stop = (lambda rnd: before + rnd.seconds >= seconds) if rounds else None
        rounds.append(run_round(calls, outdir, host, after_call=after_call, stop=stop))
    return rounds


def seconds_per_step(rounds, calls, arm):
    """Median over the arm's calls in all rounds of its seconds per step,
    at the host's reference speed."""
    return statistics.median(r.call_seconds[i] / r.call_steps[i]
                             for r in rounds for i in range(len(r.call_seconds))
                             if calls[i].arm == arm and r.call_steps[i])


def steps_per_s(rounds, calls):
    """One round's steps over the round's time with every arm at its median
    seconds per step."""
    steps = rounds[0].call_steps
    per_step = {arm: seconds_per_step(rounds, calls, arm) for arm in {c.arm for c in calls}}
    return sum(steps) / sum(n * per_step[call.arm] for call, n in zip(calls, steps))


def warm_up(calls, outdir):
    """Lazy numpy/BLAS set-up and first-call costs, outside the timing."""
    for call in calls:
        call.shortened(5).invoke(outdir)


def setup_probe(workload, seed, profile):
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), profile,
         os.path.join(OUT, workload, "setup")],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine_info():
    import numpy as np

    def first_line(path, prefix=""):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            return None
        return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "l2_cache": first_line("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ[v] for v in BLAS_VARS},
        "blas_threads": _blas_threads(),
    }


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def arm_us_per_step(rounds, calls, arm):
    return seconds_per_step(rounds, calls, arm) * 1e6 if any(c.arm == arm for c in calls) else 0.0


def layer_metrics(tracer, traced, plain_rounds, calls):
    """Per-layer metrics of one traced round (see BENCHMARK.json)."""
    import workloads
    from tracer import SYSTEM_METHODS

    t = tracer
    steps_us = sorted(d / 1e3 for d in t.step_ns)
    dyn_calls = sum(t.calls(n) for n in set(SYSTEM_METHODS.values()))
    # The last whole round before the traced one ran in the nearest host phase.
    plain_wall = [r for r in plain_rounds if len(r.call_seconds) == len(calls)][-1].seconds
    m = {
        "harness.self_s": (t.self_s("harness.run_experiment", "harness.run_sweep", "harness.run_trial"), "s"),
        "harness.trials": (t.trials, "count"),
        "harness.aborted_trials": (t.aborted_trials, "count"),
    }
    for arms in workloads.ARMS.values():
        for arm in arms:
            m[f"harness.arm_us_per_step.{arm}"] = (arm_us_per_step(plain_rounds, calls, arm), "us/step")
    m.update({
        "schedules.sample_indices.self_s": (t.self_s("schedules.sample_indices"), "s"),
        "schedules.eta.calls": (t.calls("schedules.eta"), "count"),
        "schedules.eta.self_s": (t.self_s("schedules.eta"), "s"),
        "rtrl.steps": (t.calls("rtrl.rtrl_step"), "count"),
        "rtrl.self_s": (t.self_s("rtrl.run_learning", "rtrl.rtrl_step"), "s"),
        "rtrl.step_us_p50": (percentile(steps_us, 0.50), "us"),
        "rtrl.step_us_p99": (percentile(steps_us, 0.99), "us"),
    })
    for fn in ("transition", "d_transition_ds", "d_transition_dtheta", "loss"):
        m[f"dynamics.{fn}.calls"] = (t.calls(f"dynamics.{fn}"), "count")
        m[f"dynamics.{fn}.self_s"] = (t.self_s(f"dynamics.{fn}"), "s")
    m.update({
        "dynamics.calls_per_step": (dyn_calls / traced.steps if traced.steps else 0.0, "calls/step"),
        "rankone.reductions": (t.calls("rankone.reduce"), "count"),
        "rankone.self_s": (t.self_s("rankone.next_error", "rankone.reduce", "rankone.error_term"), "s"),
        "rankone.reduce.self_s": (t.self_s("rankone.reduce"), "s"),
        "rankone.error_term.self_s": (t.self_s("rankone.error_term"), "s"),
        "tbptt.intervals": (t.intervals, "count"),
        "tbptt.self_s": (t.self_s("tbptt.run_tbptt"), "s"),
        "updates.rule.calls": (t.calls("updates.rule"), "count"),
        "updates.rule.self_s": (t.self_s("updates.rule"), "s"),
        "updates.phi.self_s": (t.self_s("updates.phi"), "s"),
        "records.rows": (t.calls("records.add"), "count"),
        "records.add.self_s": (t.self_s("records.add"), "s"),
        "records.csv.self_s": (t.self_s("records.csv"), "s"),
        "records.csv_bytes": (t.csv_bytes, "B"),
        "trace.wall_s": (traced.seconds, "s"),
        "trace.overhead_frac": (traced.seconds / plain_wall - 1.0, "ratio"),
    })
    return m


def same_outputs(calls, dir_a, dir_b):
    """True when both runs wrote byte-identical files for every call."""
    for call in calls:
        a, b = call.exp_dir(dir_a), call.exp_dir(dir_b)
        files_a = sorted(os.path.relpath(os.path.join(d, f), a) for d, _, fs in os.walk(a) for f in fs)
        files_b = sorted(os.path.relpath(os.path.join(d, f), b) for d, _, fs in os.walk(b) for f in fs)
        if not files_a or files_a != files_b:
            return False
        _, mismatch, errors = filecmp.cmpfiles(a, b, files_a, shallow=False)
        if mismatch or errors:
            return False
    return True


def write_reference(profiles=("full", "smoke")):
    import workloads
    from hostspeed import HostSpeed

    host = HostSpeed("scalar")
    trials = {}
    for workload in workloads.WORKLOADS:
        for profile in profiles:
            for calls in workloads.every_input(workload, CONFIGS, profile):
                rnd = run_round(calls, os.path.join(OUT, "reference", workload), host)
                for trial in rnd.trials:
                    if trial.error is not None:
                        raise BenchError(f"reference trial failed: {trial.error}")
                    converged, abort_t, final, _ = trial.result
                    trials[trial.call.trial_key(trial.seed)] = [converged, abort_t, final]
            print(f"reference: {workload} {profile} done", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"trials": dict(sorted(trials.items()))}, fh, indent=0)
        fh.write("\n")


def benchmark(args):
    import workloads
    from hostspeed import HostSpeed

    calls = workloads.build(args.workload, args.seed, CONFIGS, args.profile)
    with open(REFERENCE) as fh:
        reference = json.load(fh)["trials"]
    out = os.path.join(OUT, args.workload)
    print("machine " + json.dumps(machine_info()), flush=True)

    host = HostSpeed(workloads.HOST_KERNEL[args.workload])
    # Set-up is interpreter start and imports, which the host slows as it
    # slows the scalar kernel. It is probed between calls, evenly over the
    # run, so that its samples fall in different phases of the host's speed.
    setup_host = HostSpeed("scalar")
    setups = []
    start = time.perf_counter()

    def probe_setup():
        due = start + len(setups) * args.seconds / SETUP_REPEATS
        if not args.trace and len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            seconds, scale = setup_host.around(lambda: setup_probe(args.workload, args.seed, args.profile))
            setups.append(seconds * scale)

    probe_setup()
    warm_up(calls, os.path.join(out, "warmup"))
    plain_dir = os.path.join(out, "plain")
    rounds = timed_rounds(calls, plain_dir, host, args.seconds, probe_setup)
    while not args.trace and len(setups) < SETUP_REPEATS:
        probe_setup()
    all_rounds = list(rounds)

    same = True
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(calls, os.path.join(out, "traced"), host, tracer)
        finally:
            tracer.uninstall()
        all_rounds.append(traced)
        same = same_outputs(calls, plain_dir, os.path.join(out, "traced"))
        if not same:
            print("FAILED traced round wrote different trial CSVs", file=sys.stderr)
        if tracer.missing:
            print("untraced (not in the library): " + ", ".join(tracer.missing), file=sys.stderr)
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump(tracer.span_dump(), fh)
        metrics = layer_metrics(tracer, traced, rounds, calls)
    else:
        metrics = {
            "steps_per_s": (steps_per_s(rounds, calls), "steps/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    attempted = sum(len(r.trials) for r in all_rounds)
    failed = count_failures(all_rounds, reference)
    print(f"rounds {len(rounds)} untraced, {sum(r.seconds for r in rounds):.3f} s measured, steps/s per round: "
          + " ".join(f"{r.steps / r.seconds:.1f}" for r in rounds))
    print("us/step per arm: " + " ".join(
        f"{arm} {arm_us_per_step(rounds, calls, arm):.2f}" for arm in dict.fromkeys(c.arm for c in calls)))
    print(f"fail_frac {failed / attempted!r} ratio ({failed} of {attempted} trials)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("small_state", "rnn_dense", "tbptt_chain"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (picks trial and data seeds)")
    parser.add_argument("--seconds", type=float, default=30.0, help="wall call time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="smoke: tiny horizons, for checking the benchmark itself")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json from the current library")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        _bootstrap()
        if args.write_reference:
            write_reference()
        else:
            benchmark(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
