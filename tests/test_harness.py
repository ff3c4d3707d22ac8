"""Config round-trip, trial determinism, CLI contracts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dynlearn.cli import main as cli_main
from dynlearn.dynamics import ConfigurationError
from dynlearn.harness import ExperimentConfig, run_experiment, run_sweep, run_trial, run_trials
from dynlearn.records import TrialRecord
from dynlearn.schedules import ALGORITHM_CLASSES

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def small_config(**extra):
    values = {
        "experiment.name": "smoke",
        "experiment.seeds": "0,1",
        "experiment.horizon": "400",
        "experiment.record_every": "10",
        "system.kind": "linear_regression",
        "system.n_samples": "8",
        "system.dim": "3",
        "system.noise": "0.1",
        "system.data_seed": "5",
        "algorithm.name": "sgd",
        "schedule.gamma": "0.1",
        "schedule.b": "0.5",
        "sampling.scheme": "cycling",
        "init.theta0": "near_optimum",
        "init.radius": "0.3",
    }
    values.update({k: str(v) for k, v in extra.items()})
    return ExperimentConfig(values)


def test_config_ini_roundtrip(tmp_path):
    cfg = small_config()
    text = cfg.to_ini()
    back = ExperimentConfig.from_ini(text)
    assert back.values == cfg.values
    assert back.hash == cfg.hash


def test_trial_determinism():
    cfg = small_config()
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    assert np.array_equal(a.theta_dist, b.theta_dist)
    assert np.array_equal(a.final_theta, b.final_theta)
    c = run_trial(cfg, 1)
    assert not np.array_equal(a.final_theta, c.final_theta)


@pytest.mark.parametrize("algo", ["sgd", "uoro", "nobacktrack", "rmsprop", "adam", "ong"])
def test_all_algorithms_run(algo):
    cfg = small_config(**{"algorithm.name": algo, "experiment.horizon": 200})
    rec = run_trial(cfg, 0)
    assert len(rec.t) > 1 and not rec.aborted


def test_tbptt_algorithm_runs():
    cfg = small_config(**{
        "algorithm.name": "tbptt",
        "system.kind": "influence_balancing",
        "system.s0": "stationary",
        "truncation.spec": "grow:0.4",
        "schedule.gamma": "0.05",
        "schedule.b": "0.7",
        "experiment.record_every": 1,  # tbptt records one row per interval
    })
    rec = run_trial(cfg, 0)
    assert rec.interval_k is not None


def test_run_experiment_files_and_determinism(tmp_path):
    cfg = small_config()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_experiment(cfg, str(out1), jobs=1)
    run_experiment(cfg, str(out2), jobs=2)
    for seed in (0, 1):
        f1 = out1 / "smoke" / f"{seed}.csv"
        f2 = out2 / "smoke" / f"{seed}.csv"
        assert f1.read_bytes() == f2.read_bytes()
    assert (out1 / "smoke" / "summary.csv").read_bytes() == (out2 / "smoke" / "summary.csv").read_bytes()


def test_run_experiment_arm_layout(tmp_path):
    cfg = small_config(**{
        "experiment.name": "two_arms",
        "arms.cycling": "sampling.scheme=cycling",
        "arms.iid": "sampling.scheme=iid; schedule.b=0.7",
    })
    exp_dir = run_experiment(cfg, str(tmp_path), jobs=1)
    csvs = sorted(
        os.path.join(root, f)
        for root, _, files in os.walk(exp_dir)
        for f in files if f.endswith(".csv") and f != "summary.csv"
    )
    assert len(csvs) == 4  # 2 arms x 2 seeds
    with open(os.path.join(exp_dir, "summary.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "arm,seed,converged,final_dist,abort_t"
    assert len(lines) == 5


def test_summary_matches_trial_csvs(tmp_path):
    cfg = small_config(**{"experiment.horizon": 2000, "experiment.record_every": 50})
    exp_dir = run_experiment(cfg, str(tmp_path), jobs=1)
    import csv as csvmod

    with open(os.path.join(exp_dir, "summary.csv")) as fh:
        rows = list(csvmod.DictReader(fh))
    for row in rows:
        rec = TrialRecord.from_csv(os.path.join(exp_dir, f"{row['seed']}.csv"))
        assert float(row["final_dist"]) == rec.final_dist()
        expected = int((not rec.aborted) and rec.final_dist() <= 1e-2)
        assert int(row["converged"]) == expected


def test_exponent_validation_blocks_run(tmp_path):
    cfg = small_config(**{
        "exponents.a": "0.55",
        "algorithm.name": "uoro",
        "schedule.b": "0.5",
    })
    with pytest.raises(ConfigurationError):
        run_experiment(cfg, str(tmp_path))
    run_experiment(cfg, str(tmp_path), force=True)  # runs when forced


def test_run_tbptt_validation_and_force(tmp_path):
    # The harness is the one exponent check of a TBPTT run.
    cfg = small_config(**{
        "experiment.seeds": "0", "experiment.horizon": 50,
        "system.kind": "influence_balancing", "system.n": 6, "system.n_plus": 2,
        "algorithm.name": "tbptt", "schedule.gamma": 0.05, "schedule.b": 0.7,
        "init.theta0": 0.3, "truncation.spec": "grow:0.55",
        "exponents.a": 0.2, "exponents.gamma_loss": 0.1,  # A above b - 2*gamma_loss
        "experiment.record_every": 1,  # tbptt records one row per interval
    })
    with pytest.raises(ConfigurationError):
        run_experiment(cfg, str(tmp_path))
    exp_dir = run_experiment(cfg, str(tmp_path), force=True)
    assert len(TrialRecord.from_csv(os.path.join(exp_dir, "0.csv")).t) > 1


def test_sweep_rows(tmp_path):
    cfg = small_config(**{
        "experiment.name": "grid",
        "experiment.horizon": 300,
        "sweep.schedule.b": "0.3, 0.5, 0.7, 0.9",
        "sweep.sampling.scheme": "cycling, iid",
    })
    exp_dir = run_sweep(cfg, str(tmp_path))
    with open(os.path.join(exp_dir, "sweep.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "sampling.scheme,schedule.b,mean_final_dist,converged_frac,error"
    assert len(lines) == 1 + 8


def test_sweep_files_identical_across_jobs(tmp_path, monkeypatch):
    # Seed-batched and looped arms and failing points, first as swept
    # algorithms, then as [arms] whose rows fail a check before any trial,
    # so that at jobs=4 each of the two valid rows is split in two chunks:
    # sweep.csv and every trial CSV at jobs=2 and 4 match jobs=1 byte for
    # byte. Four usable CPUs are reported, so that jobs=4 is not capped on
    # a smaller host.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    swept = small_config(**{
        "experiment.name": "gridjobs",
        "experiment.seeds": "0,1,2,3",
        "experiment.horizon": 200,
        "sweep.schedule.b": "0.5, 2.0",
        "sweep.algorithm.name": "sgd, uoro, adam",
    })
    arms = small_config(**{
        "experiment.name": "armjobs",
        "experiment.seeds": "0,1,2,3",
        "experiment.horizon": 200,
        "exponents.a": "0.05",
        "sweep.schedule.b": "0.6, 0.04",
        "arms.batched": "sampling.scheme=iid",
        "arms.looped": "algorithm.name=uoro",
    })
    for cfg, n_files, n_errors in ((swept, 1 + 3 * 4, 3), (arms, 1 + 2 * 4, 2)):
        dirs = [run_sweep(cfg, str(tmp_path / f"jobs{jobs}"), jobs=jobs) for jobs in (1, 2, 4)]
        files = [sorted(os.path.relpath(os.path.join(root, f), d)
                        for root, _, fs in os.walk(d) for f in fs) for d in dirs]
        assert files[0] == files[1] == files[2] and len(files[0]) == n_files
        for name in files[0]:
            a, *others = (Path(d, name).read_bytes() for d in dirs)
            assert all(a == b for b in others), name
        with open(os.path.join(dirs[0], "sweep.csv")) as fh:
            assert sum("ConfigurationError" in line for line in fh) == n_errors


def test_seed_chunks_spread_arms_before_seeds():
    # Arms or points fill the pool first; a seed-batched arm is never cut
    # below two seeds, a looped one may run one seed per task.
    from dynlearn.harness import _seed_chunks

    seeds = list(range(8))
    sgd, uoro = small_config(), small_config(**{"algorithm.name": "uoro"})
    assert _seed_chunks(sgd, seeds, 1, 1) == [seeds]
    assert _seed_chunks(sgd, seeds, 2, 2) == [seeds]
    assert _seed_chunks(sgd, seeds, 2, 1) == [seeds[:4], seeds[4:]]
    assert _seed_chunks(sgd, seeds, 8, 2) == [seeds[i:i + 2] for i in range(0, 8, 2)]
    assert _seed_chunks(sgd, seeds, 32, 1) == [seeds[i:i + 2] for i in range(0, 8, 2)]
    assert _seed_chunks(sgd, [3], 4, 1) == [[3]]
    assert _seed_chunks(uoro, seeds, 8, 1) == [[seed] for seed in seeds]
    assert _seed_chunks(uoro, seeds, 8, 3) == [seeds[:3], seeds[3:6], seeds[6:]]


def test_outputs_written_before_the_next_chunk_runs(tmp_path, monkeypatch):
    # A point's (or arm's) trial CSVs are on disk before the next task
    # starts, so the records of a long sweep are not all held at once.
    import dynlearn.harness as harness

    seen = []

    def job(run):
        def traced(args):
            seen.append(sorted(p.name for p in tmp_path.rglob("*.csv")))
            return run(args)
        return traced

    monkeypatch.setattr(harness, "_trials_job", job(harness._trials_job))
    run_sweep(small_config(**{"experiment.name": "stream", "experiment.horizon": 50,
                              "sweep.schedule.b": "0.5, 0.7"}), str(tmp_path / "sweep"))
    assert seen == [[], ["0.csv", "1.csv"]]
    seen.clear()
    run_experiment(small_config(**{"experiment.name": "arms", "experiment.horizon": 50,
                                   "arms.a": "schedule.b=0.5", "arms.b": "schedule.b=0.7"}),
                   str(tmp_path / "run"))
    assert seen == [["0.csv", "0.csv", "1.csv", "1.csv", "sweep.csv"],
                    ["0.csv", "0.csv", "0.csv", "1.csv", "1.csv", "1.csv", "sweep.csv"]]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    tasks, and runs them in this process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        RecordingPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, job, tasks):
        self.tasks = list(tasks)
        return map(job, self.tasks)


@pytest.mark.parametrize("affinity, cpu_count", [(2, 64), (None, 3)])
def test_jobs_capped_at_usable_cpus(affinity, cpu_count, tmp_path, monkeypatch):
    # jobs=8 asks for more workers than the process may use: the pool gets
    # the usable CPUs (affinity, or cpu_count without an affinity call),
    # and a seed-batched arm is cut into that many chunks, not eight.
    import concurrent.futures

    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cpus = affinity or cpu_count
    RecordingPool.made = []
    seeds = ",".join(str(i) for i in range(12))
    run_experiment(small_config(**{"experiment.seeds": seeds, "experiment.horizon": 20}),
                   str(tmp_path / "run"), jobs=8)
    run_sweep(small_config(**{"experiment.seeds": seeds, "experiment.horizon": 20,
                              "sweep.schedule.b": "0.5"}), str(tmp_path / "sweep"), jobs=8)
    assert [pool.max_workers for pool in RecordingPool.made] == [cpus, cpus]
    for pool in RecordingPool.made:
        assert [len(seeds) for _, seeds in pool.tasks] == [12 // cpus] * cpus


def test_sweep_partial_failure_recorded(tmp_path):
    cfg = small_config(**{
        "experiment.name": "gridfail",
        "experiment.horizon": 300,
        "sweep.schedule.b": "0.5, 2.0",  # 2.0 is out of range -> config error
    })
    exp_dir = run_sweep(cfg, str(tmp_path))
    with open(os.path.join(exp_dir, "sweep.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 3
    assert "ConfigurationError" in lines[2]


# --- CLI ---------------------------------------------------------------------

def write_config(tmp_path, cfg):
    path = tmp_path / "exp.ini"
    path.write_text(cfg.to_ini())
    return str(path)


def test_cli_run_and_determinism(tmp_path):
    path = write_config(tmp_path, small_config())
    code = cli_main(["run", path, "--out", str(tmp_path / "o1")])
    assert code == 0
    code = cli_main(["run", path, "--out", str(tmp_path / "o2"), "--jobs", "2"])
    assert code == 0
    a = (tmp_path / "o1" / "smoke" / "0.csv").read_bytes()
    b = (tmp_path / "o2" / "smoke" / "0.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_cli_jobs_below_1_exit_2(command, jobs, tmp_path, capsys):
    path = write_config(tmp_path, small_config(**{"sweep.schedule.b": "0.6"}))
    with pytest.raises(SystemExit) as exc:
        cli_main([command, path, "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert exc.value.code == 2 and f"expected an integer >= 1, got '{jobs}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_invalid_exponents_exit_2(tmp_path, capsys):
    cfg = small_config(**{"exponents.a": "0.55", "algorithm.name": "uoro",
                          "schedule.b": "0.5", "experiment.horizon": 50})
    path = write_config(tmp_path, cfg)
    code = cli_main(["run", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "b" in err
    code = cli_main(["run", path, "--out", str(tmp_path / "o"), "--force"])
    assert code == 0


FIXED_BETA2_AT_GAMMA_0 = ("algorithm.fixed_beta2 needs schedule.gamma > 0: its coupling "
                         "(1 - beta2)/eta_t is undefined at eta_t = 0")

# The last entry names the arm whose row check refuses the value ('main'
# in a config without [arms]), or is None for an error of the whole config.
BAD_VALUES = [
    ("experiment.record_every=0", "experiment.record_every", "rnn_stability.ini", "main"),
    ("experiment.horizon=0", "experiment.horizon", "rnn_stability.ini", "main"),
    ("init.theta0=1,2,3", "init.theta0", "rnn_stability.ini", "main"),
    ("experiment.seeds=0,abc", "experiment.seeds", "rnn_stability.ini", None),
    ("init.theta0=abc", "init.theta0", "influence_balancing_tbptt.ini", "main"),
    ("system.s0=1,abc", "system.s0", "influence_balancing_tbptt.ini", "main"),
    ("truncation.spec=fixed:abc", "truncation.spec", "influence_balancing_tbptt.ini", "main"),
    ("truncation.spec=grow:abc", "truncation.spec", "influence_balancing_tbptt.ini", "main"),
    ("algorithm.rule=precond:diag:1,x", "algorithm.rule", "cycling_vs_iid.ini", "cycling"),
    ("arms.iid=sampling.scheme", "arm 'iid':", "cycling_vs_iid.ini", None),
    ("schedule.gamma=nan", "schedule.gamma", "rnn_stability.ini", "main"),
    ("init.radius=inf", "init.radius", "rnn_stability.ini", "main"),
    ("algorithm.rule=precond:scale:inf", "algorithm.rule", "cycling_vs_iid.ini", "cycling"),
    ("experiment.seeds=18446744073709551616", "experiment.seeds must lie in [0, 2**63),", "rnn_stability.ini", None),
    ("experiment.seeds=0,-1", "experiment.seeds must lie in [0, 2**63),", "rnn_stability.ini", None),
]


def arm_prefix(arm):
    """How a run's row error begins: with the arm's name."""
    return "" if arm is None else f"arm {arm!r}: "


# The ids of the rnn_stability.ini cases leave out the config file.
@pytest.mark.parametrize("override, message, config, arm", BAD_VALUES, ids=[
    f"{o}-{m}" + ("" if c == "rnn_stability.ini" else f"-{c}") for o, m, c, _ in BAD_VALUES])
def test_cli_run_bad_value_exit_2(override, message, config, arm, tmp_path, capsys, monkeypatch):
    # Refused as a configuration error before the first learner step.
    import dynlearn.harness as harness

    def no_learning(*args, **kwargs):
        raise AssertionError("a learner ran on a bad config")

    monkeypatch.setattr(harness, "run_learning", no_learning)
    monkeypatch.setattr(harness, "run_tbptt", no_learning)
    code = cli_main(["run", os.path.join(CONFIG_DIR, config),
                     "--set", override, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {arm_prefix(arm)}{message} " in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


BAD_SEEDS = ["18446744073709551616", "9223372036854775808", "-1"]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_cli_run_bad_seed_flag_exit_2(seed, tmp_path, capsys, monkeypatch):
    # --seed is refused as --set experiment.seeds is (BAD_VALUES).
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad seed")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    code = cli_main(["run", os.path.join(CONFIG_DIR, "rnn_stability.ini"), "--seed", "0", seed,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: experiment.seeds must lie in [0, 2**63), got {seed}\n" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("seed", [int(s) for s in BAD_SEEDS])
def test_trial_entry_points_refuse_bad_seeds(seed, monkeypatch):
    import dynlearn.harness as harness

    # The largest seed a row holds as int64 runs.
    cfg = small_config(**{"experiment.horizon": "5"})
    assert list(run_trials(cfg, [0, 2**63 - 1])) == [0, 2**63 - 1]

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad seed")

    monkeypatch.setattr(harness, "_run", no_trials)
    for run in (lambda: run_trial(cfg, seed), lambda: run_trials(cfg, [0, seed])):
        with pytest.raises(ConfigurationError, match=r"experiment\.seeds must lie in \[0, 2\*\*63\)"):
            run()


def test_cli_run_checks_every_arm_exponents(tmp_path, capsys):
    # Only the second arm's step exponent breaks the declared exponents.
    path = write_config(tmp_path, small_config(**{
        "experiment.horizon": "50", "exponents.a": "0.05",
        "arms.good": "schedule.b=0.5", "arms.bad": "schedule.b=0.04"}))
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "arm 'bad': need max(a, gamma_loss) + 2*gamma_loss = 0.05 < b = 0.04" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert cli_main(["run", path, "--out", str(tmp_path / "o"), "--force"]) == 0
    assert (tmp_path / "o" / "smoke" / "bad" / "0.csv").exists()


def test_cli_sweep_bad_point_value_is_an_error_row(tmp_path):
    # A malformed value that one grid point sets fails that point alone.
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini"),
                     "--set", "sweep.truncation.spec=fixed:abc,grow:0.4",
                     "--set", "experiment.horizon=30", "--out", str(tmp_path / "o")])
    assert code == 0
    with open(tmp_path / "o" / "influence_balancing_tbptt" / "sweep.csv") as fh:
        lines = fh.read().strip().splitlines()
    # The error text holds a comma, so it is quoted as csv.writer quotes it.
    assert lines[1] == "fixed:abc,nan,0.0,\"ConfigurationError: truncation.spec must be an integer, got 'abc'\""
    assert lines[2].startswith("grow:0.4,") and lines[2].endswith(",")


def test_cli_run_checks_every_arm_count_first(tmp_path, capsys, monkeypatch):
    # The second arm's horizon fails before the first arm writes a CSV.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    path = write_config(tmp_path, small_config(**{
        "arms.a": "schedule.b=0.7", "arms.b": "experiment.horizon=0"}))
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "experiment.horizon must be >= 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("key", ["experiment.horizon", "experiment.record_every"])
def test_cli_sweep_grid_wide_bad_count_exit_2(key, tmp_path, capsys, monkeypatch):
    # No [sweep] entry sets the key, so every point would fail: the sweep
    # exits 2 before any trial runs and writes nothing.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini"),
                     "--set", f"{key}=0", "--out", str(out)])
    assert code == 2
    assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_non_numeric_value_exit_2(tmp_path, capsys, monkeypatch):
    import dynlearn.harness as harness

    def no_learning(*args, **kwargs):
        raise AssertionError("a learner ran on a bad config")

    monkeypatch.setattr(harness, "run_learning", no_learning)
    out = tmp_path / "o"
    code = cli_main(["run", os.path.join(CONFIG_DIR, "rnn_stability.ini"),
                     "--set", "schedule.gamma=abc", "--out", str(out)])
    assert code == 2
    assert "schedule.gamma must be a number, got 'abc'" in capsys.readouterr().err
    assert not list(out.rglob("*.csv"))


def test_cli_sweep_non_numeric_count_exit_2(tmp_path, capsys, monkeypatch):
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini"),
                     "--set", "experiment.horizon=abc", "--out", str(out)])
    assert code == 2
    assert "experiment.horizon must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_with_arms_layout(tmp_path):
    # A sweep runs every arm at every point: <point>/<arm>/<seed>.csv, and
    # one sweep.csv row per (point, arm) with the arm after the grid keys.
    out = tmp_path / "o"
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "cycling_vs_iid.ini"),
                     "--set", "sweep.schedule.gamma=0.1,0.2", "--set", "experiment.horizon=20",
                     "--set", "experiment.seeds=0", "--out", str(out)])
    assert code == 0
    exp_dir = out / "cycling_vs_iid"
    assert sorted(str(p.relative_to(exp_dir)) for p in exp_dir.rglob("*.csv")) == [
        "0p1/cycling/0.csv", "0p1/iid/0.csv", "0p2/cycling/0.csv", "0p2/iid/0.csv", "sweep.csv"]
    lines = (exp_dir / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "schedule.gamma,arm,mean_final_dist,converged_frac,error"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0.1", "cycling"], ["0.1", "iid"], ["0.2", "cycling"], ["0.2", "iid"]]
    assert all(line.endswith(",") for line in lines[1:])


def test_arms_sweep_trials_equal_run_experiment(tmp_path):
    # A key that no arm sets: each point's arm trials are the bytes that
    # run writes with that key set.
    cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, "cycling_vs_iid.ini")).with_overrides({
        "experiment.horizon": 300, "experiment.seeds": "0,1,2", "sweep.schedule.gamma": "0.1, 0.2"})
    sweep_dir = run_sweep(cfg, str(tmp_path / "sweep"))
    for gamma, label in (("0.1", "0p1"), ("0.2", "0p2")):
        run_dir = run_experiment(cfg.with_overrides({"schedule.gamma": gamma}), str(tmp_path / label))
        for arm in ("cycling", "iid"):
            for seed in (0, 1, 2):
                a = Path(sweep_dir, label, arm, f"{seed}.csv").read_bytes()
                assert a == Path(run_dir, arm, f"{seed}.csv").read_bytes(), (label, arm, seed)


def test_sweep_value_overrides_the_arm_clause(tmp_path):
    # The iid arm sets b = 0.7 and declares a = 0.55: the grid's b = 0.3
    # replaces its b, so that row breaks the declaration unless forced.
    cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, "cycling_vs_iid.ini")).with_overrides({
        "experiment.horizon": 50, "experiment.seeds": "0", "sweep.schedule.b": "0.3, 0.7"})
    rows = (Path(run_sweep(cfg, str(tmp_path / "o"))) / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["0.3", "cycling"], ["0.3", "iid"], ["0.7", "cycling"],
                                                    ["0.7", "iid"]]
    assert "ConfigurationError: need" in rows[1] and "0.55 < b = 0.3" in rows[1]
    assert all(row.endswith(",") for row in rows[:1] + rows[2:])
    forced = Path(run_sweep(cfg, str(tmp_path / "f"), force=True))
    assert all(row.endswith(",") for row in (forced / "sweep.csv").read_text().strip().splitlines()[1:])
    assert (forced / "0p3" / "iid" / "0.csv").exists()


def test_cli_sweep_check_that_fails_every_row_exit_2(tmp_path, capsys, monkeypatch):
    # An exponent declaration that no swept b satisfies: no row could run.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    path = write_config(tmp_path, small_config(**{
        "exponents.a": "0.55", "algorithm.name": "uoro", "sweep.schedule.b": "0.3, 0.5"}))
    out = tmp_path / "o"
    assert cli_main(["sweep", path, "--out", str(out)]) == 2
    assert "config error: need " in capsys.readouterr().err
    assert not out.exists()


DEGENERATE = [
    ("sweep", ["--set", "sweep.truncation.spec="], "sweep.truncation.spec lists no values"),
    ("sweep", ["--set", "sweep.truncation.spec=grow:0.4,grow:0.4"], "sweep.truncation.spec lists grow:0.4 twice"),
    ("sweep", ["--seed", "0", "0"], "experiment.seeds lists 0 twice"),
    ("run", ["--seed", "0", "0"], "experiment.seeds lists 0 twice"),
    ("run", ["--set", "experiment.seeds="], "experiment.seeds lists no values"),
]


@pytest.mark.parametrize("command, args, message", DEGENERATE, ids=[f"{c}-{' '.join(a)}" for c, a, _ in DEGENERATE])
def test_cli_degenerate_grid_or_seeds_exit_2(command, args, message, tmp_path, capsys, monkeypatch):
    # An empty grid entry, a grid value or a seed listed twice is refused
    # before any trial, rather than running nothing or a trial twice.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    assert cli_main([command, TBPTT_INI, *args, "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


FIXED_BETA2_AT_GAMMA_0 = ("algorithm.fixed_beta2 needs schedule.gamma > 0: its coupling "
                         "(1 - beta2)/eta_t is undefined at eta_t = 0")

BAD_VALUES = [
    ("run", "rnn_stability.ini", ["--set", "arms.a=schedule.b=0.5", "--set", "arms.b=schedule.b=2.0",
                                  "--set", "experiment.horizon=50"], "b", "exponent b must lie in (0, 1]"),
    ("run", "influence_balancing_tbptt.ini", ["--set", "schedule.gamma=-0.1"], "main",
     "overall rate gamma must be >= 0"),
    ("run", "influence_balancing_tbptt.ini", ["--set", "truncation.spec=grow:x"], "main",
     "truncation.spec must be a number, got 'x'"),
    ("sweep", "influence_balancing_tbptt.ini", ["--set", "schedule.b=0"], None, "exponent b must lie in (0, 1]"),
    ("sweep", "rnn_stability.ini", ["--set", "sweep.truncation.spec=fixed:0",
                                    "--set", "algorithm.name=tbptt", "--set", "arms.a=schedule.b=0.5"], None,
     "fixed interval length must be >= 1"),
    ("run", "adam_beta2.ini", ["--set", "schedule.gamma=0", "--set", "experiment.horizon=50"], "fixed",
     FIXED_BETA2_AT_GAMMA_0),
]


@pytest.mark.parametrize("command, config, args, arm, message", BAD_VALUES, ids=[m for *_, m in BAD_VALUES])
def test_cli_bad_schedule_or_truncation_value_exit_2(command, config, args, arm, message, tmp_path, capsys,
                                                     monkeypatch):
    # The step schedule and a tbptt row's truncation are built by the
    # up-front row checks, so a bad value in a later arm exits 2 before the
    # earlier arms write anything.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    assert cli_main([command, os.path.join(CONFIG_DIR, config), *args, "--out", str(out)]) == 2
    assert f"config error: {arm_prefix(arm)}{message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_fixed_beta2_at_gamma_0_is_an_error_row(tmp_path):
    # eta_t = 0 leaves the fixed arm's coupling (1 - beta2)/eta_t undefined:
    # that row is refused before its trials run, and the other rows run.
    out = tmp_path / "o"
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "adam_beta2.ini"), "--set", "sweep.schedule.gamma=0,0.5",
                     "--set", "experiment.horizon=50", "--seed", "0", "1", "--out", str(out)])
    assert code == 0
    with open(out / "adam_beta2" / "sweep.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[2] == f"0,fixed,nan,0.0,ConfigurationError: {FIXED_BETA2_AT_GAMMA_0}"
    assert [line.endswith(",") for line in lines[1:]] == [True, False, True, True]
    assert not (out / "adam_beta2" / "0" / "fixed").exists()
    assert (out / "adam_beta2" / "0" / "adaptive" / "1.csv").exists()


BAD_KEYS = [
    (["--set", "foo=1"], "override key 'foo' is not section.key"),
    (["--set", "=1"], "override key '' is not section.key"),
    (["--set", "arms.iid=sampling.scheme=iid ; note: b=0.7 is the default"],
     "arm 'iid': override key 'note: b' is not section.key"),
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("args, message", BAD_KEYS, ids=[a[1] for a, _ in BAD_KEYS])
def test_cli_override_key_not_section_key_exit_2(command, args, message, tmp_path, capsys):
    # An inline comment in an [arms] clause would otherwise add a key that
    # changes the config hash, and so the arm's random streams.
    out = tmp_path / "o"
    assert cli_main([command, os.path.join(CONFIG_DIR, "cycling_vs_iid.ini"), *args,
                     "--set", "sweep.schedule.gamma=0.1", "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_with_overrides_keeps_the_ini_round_trip():
    with pytest.raises(ConfigurationError, match="override key 'foo' is not section.key"):
        small_config().with_overrides({"foo": 1})
    cfg = small_config().with_overrides({"sweep.truncation.spec": "grow:0.4", "arms.sgd-iid": "sampling.scheme=iid"})
    assert ExperimentConfig.from_ini(cfg.to_ini()).values == cfg.values


RETIRED_KEYS = [
    ("truncation.A=0.3", "truncation.A is no longer read; set truncation.spec = grow:0.3"),
    ("truncation.fixed_length=5", "truncation.fixed_length is no longer read; set truncation.spec = fixed:5"),
    ("sweep.truncation.A=0.2,0.3",
     "sweep.truncation.A is no longer read; set sweep.truncation.spec = grow:0.2,grow:0.3"),
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("override, message", RETIRED_KEYS, ids=[o for o, _ in RETIRED_KEYS])
def test_cli_retired_truncation_keys_exit_2(command, override, message, tmp_path, capsys, monkeypatch):
    # A key no config reads any more names its replacement instead of
    # running the default truncation.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    code = cli_main([command, os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini"),
                     "--set", override, "--out", str(out)])
    assert code == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


TBPTT_INI = os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini")
RULE_IGNORED = "is ignored by {}; only sgd, rtrl, uoro and nobacktrack take an update rule"
UNREAD_KEYS = [
    ("tbptt", "algorithm.rule=bogus", "algorithm.rule = bogus " + RULE_IGNORED.format("tbptt")),
    ("tbptt", "algorithm.rule=precond:scale:2", "algorithm.rule = precond:scale:2 " + RULE_IGNORED.format("tbptt")),
    ("tbptt", "experiment.record_every=100",
     "experiment.record_every = 100 is ignored by tbptt, which records one row per interval"),
    ("adam", "algorithm.rule=bogus", "algorithm.rule = bogus " + RULE_IGNORED.format("adam")),
    ("rmsprop", "algorithm.rule=precond:scale:2", "algorithm.rule = precond:scale:2 " + RULE_IGNORED.format("rmsprop")),
    ("ong", "algorithm.rule=bogus", "algorithm.rule = bogus " + RULE_IGNORED.format("ong")),
    ("sgd", "algorithm.fixed_beta2=0.5",
     "algorithm.fixed_beta2 = 0.5 is ignored by sgd; only adam and rmsprop read it"),
    ("ong", "algorithm.fixed_beta2=0.5",
     "algorithm.fixed_beta2 = 0.5 is ignored by ong; only adam and rmsprop read it"),
    ("rtrl", "algorithm.beta1=0.5", "algorithm.beta1 = 0.5 is ignored by rtrl; only adam, rmsprop and ong read it"),
    ("tbptt", "algorithm.c=2", "algorithm.c = 2 is ignored by tbptt; only adam, rmsprop and ong read it"),
    ("sgd", "algorithm.eps=1e-3", "algorithm.eps = 1e-3 is ignored by sgd; only adam, rmsprop and ong read it"),
    ("adam", "algorithm.psi0_ridge=2", "algorithm.psi0_ridge = 2 is ignored by adam; only ong reads it"),
]


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("algo, override, message", UNREAD_KEYS, ids=[f"{a}-{o}" for a, o, _ in UNREAD_KEYS])
def test_cli_unread_keys_exit_2(command, algo, override, message, tmp_path, capsys, monkeypatch):
    # A value that the algorithm would ignore is refused before any trial.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    path = TBPTT_INI if algo == "tbptt" else write_config(
        tmp_path, small_config(**{"algorithm.name": algo, "sweep.schedule.b": "0.5, 0.7"}))
    out = tmp_path / "o"
    code = cli_main([command, path, "--set", override, "--out", str(out)])
    assert code == 2
    assert f"config error: {arm_prefix('main' if command == 'run' else None)}{message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_checks_every_arm_unread_keys(tmp_path, capsys, monkeypatch):
    # Only the second arm sets a rule, and no trial of the first arm runs.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    code = cli_main(["run", os.path.join(CONFIG_DIR, "adam_beta2.ini"), "--set",
                     "arms.fixed=algorithm.fixed_beta2=0.99; algorithm.rule=bogus", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: arm 'fixed': algorithm.rule = bogus " + RULE_IGNORED.format("adam") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry", ["run_experiment", "run_trial", "run_trials"])
@pytest.mark.parametrize("algo, override, message", UNREAD_KEYS, ids=[f"{a}-{o}" for a, o, _ in UNREAD_KEYS])
def test_library_entry_points_refuse_unread_keys(entry, algo, override, message, tmp_path, monkeypatch):
    # The library entry points refuse what the CLI refuses, before any trial.
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    monkeypatch.setattr(harness, "_run", no_trials)
    base = ExperimentConfig.load(TBPTT_INI) if algo == "tbptt" else small_config(**{"algorithm.name": algo})
    key, value = override.split("=", 1)
    cfg = base.with_overrides({key: value})
    out = tmp_path / "o"
    with pytest.raises(ConfigurationError) as err:
        if entry == "run_experiment":
            run_experiment(cfg, str(out))
        elif entry == "run_trial":
            run_trial(cfg, 0)
        else:  # the module's own run_trials; two seeds take the batched branch where there is one
            run_trials(cfg, [0, 1])
    assert str(err.value) == arm_prefix("main" if entry == "run_experiment" else None) + message
    assert not out.exists()


@pytest.mark.parametrize("swept, failing", [
    ("sweep.experiment.record_every=1,5", "5"),
    ("sweep.algorithm.rule=identity,precond:scale:2", "precond:scale:2"),
])
def test_cli_sweep_unread_key_point_is_an_error_row(swept, failing, tmp_path):
    # A value that only some grid points set fails those points alone.
    code = cli_main(["sweep", TBPTT_INI, "--set", swept, "--set", "sweep.truncation.spec=grow:0.4",
                     "--set", "experiment.horizon=30", "--set", "experiment.seeds=0",
                     "--out", str(tmp_path / "o")])
    assert code == 0
    rows = (tmp_path / "o" / "influence_balancing_tbptt" / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2
    bad = [row for row in rows if "ConfigurationError" in row]
    assert len(bad) == 1 and f" = {failing} is ignored by tbptt" in bad[0]
    assert [row for row in rows if row not in bad][0].endswith(",")


def test_cli_sweep_swept_algorithm_checks_each_algorithm_key(tmp_path):
    # fixed_beta2 fails only the point whose algorithm ignores it.
    path = write_config(tmp_path, small_config(**{
        "experiment.name": "betagrid", "experiment.horizon": "50", "algorithm.fixed_beta2": "0.9",
        "sweep.algorithm.name": "sgd, adam"}))
    assert cli_main(["sweep", path, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "betagrid" / "sweep.csv").read_text().strip().splitlines()
    assert rows[1] == ("sgd,nan,0.0,ConfigurationError: algorithm.fixed_beta2 = 0.9 is ignored by sgd; "
                       "only adam and rmsprop read it")
    assert rows[2].startswith("adam,") and rows[2].endswith(",")


ADAPTIVE_KNOBS = [
    ("arms.fixed=algorithm.fixed_beta2=0.99;algorithm.c=0", "algorithm.c must be > 0, got 0.0"),
    ("arms.fixed=algorithm.fixed_beta2=0.99;algorithm.c=-1", "algorithm.c must be > 0, got -1.0"),
    ("arms.fixed=algorithm.fixed_beta2=1.5", "algorithm.fixed_beta2 must lie in [0, 1), got 1.5"),
    ("arms.fixed=algorithm.fixed_beta2=1", "algorithm.fixed_beta2 must lie in [0, 1), got 1.0"),
    ("arms.fixed=algorithm.fixed_beta2=-0.1", "algorithm.fixed_beta2 must lie in [0, 1), got -0.1"),
    ("arms.fixed=algorithm.fixed_beta2=0.99;algorithm.beta1=1.5", "algorithm.beta1 must lie in [0, 1), got 1.5"),
    ("algorithm.beta1=1", "algorithm.beta1 must lie in [0, 1), got 1.0"),
    ("algorithm.eps=-1", "algorithm.eps must be >= 0, got -1.0"),
]


@pytest.mark.parametrize("override, message", ADAPTIVE_KNOBS, ids=[o for o, _ in ADAPTIVE_KNOBS])
def test_cli_run_adaptive_knob_out_of_range_exit_2(override, message, tmp_path, capsys):
    # Refused by the up-front row checks: the adaptive arm, which comes
    # first, writes nothing (no trial runs) when only the fixed arm is bad.
    out = tmp_path / "o"
    code = cli_main(["run", os.path.join(CONFIG_DIR, "adam_beta2.ini"), "--set", override,
                     "--set", "experiment.horizon=20", "--seed", "0", "--out", str(out)])
    assert code == 2
    arm = "fixed" if override.startswith("arms.fixed=") else "adaptive"  # else both arms: the first
    assert f"config error: arm {arm!r}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, values, bad", [
    ("algorithm.c", "0,1", "algorithm.c must be > 0, got 0.0"),
    ("algorithm.beta1", "0.5,1.5", "algorithm.beta1 must lie in [0, 1), got 1.5"),
])
def test_cli_sweep_adaptive_knob_out_of_range_is_an_error_row(key, values, bad, tmp_path):
    # The point with the bad knob fails both arms before any trial; the
    # other point runs.
    out = tmp_path / "o"
    code = cli_main(["sweep", os.path.join(CONFIG_DIR, "adam_beta2.ini"), "--set", f"sweep.{key}={values}",
                     "--set", "experiment.horizon=20", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = (out / "adam_beta2" / "sweep.csv").read_text().strip().splitlines()[1:]
    errors = [line for line in lines if line.endswith(f',"ConfigurationError: {bad}"')]  # quoted: a comma
    assert len(lines) == 4 and len(errors) == 2
    assert all(line.endswith(",") for line in lines if line not in errors)


def test_cli_sweep_swept_algorithm_checks_each_point(tmp_path):
    # With the algorithm swept, the rule fails only the points that ignore it.
    path = write_config(tmp_path, small_config(**{
        "experiment.name": "rulegrid", "experiment.horizon": "50", "algorithm.rule": "precond:scale:0.5",
        "sweep.algorithm.name": "sgd, adam"}))
    assert cli_main(["sweep", path, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "rulegrid" / "sweep.csv").read_text().strip().splitlines()
    assert rows[1].startswith("sgd,") and rows[1].endswith(",")
    assert rows[2].startswith("adam,") and "is ignored by adam" in rows[2]


@pytest.mark.parametrize("key, values, message", [
    ("experiment.horizon", "0, 20", "experiment.horizon must be >= 1, got 0"),
    ("system.n_samples", "0, 20", "system.n_samples must be >= 1, got 0"),
], ids=["horizon", "n_samples"])
def test_cli_sweep_point_bad_count_is_an_error_row(key, values, message, tmp_path):
    # A count that only one grid point sets fails that point alone.
    path = write_config(tmp_path, small_config(**{
        "experiment.name": "pointfail", f"sweep.{key}": values}))
    code = cli_main(["sweep", path, "--out", str(tmp_path / "o")])
    assert code == 0
    with open(tmp_path / "o" / "pointfail" / "sweep.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 3
    assert f"ConfigurationError: {message}" in lines[1]
    assert lines[2].endswith(",")


CYCLING_INI = os.path.join(CONFIG_DIR, "cycling_vs_iid.ini")
RNN_INI = os.path.join(CONFIG_DIR, "rnn_stability.ini")
NAN_CELL_CSV = os.path.join(os.path.dirname(__file__), "data", "nan_cell.csv")
BUILD_FAILURES = {
    "run-theta0": (["run", RNN_INI, "--set", "arms.a=init.radius=0.5", "--set", "arms.b=init.theta0=1,2"],
                   "arm 'b': init.theta0 must be 18 comma-separated numbers, got '1,2'"),
    "run-s0": (["run", TBPTT_INI, "--set", "arms.a=system.s0=stationary", "--set", "arms.b=system.s0=1,2"],
               "arm 'b': system.s0 must be 6 comma-separated numbers, got '1,2'"),
    "sweep-theta0": (["sweep", RNN_INI, "--set", "sweep.init.radius=0.3,0.5", "--set", "init.theta0=1,2"],
                     "init.theta0 must be 18 comma-separated numbers, got '1,2'"),
    "sweep-s0": (["sweep", TBPTT_INI, "--set", "system.s0=1,2"], "system.s0 must be 6 comma-separated numbers, got '1,2'"),
    "run-second-arm-rule": (["run", CYCLING_INI, "--set", "arms.iid=algorithm.rule=precond:bogus"],
                            "arm 'iid': unknown preconditioner 'precond:bogus'"),
    "run-second-arm-beta": (["run", CYCLING_INI, "--set", "arms.iid=system.kind=momentum;system.beta=1.5"],
                            "arm 'iid': system.beta = 1.5: a momentum beta must lie in [0, 1)"),
    "sweep-n_plus": (["sweep", TBPTT_INI, "--set", "system.n_plus=5"],
                     "system.n_plus = 5: need 1 <= n_plus < n/2 = 3 for the sign imbalance"),
    "run-n_plus": (["run", TBPTT_INI, "--set", "system.n_plus=5"],
                   "arm 'main': system.n_plus = 5: need 1 <= n_plus < n/2 = 3 for the sign imbalance"),
    "run-delta": (["run", TBPTT_INI, "--set", "system.delta=1.5"],
                  "arm 'main': system.delta = 1.5: delta must lie in (0, 1)"),
    "run-data-csv-nan": (["run", CYCLING_INI, "--set", f"system.data_csv={NAN_CELL_CSV}",
                          "--set", "experiment.seeds=0"],
                         f"arm 'cycling': system.data_csv {NAN_CELL_CSV!r}: data row 2, column 2 is nan, "
                         "not a finite number"),
    "run-dim": (["run", CYCLING_INI, "--set", "system.dim=0"], "arm 'cycling': system.dim must be >= 1, got 0"),
    "run-n_samples": (["run", CYCLING_INI, "--set", "system.n_samples=-3"],
                      "arm 'cycling': system.n_samples must be >= 1, got -3"),
    "run-n": (["run", RNN_INI, "--set", "system.n=-2"], "arm 'main': system.n must be >= 1, got -2"),
    "run-m": (["run", RNN_INI, "--set", "system.m=-1"], "arm 'main': system.m must be >= 0, got -1"),
    "run-second-arm-n": (["run", RNN_INI, "--set", "arms.a=system.n=3", "--set", "arms.b=system.n=0"],
                         "arm 'b': system.n must be >= 1, got 0"),
    "sweep-n": (["sweep", TBPTT_INI, "--set", "system.n=0"], "system.n must be >= 1, got 0"),
    "sweep-every-point-dim": (["sweep", CYCLING_INI, "--set", "sweep.system.dim=0,-1"], "system.dim must be >= 1, got 0"),
}


@pytest.mark.parametrize("argv, message", BUILD_FAILURES.values(), ids=BUILD_FAILURES)
def test_cli_row_that_does_not_build_fails_before_any_trial(argv, message, tmp_path, capsys, monkeypatch):
    # A value that a row's build refuses (a plant value of the wrong length,
    # a preconditioner, a plant constant, a data cell) or a dimension below
    # its least value, in any row, exits 2 before the first row runs (every
    # row of a sweep here) and writes nothing. A run's error names the arm,
    # and a plant constant's its key and value.
    import dynlearn.harness as harness

    def no_learning(*args, **kwargs):
        raise AssertionError("a learner ran on a bad config")

    monkeypatch.setattr(harness, "run_learning", no_learning)
    monkeypatch.setattr(harness, "run_tbptt", no_learning)
    code = cli_main(argv + ["--set", "experiment.horizon=20", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_bad_plant_value_point_is_an_error_row(tmp_path):
    # A bad system.s0 that one grid point sets fails that point alone.
    code = cli_main(["sweep", TBPTT_INI, "--set", "sweep.system.s0=stationary,abc",
                     "--set", "sweep.truncation.spec=grow:0.4", "--set", "experiment.horizon=20",
                     "--set", "experiment.seeds=0", "--out", str(tmp_path / "o")])
    assert code == 0
    rows = (tmp_path / "o" / "influence_balancing_tbptt" / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("stationary,grow:0.4,") and rows[0].endswith(",")
    assert rows[1] == ("abc,grow:0.4,nan,0.0,\"ConfigurationError: system.s0 must be 6 "
                       "comma-separated numbers, got 'abc'\"")


def test_rows_build_every_row_once_and_trials_only_themselves(monkeypatch):
    # The row check builds each row once at horizon 1, keyword plant values
    # (near_optimum, zeros, stationary) included; run_trials builds its
    # trials at their horizon and nothing else: one build for a
    # seed-batched arm, one per seed for a looped one.
    import dataclasses

    import dynlearn.harness as harness

    built = []

    def counted(build):
        def counting(cfg, scheme, T, *rngs):
            built.append(T)
            return build(cfg, scheme, T, *rngs)
        return counting

    monkeypatch.setattr(harness, "SYSTEM_KINDS", {
        name: dataclasses.replace(kind, build=counted(kind.build)) for name, kind in harness.SYSTEM_KINDS.items()})
    for name in sorted(os.listdir(CONFIG_DIR)):
        base = ExperimentConfig.load(os.path.join(CONFIG_DIR, name))
        grid = [(key.split(".", 1)[1], base.getlist(key)) for key in sorted(base.values) if key.startswith("sweep.")]
        for cfg in (base, base.with_overrides({"system.s0": "zeros"}),
                    base.with_overrides({"init.theta0": "near_optimum"})):
            built.clear()
            rows = harness._rows(cfg, False, grid)
            assert all(error is None for *_, error in rows), name
            assert built == [1] * len(rows), name
    for algo, builds in (("sgd", 1), ("uoro", 3)):
        built.clear()
        harness.run_trials(small_config(**{"algorithm.name": algo, "experiment.horizon": 30}), [0, 1, 2])
        assert built == [30] * builds, algo


def test_cli_check_schedule(capsys):
    code = cli_main(["check", "schedule", "--class", "imperfect_rtrl",
                     "--a", "0.55", "--gamma", "0", "--b", "0.6"])
    assert code == 0
    assert "valid" in capsys.readouterr().out
    code = cli_main(["check", "schedule", "--class", "imperfect_rtrl",
                     "--a", "0.55", "--gamma", "0", "--b", "0.5"])
    assert code == 1


def test_cli_check_schedule_class_choices(capsys):
    # The choices are the three classes, and the help names them.
    for klass in ALGORITHM_CLASSES:
        assert cli_main(["check", "schedule", "--class", klass, "--a", "0.55", "--b", "0.9", "--A", "0.5"]) in (0, 1)
    with pytest.raises(SystemExit) as exc:
        cli_main(["check", "schedule", "--class", "exact", "--a", "0.55", "--b", "0.9"])
    assert exc.value.code == 2 and "invalid choice: 'exact'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli_main(["check", "schedule", "--help"])
    assert "algorithm class: exact_rtrl, imperfect_rtrl, tbptt" in " ".join(capsys.readouterr().out.split())


def test_cli_check_stability_rnn_config(capsys):
    code = cli_main(["check", "stability", "--config",
                     os.path.join(CONFIG_DIR, "rnn_stability.ini")])
    assert code == 0
    out = capsys.readouterr().out
    assert "horizon: 1" in out


def test_cli_check_unbiased(tmp_path, capsys):
    csv_path = str(tmp_path / "bias.csv")
    code = cli_main(["check", "unbiased", "--reducer", "uoro", "--dim", "3",
                     "--steps", "2", "--csv", csv_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    with open(csv_path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "reducer,dim,steps,max_bias"
    assert lines[1].startswith("uoro,3,2,")


@pytest.mark.parametrize("args", [
    ["unbiased", "--reducer", "uoro", "--dim", "0"],
    ["unbiased", "--reducer", "uoro", "--dim", "-1"],
    ["unbiased", "--reducer", "uoro", "--dim", "2", "--steps", "0"],
    ["unbiased", "--reducer", "uoro", "--dim", "2", "--steps", "-1"],
    ["unbiased", "--reducer", "uoro", "--dim", "30"],  # over the enumeration budget
    ["stability", "--config", "rnn_stability.ini", "--horizon", "-3"],
    ["stability", "--config", "rnn_stability.ini", "--horizon", "0"],
    ["stability", "--config", "rnn_stability.ini", "--k-max", "0"],
    ["optimum", "--config", "rnn_stability.ini", "--horizon", "0"],
], ids=" ".join)
def test_cli_check_bad_count_exit_2(args, capsys):
    # A bad count is a config error: exit 2 and a message, never a
    # traceback or a verdict on nothing checked.
    args = [os.path.join(CONFIG_DIR, a) if a.endswith(".ini") else a for a in args]
    try:
        code = cli_main(["check", *args])
    except SystemExit as exc:  # argparse's exit on a bad flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert "error" in err and "Traceback" not in err
    assert "verdict" not in out and "certificate" not in out


def test_cli_check_optimum(capsys, tmp_path):
    path = write_config(tmp_path, small_config())
    code = cli_main(["check", "optimum", "--config", path, "--horizon", "240"])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_cli_check_optimum_at_horizon_1(capsys, tmp_path):
    # One step is too few to fit a rate: a report and a verdict, no traceback.
    path = write_config(tmp_path, small_config())
    code = cli_main(["check", "optimum", "--config", path, "--horizon", "1"])
    out, err = capsys.readouterr()
    assert code in (0, 1) and "verdict:" in out and not err


def test_cli_check_optimum_starts_from_the_candidate(capsys):
    # s0 = stationary is the candidate's own stationary state, so the
    # known optimum theta* = 0 of influence balancing passes; the same
    # holds for an explicit --theta, and a wrong-length one exits 2.
    path = os.path.join(CONFIG_DIR, "influence_balancing_tbptt.ini")
    for extra in ([], ["--theta", "0"]):
        assert cli_main(["check", "optimum", "--config", path] + extra) == 0
        out = capsys.readouterr().out
        assert "avg_update_final: 0.0\n" in out and "verdict: pass" in out
    assert cli_main(["check", "optimum", "--config", path, "--theta", "0,1"]) == 2
    assert "--theta must be a number, got '0,1'" in capsys.readouterr().err


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script answers --help
    proc = subprocess.run([sys.executable, "-m", "dynlearn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check" in proc.stdout


def test_canned_configs_parse():
    for name in ("cycling_vs_iid.ini", "adam_beta2.ini",
                 "influence_balancing_tbptt.ini", "rnn_stability.ini"):
        cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, name))
        assert cfg.name
        assert cfg.seeds


def test_dataset_from_csv(tmp_path):
    data = np.column_stack([np.eye(3) * 2.0, np.array([2.0, 4.0, 6.0])])
    path = tmp_path / "data.csv"
    np.savetxt(path, data, delimiter=",")
    cfg = small_config(**{"system.data_csv": str(path), "experiment.horizon": 300})
    rec = run_trial(cfg, 0)
    # theta* = (1, 2, 3) exactly for this dataset
    assert not rec.aborted and rec.final_dist() < 0.2


def test_dataset_csv_non_numeric_cell_exit_2(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,2\n3,abc\n")
    code = cli_main(["run", os.path.join(CONFIG_DIR, "cycling_vs_iid.ini"),
                     "--set", f"system.data_csv={path}", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: arm 'cycling': system.data_csv {str(path)!r} is not a numeric CSV" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_missing_dataset_point_is_an_error_row(tmp_path):
    # With init.theta0 listing numbers the row check builds the plant, so a
    # missing data CSV fails its point there, as a configuration error.
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([np.eye(3) * 2.0, np.array([2.0, 4.0, 6.0])]), delimiter=",")
    missing = tmp_path / "missing.csv"
    path = write_config(tmp_path, small_config(**{
        "experiment.name": "datagrid", "experiment.horizon": "20", "init.theta0": "0,0,0",
        "sweep.system.data_csv": f"{data}, {missing}"}))
    assert cli_main(["sweep", path, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "datagrid" / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith(f"{data},") and rows[1].endswith(",")
    assert rows[2].startswith(f"{missing},nan,0.0,ConfigurationError: system.data_csv {str(missing)!r} cannot be read")


def test_sweep_dataset_that_does_not_fit_is_an_error_row(tmp_path):
    # A data CSV with a nan cell, on which the least-squares fit would fail,
    # fails its point in the row's build as a configuration error that
    # names the cell, and the other point runs.
    data, bad = tmp_path / "data.csv", tmp_path / "nan.csv"
    np.savetxt(data, [[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 4.0, 5.0]], delimiter=",")
    np.savetxt(bad, [[1.0, 2.0, 3.0], [np.nan, 1.0, 2.0], [3.0, 4.0, 5.0]], delimiter=",")
    path = write_config(tmp_path, small_config(**{
        "experiment.name": "fitgrid", "experiment.horizon": "20", "system.dim": "2",
        "sweep.system.data_csv": f"{data}, {bad}"}))
    assert cli_main(["sweep", path, "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "fitgrid" / "sweep.csv").read_text().splitlines()
    assert rows[1].startswith(f"{data},") and rows[1].endswith(",")
    assert rows[2] == (f'{bad},nan,0.0,"ConfigurationError: system.data_csv {str(bad)!r}: data row 2, column 1 '
                       'is nan, not a finite number"')


def test_rule_from_string_precond():
    from dynlearn.harness import rule_from_string
    import numpy as _np

    rule = rule_from_string("precond:scale:2.0", 3)
    assert _np.allclose(rule.apply(1, _np.ones(3), None, _np.zeros(3), 0.1), 2.0 * _np.ones(3))
    rule = rule_from_string("precond:diag:1,2,4", 3)
    assert _np.allclose(rule.apply(1, _np.ones(3), None, _np.zeros(3), 0.1), [1.0, 2.0, 4.0])
    with pytest.raises(ConfigurationError):
        rule_from_string("precond:diag:1,2", 3)
    cfg = small_config(**{"algorithm.rule": "precond:scale:0.5", "experiment.horizon": 200})
    rec = run_trial(cfg, 0)
    assert not rec.aborted


def test_cli_check_optimum_lambda_csv(tmp_path):
    path = write_config(tmp_path, small_config())
    out_csv = str(tmp_path / "lambda.csv")
    code = cli_main(["check", "optimum", "--config", path, "--horizon", "240",
                     "--lambda-csv", out_csv])
    assert code == 0
    lam = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert lam.shape == (3, 3)
    lyap = np.loadtxt(str(tmp_path / "lambda_lyapunov.csv"), delimiter=",", skiprows=1)
    resid = lyap @ lam + lam.T @ lyap - np.eye(3)
    assert np.linalg.norm(resid) < 1e-8


def test_cli_out_env_var(tmp_path, monkeypatch):
    path = write_config(tmp_path, small_config(**{"experiment.horizon": 100}))
    monkeypatch.setenv("DYNLEARN_OUT", str(tmp_path / "envout"))
    code = cli_main(["run", path])
    assert code == 0
    assert (tmp_path / "envout" / "smoke" / "summary.csv").exists()


@pytest.mark.parametrize("algo", ["rtrl", "uoro", "nobacktrack", "tbptt"])
def test_rnn_cost_model_calls(algo, monkeypatch):
    # Every learner uses dT/dtheta only through the RNN's products: neither
    # the dense matrix nor the dense error term is built.
    import dynlearn.rankone as rankone
    from dynlearn.dynamics import RNNSystem

    calls = {"d_transition_dtheta": 0, "error_term": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(RNNSystem, "d_transition_dtheta",
                        counting("d_transition_dtheta", RNNSystem.d_transition_dtheta))
    monkeypatch.setattr(rankone, "error_term", counting("error_term", rankone.error_term))
    T = 30
    cfg = small_config(**{
        "algorithm.name": algo, "experiment.horizon": T, "experiment.record_every": 1,
        "system.kind": "rnn", "system.n": 4, "system.m": 1, "truncation.spec": "grow:0.4",
    })
    rec = run_trial(cfg, 0)
    assert not rec.aborted
    assert calls["error_term"] == 0
    assert calls["d_transition_dtheta"] == 0
