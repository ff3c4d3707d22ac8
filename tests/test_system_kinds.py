"""The system-kind table: which algorithm runs on which kind, and the
checks that read it before any trial runs."""

import os
import re
from pathlib import Path

import pytest

from dynlearn.cli import main as cli_main
from dynlearn.dynamics import ConfigurationError, make_example
from dynlearn.harness import SEED_BATCHED, SYSTEM_KINDS, ExperimentConfig, run_trial

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

PLAIN = ["sgd", "rtrl", "uoro", "nobacktrack", "tbptt"]
ADAPTIVE = ["adam", "rmsprop", "ong"]
# The 26 accepted (algorithm, kind) pairs, written out here so that the
# table is checked against them rather than against itself.
RUNS = {
    "linear_regression": PLAIN + ADAPTIVE,
    "momentum": PLAIN,
    "rnn": PLAIN,
    "influence_balancing": PLAIN,
    "period3": ADAPTIVE,
}
PAIRS = [(algo, kind) for kind in RUNS for algo in PLAIN + ADAPTIVE]
KIND_SETTINGS = {
    "linear_regression": {"system.n_samples": 8, "system.dim": 3},
    "momentum": {"system.n_samples": 8, "system.dim": 3, "system.beta": 0.5},
    "rnn": {"system.n": 3, "system.m": 2, "system.data_seed": 77},
    "influence_balancing": {"system.s0": "stationary"},
    "period3": {"schedule.gamma": 0.5, "init.radius": 1.0},
}


def pair_config(algo, kind, **extra):
    values = {
        "experiment.name": "pair",
        "experiment.seeds": "0",
        "experiment.horizon": 5,
        "algorithm.name": algo,
        "system.kind": kind,
        "schedule.gamma": 0.05,
        "schedule.b": 0.7,
        "truncation.spec": "grow:0.4",
        **KIND_SETTINGS[kind],
        **extra,
    }
    return ExperimentConfig({k: str(v) for k, v in values.items()})


def write_ini(tmp_path, cfg):
    path = tmp_path / "exp.ini"
    path.write_text(cfg.to_ini())
    return str(path)


def csv_files(root):
    return sorted(Path(root).rglob("*.csv")) if os.path.isdir(root) else []


def test_table_runs_the_accepted_pairs():
    assert {kind: list(entry.algorithms) for kind, entry in SYSTEM_KINDS.items()} == RUNS
    assert len(PAIRS) == 40
    assert sum(algo in RUNS[kind] for algo, kind in PAIRS) == 26
    assert SEED_BATCHED == {
        ("sgd", "linear_regression"), ("sgd", "momentum"),
        ("rtrl", "linear_regression"), ("rtrl", "momentum"),
        ("adam", "linear_regression"), ("adam", "period3"),
        ("rmsprop", "linear_regression"), ("rmsprop", "period3"),
    }


@pytest.mark.parametrize("algo, kind", PAIRS)
def test_every_pair_runs_or_exits_2(algo, kind, tmp_path, capsys):
    cfg = pair_config(algo, kind)
    if algo in RUNS[kind]:
        record = run_trial(cfg, 0)
        assert record.t[-1] == 5 and not record.aborted
        return
    out = tmp_path / "out"
    assert cli_main(["run", write_ini(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"system kind {kind!r} runs {', '.join(RUNS[kind])}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_kind_and_algorithm_messages():
    with pytest.raises(ConfigurationError, match="unknown system kind 'rnnn'"):
        run_trial(pair_config("sgd", "rnn", **{"system.kind": "rnnn"}), 0)
    with pytest.raises(ConfigurationError, match="system kind 'rnn' runs sgd, rtrl"):
        run_trial(pair_config("sgdd", "rnn"), 0)


def test_tbptt_force_skips_the_exponent_check(tmp_path, capsys):
    args = ["run", str(CONFIGS / "influence_balancing_tbptt.ini"), "--seed", "0",
            "--set", "exponents.a=0.9", "--set", "experiment.horizon=50",
            "--out", str(tmp_path / "o")]
    assert cli_main(args) == 2
    assert "0.9" in capsys.readouterr().err
    assert cli_main(args + ["--force"]) == 0
    assert len(csv_files(tmp_path / "o")) == 2  # the trial and the summary


def test_bad_second_arm_exits_2_before_any_trial(tmp_path, capsys):
    cfg = pair_config("sgd", "linear_regression", **{
        "arms.a_good": "sampling.scheme=iid",
        "arms.b_bad": "system.kind=rnnn",
    })
    out = tmp_path / "out"
    assert cli_main(["run", write_ini(tmp_path, cfg), "--out", str(out)]) == 2
    assert "unknown system kind 'rnnn'" in capsys.readouterr().err
    assert csv_files(out) == []


@pytest.mark.parametrize("override, message", [
    ("system.kind=rnnn", "unknown system kind 'rnnn'"),
    ("algorithm.name=adam", "system kind 'influence_balancing' runs sgd"),
])
def test_sweep_unswept_bad_pair_exits_2(override, message, tmp_path, capsys, monkeypatch):
    import dynlearn.harness as harness

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "_trials_job", no_trials)
    out = tmp_path / "out"
    code = cli_main(["sweep", str(CONFIGS / "influence_balancing_tbptt.ini"),
                     "--set", override, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert csv_files(out) == []


@pytest.mark.parametrize("sweep, message", [
    ({"sweep.system.kind": "influence_balancing, rnnn"}, "unknown system kind 'rnnn'"),
    ({"sweep.algorithm.name": "sgd, adam"}, "system kind 'influence_balancing' runs sgd"),
])
def test_swept_bad_pair_is_an_error_row(sweep, message, tmp_path):
    cfg = pair_config("sgd", "influence_balancing", **sweep)
    assert cli_main(["sweep", write_ini(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "pair" / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[1].endswith(",")  # the good point has no error
    assert message in rows[2]


def test_sweep_unswept_name_that_fails_every_point_exits_2(tmp_path, capsys):
    # The algorithm is swept but the kind is unknown: no point could run.
    cfg = pair_config("sgd", "rnn", **{"system.kind": "rnnn", "sweep.algorithm.name": "sgd, rtrl"})
    assert cli_main(["sweep", write_ini(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown system kind 'rnnn'" in capsys.readouterr().err
    # The kind is swept but no kind runs the algorithm.
    cfg = pair_config("sgdd", "rnn", **{"sweep.system.kind": "rnn, momentum"})
    assert cli_main(["sweep", write_ini(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown algorithm 'sgdd'" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["stability", "optimum"])
def test_cli_checks_refuse_period3(check, capsys):
    code = cli_main(["check", check, "--config", str(CONFIGS / "adam_beta2.ini")])
    assert code == 2
    assert "system kind 'period3' runs adam, rmsprop, ong" in capsys.readouterr().err


def test_make_example_bad_argument_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="'linear'"):
        make_example("linear", A=[[0.5]])  # no B
    with pytest.raises(ConfigurationError, match="'rnn'"):
        make_example("rnn", n=2, m=1, bias=0.0)


def readme_kind_table():
    """{kind: (algorithms, seed-batched algorithms)} of the README's
    system-kind table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## System kinds", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            kind, algos, batched = (re.findall(r"`([a-z0-9_]+)`", cell) for cell in cells)
            table[kind[0]] = (algos, batched)
    return table


def test_readme_kind_table_is_the_registry():
    assert readme_kind_table() == {
        kind: (list(entry.algorithms), list(entry.batched)) for kind, entry in SYSTEM_KINDS.items()
    }
