"""KEYS, the config keys the library reads: it holds every literal key
that src/dynlearn reads and nothing else, and `run`, `sweep`, `run_trial`
and `run_trials` refuse any other key before a trial runs, as `check
stability` and `check optimum` do before they build their plant."""

import ast
from pathlib import Path

import pytest

import dynlearn.cli as cli
import dynlearn.harness as harness
from dynlearn.cli import main as cli_main
from dynlearn.harness import KEYS

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
READERS = {"get", "getfloat", "getint", "getlist"}


def literal_keys_read(src=ROOT / "src" / "dynlearn"):
    """Every dotted string literal passed first to get, getfloat, getint or
    getlist in the library's source."""
    keys = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in READERS and node.args
                    and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
                    and "." in node.args[0].value):
                keys.add(node.args[0].value)
    return keys


def test_keys_are_the_keys_the_library_reads():
    # A new key read without a KEYS entry would be refused; a KEYS entry
    # nothing reads would let a dead key through.
    read = literal_keys_read()
    assert "schedule.gamma" in read and "truncation.spec" in read
    assert read == KEYS, (sorted(read - KEYS), sorted(KEYS - read))


UNKNOWN_KEYS = [
    ("run", "rnn_stability.ini", "schedule.gama=0.2", "unknown key schedule.gama; did you mean schedule.gamma?"),
    ("run", "rnn_stability.ini", "sytem.n=5", "unknown key sytem.n; did you mean system.n?"),
    ("run", "adam_beta2.ini", "system.coeff=9", "unknown key system.coeff; did you mean system.coef?"),
    ("run", "adam_beta2.ini", "arms.fixed=algorithm.fixed_beta=0.99",
     "unknown key algorithm.fixed_beta; did you mean algorithm.fixed_beta2?"),
    ("run", "rnn_stability.ini", "plot.colour=red", "unknown key plot.colour"),
    ("sweep", "influence_balancing_tbptt.ini", "sweep.truncation.spek=grow:0.3",
     "unknown key sweep.truncation.spek; did you mean sweep.truncation.spec?"),
    ("sweep", "influence_balancing_tbptt.ini", "schedule.gama=0.2",
     "unknown key schedule.gama; did you mean schedule.gamma?"),
]


@pytest.mark.parametrize("command, config, override, message", UNKNOWN_KEYS,
                         ids=[f"{c}-{o}" for c, _, o, _ in UNKNOWN_KEYS])
def test_cli_unknown_key_exit_2(command, config, override, message, tmp_path, capsys, monkeypatch):
    # A misspelt key would otherwise be ignored and its default run.
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "run_trials", no_trials)
    out = tmp_path / "o"
    assert cli_main([command, str(CONFIG_DIR / config), "--set", override, "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry, config", [
    ("run_trial", "rnn_stability.ini"),
    ("run_trials", "rnn_stability.ini"),  # a run_trial per seed
    ("run_trials", "cycling_vs_iid.ini"),  # one seed-batched learner
])
def test_trial_entry_points_refuse_unknown_keys(entry, config, monkeypatch):
    # run_trial and run_trials take one arm's config and check its keys too.
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran on a bad config")

    monkeypatch.setattr(harness, "_run", no_trials)
    cfg = harness.ExperimentConfig.load(CONFIG_DIR / config).arms()[0][1]
    cfg = cfg.with_overrides({"schedule.gama": "0.9", "experiment.horizon": "20"})
    with pytest.raises(harness.ConfigurationError) as err:
        if entry == "run_trial":
            harness.run_trial(cfg, 0)
        else:
            harness.run_trials(cfg, [0, 1])
    assert str(err.value) == "unknown key schedule.gama; did you mean schedule.gamma?"


@pytest.mark.parametrize("command", ["run", "check optimum --config", "check stability --config"],
                         ids=["run", "check-optimum", "check-stability"])
def test_check_refuses_unknown_keys_as_run_does(command, tmp_path, capsys, monkeypatch):
    # A check would otherwise certify a config that run refuses, built
    # with the defaults of the keys it misread.
    def no_build(*args, **kwargs):
        raise AssertionError("a plant was built for a bad config")

    monkeypatch.setattr(harness, "run_trials", no_build)
    monkeypatch.setattr(cli, "system_kind", no_build)
    text = (CONFIG_DIR / "cycling_vs_iid.ini").read_text()
    text = text.replace("[experiment]\n", "[experiment]\ntypo_key = 3\n").replace("gamma = ", "gama = ")
    path = tmp_path / "typo.ini"
    path.write_text(text)
    monkeypatch.setenv("DYNLEARN_OUT", str(tmp_path / "o"))
    assert cli_main([*command.split(), str(path)]) == 2
    assert capsys.readouterr().err == "config error: unknown key experiment.typo_key; did you mean experiment.tol?\n"
    assert not (tmp_path / "o").exists()
