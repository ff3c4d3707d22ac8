"""The shipped configs reproduce their CSVs byte for byte.

Every config under configs/ runs at a horizon of 2,000 steps (a sweep
config through run_sweep, any other through run_experiment), and the
SHA-256 of each CSV written is compared with `shipped_outputs.sha256`
beside this file, and each trial CSV must read back through
`TrialRecord.from_csv` bit for bit as through the reference parse of
test_records. The digests only change when a change of output is
intended; regenerate them then with

    PYTHONPATH=src python tests/test_shipped_outputs.py > tests/shipped_outputs.sha256
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from test_records import assert_same_record, oracle_from_csv

from dynlearn.harness import ExperimentConfig, run_experiment, run_sweep
from dynlearn.records import TrialRecord

HORIZON = 2000
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DIGESTS = Path(__file__).with_name("shipped_outputs.sha256")


def shipped_digests(outdir) -> dict:
    """{relative CSV path: sha256} of the shipped configs run into outdir."""
    outdir = Path(outdir)
    for path in sorted(CONFIGS.glob("*.ini")):
        cfg = ExperimentConfig.load(path).with_overrides({"experiment.horizon": HORIZON})
        run = run_sweep if any(k.startswith("sweep.") for k in cfg.values) else run_experiment
        run(cfg, outdir)
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*.csv"))
    }


def read_digests(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        out[name] = digest
    return out


def test_shipped_configs_reproduce_checked_in_digests(tmp_path):
    expected = read_digests(DIGESTS)
    got = shipped_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"CSVs differ from the checked-in digests: {changed}"
    for path in sorted(tmp_path.rglob("*.csv")):
        if path.name in ("summary.csv", "sweep.csv"):
            continue
        assert_same_record(TrialRecord.from_csv(path), oracle_from_csv(path))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in shipped_digests(tmp).items():
            sys.stdout.write(f"{digest}  {name}\n")
