"""The demos that drive `rtrl`, `rankone` and `tbptt`, and the README's
python blocks, run to the end.

Each runs in its own interpreter, as a reader would run it, with its
working and output directories under the test's tmp_path. Demos 02 and
05 are left out for their time: about 6.6 s and 4.8 s on a 2-core host,
more than the four below together. They reach the learner only through
`run_trial` and `run_learning` on a dense J, which the unit tests run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def run_python(args, tmp_path):
    env = dict(os.environ, DYNLEARN_OUT=str(tmp_path / "out"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", [
    "01_forward_gradients.py",
    "03_rank_one_jacobians.py",
    "04_growing_truncation.py",
    "06_convergence_checkers.py",
])
def test_demo_exits_0(demo, tmp_path):
    run_python([str(ROOT / "demos" / demo)], tmp_path)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_exits_0(block, tmp_path):
    run_python(["-c", block], tmp_path)
