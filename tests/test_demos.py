"""Every demo runs to the end as a script.

Each demo is copied into a temporary directory first, since the demos write
their outputs next to themselves. RuntimeWarnings are errors, as in the
rest of the suite.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", script],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
