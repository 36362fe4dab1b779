import os
import subprocess
import sys
from pathlib import Path

import pytest

import rewrite_arena

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("demo_*.py"))
PACKAGE_ROOT = str(Path(rewrite_arena.__file__).parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
