"""The benchmark's tracer must see the stochastic engine's layers.

perfbench/tracer.py wraps the names the stochastic module calls through;
a traced run that counts none of them means the tracer went blind.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_curated_run_counts_stochastic_layers():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curated-both",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    # Matching and instantiation run inside the compiled rewriters that
    # stochastic.enumerate calls, so the guards and the validator stand in
    # for rules.match_pattern and rules.instantiate, which read 0.
    for name in ("rules.guard.calls", "equivalence.validate.calls",
                 "stochastic.enumerate.calls", "terms.replace_at.calls",
                 "costs.delta_cost.calls"):
        assert metrics[name]["value"] > 0, name
