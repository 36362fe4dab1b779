"""Check that a workload repeats exactly across processes and under tracing.

Runs the benchmark three times on one seed, untraced twice and traced
once, and compares the signatures the runs print: a hash of every result
row (best term, cost, solved flag, proposals, restarts) and of the work
counters the engines return (chain steps and proposals; e-graph matches,
applications, unions, e-nodes, e-classes and bans per iteration).  Only
time may differ.  Each run also checks its own passes against each other.

    python3 perfbench/determinism.py --workload stoch-matmul --seed 3 --seconds 5

Exits 0 when all signatures agree and every run reports correct, else 1.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: float, trace: int,
          smoke: bool) -> tuple[str, dict]:
    """(signature, final JSON object) of one benchmark run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                         text=True, timeout=900, check=True).stdout
    lines = out.strip().splitlines()
    signature = next(line.split()[1] for line in lines
                     if line.startswith("signature "))
    return signature, json.loads(lines[-1])


def check(workload: str, seed: int, seconds: float, smoke: bool) -> list[str]:
    """Problems found; empty when the three runs agree."""
    runs = [bench(workload, seed, seconds, trace, smoke) for trace in (0, 0, 1)]
    problems = [f"run {k + 1} reports correct=false"
                for k, (_, res) in enumerate(runs) if not res["correct"]]
    labels = ("untraced", "untraced again", "traced")
    for k in (1, 2):
        if runs[k][0] != runs[0][0]:
            problems.append(f"{labels[k]} run signature {runs[k][0]} "
                            f"differs from {runs[0][0]}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    problems = check(args.workload, args.seed, args.seconds, args.smoke)
    for line in problems:
        print(line)
    print("deterministic" if not problems else "NOT deterministic")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
