"""Before/after benchmark numbers from alternating runs on one host.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --seeds 1 2 3 4 5 \\
        --seconds 30 --out BENCH_<n>.json

For every seed and workload it runs `perfbench/run.py` once on the base
revision and once on the working tree, alternating which goes first, so
both sides see the same drift of a shared host.  The base revision is
exported with `git archive` into a temporary directory, which leaves the
repository's own `.git` untouched.  Runs go one at a time.

The output file holds, per workload and side, the median and quartiles of
every end-to-end metric that BENCHMARK.json lists, each run's value, pass
count and row signature, and the seeds whose two signatures differ (a
warning is printed for each such workload).  Per metric it holds the
number of pairs in which the working tree did better, and `claim_met`:
whether it did better in at least 90% of the pairs (9 of 10) and its
median beats the base median by more than the base's interquartile
range.  Host facts (nproc, Python version) and both revisions (the base
SHA; HEAD's SHA, whether the tree differs from it, and a digest of each
side's `src/`) identify what was measured.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its metrics, pass count and signature."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} failed:\n{done.stderr}")
    out = root / ".bench_out" / f"BENCH_{workload}_seed{seed}_trace0.json"
    result = json.loads(out.read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "passes": result["host"]["passes"],
            "signature": result["signature"][:12],
            "problems": len(result["problems"])}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD", help="git revision to compare with")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--workloads", nargs="+",
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--out", required=True, help="output file, relative to the root")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    base_sha = git("rev-parse", args.base)
    tmp = Path(tempfile.mkdtemp(prefix="bench_base_"))
    try:
        export(base_sha, tmp)
        sides = {"base": tmp, "change": ROOT}
        runs = {w: {"base": [], "change": []} for w in workloads}
        for k, seed in enumerate(args.seeds):
            order = ["base", "change"] if k % 2 == 0 else ["change", "base"]
            for workload in workloads:
                for side in order:
                    r = run_once(sides[side], workload, seed, args.seconds)
                    runs[workload][side].append({"seed": seed, **r})
                    print(f"{workload} seed {seed} {side}: "
                          f"wall_s {r['metrics']['wall_s']:.4g} "
                          f"signature {r['signature']}", flush=True)
        digests = {side: src_digest(root) for side, root in sides.items()}
    finally:
        shutil.rmtree(tmp)

    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "base": {"rev": args.base, "sha": base_sha, "src": digests["base"]},
        "change": {"head_sha": git("rev-parse", "HEAD"),
                   "differs_from_head": bool(git("status", "--porcelain",
                                                 "--", "src")),
                   "src": digests["change"]},
        "seeds": args.seeds, "seconds": args.seconds, "workloads": {},
    }
    for workload, by_side in runs.items():
        entry = {}
        for side, rs in by_side.items():
            entry[side] = {
                "metrics": {n: summary([r["metrics"][n] for r in rs])
                            for n, _ in metrics},
                "passes": [r["passes"] for r in rs],
                "signatures": {str(r["seed"]): r["signature"] for r in rs},
                "problems": sum(r["problems"] for r in rs),
            }
        pairs = list(zip(by_side["base"], by_side["change"]))
        entry["signature_mismatch_seeds"] = [
            b["seed"] for b, c in pairs if b["signature"] != c["signature"]]
        if entry["signature_mismatch_seeds"]:
            print(f"warning: {workload}: base and change signatures differ "
                  f"on seeds {entry['signature_mismatch_seeds']}",
                  file=sys.stderr)
        entry["change_better_pairs"] = {
            n: sum((c["metrics"][n] < b["metrics"][n]) == (better == "lower")
                   and c["metrics"][n] != b["metrics"][n] for b, c in pairs)
            for n, better in metrics}
        entry["claim_met"] = {}
        for n, better in metrics:
            base = entry["base"]["metrics"][n]
            change = entry["change"]["metrics"][n]
            sign = 1 if better == "higher" else -1
            gain = sign * (change["median"] - base["median"])
            entry["claim_met"][n] = (
                entry["change_better_pairs"][n] >= 0.9 * len(pairs)
                and gain > base["q3"] - base["q1"])
        report["workloads"][workload] = entry
    (ROOT / args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
