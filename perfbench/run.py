"""Benchmark of rewrite-arena's two engines on seeded, fixed-work workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload curated-both --seed 1 --seconds 30 --trace 0

The run imports the package from `src/` several times to time set-up, then
repeats passes of the workload's fixed work until `--seconds` would be
exceeded (at least one pass), checks every returned answer and checks
that every pass reproduced the first one exactly apart from time.  With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  `--smoke` runs a toy-size workload
for exactly two passes.

The bounded end-to-end times are scaled to a reference host speed measured
in the same run (see reference.py); the report also gives them unscaled.

It prints a readable report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics.  The full result, with
host facts, goes to `.bench_out/` in the checkout, as do the spans of a
traced run.  See NOTES.md beside this file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from check import check_row  # noqa: E402
from metrics import (END_TO_END, PER_LAYER, UNITS, end_to_end,  # noqa: E402
                     host_scaled, layers, median_dicts, outcomes, tail)
from reference import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_arena, run_pass  # noqa: E402

SETUPS = 21  # set-ups timed per run; setup_s is their median


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy-size workload, exactly two passes")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run(args) -> int:
    if not (SRC / "rewrite_arena" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rewrite_arena'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed, smoke, trace = args.seed, args.smoke, bool(args.trace)

    # Set-up: import, ruleset parsing, case generation and DP oracles, with
    # the host's speed sampled before every fourth set-up.
    setup_host = HostClock(every=0.0)
    setups = []
    for k in range(2 if smoke else SETUPS):
        if k % 4 == 0:
            setup_host.tick()
        t0 = time.perf_counter()
        arena = load_arena(SRC)
        workload.cases(arena, seed, smoke)
        setups.append(time.perf_counter() - t0)

    setup_layers = {}
    if trace:
        tracer = Tracer(arena, timed=True)
        with tracer.installed():
            tracer.wrap("benchmarks.build", workload.cases)(arena, seed, smoke)
        setup_layers = {"benchmarks.build.s": tracer.get("benchmarks.build").s,
                        "rulesets.parse.s": tracer.get("rulesets.parse").s}

    host = HostClock()
    passes, layer_runs, spans_of = [], [], None
    attempted = failed = inconclusive = 0
    problems: list[str] = []
    first = None
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer(arena, timed=traced,
                        between=None if traced else host.tick)
        cases = workload.cases(arena, seed, smoke)
        with tracer.installed():
            p = run_pass(arena, workload, cases, seed, tracer, smoke)
        first = first or p
        for row, ref in zip(p.rows, first.rows):
            verdict = check_row(arena, row.case, row.engine, row.result, seed)
            attempted += 1
            if p is first:
                inconclusive += verdict.inconclusive
            problem = verdict.problem
            if verdict.ok and row.signature() != ref.signature():
                problem = f"pass {len(passes) + 1} differs from pass 1"
            if problem:
                failed += 1
                problems.append(f"{row.engine}:{row.case.name}: {problem}")
        if traced:
            layer_runs.append(layers(tracer, p.rows))
            spans_of = spans_of or tracer
        if p is not first:
            p.rows = []  # keeps memory independent of the pass count
        passes.append(p)
        if smoke:
            if len(passes) == 2:
                break
            continue
        elapsed = time.perf_counter() - started
        next_pass = max(q.wall for q in passes[-2:])
        if len(passes) >= 1 + trace and elapsed + next_pass > args.seconds:
            break

    plain = [p for p in passes if not p.traced]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = end_to_end(setups, plain, rss_mb)
    e2e = host_scaled(raw, host.factor())
    e2e["setup_s"] = raw["setup_s"] * setup_host.factor()
    results = outcomes(first, plain, attempted, failed, inconclusive)
    layer = {}
    if trace:
        layer = median_dicts(layer_runs)
        layer.update(setup_layers)
        layer.update(results)
        layer["trace.overhead_frac"] = (
            statistics.median(p.wall for p in passes if p.traced)
            / statistics.median(p.wall for p in plain) - 1.0)

    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(ROOT), "workload": workload.name, "seed": seed,
            "seconds": args.seconds, "trace": int(trace), "smoke": smoke,
            "passes": len(passes), "setups": len(setups),
            "speed_factor": host.factor(), "speed_samples": len(host.samples),
            "setup_speed_factor": setup_host.factor()}
    reference = [r.signature() for r in first.rows]
    signature = hashlib.sha256(json.dumps(reference).encode()).hexdigest()
    report(facts, e2e, raw, results, layer, passes, signature, problems)

    names = [n for n, _, _ in (PER_LAYER if trace else END_TO_END)]
    values = {**e2e, **layer}
    metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in names}
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"host": facts, "signature": signature, "problems": problems,
                   "metrics": {n: {"value": v, "unit": UNITS[n]}
                               for n, v in {**e2e, **results, **layer}.items()},
                   "unscaled": raw,
                   "rows": reference}, fh, indent=1)
    if trace:
        spans_of.write_spans(OUT / f"{stem}_spans.jsonl")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def report(facts, e2e, raw, results, layer, passes, signature,
           problems) -> None:
    print("host " + json.dumps(facts))
    plain = [p for p in passes if not p.traced]
    value, pct, n = tail([s for p in plain for s in p.case_seconds])
    notes = {
        "setup_s": f"median of {facts['setups']} set-ups",
        "wall_s": f"median of {len(plain)} untraced passes",
        "case_s.p50": f"{n} case samples",
        "case_s.tail": (f"p{pct:.1f} of {n} case samples" if n >= 11
                        else f"not defined: {n} case samples"),
    }
    for name, v in {**e2e, **results, **layer}.items():
        shown = f"{v:.6g}" if isinstance(v, float) else str(v)
        note = notes.get(name, "")
        if name in raw and raw[name] != v:
            note = f"{note}; unscaled {raw[name]:.6g}".lstrip("; ")
        print(f"  {name:34s} {shown:>14s} {UNITS[name]:6s} {note}")
    print(f"signature {signature}")
    for line in problems:
        print(f"problem {line}")


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
