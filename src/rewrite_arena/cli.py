"""Batch runner CLI: benchmark suites, case generation, scaling reports.

Subcommands: bench <suite>, gen matmul, scale, list.  Output is data-only
(csv, json, or an aligned table); files are written via write-then-rename
so a failed run never leaves a partial file.  The REWRITE_ARENA_SEED
environment variable overrides --seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys

from .benchmarks import (
    SuiteError,
    builtin_suites,
    gen_matmul_chain,
    needle_case,
    suite_from_json,
    suite_to_json,
)
from .runner import (
    CSV_COLUMNS,
    EqsatConfig,
    aggregate,
    run_suite,
    scaling_report,
)
from .stochastic import RunConfig

STOCHASTIC_FLAGS = ("beta", "budget", "n_soft", "explore", "n_hard", "workers",
                    "max_steps", "max_proposals")
EQSAT_FLAGS = ("iterations", "node_limit", "pulse_iterations", "match_limit",
               "ban_length")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rewrite-arena",
        description="Equational program optimization benchmarks: "
                    "stochastic rewrite search vs equality saturation.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("suite",
                   help="matmul | needle | trig | integration | halide-mini "
                        "| path to a suite .json file")
    b.add_argument("--engine", default="both",
                   choices=["stochastic", "eqsat", "eqsat-pulsed", "both"])
    b.add_argument("--n", type=int, default=None,
                   help="size for generated suites (matmul chain length, "
                        "needle arity)")
    b.add_argument("--count", type=int, default=5,
                   help="number of generated matmul cases")
    b.add_argument("--dim-lo", type=int, default=1)
    b.add_argument("--dim-hi", type=int, default=20)
    b.add_argument("--jobs", type=int, default=1,
                   help="suite-level case parallelism bound")
    _add_run_flags(b)
    _add_output_flags(b)

    g = sub.add_parser("gen", help="generate a benchmark suite file")
    gsub = g.add_subparsers(dest="generator", required=True)
    gm = gsub.add_parser("matmul", help="random matrix chains with DP oracle")
    gm.add_argument("--n", type=int, default=10)
    gm.add_argument("--count", type=int, default=5)
    gm.add_argument("--dim-lo", type=int, default=1)
    gm.add_argument("--dim-hi", type=int, default=20)
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--output", default=None)

    s = sub.add_parser("scale", help="stochastic throughput vs worker count")
    s.add_argument("--suite", default="trig")
    s.add_argument("--workers-list", default="1,2,4,8",
                   help="comma-separated worker counts")
    _add_run_flags(s)
    _add_output_flags(s)

    sub.add_parser("list", help="list built-in suites and their cases")
    return p


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--n-soft", type=int, default=None)
    p.add_argument("--explore", type=int, default=None)
    p.add_argument("--n-hard", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-proposals", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None,
                   help="saturation iteration limit (eqsat)")
    p.add_argument("--node-limit", type=int, default=None,
                   help="e-graph node limit (eqsat)")
    p.add_argument("--pulse-iterations", type=int, default=None,
                   help="iterations per pulse (eqsat-pulsed)")
    p.add_argument("--match-limit", type=int, default=None,
                   help="scheduler match limit (eqsat)")
    p.add_argument("--ban-length", type=int, default=None,
                   help="scheduler ban length (eqsat)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="table", choices=["csv", "json", "table"])
    p.add_argument("--output", default=None)


def _check_engine_flags(args, parser) -> None:
    if args.engine in ("eqsat", "eqsat-pulsed"):
        bad = [f for f in STOCHASTIC_FLAGS if getattr(args, f) is not None]
        if bad:
            parser.error(f"engine {args.engine} does not accept stochastic "
                         f"flags: {', '.join('--' + f.replace('_', '-') for f in bad)}")
    if args.engine == "stochastic":
        bad = [f for f in EQSAT_FLAGS if getattr(args, f) is not None]
        if bad:
            parser.error(f"engine stochastic does not accept eqsat flags: "
                         f"{', '.join('--' + f.replace('_', '-') for f in bad)}")


def _run_config(args) -> RunConfig:
    seed = args.seed
    env_seed = os.environ.get("REWRITE_ARENA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise UsageError(f"REWRITE_ARENA_SEED must be an integer, "
                             f"got {env_seed!r}") from None
    try:
        return RunConfig(
            beta=1.0 if args.beta is None else args.beta,
            budget=args.budget,
            n_soft=1000 if args.n_soft is None else args.n_soft,
            explore=100 if args.explore is None else args.explore,
            n_hard=5000 if args.n_hard is None else args.n_hard,
            time_limit=args.time_limit,
            workers=8 if args.workers is None else args.workers,
            seed=seed,
            max_steps=args.max_steps,
            max_proposals=args.max_proposals,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _eqsat_config(args) -> EqsatConfig:
    return EqsatConfig(
        iterations=30 if args.iterations is None else args.iterations,
        nodes=20000 if args.node_limit is None else args.node_limit,
        pulse_iterations=(3 if args.pulse_iterations is None
                          else args.pulse_iterations),
        match_limit=1000 if args.match_limit is None else args.match_limit,
        ban_length=5 if args.ban_length is None else args.ban_length,
    )


def _load_cases(args, cfg: RunConfig):
    suite = args.suite
    if suite == "matmul":
        n = args.n or 10
        rng = random.Random(cfg.seed)
        return [gen_matmul_chain(n, args.dim_lo, args.dim_hi, rng,
                                 name=f"matmul-{n}-{k}")
                for k in range(args.count)]
    if suite == "needle":
        return [needle_case(args.n or 8)]
    suites = builtin_suites()
    if suite in suites:
        return suites[suite]
    if suite.endswith(".json"):
        try:
            with open(suite) as fh:
                _, cases = suite_from_json(fh.read())
            return cases
        except (OSError, SuiteError) as exc:
            raise UsageError(f"cannot read suite file: {exc}") from exc
    raise UsageError(f"unknown suite {suite!r}; try `rewrite-arena list`")


class UsageError(Exception):
    pass


def _emit(rows: list[dict], summary: dict | None, fmt: str,
          output: str | None, columns: list[str]) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        text = buf.getvalue()
        if summary is not None:
            print(json.dumps({"aggregate": summary}), file=sys.stderr)
    elif fmt == "json":
        payload = {"schema": 1, "rows": rows}
        if summary is not None:
            payload["aggregate"] = summary
        text = json.dumps(payload, indent=2) + "\n"
    else:
        widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows))
                  for c in columns} if rows else {c: len(c) for c in columns}
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for row in rows:
            lines.append("  ".join(str(row.get(c, "")).ljust(widths[c])
                                   for c in columns))
        if summary is not None:
            lines.append("")
            lines.append(json.dumps(summary, indent=2))
        text = "\n".join(lines) + "\n"
    _write_out(text, output)


def _write_out(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    tmp = output + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, output)


def _pinned_fields(args) -> frozenset[str]:
    """Config fields the user set explicitly; suite tuning must not override."""
    pins = {f for f in ("beta", "budget", "n_soft", "explore", "n_hard",
                        "max_steps", "max_proposals", "workers")
            if getattr(args, f) is not None}
    if args.iterations is not None:
        pins.add("iterations")
    if args.node_limit is not None:
        pins.add("nodes")
    if args.pulse_iterations is not None:
        pins.add("pulse_iterations")
    if args.match_limit is not None:
        pins.add("match_limit")
    if args.ban_length is not None:
        pins.add("ban_length")
    return frozenset(pins)


def _cmd_bench(args, parser) -> int:
    _check_engine_flags(args, parser)
    cfg = _run_config(args)
    eqsat_cfg = _eqsat_config(args)
    cases = _load_cases(args, cfg)
    pinned = _pinned_fields(args)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(_bench_task,
                                   [(case, args.engine, cfg, eqsat_cfg, pinned)
                                    for case in cases]))
        results = [r for chunk in chunks for r in chunk]
    else:
        results = run_suite(cases, args.engine, cfg, eqsat_cfg, pinned=pinned)
    rows = [r.row() for r in results]
    _emit(rows, aggregate(results), args.format, args.output, CSV_COLUMNS)
    return 0


def _bench_task(payload):
    case, engine, cfg, eqsat_cfg, pinned = payload
    return run_suite([case], engine, cfg, eqsat_cfg, pinned=pinned)


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    cases = [gen_matmul_chain(args.n, args.dim_lo, args.dim_hi, rng,
                              name=f"matmul-{args.n}-{k}")
             for k in range(args.count)]
    text = suite_to_json(f"matmul-{args.n}", cases) + "\n"
    _write_out(text, args.output)
    return 0


def _cmd_scale(args, parser) -> int:
    cfg = _run_config(args)
    try:
        workers_list = [int(w) for w in args.workers_list.split(",") if w]
    except ValueError:
        parser.error("--workers-list must be comma-separated integers")
    suites = builtin_suites()
    if args.suite not in suites:
        raise UsageError(f"unknown suite {args.suite!r}")
    time_limit = args.time_limit if args.time_limit is not None else 10.0
    rows = scaling_report(suites[args.suite], workers_list, cfg,
                          time_limit=time_limit)
    columns = ["workers", "proposals", "wall_time_s", "proposals_per_sec",
               "solved", "cases", "seed"]
    _emit(rows, None, args.format, args.output, columns)
    return 0


def _cmd_list() -> int:
    print("generated suites:")
    print("  matmul       random chains (--n size, --count cases, DP oracle)")
    print("  needle       f(a..a) => g(b..b) system (--n arity)")
    print("built-in suites:")
    for name, cases in builtin_suites().items():
        print(f"  {name} ({len(cases)} cases)")
        for case in cases:
            print(f"    {case.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            return _cmd_bench(args, parser)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "scale":
            return _cmd_scale(args, parser)
        if args.command == "list":
            return _cmd_list()
        parser.error(f"unknown command {args.command!r}")
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyboardInterrupt, BrokenPipeError):
        return 3
    except Exception as exc:  # internal failure: report but never traceback-spam
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
