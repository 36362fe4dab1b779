"""Batch runner CLI: benchmark suites, case generation, scaling reports.

Subcommands: bench <suite>, gen matmul, scale, list.  Output is data-only
(csv, json, or an aligned table); files are written via write-then-rename
so a failed run never leaves a partial file.  The REWRITE_ARENA_SEED
environment variable overrides --seed.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

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
    check_runnable,
    run_suite,
    scaling_report,
)
from .stochastic import RunConfig, check_time_limit, usable_cpus

# Each tuning flag -> (engine, the config field it sets, type, help).  The
# field is also the flag's argparse dest.  A flag given on the command line
# pins its field against suite tuning, and the other engine's flags are
# rejected.  Unset fields keep their RunConfig/EqsatConfig defaults.
TUNING_FLAGS = {
    "--beta": ("stochastic", "beta", float, None),
    "--budget": ("stochastic", "budget", int,
                 "independent chains, each with its own caps (stochastic)"),
    "--n-soft": ("stochastic", "n_soft", int, None),
    "--explore": ("stochastic", "explore", int, None),
    "--n-hard": ("stochastic", "n_hard", int, None),
    "--workers": ("stochastic", "workers", int, None),
    "--max-steps": ("stochastic", "max_steps", int,
                    "step cap of each chain (stochastic)"),
    "--max-proposals": ("stochastic", "max_proposals", int,
                        "proposal cap of each chain (stochastic)"),
    "--iterations": ("eqsat", "iterations", int,
                     "saturation iteration limit (eqsat)"),
    "--node-limit": ("eqsat", "nodes", int, "e-graph node limit (eqsat)"),
    "--pulse-iterations": ("eqsat", "pulse_iterations", int,
                           "iterations per pulse (eqsat-pulsed)"),
    "--match-limit": ("eqsat", "match_limit", int,
                      "scheduler match limit (eqsat)"),
    "--ban-length": ("eqsat", "ban_length", int,
                     "scheduler ban length (eqsat)"),
}


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
    _add_matmul_flags(b)
    b.add_argument("--jobs", type=int, default=1,
                   help="suite-level case parallelism bound")
    _add_run_flags(b)
    _add_output_flags(b)

    g = sub.add_parser("gen", help="generate a benchmark suite file")
    gsub = g.add_subparsers(dest="generator", required=True)
    gm = gsub.add_parser("matmul", help="random matrix chains with DP oracle")
    gm.add_argument("--n", type=int, default=10)
    _add_matmul_flags(gm)
    gm.add_argument("--seed", type=int, default=0)
    gm.add_argument("--output", default=None)

    s = sub.add_parser("scale", help="stochastic throughput vs worker count")
    s.add_argument("--suite", default="trig")
    s.add_argument("--workers-list", default="1,2,4,8",
                   help="comma-separated worker counts")
    # Scale runs no e-graph and sets the budget to each worker count.
    _add_run_flags(s, [flag for flag, (owner, *_) in TUNING_FLAGS.items()
                       if owner == "stochastic" and flag != "--budget"])
    _add_output_flags(s)

    sub.add_parser("list", help="list built-in suites and their cases")
    return p


def _add_matmul_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=int, default=5,
                   help="number of generated matmul cases")
    p.add_argument("--dim-lo", type=int, default=1)
    p.add_argument("--dim-hi", type=int, default=20)


def _add_run_flags(p: argparse.ArgumentParser, flags=TUNING_FLAGS) -> None:
    for flag in flags:
        _, field, kind, text = TUNING_FLAGS[flag]
        p.add_argument(flag, dest=field, type=kind, default=None, help=text)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="table", choices=["csv", "json", "table"])
    p.add_argument("--output", default=None)


def _set_flags(args, engine: str | None = None) -> dict[str, object]:
    """Config field -> value of each tuning flag set (of one engine)."""
    return {field: value for owner, field, _, _ in TUNING_FLAGS.values()
            if (value := getattr(args, field, None)) is not None
            and engine in (None, owner)}


def _check_engine_flags(args, parser) -> None:
    if args.engine == "both":
        return
    other = "eqsat" if args.engine == "stochastic" else "stochastic"
    bad = [flag for flag, (owner, field, _, _) in TUNING_FLAGS.items()
           if owner == other and getattr(args, field) is not None]
    if bad:
        parser.error(f"engine {args.engine} does not accept {other} flags: "
                     f"{', '.join(bad)}")


def _seed(args) -> int:
    """--seed, unless REWRITE_ARENA_SEED overrides it."""
    env_seed = os.environ.get("REWRITE_ARENA_SEED")
    if env_seed is None:
        return args.seed
    try:
        return int(env_seed)
    except ValueError:
        raise UsageError(f"REWRITE_ARENA_SEED must be an integer, "
                         f"got {env_seed!r}") from None


def _run_config(args) -> RunConfig:
    # The CLI runs 8 workers unless told otherwise; RunConfig's default is 1.
    fields = {"workers": 8, **_set_flags(args, "stochastic")}
    cfg = _checked(RunConfig, seed=_seed(args), **fields)
    _checked(check_time_limit, args.time_limit)
    return cfg


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError reported as bad usage."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _eqsat_config(args) -> EqsatConfig:
    return _checked(EqsatConfig, **_set_flags(args, "eqsat"))


def _matmul_cases(args, n: int, seed: int):
    """The matmul suite: --count chains of n matrices, drawn from seed."""
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    rng = random.Random(seed)
    return [_checked(gen_matmul_chain, n, args.dim_lo, args.dim_hi, rng,
                     name=f"matmul-{n}-{k}")
            for k in range(args.count)]


def _load_cases(args, cfg: RunConfig):
    suite = args.suite
    if suite == "matmul":
        return _matmul_cases(args, 10 if args.n is None else args.n, cfg.seed)
    if suite == "needle":
        return [_checked(needle_case, 8 if args.n is None else args.n)]
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


def _write_out(text: str | None, output: str | None) -> None:
    """Write text to output, or to stdout.  With text None, only check that
    output can be written, before any case runs.

    A symlink is followed, so the link stays.  A regular file (or a new
    one) is replaced through a temporary file beside it; an existing
    device or FIFO is written in place, never replaced."""
    if output is None:
        if text is not None:
            sys.stdout.write(text)
        return
    path = os.path.realpath(output)
    tmp = None
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.exists(path) and not os.path.isfile(path):
            if text is None:
                if not os.access(path, os.W_OK):
                    raise PermissionError(errno.EACCES,
                                          os.strerror(errno.EACCES))
            else:
                with open(path, "w") as fh:
                    fh.write(text)
            return
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text or "")
        if text is None:
            os.remove(tmp)
        else:
            os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise UsageError(f"cannot write {output}: {exc.strerror}") from None


def _pinned_fields(args) -> frozenset[str]:
    """Config fields the user set explicitly; suite tuning must not override."""
    return frozenset(_set_flags(args))


def _cmd_bench(args, parser) -> int:
    _check_engine_flags(args, parser)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _run_config(args)
    eqsat_cfg = _eqsat_config(args)
    cases = _load_cases(args, cfg)
    for case in cases:
        _checked(check_runnable, case, args.engine)
    _write_out(None, args.output)
    run = partial(run_suite, engine=args.engine, cfg=cfg, eqsat_cfg=eqsat_cfg,
                  time_limit=args.time_limit, pinned=_pinned_fields(args))
    # A pool forks all its processes at the first submit: start no more
    # than there are cases and usable CPUs.
    processes = min(args.jobs, len(cases), usable_cpus())
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(run, [[case] for case in cases]))
        results = [r for chunk in chunks for r in chunk]
    else:
        results = run(cases)
    rows = [r.row() for r in results]
    _emit(rows, aggregate(results), args.format, args.output, CSV_COLUMNS)
    return 0


def _cmd_gen(args) -> int:
    cases = _matmul_cases(args, args.n, _seed(args))
    text = suite_to_json(f"matmul-{args.n}", cases) + "\n"
    _write_out(text, args.output)
    return 0


def _cmd_scale(args, parser) -> int:
    cfg = _run_config(args)
    try:
        workers_list = [int(w) for w in args.workers_list.split(",") if w]
    except ValueError:
        parser.error("--workers-list must be comma-separated integers")
    if not workers_list:
        raise UsageError("--workers-list names no worker count")
    for workers in workers_list:  # a bad count fails before any run
        _checked(replace, cfg, workers=workers, budget=workers)
    suites = builtin_suites()
    if args.suite not in suites:
        raise UsageError(f"unknown suite {args.suite!r}")
    _write_out(None, args.output)
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
