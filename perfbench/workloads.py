"""The benchmark's workloads: seeded inputs and one pass of fixed work.

A pass runs every case of a workload through its engines once, with one
chain (`workers=1`, no process pool) and no time limit, so the work is
fixed by proposal budgets and iteration counts and only time varies.
Cases are built fresh for every pass, outside the timed region, so no pass
starts with the cost caches of an earlier one.
"""
from __future__ import annotations

import importlib
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

MODULES = ("terms", "rules", "costs", "equivalence", "rulesets", "benchmarks",
           "egraph", "stochastic", "runner")

# Chain lengths of the matrix workloads.
MATMUL_LENGTHS = (20, 24, 28, 32, 36, 40)
SMOKE_MATMUL_LENGTHS = (3, 4, 5)
MATMUL_DIMS = range(1, 101)


def load_arena(src: Path) -> SimpleNamespace:
    """Import the package afresh from `src`; a namespace of its modules."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "rewrite_arena" or m.startswith("rewrite_arena.")]:
        del sys.modules[name]
    pkg = importlib.import_module("rewrite_arena")
    if Path(pkg.__file__).resolve().parent != (src / "rewrite_arena").resolve():
        raise ImportError(f"rewrite_arena imported from {pkg.__file__}, "
                          f"not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"rewrite_arena.{m}")
                              for m in MODULES})


def curated_cases(arena, seed: int, smoke: bool) -> list:
    # The curated suites are fixed; the seed reaches the stochastic chains.
    suites = arena.benchmarks.builtin_suites().values()
    return [c for suite in suites for c in (suite[:2] if smoke else suite)]


def matmul_cases(arena, seed: int, smoke: bool) -> list:
    """Left-associated chains whose seeded dimensions strictly decrease.

    The optimum of such a chain is its mirror image, the right-associated
    product, so saturation needs the same number of iterations on every
    seed (6 up to 32 matrices, 7 at 36 and 40).  With unordered
    dimensions a chain is solved after 4, 5 or 6 iterations depending on
    the draw, and since the last iteration costs about as much as all
    before it, a pass took between 10 and 21 s over five seeds.  The seed
    still draws every dimension.
    """
    rng = random.Random(seed)
    lengths = SMOKE_MATMUL_LENGTHS if smoke else MATMUL_LENGTHS
    return [arena.benchmarks.matmul_case_from_dims(
                sorted(rng.sample(MATMUL_DIMS, n + 1), reverse=True),
                name=f"matmul-{n}")
            for n in lengths]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list]  # (arena, seed, smoke) -> BenchmarkCases
    engines: tuple[str, ...]
    budget: int = 0  # stochastic proposals per case
    smoke_budget: int = 0

    def cases(self, arena, seed: int, smoke: bool) -> list:
        """The workload's cases, with no time limit."""
        return [replace(c, time_limit=None)
                for c in self.build(arena, seed, smoke)]


WORKLOADS = {w.name: w for w in (
    Workload("curated-both", curated_cases, ("stochastic", "eqsat"),
             budget=2000, smoke_budget=100),
    Workload("eqsat-matmul", matmul_cases, ("eqsat",)),
    Workload("stoch-matmul", matmul_cases, ("stochastic",),
             budget=8000, smoke_budget=200),
)}


@dataclass
class Row:
    """One (case, engine) result with what the engines returned on the way."""

    case: object
    engine: str
    seconds: float
    result: object  # runner.CaseResult
    chains: list  # stochastic.RunResult per chain
    iterations: list  # egraph.IterationReport per saturation iteration

    def signature(self) -> list:
        """Everything but time; equal across runs of the same seed."""
        r = self.result
        return [self.case.name, self.engine, r.best_term, r.best_cost,
                r.solved, r.units, r.hard_restarts, r.unsound_restarts,
                [[c.steps, c.proposals, c.hard_restarts, c.unsound_restarts]
                 for c in self.chains],
                [[i.matches, i.applied, i.unions, i.nodes, i.classes,
                  i.contradiction, list(i.banned)] for i in self.iterations]]


class Pass:
    """One pass: its rows, and the aggregates the metrics need.

    The aggregates are computed up front so that a run can drop the rows
    of later passes, which keeps its memory independent of the pass count.
    """

    def __init__(self, traced: bool, wall: float, rows: list[Row]):
        self.traced = traced
        self.wall = wall
        self.rows = rows
        self.seconds = {e: sum(r.seconds for r in rows if r.engine == e)
                        for e in ("stochastic", "eqsat")}
        self.proposals = sum(r.result.units for r in rows
                             if r.engine == "stochastic")
        self.matches = sum(i.matches for r in rows for i in r.iterations)
        per_case: dict[str, float] = {}
        for r in rows:
            per_case[r.case.name] = per_case.get(r.case.name, 0.0) + r.seconds
        # Per-case time, summed over the engines the workload runs.
        self.case_seconds = list(per_case.values())


def run_pass(arena, workload: Workload, cases: list, seed: int, tracer,
             smoke: bool) -> Pass:
    """Run every case through the workload's engines once, timed.

    `tracer.between`, when set, runs before each case and after each
    saturation iteration; the time it takes is left out of every row.
    """
    budget = workload.smoke_budget if smoke else workload.budget
    cfg = arena.stochastic.RunConfig(seed=seed, workers=1,
                                     max_proposals=budget or None)
    clock = time.perf_counter
    rows: list[Row] = []
    for case in cases:
        if tracer.between is not None:
            tracer.between()
        for engine in workload.engines:
            tracer.case = f"{engine}:{case.name}"
            paused = tracer.paused
            t0 = clock()
            if engine == "stochastic":
                result = arena.runner.run_case_stochastic(case, cfg,
                                                          early_exit=False)
            else:
                result = arena.runner.run_case_eqsat(case)
            seconds = clock() - t0 - (tracer.paused - paused)
            chains, iterations = tracer.capture.take()
            rows.append(Row(case, engine, seconds, result, chains, iterations))
    return Pass(tracer.timed, sum(r.seconds for r in rows), rows)
