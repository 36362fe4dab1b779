"""Run benchmark cases through the engines and collect result rows.

run_case is the one case runner: it applies a case's tuning, picks its
cost model, turns its time limit into a deadline, calls the engine, and
judges the answer into one row.  The equality saturation loop and pulsing
live here too: they call run_iteration and extract through this module's
names.
"""
from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from .benchmarks import BenchmarkCase, ReachTerm, judge
from .costs import CostModel
from .egraph import (
    BackoffScheduler,
    EClassId,
    EGraph,
    EGraphError,
    extract,
    matcher,
    run_iteration,
)
from .equivalence import EquivalenceValidator
from .rules import Ruleset
from .stochastic import RunConfig, check_number_fields, search
from .terms import Term, print_sexpr


@dataclass(frozen=True)
class EqsatConfig:
    iterations: int = 30
    nodes: int = 20000
    pulse_iterations: int = 3
    match_limit: int = 1000
    ban_length: int = 5

    def __post_init__(self):
        check_number_fields(self)
        if min(self.iterations, self.nodes, self.match_limit,
               self.ban_length) < 0:
            raise ValueError("iteration, node, match and ban limits must "
                             "not be negative")
        if self.pulse_iterations < 1:
            raise ValueError("pulse_iterations must be at least 1")


@dataclass
class SaturationReport:
    iterations: int = 0
    nodes: int = 0
    classes: int = 0
    unions: int = 0
    contradiction: bool = False
    wall_time: float = 0.0
    stop_reason: str = ""
    restored_checkpoint: bool = False


def saturate(g: EGraph, root: EClassId, ruleset: Ruleset,
             cfg: EqsatConfig = EqsatConfig(),
             checkpointing: bool = False,
             deadline: float | None = None,
             solved: Callable[[EGraph, EClassId], bool] | None = None,
             ) -> tuple[EGraph, SaturationReport]:
    """Repeat saturation steps until solved, saturated, a limit, or contradiction.

    `solved(g, root)` is checked before the first iteration and after each
    clean one.  A quiet iteration (no new union or e-node) is saturation
    only if no rule sat it out banned.  With checkpointing on, a full copy
    of the e-graph is taken after every clean iteration, and a
    contradiction returns the last checkpoint as the graph to extract from.
    """
    started = time.monotonic()
    g.rebuild()
    scheduler = BackoffScheduler(cfg.match_limit, cfg.ban_length)
    report = SaturationReport()
    checkpoint = g.copy() if checkpointing else None
    extract_from = g
    stop = "iteration_limit"
    done = solved is not None and solved(g, root)
    nodes = g.num_nodes()  # then each iteration's report counts them
    while not done and report.iterations < cfg.iterations:
        if deadline is not None and time.monotonic() >= deadline:
            stop = "time_limit"
            break
        if nodes > cfg.nodes:
            stop = "node_limit"
            break
        step = run_iteration(g, ruleset, scheduler, report.iterations)
        report.iterations += 1
        if g.contradiction:
            stop = "contradiction"
            report.contradiction = True
            if checkpoint is not None:
                extract_from = checkpoint
                report.restored_checkpoint = True
            break
        if checkpointing:
            checkpoint = g.copy()
        done = solved is not None and solved(g, root)
        if (not done and step.unions == 0 and step.nodes == nodes
                and not step.banned):
            stop = "saturated"
            break
        nodes = step.nodes
    if done:
        stop = "solved"
    report.stop_reason = stop
    report.nodes = extract_from.num_nodes()
    report.classes = extract_from.num_classes()
    report.unions = extract_from.union_count
    report.wall_time = time.monotonic() - started
    return extract_from, report


def pulse(t0: Term, ruleset: Ruleset, model: CostModel,
          cfg: EqsatConfig = EqsatConfig(),
          deadline: float | None = None,
          checkpointing: bool = False,
          target_cost: float | None = None) -> tuple[Term, list[SaturationReport]]:
    """Repeatedly saturate a fresh e-graph seeded with the current best term.

    Each pulse runs at most cfg.pulse_iterations iterations.  The extracted
    term is adopted only when strictly cheaper, so the cost of the carried
    term never increases across pulses.
    """
    per_pulse = replace(cfg, iterations=cfg.pulse_iterations)
    best = t0
    best_cost = model.cost(t0)
    reports: list[SaturationReport] = []
    while deadline is None or time.monotonic() < deadline:
        g = EGraph()
        root = g.add_term(best)
        extract_from, report = saturate(g, root, ruleset, per_pulse,
                                        checkpointing, deadline)
        reports.append(report)
        extracted, cost = extract(extract_from, root, model)
        if cost >= best_cost:
            # Pulses are deterministic in the seed term, so a pulse that
            # fails to improve would just repeat itself.
            break
        best, best_cost = extracted, cost
        if target_cost is not None and best_cost <= target_cost:
            break
    return best, reports


@dataclass
class CaseResult:
    engine: str
    case: str
    best_cost: float
    oracle_cost: float | None
    ratio: float | None
    solved: bool
    units: int
    unit_kind: str
    wall_time: float
    hard_restarts: int = 0
    unsound_restarts: int = 0
    best_term: str = ""

    def row(self) -> dict:
        return {
            "engine": self.engine,
            "case": self.case,
            "best_cost": self.best_cost,
            "oracle_cost": "" if self.oracle_cost is None else self.oracle_cost,
            "ratio": "" if self.ratio is None else round(self.ratio, 6),
            "solved": int(self.solved),
            "units": self.units,
            "unit_kind": self.unit_kind,
            "hard_restarts": self.hard_restarts,
            "unsound_restarts": self.unsound_restarts,
            "wall_time_s": round(self.wall_time, 3),
        }


CSV_COLUMNS = ["engine", "case", "best_cost", "oracle_cost", "ratio", "solved",
               "units", "unit_kind", "hard_restarts", "unsound_restarts",
               "wall_time_s"]


def _tuned(cfg, overrides: dict | None, pinned: frozenset[str]):
    """cfg with a case's tuning overrides applied, except pinned fields."""
    kept = {k: v for k, v in (overrides or {}).items() if k not in pinned}
    return replace(cfg, **kept) if kept else cfg


# Each engine maps (case, tuned config, cost model, deadline, early_exit)
# to (best term, best cost, work units, hard restarts, unsound restarts).

def _stochastic(case: BenchmarkCase, cfg: RunConfig, model: CostModel,
                deadline: float | None, early_exit: bool):
    validator = None
    if case.validate:
        validator = EquivalenceValidator(case.input_term, seed=cfg.seed)
    result = search(case.input_term, case.ruleset, model, cfg,
                    validator=validator,
                    target_cost=case.target_cost() if early_exit else None,
                    deadline=deadline)
    for chain in result.chains:
        if chain.unsound_witness is not None:
            w = chain.unsound_witness
            print(f"note: {case.name}: unsound rewrite caught in chain "
                  f"{chain.chain_index} at {w.witness} "
                  f"(lhs={w.lhs:.6g}, rhs={w.rhs:.6g})",
                  file=sys.stderr)
            break
    return (result.best_term, result.best_cost, result.proposals,
            result.hard_restarts, result.unsound_restarts)


def _answer(g: EGraph, root: EClassId, case: BenchmarkCase,
            model: CostModel) -> tuple[Term, float]:
    """The term saturation answers from g, and its cost: the goal when g
    represents it, else the cheapest term, else (a model with no per-node
    rule) the input."""
    crit = case.criterion
    if isinstance(crit, ReachTerm) and g.represents(root, crit.goal):
        return crit.goal, model.cost(crit.goal)
    if model.extractable:
        return extract(g, root, model)
    return case.input_term, model.cost(case.input_term)


def _eqsat(case: BenchmarkCase, cfg: EqsatConfig, model: CostModel,
           deadline: float | None, early_exit: bool):
    """Saturate with checkpointing as configured."""
    g = EGraph()
    root = g.add_term(case.input_term)
    answer = None

    def solved(g: EGraph, root: EClassId) -> bool:
        nonlocal answer
        answer = _answer(g, root, case, model)
        return judge(case, answer[0], model)

    extract_from, report = saturate(g, root, case.ruleset, cfg,
                                    case.checkpointing, deadline,
                                    solved if early_exit else None)
    # saturate checks before the first iteration and after each clean one,
    # so only a contradiction leaves a graph the last check did not see.
    if answer is None or report.contradiction:
        answer = _answer(extract_from, root, case, model)
    return *answer, report.iterations, 0, 0


def _pulsed(case: BenchmarkCase, cfg: EqsatConfig, model: CostModel,
            deadline: float | None, early_exit: bool):
    best, reports = pulse(
        case.input_term, case.ruleset, model, cfg, deadline,
        case.checkpointing, case.target_cost() if early_exit else None)
    return best, model.cost(best), sum(r.iterations for r in reports), 0, 0


# engine -> (engine function, what its work units count)
_ENGINES = {
    "stochastic": (_stochastic, "proposals"),
    "eqsat": (_eqsat, "iterations"),
    "eqsat-pulsed": (_pulsed, "iterations"),
}


def check_runnable(case: BenchmarkCase, engine: str) -> None:
    """Reject an e-graph engine that cannot e-match a left-hand side of the
    case, or that would have to extract a term under a cost model with no
    per-node rule.  Pulsing always extracts; plain saturation of a case
    with a goal can answer the goal or its input instead."""
    if engine == "stochastic":
        return
    for rule in case.ruleset:
        try:
            matcher(rule.lhs)
        except EGraphError as exc:
            raise ValueError(f"case {case.name}: rule {rule.name}: "
                             f"{exc}") from None
    if engine == "eqsat-pulsed" or (engine in ("eqsat", "both") and not
                                    isinstance(case.criterion, ReachTerm)):
        model = case.model_for("eqsat")
        if not model.extractable:
            raise ValueError(f"case {case.name}: engine {engine} must "
                             f"extract a term, but {model!r} has no "
                             f"per-node cost rule")


def run_case(case: BenchmarkCase, engine: str, cfg: RunConfig,
             eqsat_cfg: EqsatConfig | None = None,
             time_limit: float | None = None,
             pinned: frozenset[str] = frozenset(),
             early_exit: bool = True) -> CaseResult:
    """Run one case through one engine and judge its answer.

    The case's tuning is applied except for `pinned` config fields;
    `time_limit` (else the case's own) becomes one deadline; with
    `early_exit` the engine stops once the case is solved.  Every engine's
    row times the same span, from tuning to judging.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    run, unit_kind = _ENGINES[engine]
    started = time.monotonic()
    if engine == "stochastic":
        tuned = _tuned(cfg, case.stochastic_overrides, pinned)
    else:
        tuned = _tuned(eqsat_cfg or EqsatConfig(), case.eqsat_overrides,
                       pinned)
    model = case.model_for(engine)
    limit = case.time_limit if time_limit is None else time_limit
    deadline = None if limit is None else started + limit
    best, best_cost, units, hard, unsound = run(case, tuned, model, deadline,
                                                early_exit)
    return CaseResult(
        engine=engine,
        case=case.name,
        best_cost=best_cost,
        oracle_cost=case.oracle_cost,
        ratio=(None if case.oracle_cost is None or best_cost <= 0
               else case.oracle_cost / best_cost),
        solved=judge(case, best, model),
        units=units,
        unit_kind=unit_kind,
        hard_restarts=hard,
        unsound_restarts=unsound,
        wall_time=time.monotonic() - started,
        best_term=print_sexpr(best),
    )


def run_case_stochastic(case: BenchmarkCase, cfg: RunConfig,
                        time_limit: float | None = None,
                        early_exit: bool = True) -> CaseResult:
    return run_case(case, "stochastic", cfg, time_limit=time_limit,
                    early_exit=early_exit)


def run_case_eqsat(case: BenchmarkCase, eqsat_cfg: EqsatConfig | None = None,
                   time_limit: float | None = None) -> CaseResult:
    return run_case(case, "eqsat", RunConfig(), eqsat_cfg, time_limit)


def run_suite(cases: list[BenchmarkCase], engine: str, cfg: RunConfig,
              eqsat_cfg: EqsatConfig | None = None,
              time_limit: float | None = None,
              pinned: frozenset[str] = frozenset()) -> list[CaseResult]:
    """One row per case and engine; `both` runs stochastic, then eqsat."""
    engines = ("stochastic", "eqsat") if engine == "both" else (engine,)
    return [run_case(case, e, cfg, eqsat_cfg, time_limit, pinned)
            for case in cases for e in engines]


def aggregate(results: list[CaseResult]) -> dict:
    """Suite summary: per-engine solved counts plus the 4-way partition."""
    engines = sorted({r.engine for r in results})
    by_case: dict[str, dict[str, CaseResult]] = {}
    for r in results:
        by_case.setdefault(r.case, {})[r.engine] = r
    summary: dict = {"cases": len(by_case), "engines": {}}
    for eng in engines:
        rows = [r for r in results if r.engine == eng]
        ratios = [r.ratio for r in rows if r.ratio is not None]
        summary["engines"][eng] = {
            "solved": sum(1 for r in rows if r.solved),
            "total": len(rows),
            "mean_ratio": (sum(ratios) / len(ratios)) if ratios else None,
        }
    eqsats = [e for e in engines if e.startswith("eqsat")]
    if "stochastic" in engines and eqsats:
        partition = dict.fromkeys(("both_solved", "only_eqsat",
                                   "only_stochastic", "neither"), 0)
        for case_rows in by_case.values():
            s, q = case_rows.get("stochastic"), case_rows.get(eqsats[0])
            if s is not None and q is not None:
                partition["both_solved" if s.solved and q.solved else
                          "only_eqsat" if q.solved else
                          "only_stochastic" if s.solved else "neither"] += 1
        summary["partition"] = partition
    return summary


def scaling_report(cases: list[BenchmarkCase], workers_list: list[int],
                   cfg: RunConfig, time_limit: float | None = None,
                   early_exit: bool = False) -> list[dict]:
    """One suite run per worker count: proposals/sec and solved count rows."""
    rows = []
    for workers in workers_list:
        wcfg = replace(cfg, workers=workers, budget=workers)
        results = [run_case(case, "stochastic", wcfg, time_limit=time_limit,
                            early_exit=early_exit) for case in cases]
        proposals = sum(r.units for r in results)
        wall = sum(r.wall_time for r in results)
        rows.append({
            "workers": workers,
            "proposals": proposals,
            "wall_time_s": round(wall, 3),
            "proposals_per_sec": round(proposals / wall, 1) if wall else 0.0,
            "solved": sum(r.solved for r in results),
            "cases": len(cases),
            "seed": cfg.seed,
        })
    return rows
