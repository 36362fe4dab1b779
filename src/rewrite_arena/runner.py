"""Run benchmark cases through the engines and collect result rows.

The equality saturation loop and pulsing live here: they call
run_iteration and extract through this module's names.
"""
from __future__ import annotations

import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from .benchmarks import BenchmarkCase, ReachTerm, ReachTrue, judge
from .costs import CostModel, GoalIndicator
from .egraph import (
    BackoffScheduler,
    EClassId,
    EGraph,
    extract,
    run_iteration,
)
from .equivalence import EquivalenceValidator
from .rules import Ruleset
from .stochastic import RunConfig, search
from .terms import TRUE, Term, print_sexpr


@dataclass(frozen=True)
class EqsatConfig:
    iterations: int = 30
    nodes: int = 20000
    pulse_iterations: int = 3
    match_limit: int = 1000
    ban_length: int = 5

    def __post_init__(self):
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
    while not done and report.iterations < cfg.iterations:
        if deadline is not None and time.monotonic() >= deadline:
            stop = "time_limit"
            break
        if g.num_nodes() > cfg.nodes:
            stop = "node_limit"
            break
        before_unions = g.union_count
        before_nodes = g.num_nodes()
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
        if (not done and g.union_count == before_unions
                and g.num_nodes() == before_nodes and not step.banned):
            stop = "saturated"
            break
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
          time_limit: float | None = 10.0,
          checkpointing: bool = False,
          target_cost: float | None = None) -> tuple[Term, list[SaturationReport]]:
    """Repeatedly saturate a fresh e-graph seeded with the current best term.

    Each pulse runs at most cfg.pulse_iterations iterations.  The extracted
    term is adopted only when strictly cheaper, so the cost of the carried
    term never increases across pulses.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
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


def _ratio(oracle: float | None, found: float) -> float | None:
    if oracle is None or found <= 0:
        return None
    return oracle / found


def _tuned(cfg, overrides: dict | None, pinned: frozenset[str]):
    """cfg with a case's tuning overrides applied, except pinned fields."""
    kept = {k: v for k, v in (overrides or {}).items() if k not in pinned}
    return replace(cfg, **kept) if kept else cfg


def _early_target(case: BenchmarkCase) -> float | None:
    target = case.target_cost()
    if target is None and isinstance(case.criterion, ReachTerm) \
            and isinstance(case.cost_model, GoalIndicator):
        return 0
    return target


def run_case_stochastic(case: BenchmarkCase, cfg: RunConfig,
                        time_limit: float | None = None,
                        early_exit: bool = True,
                        pinned: frozenset[str] = frozenset()) -> CaseResult:
    """Run one case; `pinned` names config fields suite tuning must not touch."""
    model = case.model_for("stochastic")
    limit = case.time_limit if time_limit is None else time_limit
    cfg = replace(_tuned(cfg, case.stochastic_overrides, pinned),
                  time_limit=limit)
    validator = None
    if case.validate:
        validator = EquivalenceValidator(case.input_term, seed=cfg.seed)
    result = search(case.input_term, case.ruleset, model, cfg,
                    validator=validator,
                    target_cost=_early_target(case) if early_exit else None)
    solved = judge(case, result.best_term, model)
    for chain in result.chains:
        if chain.unsound_witness is not None:
            w = chain.unsound_witness
            print(f"note: {case.name}: unsound rewrite caught in chain "
                  f"{chain.chain_index} at {w['env']} "
                  f"(lhs={w['lhs']:.6g}, rhs={w['rhs']:.6g})",
                  file=sys.stderr)
            break
    return CaseResult(
        engine="stochastic",
        case=case.name,
        best_cost=result.best_cost,
        oracle_cost=case.oracle_cost,
        ratio=_ratio(case.oracle_cost, result.best_cost),
        solved=solved,
        units=result.proposals,
        unit_kind="proposals",
        hard_restarts=result.hard_restarts,
        unsound_restarts=result.unsound_restarts,
        wall_time=result.wall_time,
        best_term=print_sexpr(result.best_term),
    )


def _solved_in_graph(g: EGraph, root, case: BenchmarkCase, model,
                     checks: list) -> bool:
    """The solved check; an extraction it makes is appended to `checks`."""
    crit = case.criterion
    if isinstance(crit, ReachTerm):
        return g.represents(root, crit.goal)
    if isinstance(crit, ReachTrue):
        return g.represents(root, TRUE)
    checks.append(extract(g, root, model))
    return checks[-1][1] <= crit.value


def run_case_eqsat(case: BenchmarkCase, eqsat_cfg: EqsatConfig | None = None,
                   time_limit: float | None = None,
                   pinned: frozenset[str] = frozenset()) -> CaseResult:
    """Saturate with checkpointing as configured; stop early once solved."""
    eqsat_cfg = _tuned(eqsat_cfg or EqsatConfig(), case.eqsat_overrides, pinned)
    model = case.model_for("eqsat")
    limit = case.time_limit if time_limit is None else time_limit
    started = time.monotonic()
    deadline = None if limit is None else started + limit
    g = EGraph()
    root = g.add_term(case.input_term)
    checks: list = []
    extract_from, report = saturate(
        g, root, case.ruleset, eqsat_cfg, case.checkpointing, deadline,
        solved=lambda g, root: _solved_in_graph(g, root, case, model, checks))

    if isinstance(case.criterion, ReachTerm):
        ok = extract_from.represents(root, case.criterion.goal)
        best_term = case.criterion.goal if ok else case.input_term
        best_cost = model.cost(best_term)
    elif extract_from is g and len(checks) == report.iterations + 1:
        # saturate checks before the first iteration and after each clean
        # one, so the last check extracted from this very graph.
        best_term, best_cost = checks[-1]
    else:
        best_term, best_cost = extract(extract_from, root, model)
    solved = judge(case, best_term, model)
    return CaseResult(
        engine="eqsat",
        case=case.name,
        best_cost=best_cost,
        oracle_cost=case.oracle_cost,
        ratio=_ratio(case.oracle_cost, best_cost),
        solved=solved,
        units=report.iterations,
        unit_kind="iterations",
        wall_time=time.monotonic() - started,
        best_term=print_sexpr(best_term),
    )


def run_case_eqsat_pulsed(case: BenchmarkCase,
                          eqsat_cfg: EqsatConfig | None = None,
                          time_limit: float | None = None,
                          pinned: frozenset[str] = frozenset()) -> CaseResult:
    eqsat_cfg = _tuned(eqsat_cfg or EqsatConfig(), case.eqsat_overrides, pinned)
    model = case.model_for("eqsat")
    limit = case.time_limit if time_limit is None else time_limit
    started = time.monotonic()
    best, reports = pulse(
        case.input_term, case.ruleset, model, eqsat_cfg,
        time_limit=limit,
        checkpointing=case.checkpointing,
        target_cost=_early_target(case),
    )
    best_cost = model.cost(best)
    return CaseResult(
        engine="eqsat-pulsed",
        case=case.name,
        best_cost=best_cost,
        oracle_cost=case.oracle_cost,
        ratio=_ratio(case.oracle_cost, best_cost),
        solved=judge(case, best, model),
        units=sum(r.iterations for r in reports),
        unit_kind="iterations",
        wall_time=time.monotonic() - started,
        best_term=print_sexpr(best),
    )


def run_case(case: BenchmarkCase, engine: str, cfg: RunConfig,
             eqsat_cfg: EqsatConfig | None = None,
             time_limit: float | None = None,
             pinned: frozenset[str] = frozenset()) -> list[CaseResult]:
    if engine == "both":
        return (run_case(case, "stochastic", cfg, eqsat_cfg, time_limit, pinned)
                + run_case(case, "eqsat", cfg, eqsat_cfg, time_limit, pinned))
    if engine == "stochastic":
        return [run_case_stochastic(case, cfg, time_limit, pinned=pinned)]
    if engine == "eqsat":
        return [run_case_eqsat(case, eqsat_cfg, time_limit, pinned=pinned)]
    if engine == "eqsat-pulsed":
        return [run_case_eqsat_pulsed(case, eqsat_cfg, time_limit, pinned=pinned)]
    raise ValueError(f"unknown engine {engine!r}")


def run_suite(cases: list[BenchmarkCase], engine: str, cfg: RunConfig,
              eqsat_cfg: EqsatConfig | None = None,
              time_limit: float | None = None,
              pinned: frozenset[str] = frozenset()) -> list[CaseResult]:
    results: list[CaseResult] = []
    for case in cases:
        results.extend(run_case(case, engine, cfg, eqsat_cfg, time_limit, pinned))
    return results


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
    stoc = {e for e in engines if e == "stochastic"}
    eqsats = {e for e in engines if e.startswith("eqsat")}
    if stoc and eqsats:
        eq = sorted(eqsats)[0]
        both = only_eq = only_st = neither = 0
        for case_rows in by_case.values():
            s = case_rows.get("stochastic")
            q = case_rows.get(eq)
            if s is None or q is None:
                continue
            if s.solved and q.solved:
                both += 1
            elif q.solved:
                only_eq += 1
            elif s.solved:
                only_st += 1
            else:
                neither += 1
        summary["partition"] = {
            "both_solved": both,
            "only_eqsat": only_eq,
            "only_stochastic": only_st,
            "neither": neither,
        }
    return summary


def scaling_report(cases: list[BenchmarkCase], workers_list: list[int],
                   cfg: RunConfig, time_limit: float | None = None,
                   early_exit: bool = False) -> list[dict]:
    """One suite run per worker count: proposals/sec and solved count rows."""
    rows = []
    for workers in workers_list:
        wcfg = replace(cfg, workers=workers, budget=workers)
        proposals = 0
        wall = 0.0
        solved = 0
        for case in cases:
            res = run_case_stochastic(case, wcfg, time_limit=time_limit,
                                      early_exit=early_exit)
            proposals += res.units
            wall += res.wall_time
            solved += int(res.solved)
        rows.append({
            "workers": workers,
            "proposals": proposals,
            "wall_time_s": round(wall, 3),
            "proposals_per_sec": round(proposals / wall, 1) if wall else 0.0,
            "solved": solved,
            "cases": len(cases),
            "seed": cfg.seed,
        })
    return rows
