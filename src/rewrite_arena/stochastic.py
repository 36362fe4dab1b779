"""Metropolis-style rewrite search with restarts and parallel runs.

Each chain walks over concrete terms: the candidate set is every one-step
rewrite of the current term, found at each position by the ruleset's
compiled rewriter for that root operator, and a successor is drawn with
probability proportional to exp(-beta/2 * (C(t') - C(t))).  A periodic exploration
phase sets beta to 0; a chain that stops improving for too long either
ends (when it has no other budget) or hard-restarts from the initial term.
Chains are fully independent, so parallel runs share nothing but a
deadline.
"""
from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .costs import CostModel
from .equivalence import Inequivalent
from .rules import (
    Ruleset,
    apply_rule_at,
    fold_step,
    instantiate,  # noqa: F401 -- unused here, but perfbench's tracer
    match_pattern,  # noqa: F401 -- wraps these two names in this module
)
from .terms import Term, Position, replace_at, subterm_at

_M64 = (1 << 64) - 1

# The rule name a constant-folding step is proposed and traced under.
FOLD_RULE_NAME = "fold"

# A chain with a validator checks every this many accepted steps.
VALIDATE_EVERY = 25


class EmptyCandidateSetError(ValueError):
    pass


def check_time_limit(limit: float | None) -> None:
    """Reject a time limit that is neither None nor finite and not negative."""
    if limit is not None and not (math.isfinite(limit) and limit >= 0):
        raise ValueError(f"time_limit must be finite and not negative, "
                         f"got {limit}")


@dataclass(frozen=True)
class RunConfig:
    """Hyperparameters for stochastic search.

    The defaults are engineering choices; every field is exposed as a CLI
    flag.  budget (number of independent chains) defaults to workers.
    """

    beta: float = 1.0
    budget: int | None = None
    n_soft: int = 1000
    explore: int = 100
    n_hard: int = 5000
    workers: int = 1
    seed: int = 0
    max_steps: int | None = None
    max_proposals: int | None = None
    record_trace: bool = False

    def __post_init__(self):
        if self.explore > self.n_soft:
            raise ValueError("explore phase cannot exceed the soft-restart period")
        if self.n_soft < 1 or self.n_hard < 1 or self.workers < 1:
            raise ValueError("periods and worker count must be at least 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1 chain")
        if min(self.max_steps or 0, self.max_proposals or 0) < 0:
            raise ValueError("max_steps and max_proposals must not be negative")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and not negative")

    @property
    def chains(self) -> int:
        return self.budget if self.budget is not None else self.workers


@dataclass
class RunResult:
    """Outcome of one chain."""

    best_term: Term
    best_cost: float
    chain_index: int
    steps: int = 0
    proposals: int = 0
    hard_restarts: int = 0
    unsound_restarts: int = 0
    wall_time: float = 0.0
    best_trace: list[tuple[str, Position]] | None = None
    # The validator's verdict on the last unsound rewrite caught, for reports.
    unsound_witness: Inequivalent | None = None


@dataclass
class SearchResult:
    """Best chain plus aggregate statistics across all chains."""

    best_term: Term
    best_cost: float
    best_chain: int
    steps: int
    proposals: int
    hard_restarts: int
    unsound_restarts: int
    wall_time: float
    chains: list[RunResult] = field(default_factory=list)


def chain_seed(seed: int, index: int) -> int:
    """Deterministic per-chain seed, independent of worker scheduling."""
    x = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def sample_index(deltas: list[float], beta: float, rng: random.Random) -> int:
    """Index of one successor, drawn with weight exp(-beta/2 * delta).

    The one sampling kernel: at beta 0 it draws uniformly from one random
    number; otherwise the weights are shifted by the lowest delta, so the
    largest is 1 and none overflows.
    """
    n = len(deltas)
    if not n:
        raise EmptyCandidateSetError("cannot sample from an empty candidate set")
    if beta == 0.0:
        return int(rng.random() * n) % n
    lowest = min(deltas)
    half_beta = 0.5 * beta
    return _draw([math.exp(-half_beta * (d - lowest)) for d in deltas], rng)


def _draw(weights: list[float], rng: random.Random) -> int:
    total = 0.0
    for w in weights:
        total += w
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


class _Candidate:
    """One-step rewrite of old_sub at position into new_sub.

    The result term is built only by materialize: only the sampled
    candidate pays for the spine rebuild."""

    __slots__ = ("rule", "position", "old_sub", "new_sub")

    def __init__(self, rule, position, old_sub, new_sub):
        self.rule = rule
        self.position = position
        self.old_sub = old_sub
        self.new_sub = new_sub

    def materialize(self, t: Term) -> Term:
        return replace_at(t, self.position, self.new_sub)


def _result_key(pos: Position, old_sub: Term, new_sub: Term):
    """(position, replacement) of the smallest subtree holding every change
    that rewriting old_sub at pos into new_sub makes, or None for none.
    It depends only on the result: two rewrites of one term give the same
    term exactly when their keys are equal."""
    while old_sub.op is new_sub.op:
        diff = [i for i, (a, b) in enumerate(zip(old_sub.children,
                                                 new_sub.children))
                if a is not b and (a._hash != b._hash or a != b)]
        if len(diff) != 1:
            return (pos, new_sub) if diff else None
        i = diff[0]
        pos += (i,)
        old_sub, new_sub = old_sub.children[i], new_sub.children[i]
    return pos, new_sub


def _enumerate_candidates(t: Term, ruleset: Ruleset) -> list[_Candidate]:
    """All one-step rewrites of t, deduplicated by result: the one enumerator.

    Order is position-major (preorder, as terms.positions), rule-minor
    (ruleset order, then constant folding), first occurrence kept, identity
    excluded.  A candidate is kept when its _result_key is new, so no
    result term is built or hashed.  Leaves below the root are visited
    only when some rule's LHS is a leaf.
    """
    out: list[_Candidate] = []
    seen: set = set()
    rewriters = ruleset._rewriters
    fold = ruleset.fold_constants
    leaves = ruleset.rewrites_leaves  # a leaf never folds
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, sub = stack.pop()
        kids = sub.children
        rewrite = rewriters.get(sub.op.name) or ruleset.rewriter(sub.op.name)
        for rule, new_sub in rewrite(sub):
            if new_sub.op is not sub.op:
                key = pos, new_sub
            elif (key := _result_key(pos, sub, new_sub)) is None:
                continue
            n = len(seen)
            seen.add(key)
            if len(seen) > n:
                out.append(_Candidate(rule, pos, sub, new_sub))
        if fold and kids:
            # A fold turns a node with children into a leaf, never itself.
            new_sub = fold_step(sub.op.name, kids)
            if new_sub is not None:
                n = len(seen)
                seen.add((pos, new_sub))
                if len(seen) > n:
                    out.append(_Candidate(FOLD_RULE_NAME, pos, sub, new_sub))
        for idx in range(len(kids) - 1, -1, -1):
            if leaves or kids[idx].children:
                stack.append((pos + (idx,), kids[idx]))
    return out


class Proposal(NamedTuple):
    term: Term
    rule: str
    position: Position


def proposals(t: Term, ruleset: Ruleset) -> list[Proposal]:
    """All one-step rewrites of t, materialized, in enumeration order."""
    return [Proposal(c.materialize(t), c.rule, c.position)
            for c in _enumerate_candidates(t, ruleset)]


def _deltas(t: Term, candidates: list[_Candidate], model: CostModel,
            base_cost) -> list:
    """Each candidate's exact cost change, with t costed: model.delta_cost,
    or model.spliced_cost when the change does not localize.  No memo
    entry is written on a candidate."""
    out = []
    for c in candidates:
        delta = model.delta_cost(c.old_sub, c.new_sub)
        if delta is None:
            delta = model.spliced_cost(t, c.position, c.new_sub) - base_cost
        out.append(delta)
    return out


def run_chain(t0: Term, ruleset: Ruleset, model: CostModel, cfg: RunConfig,
              validator=None, rng: random.Random | None = None,
              chain_index: int = 0, deadline: float | None = None,
              target_cost: float | None = None) -> RunResult:
    """Run one chain of the search loop.

    With no deadline or step/proposal cap, the chain ends once it has gone
    n_hard steps without improving, exactly as a single run segment.  When
    some budget remains, reaching the stall limit instead triggers a hard
    restart from t0.
    """
    if rng is None:
        rng = random.Random(chain_seed(cfg.seed, chain_index))
    started = time.monotonic()
    has_budget = (deadline is not None or cfg.max_steps is not None
                  or cfg.max_proposals is not None)

    t = t0
    cost_t = model.cost(t0)
    best = t0
    best_cost = cost_t
    n = 0
    n_stall = 0
    steps = 0
    total_proposals = 0
    accepted = 0
    hard_restarts = 0
    unsound_restarts = 0
    trace: list[tuple[str, Position]] = []
    best_trace: list[tuple[str, Position]] | None = None
    solved = target_cost is not None and best_cost <= target_cost
    restart = False

    while not solved:
        if restart:
            restart = False
            t, cost_t, n, n_stall = t0, model.cost(t0), 0, 0
            trace.clear()
        if deadline is not None and time.monotonic() >= deadline:
            break
        if cfg.max_steps is not None and steps >= cfg.max_steps:
            break
        if cfg.max_proposals is not None and total_proposals >= cfg.max_proposals:
            break
        if n_stall >= cfg.n_hard:
            if not has_budget:
                break
            hard_restarts += 1
            restart = True
            continue

        candidates = _enumerate_candidates(t, ruleset)
        total_proposals += len(candidates)
        if not candidates:
            # Dead end: the term cannot move, so every step up to the stall
            # limit (or the step cap) is an empty stall step; take them all.
            # At t0 itself the chain ends: every restart would come back.
            stalled = cfg.n_hard - n_stall
            if cfg.max_steps is not None:
                stalled = min(stalled, cfg.max_steps - steps)
            n += stalled
            n_stall += stalled
            steps += stalled
            if t is t0:
                break
            continue

        beta_now = 0.0 if (n % cfg.n_soft) < cfg.explore else cfg.beta
        deltas = _deltas(t, candidates, model, cost_t)
        chosen = candidates[sample_index(deltas, beta_now, rng)]
        t = chosen.materialize(t)
        cost_t = model.cost(t)
        n += 1
        steps += 1
        accepted += 1
        if cfg.record_trace:
            trace.append((chosen.rule, chosen.position))

        # The periodic check comes first, then the new-best check on the
        # same step: the validator seeds each check from its call count.
        if validator is not None and (
                accepted % VALIDATE_EVERY == 0 and not validator(t)
                or cost_t < best_cost and not validator(t)):
            unsound_restarts += 1
            restart = True
            continue

        if cost_t < best_cost:
            best = t
            best_cost = cost_t
            n_stall = 0
            if cfg.record_trace:
                best_trace = list(trace)
            if target_cost is not None and best_cost <= target_cost:
                solved = True
        else:
            n_stall += 1

    return RunResult(
        best_term=best,
        best_cost=best_cost,
        chain_index=chain_index,
        steps=steps,
        proposals=total_proposals,
        hard_restarts=hard_restarts,
        unsound_restarts=unsound_restarts,
        wall_time=time.monotonic() - started,
        best_trace=best_trace,
        unsound_witness=(getattr(validator, "last_failure", None)
                         if unsound_restarts else None),
    )


def _chain_task(args) -> RunResult:
    t0, ruleset, model, cfg, validator, index, deadline, target_cost = args
    if validator is not None:
        validator = replace(validator, seed=validator.seed + 7919 * index)
    return run_chain(t0, ruleset, model, cfg, validator=validator,
                     chain_index=index, deadline=deadline,
                     target_cost=target_cost)


def search(t0: Term, ruleset: Ruleset, model: CostModel, cfg: RunConfig,
           validator=None, target_cost: float | None = None,
           deadline: float | None = None) -> SearchResult:
    """Run cfg.chains independent chains and keep the best result.

    Per-chain seeds derive deterministically from cfg.seed and the chain
    index, so results do not depend on worker scheduling.  Every chain
    stops at the one deadline.  Ties are broken by the lowest chain index.
    """
    started = time.monotonic()
    n_chains = cfg.chains
    tasks = [(t0, ruleset, model, cfg, validator, i, deadline, target_cost)
             for i in range(n_chains)]

    if cfg.workers == 1 or n_chains == 1:
        results = [_chain_task(task) for task in tasks]
    else:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        with ProcessPoolExecutor(max_workers=min(cfg.workers, n_chains),
                                 mp_context=ctx) as pool:
            results = list(pool.map(_chain_task, tasks))

    best = min(results, key=lambda r: (r.best_cost, r.chain_index))
    return SearchResult(
        best_term=best.best_term,
        best_cost=best.best_cost,
        best_chain=best.chain_index,
        steps=sum(r.steps for r in results),
        proposals=sum(r.proposals for r in results),
        hard_restarts=sum(r.hard_restarts for r in results),
        unsound_restarts=sum(r.unsound_restarts for r in results),
        wall_time=time.monotonic() - started,
        chains=results,
    )


def replay_trace(t0: Term, ruleset: Ruleset, trace: list[tuple[str, Position]]) -> Term:
    """Re-apply a recorded (rule, position) sequence; used to audit results."""
    by_name = {r.name: r for r in ruleset.rules}
    t = t0
    for rule_name, pos in trace:
        if rule_name == FOLD_RULE_NAME and ruleset.fold_constants:
            sub = subterm_at(t, pos)
            folded = (fold_step(sub.op.name, sub.children)
                      if sub.children else None)
            nxt = None if folded is None else replace_at(t, pos, folded)
        elif rule_name in by_name:
            nxt = apply_rule_at(by_name[rule_name], t, pos)
        else:
            raise ValueError(f"rule {rule_name!r} is not in ruleset "
                             f"{ruleset.name!r}")
        if nxt is None:
            raise ValueError(f"rule {rule_name!r} no longer applies at {pos}")
        t = nxt
    return t
