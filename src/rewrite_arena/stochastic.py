"""Metropolis-style rewrite search with restarts and parallel runs.

Each chain walks over concrete terms: the candidate set is every one-step
rewrite of the current term, found at each position by the ruleset's
compiled rewriter for that root operator (its rules, then any constant
fold), the one term-side rewrite path, which trace replay runs too.  A
successor is drawn with probability proportional to
exp(-beta/2 * (C(t') - C(t))).  A periodic exploration phase sets beta to
0; a chain that stops improving for too long either ends (when it has no
other budget) or hard-restarts from the initial term.  Chains are fully
independent; a search runs them in at most one process per usable CPU,
and the chains in one process share its time under a deadline.

Each chain hash-conses its terms (_Hashcons): a subterm equal to one the
chain has met is that same node, so its cost memo is already filled and
its one-step rewrites, with their cost deltas, are computed once.
"""
from __future__ import annotations

import math
import os
import random
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import NamedTuple

from .costs import CostModel
from .equivalence import Inequivalent
from .rules import (
    FOLD_RULE_NAME,
    Ruleset,
    instantiate,  # noqa: F401 -- unused here, but perfbench's tracer
    match_pattern,  # noqa: F401 -- wraps these two names in this module
)
from .terms import Term, Position, replace_at, subterm_at

_M64 = (1 << 64) - 1

# A chain with a validator checks every this many accepted steps.
VALIDATE_EVERY = 25

# The bounds of a chain's step memo (see run_chain).
MEMO_DEPTH = 16
MEMO_SIZE = 2048
# The nodes a chain's hashcons holds before it is cleared (see _Hashcons).
CONS_SIZE = 2048


class EmptyCandidateSetError(ValueError):
    pass


def check_time_limit(limit: float | None) -> None:
    """Reject a time limit that is neither None nor finite and not negative."""
    if limit is not None and not (math.isfinite(limit) and limit >= 0):
        raise ValueError(f"time_limit must be finite and not negative, "
                         f"got {limit}")


def check_number_fields(config) -> None:
    """Reject a config dataclass's int or float field that holds a bool or
    no number of its type; None passes where the field may be None."""
    numbers = {"int": (int,), "float": (int, float)}  # by type(): bool is int
    for f in fields(config):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(config, f.name)
        if kind in numbers and type(value) not in numbers[kind] and not (
                value is None and optional == "None"):
            what = "an integer" if kind == "int" else "a number"
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


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

    def __post_init__(self):
        check_number_fields(self)
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
    # The (rule, position) steps from t0 to best_term; [] when it is t0.
    best_trace: list[tuple[str, Position]] = field(default_factory=list)
    # The validator's verdict on the last unsound rewrite caught, for reports.
    unsound_witness: Inequivalent | None = None
    # Why the chain ended: target, deadline, max_steps, max_proposals,
    # stalled (at the stall limit, no budget left) or dead_end (t0 is stuck).
    stop_reason: str = ""


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


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else
    os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    acc = list(accumulate(math.exp(-half_beta * (d - lowest)) for d in deltas))
    # The first index whose running weight exceeds a uniform draw.
    return min(bisect_right(acc, rng.random() * acc[-1]), n - 1)


# The delta of a candidate enumerated outside a chain: not computed yet.
_UNCOSTED = object()


class _Candidate:
    """One-step rewrite of old_sub at position into new_sub.

    The result term is built only by materialize: only the sampled
    candidate pays for the spine rebuild.  delta is model.delta_cost of
    the rewrite when a chain's hashcons computed it (None: it does not
    localize), else _UNCOSTED."""

    __slots__ = ("rule", "position", "old_sub", "new_sub", "delta")

    def __init__(self, rule, position, old_sub, new_sub, delta=_UNCOSTED):
        self.rule = rule
        self.position = position
        self.old_sub = old_sub
        self.new_sub = new_sub
        self.delta = delta

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


def _rewrites_at(sub: Term, ruleset: Ruleset, model: CostModel | None):
    """The one-step rewrites of sub at its root, as (rule, key, new_sub,
    delta): key is the _result_key relative to sub, the first of equal
    keys kept, identity excluded; delta is model.delta_cost, or
    _UNCOSTED without a model."""
    out, keys = [], []
    rewrite = (ruleset._rewriters.get(sub.op.name)
               or ruleset.rewriter(sub.op.name))
    for rule, new_sub in rewrite(sub):
        if new_sub.op is not sub.op:
            key = (), new_sub
        elif (key := _result_key((), sub, new_sub)) is None:
            continue
        if key not in keys:
            keys.append(key)
            out.append((rule, key, new_sub, _UNCOSTED if model is None
                        else model.delta_cost(sub, new_sub)))
    return out


class _Hashcons:
    """One chain's hash-consed terms.

    `nodes` maps (op, id(child), ...) to the one node held with that
    operator and those children, as the e-graph's hashcons maps e-nodes;
    a node is held only with its children, so a held root holds its
    term.  `rewrites` maps a held node's id to its _rewrites_at, with the
    chain's model, computed once.  run_chain replaces the whole table once
    `nodes` reaches CONS_SIZE, so an id is read only while its node is
    held: Python reuses the ids of freed objects.
    """

    __slots__ = ("nodes", "rewrites", "model")

    def __init__(self, model: CostModel):
        self.nodes: dict[tuple, Term] = {}
        self.rewrites: dict[int, list[tuple]] = {}
        self.model = model

    def intern(self, t: Term) -> Term:
        """The held term equal to t; t's nodes that none equals are held
        as they are, and a node over replaced children is built anew."""
        nodes = self.nodes
        if nodes.get((t.op, *map(id, t.children))) is t:
            return t
        held: dict[int, Term] = {}  # id(node of t) -> the held equal node
        stack: list[Term | None] = [t]
        while stack:
            node = stack.pop()
            if node is None:  # a marker: the node under it has held children
                node = stack.pop()
                kids = tuple([held[id(c)] for c in node.children])
                key = (node.op, *map(id, kids))
                same = nodes.get(key)
                if same is None:
                    same = nodes[key] = node if all(
                        a is b for a, b in zip(kids, node.children)
                    ) else Term(node.op, kids)
                held[id(node)] = same
            elif id(node) in held:
                continue
            elif nodes.get((node.op, *map(id, node.children))) is node:
                held[id(node)] = node
            else:
                stack += (node, None, *node.children)
        return held[id(t)]

    def successor(self, t: Term, pos: Position, new_sub: Term) -> Term:
        """Held t with new_sub at pos, held.  Its path is looked up bottom-up;
        replace_at builds the levels above the first one the table lacks."""
        nodes = self.nodes
        s = self.intern(new_sub)
        spine = []
        for i in pos:
            spine.append(t)
            t = t.children[i]
        for depth in range(len(pos) - 1, -1, -1):
            node = spine[depth]
            ids = [*map(id, node.children)]
            ids[pos[depth]] = id(s)
            up = nodes.get((node.op, *ids))
            if up is None:  # nor any level above, whose key holds a new id
                s = node = replace_at(spine[0], pos[:depth + 1], s)
                for i in pos[:depth + 1]:
                    nodes[(node.op, *map(id, node.children))] = node
                    node = node.children[i]
                return s
            s = up
        return s


def _enumerate_candidates(t: Term, ruleset: Ruleset,
                          cons: _Hashcons | None = None) -> list[_Candidate]:
    """All one-step rewrites of t, deduplicated by result: the one enumerator.

    Order is position-major (preorder, as terms.positions), then the
    rewriter's (ruleset order, then constant folding), first occurrence
    kept, identity excluded.  A candidate is kept when its _result_key is
    new, so no result term is built or hashed.  Only a key below its
    rewrite's position can equal one of another position, and only one
    met later, so only those are kept in `deep`.  Leaves below the root
    are visited only when some rule's LHS is a leaf.

    With a chain's hashcons, which holds t, each node's rewrites and
    their deltas are read from it, and computed only for a node it has
    not met; without one, nothing is stored.
    """
    out: list[_Candidate] = []
    deep: set = set()
    known = cons.rewrites if cons is not None else None
    leaves = ruleset.rewrites_leaves  # a leaf never folds
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, sub = stack.pop()
        kids = sub.children
        if known is None:
            rewrites = _rewrites_at(sub, ruleset, None)
        elif (rewrites := known.get(id(sub))) is None:
            rewrites = known[id(sub)] = _rewrites_at(sub, ruleset, cons.model)
        for rule, (below, new), new_sub, delta in rewrites:
            if below or deep:
                key = pos + below, new
                if key in deep:
                    continue
                if below:
                    deep.add(key)
            out.append(_Candidate(rule, pos, sub, new_sub, delta))
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
    as the hashcons computed it or now, or model.spliced_cost when the
    change does not localize.  No memo entry is written on a candidate."""
    out = []
    for c in candidates:
        delta = c.delta
        if delta is _UNCOSTED:
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

    The chain interns t0 and every successor in its _Hashcons, so a node
    it has met is rewritten, costed and given its deltas once, and a
    successor builds only the part of its path the table lacks.  At the
    start of a step at which the table holds CONS_SIZE nodes or more, it
    is dropped, and t0 and the current term are interned into a new one.
    So it holds at most CONS_SIZE nodes plus one step's, or t0's and the
    current term's, and t0 stays the node every restart returns to.

    The chain also keeps a step memo of the terms it reaches fewer than
    MEMO_DEPTH steps past t0, until it holds MEMO_SIZE (a term counts 1
    plus its candidates): each term's candidates, their deltas and each
    successor built so far.  All are pure functions of the term, so a
    revisit, such as after a restart, re-runs only the draw, the validator
    and the counters.
    """
    if rng is None:
        rng = random.Random(chain_seed(cfg.seed, chain_index))
    started = time.monotonic()
    has_budget = (deadline is not None or cfg.max_steps is not None
                  or cfg.max_proposals is not None)

    cons = _Hashcons(model)
    t = t0 = cons.intern(t0)
    cost_t = cost_t0 = model.cost(t0)
    best = t0
    best_cost = cost_t
    n = 0
    n_stall = 0
    steps = 0
    total_proposals = 0
    accepted = 0
    hard_restarts = 0
    unsound_restarts = 0
    path: list[tuple[str, Position]] = []  # from t0 to t
    best_trace: list[tuple[str, Position]] = []
    solved = target_cost is not None and best_cost <= target_cost
    stop_reason = "target"
    memo: dict = {}  # term -> (candidates, deltas, {index: successor})
    memo_size = 0

    while not solved:
        if deadline is not None and time.monotonic() >= deadline:
            stop_reason = "deadline"
            break
        if cfg.max_steps is not None and steps >= cfg.max_steps:
            stop_reason = "max_steps"
            break
        if cfg.max_proposals is not None and total_proposals >= cfg.max_proposals:
            stop_reason = "max_proposals"
            break
        if n_stall >= cfg.n_hard:
            if not has_budget:
                stop_reason = "stalled"
                break
            hard_restarts += 1
            t, cost_t, n, n_stall, path = t0, cost_t0, 0, 0, []
            continue

        if len(cons.nodes) >= CONS_SIZE:
            cons = _Hashcons(model)
            # Both were held together, so each is held as it is, and t0
            # stays the node every restart returns to.
            cons.intern(t0)
            cons.intern(t)
        step = memo.get(t)
        if step is None:
            candidates = _enumerate_candidates(t, ruleset, cons)
            step = (candidates, _deltas(t, candidates, model, cost_t), {})
            if len(path) < MEMO_DEPTH and memo_size < MEMO_SIZE:
                memo[t] = step
                memo_size += 1 + len(candidates)
        candidates, deltas, successors = step
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
                stop_reason = "dead_end"
                break
            continue

        beta_now = 0.0 if (n % cfg.n_soft) < cfg.explore else cfg.beta
        i = sample_index(deltas, beta_now, rng)
        chosen = candidates[i]
        if i in successors:
            t = successors[i] = cons.intern(successors[i])
        else:
            t = successors[i] = cons.successor(t, chosen.position,
                                               chosen.new_sub)
        cost_t = model.cost(t)
        n += 1
        steps += 1
        accepted += 1
        path.append((chosen.rule, chosen.position))

        # The periodic check comes first, then the new-best check on the
        # same step: the validator seeds each check from its call count.
        if validator is not None and (
                accepted % VALIDATE_EVERY == 0 and not validator(t)
                or cost_t < best_cost and not validator(t)):
            unsound_restarts += 1
            t, cost_t, n, n_stall, path = t0, cost_t0, 0, 0, []
            continue

        if cost_t < best_cost:
            best = t
            best_cost = cost_t
            n_stall = 0
            best_trace = path.copy()
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
        stop_reason=stop_reason,
    )


def _run_chains(args) -> list[RunResult]:
    """Run a block of chains in index order; under a deadline, chain k of n
    gets the deadline now + (deadline - now) / (n - k): an equal share."""
    t0, ruleset, model, cfg, validator, indices, deadline, target_cost = args
    results = []
    for k, index in enumerate(indices):
        share, left = deadline, len(indices) - k
        if deadline is not None:  # so the last chain's is exactly deadline
            now = min(time.monotonic(), deadline)
            share -= (deadline - now) * (left - 1) / left
        v = validator and replace(validator, seed=validator.seed + 7919 * index)
        results.append(run_chain(t0, ruleset, model, cfg, v, chain_index=index,
                                 deadline=share, target_cost=target_cost))
    return results


def search(t0: Term, ruleset: Ruleset, model: CostModel, cfg: RunConfig,
           validator=None, target_cost: float | None = None,
           deadline: float | None = None) -> SearchResult:
    """Run cfg.chains independent chains and keep the best result.

    Per-chain seeds derive deterministically from cfg.seed and the chain
    index, so results do not depend on worker scheduling.  At most one
    process runs per usable CPU, none when that is one, each running a
    contiguous block of chains (_run_chains).  Chains are returned in index
    order; ties are broken by the lowest chain index.
    """
    started = time.monotonic()
    n = cfg.chains
    processes = min(cfg.workers, n, usable_cpus())
    blocks = [(t0, ruleset, model, cfg, validator,
               range(p * n // processes, (p + 1) * n // processes),
               deadline, target_cost) for p in range(processes)]

    if processes == 1:
        results = _run_chains(blocks[0])
    else:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=ctx) as pool:
            results = [r for block in pool.map(_run_chains, blocks)
                       for r in block]

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
    """Re-apply a (rule, position) path, such as a chain's best_trace,
    through the ruleset's compiled rewriters: the code the chain ran.
    A folding ruleset also accepts FOLD_RULE_NAME steps."""
    names = {r.name for r in ruleset.rules}
    if ruleset.fold_constants:
        names.add(FOLD_RULE_NAME)
    t = t0
    for rule_name, pos in trace:
        sub = subterm_at(t, pos)
        if rule_name not in names:
            raise ValueError(f"rule {rule_name!r} is not in ruleset "
                             f"{ruleset.name!r}")
        new_sub = dict(ruleset.rewriter(sub.op.name)(sub)).get(rule_name)
        if new_sub is None:
            raise ValueError(f"rule {rule_name!r} no longer applies at {pos}")
        t = replace_at(t, pos, new_sub)
    return t
