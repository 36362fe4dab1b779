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

Each chain hash-conses its terms (_Hashcons) and keeps one record per
held node: a subterm equal to one the chain has met is that same node, so
its cost memo is already filled, and its subtree's candidates, with their
cost deltas, are listed once, as are a term's step deltas and each
successor drawn from it.  A step walks only the path to a new draw, down
to find it and back up to build the successor.
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
from .terms import (Term, Position, cyclic_gc_paused, postorder, replace_at,
                    subterm_at)

_M64 = (1 << 64) - 1

# A chain with a validator checks every this many accepted steps.
VALIDATE_EVERY = 25

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


def search_processes(cfg: RunConfig) -> int:
    """The processes search runs cfg's chains in: one per usable CPU at
    most, and no more than there are workers or chains."""
    return min(cfg.workers, cfg.chains, usable_cpus())


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
    keys kept, identity excluded; delta is model.delta_cost (None: it does
    not localize), or None without a model."""
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
            out.append((rule, key, new_sub, None if model is None
                        else model.delta_cost(sub, new_sub)))
    return out


class _Hashcons:
    """One chain's hash-consed terms, with one record per held node.

    `nodes` maps (op, id(child), ...) to the one node held with that
    operator and those children, as the e-graph's hashcons maps e-nodes;
    a node is held only with its children, so a held root holds its
    term.  `held` maps a node's id to its record, under the table's
    ruleset and model, [rewrites, deltas, starts, keeps, step]:

    - rewrites: the node's own _rewrites_at;
    - deltas: the delta of every candidate of the node's subtree, in
      enumeration order: its own, then each child's, less those whose
      result one of its own rewrites already gives;
    - starts: per child, where its entries begin in deltas;
    - keeps: None, or, for a node that dropped some of a child's
      candidates, per child None or the indices into the child's deltas
      of those kept;
    - step: None until a chain steps from the node, then its
      _step_deltas and a map from each index drawn there to (successor,
      rule, position), the successor a held node.

    A node's record is built once, from its own rewrites and its
    children's deltas (shared, not copied, when only one of those has
    entries), so a step builds records only for the nodes the table has
    not met, and locate finds an entry by bisecting each level's starts.

    run_chain replaces the whole table once `nodes` reaches CONS_SIZE, so
    an id is read only while its node is held: Python reuses the ids of
    freed objects.  A table outside a chain holds no nodes, and its
    records are read only while the enumerated term lives.
    """

    __slots__ = ("nodes", "held", "ruleset", "model")

    def __init__(self, ruleset: Ruleset, model: CostModel | None):
        self.nodes: dict[tuple, Term] = {}
        self.held: dict[int, list] = {}
        self.ruleset = ruleset
        self.model = model

    def intern(self, t: Term) -> Term:
        """The held term equal to t; t's nodes that none equals are held
        as they are, and a node over replaced children is built anew."""
        nodes = self.nodes
        # id(node of t) -> the held equal node; one held as it is may lack one
        held: dict[int, Term] = {}

        def done(node):  # mapped, or held as it is
            return id(node) in held or nodes.get(
                (node.op, *map(id, node.children))) is node

        for node in postorder(t, done):
            kids = tuple([held.get(id(c), c) for c in node.children])
            key = (node.op, *map(id, kids))
            same = nodes.get(key)
            if same is None:
                same = nodes[key] = node if all(
                    a is b for a, b in zip(kids, node.children)
                ) else Term(node.op, kids)
            held[id(node)] = same
        return held.get(id(t), t)

    def candidates(self, t: Term) -> list:
        """t's deltas, after building the record of each node of t that
        has none, children first."""
        held = self.held
        for node in postorder(t, lambda node: id(node) in held):
            self._build(node)
        return held[id(t)][1]

    def _build(self, node: Term) -> None:
        # node's record (see the class), from its children's.
        kids, held = node.children, self.held
        if not kids and not self.ruleset.rewrites_leaves:
            held[id(node)] = [[], [], [], None, None]  # never folds
            return
        rewrites = _rewrites_at(node, self.ruleset, self.model)
        keeps = None
        for _, (below, new), _, _ in rewrites:
            # Only a key below its rewrite's position can equal a
            # descendant's, and only the descendants on its path have one.
            if below and (drop := self._indices(kids[below[0]], below[1:],
                                                new)):
                k = below[0]
                keeps = keeps or [None] * len(kids)
                kept = (range(len(held[id(kids[k])][1])) if keeps[k] is None
                        else keeps[k])
                keeps[k] = [j for j in kept if j not in drop]
        deltas = [rewrite[3] for rewrite in rewrites]
        starts = []
        for k, kid in enumerate(kids):
            starts.append(len(deltas))
            sub = held[id(kid)][1]
            if keeps is not None and keeps[k] is not None:
                sub = [sub[j] for j in keeps[k]]
            if sub:
                deltas = deltas + sub if deltas else sub
        held[id(node)] = [rewrites, deltas, starts, keeps, None]

    def _indices(self, node: Term, below: Position, new: Term) -> list[int]:
        """The indices into node's deltas of the entries whose _result_key,
        relative to node, is (below, new).  Each node on the path `below`
        has at most one own rewrite with that key; its index is mapped up
        through the levels above it."""
        held = self.held
        out, path = [], []
        for depth in range(len(below) + 1):
            key = below[depth:], new
            j = next((j for j, rewrite in enumerate(held[id(node)][0])
                      if rewrite[1] == key), None)
            for up, k in reversed(path):
                _, _, starts, keeps, _ = held[id(up)]
                keep = None if keeps is None else keeps[k]
                if j is None or keep is not None and j not in keep:
                    j = None  # a level above already dropped it
                    break
                j = starts[k] + (j if keep is None else keep.index(j))
            if j is not None:
                out.append(j)
            if depth < len(below):
                path.append((node, below[depth]))
                node = node.children[below[depth]]
        return out

    def locate(self, t: Term, i: int):
        """(path, position, rewrite) of entry i of t's built deltas: the
        nodes from t down to the rewritten node's parent, the rewritten
        node's position, and its own rewrite (rule, key, new_sub, delta)."""
        held = self.held
        path, pos = [], []
        while True:
            rewrites, _, starts, keeps, _ = held[id(t)]
            if i < len(rewrites):
                return path, tuple(pos), rewrites[i]
            # The last child starting at or before i: an empty child
            # starts where the next one does, so it is never picked.
            k = bisect_right(starts, i) - 1
            i -= starts[k]
            if keeps is not None and keeps[k] is not None:
                i = keeps[k][i]
            path.append(t)
            pos.append(k)
            t = t.children[k]

    def successor(self, path: list[Term], pos: Position, new_sub: Term):
        """The held term with new_sub at pos, where path and pos are what
        locate gave for a held term.  The path is looked up bottom-up;
        only the levels above the first one the table lacks are built,
        through replace_at (whose calls perfbench's tracer counts)."""
        nodes = self.nodes
        s = self.intern(new_sub)
        # Up the path without intern, which read ~20% slower on stoch-matmul.
        depth = len(pos)
        while depth:
            node = path[depth - 1]
            ids = [*map(id, node.children)]
            ids[pos[depth - 1]] = id(s)
            up = nodes.get((node.op, *ids))
            if up is None:  # nor any level above, whose key holds a new id
                break
            s = up
            depth -= 1
        if depth:  # replace_at builds the levels above, which are all new
            s = node = replace_at(path[0], pos[:depth], s)
            for k in pos[:depth]:
                nodes[(node.op, *map(id, node.children))] = node
                node = node.children[k]
        return s


def _enumerate_candidates(t: Term, ruleset: Ruleset,
                          cons: _Hashcons | None = None) -> list:
    """The deltas of all one-step rewrites of t, deduplicated by result:
    the one enumerator.  cons.locate gives an entry's rule, position and
    replacement.

    Order is position-major (preorder, as terms.positions), then the
    rewriter's (ruleset order, then constant folding), first occurrence
    kept, identity excluded.  A rewrite is kept unless a strict ancestor's
    own rewrite has the same absolute _result_key, so no result term is
    built or hashed.  Leaves below the root have candidates only when some
    rule's LHS is a leaf.

    cons is a chain's table over ruleset, holding t: each node's record is
    read from it and built only for the nodes it has not met.  Without
    one, a throwaway table is used, with no deltas (all None).
    """
    if cons is None:
        cons = _Hashcons(ruleset, None)
    return cons.candidates(t)


class Proposal(NamedTuple):
    term: Term
    rule: str
    position: Position


def proposals(t: Term, ruleset: Ruleset) -> list[Proposal]:
    """All one-step rewrites of t, materialized, in enumeration order."""
    cons = _Hashcons(ruleset, None)
    out = []
    for i in range(len(_enumerate_candidates(t, ruleset, cons))):
        _, pos, (rule, _, new_sub, _) = cons.locate(t, i)
        out.append(Proposal(replace_at(t, pos, new_sub), rule, pos))
    return out


def _step_deltas(t: Term, cons: _Hashcons, base_cost) -> list:
    """Each candidate's exact cost change under cons.model, with t costed:
    t's deltas, or, where one does not localize (None), a copy with
    model.spliced_cost in its place.  Nothing is stored on any term."""
    deltas = _enumerate_candidates(t, cons.ruleset, cons)
    if None not in deltas:
        return deltas
    spliced = cons.model.spliced_cost
    out = deltas.copy()
    for i, delta in enumerate(deltas):
        if delta is None:
            _, pos, (_, _, new_sub, _) = cons.locate(t, i)
            out[i] = spliced(t, pos, new_sub) - base_cost
    return out


@cyclic_gc_paused()
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
    it has met is rewritten, costed and given its candidate deltas once.
    A step reads the current term's deltas, bisects each level's child
    starts down to the drawn entry, and builds back up that path only the
    levels the table lacks.  The term's record also keeps, once the chain
    steps from it, the step's deltas and each successor drawn so far,
    with its rule and position (its `step` slot).  All are pure functions
    of the held node, so a revisit, such as after a restart, re-runs only
    the draw, the validator and the counters.

    At the start of a step at which the table holds CONS_SIZE nodes or
    more, it is dropped with all it keeps, and t0 and the current term
    are interned into a new one.  So it holds at most CONS_SIZE nodes plus
    one step's, or t0's and the current term's, and t0 stays the node
    every restart returns to.

    The chain runs with the cyclic collector paused: it frees what it
    makes by reference counting, and its table is gone when it returns,
    before the collector resumes.
    """
    if rng is None:
        rng = random.Random(chain_seed(cfg.seed, chain_index))
    started = time.monotonic()
    has_budget = (deadline is not None or cfg.max_steps is not None
                  or cfg.max_proposals is not None)

    cons = _Hashcons(ruleset, model)
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
            cons = _Hashcons(ruleset, model)
            # Both were held together, so each is held as it is, and t0
            # stays the node every restart returns to.
            cons.intern(t0)
            cons.intern(t)
        step = (record := cons.held.get(id(t))) and record[4]
        if step is None:  # _step_deltas builds t's record, then it is read
            step = cons.held[id(t)][4] = (_step_deltas(t, cons, cost_t), {})
        deltas, successors = step
        total_proposals += len(deltas)
        if not deltas:
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
        move = successors.get(i)
        if move is None:
            spine, position, (rule, _, new_sub, _) = cons.locate(t, i)
            move = successors[i] = (cons.successor(spine, position, new_sub),
                                    rule, position)
        t, rule, position = move
        cost_t = model.cost(t)
        n += 1
        steps += 1
        accepted += 1
        path.append((rule, position))

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
    processes = search_processes(cfg)
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
