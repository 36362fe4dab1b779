import math
import random
from dataclasses import replace

import pytest

from rewrite_arena import (
    AstSize,
    CostModel,
    RunConfig,
    chain_seed,
    gen_matmul_chain,
    needle_case,
    parse_ruleset,
    parse_sexpr,
    replay_trace,
    run_chain,
    sample_successor,
    search,
    successor_weights,
)
from rewrite_arena.stochastic import EmptyCandidateSetError


def P(text):
    return parse_sexpr(text)


def test_successor_weights_exact_law():
    # beta = 2, deltas {0, ln 4}: probabilities 4/5 and 1/5
    ws = successor_weights(0.0, [0.0, math.log(4)], 2.0)
    total = sum(ws)
    assert abs(ws[0] / total - 0.8) < 1e-12
    assert abs(ws[1] / total - 0.2) < 1e-12


def test_successor_weights_overflow_safe():
    ws = successor_weights(0.0, [1e6, 1e6 + 2], 1.0)
    assert ws[0] == 1.0 and 0 < ws[1] < 1


def test_sample_single_candidate_certain():
    rng = random.Random(0)
    t = P("x")
    c = P("(sin x)")
    for _ in range(5):
        assert sample_successor(t, [c], 1.0, AstSize(), rng) is c


def test_sample_beta_zero_uniform():
    rng = random.Random(1)
    t = P("x")
    cands = [P("(sin x)"), P("(+ x 1)"), P("(* 2 (+ x 1))")]
    counts = [0, 0, 0]
    for _ in range(6000):
        pick = sample_successor(t, cands, 0.0, AstSize(), rng)
        counts[cands.index(pick)] += 1
    assert all(abs(c / 6000 - 1 / 3) < 0.03 for c in counts)


def test_sample_empty_candidates_raises():
    with pytest.raises(EmptyCandidateSetError):
        sample_successor(P("x"), [], 1.0, AstSize(), random.Random(0))


def test_chain_seed_deterministic_and_spread():
    assert chain_seed(1, 0) == chain_seed(1, 0)
    seeds = {chain_seed(7, i) for i in range(100)}
    assert len(seeds) == 100


def test_run_chain_deterministic():
    case = gen_matmul_chain(6, 1, 9, random.Random(2))
    cfg = RunConfig(workers=1, budget=1, seed=5, max_steps=400)
    a = run_chain(case.input_term, case.ruleset, case.cost_model, cfg)
    b = run_chain(case.input_term, case.ruleset, case.cost_model, cfg)
    assert a.best_term == b.best_term
    assert a.best_cost == b.best_cost
    assert a.steps == b.steps and a.proposals == b.proposals


def test_search_workers1_budget1_matches_run_chain():
    case = gen_matmul_chain(5, 1, 9, random.Random(8))
    cfg = RunConfig(workers=1, budget=1, seed=9, max_steps=300)
    solo = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                     rng=random.Random(chain_seed(cfg.seed, 0)))
    agg = search(case.input_term, case.ruleset, case.cost_model, cfg)
    assert agg.best_term == solo.best_term
    assert agg.best_cost == solo.best_cost
    assert agg.steps == solo.steps


def test_chain_finds_dp_optimum_on_small_chain():
    case = gen_matmul_chain(4, 1, 9, random.Random(3))
    cfg = RunConfig(workers=1, budget=1, seed=1, max_steps=3000)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                    target_cost=case.oracle_cost)
    assert res.best_cost == case.oracle_cost


def test_empty_ruleset_exits_after_n_hard_stalls():
    rs = parse_ruleset("", name="empty")
    cfg = RunConfig(workers=1, budget=1, seed=0, n_hard=40)
    res = run_chain(P("(+ x 1)"), rs, AstSize(), cfg)
    assert res.best_term == P("(+ x 1)")
    assert res.steps == 40
    assert res.hard_restarts == 0


def _dead_end_reference(moves_first, n_hard, max_steps):
    """(steps, hard_restarts, proposals), counted one step at a time, of a
    chain that makes one non-improving move from t0 (if `moves_first`) and
    then sits at a term with no candidates."""
    steps = restarts = proposals = stall = 0
    at_start = True
    while max_steps is None or steps < max_steps:
        if stall >= n_hard:
            if max_steps is None:
                break
            restarts += 1
            stall, at_start = 0, True
            continue
        if at_start and moves_first:
            proposals += 1
        at_start = False
        stall += 1
        steps += 1
    return steps, restarts, proposals


@pytest.mark.parametrize("text", ["", "step: a => b"])
@pytest.mark.parametrize("max_steps", [None, 1000, 1010, 7])
def test_dead_end_stall_arithmetic(text, max_steps):
    rs = parse_ruleset(text, name="dead-end")
    cfg = RunConfig(workers=1, budget=1, seed=0, n_hard=40,
                    max_steps=max_steps)
    res = run_chain(P("a"), rs, AstSize(), cfg)
    assert (res.steps, res.hard_restarts, res.proposals) == \
        _dead_end_reference(bool(text), 40, max_steps)


def test_explore_equal_nsoft_is_pure_random_walk():
    # With E = n_soft every step runs at beta 0, so beta never matters.
    case = gen_matmul_chain(5, 1, 9, random.Random(12))
    base = RunConfig(workers=1, budget=1, seed=3, max_steps=500,
                     n_soft=100, explore=100)
    a = run_chain(case.input_term, case.ruleset, case.cost_model, base)
    b = run_chain(case.input_term, case.ruleset, case.cost_model,
                  replace(base, beta=1e9))
    assert a.best_term == b.best_term and a.steps == b.steps


class _Shifted(CostModel):
    """Wraps a model, adding a constant to every term's cost."""

    def __init__(self, inner, shift):
        super().__init__()
        self.inner = inner
        self.shift = shift

    def cost(self, t):
        return self.inner.cost(t) + self.shift

    def delta_cost(self, old_sub, new_sub):
        return self.inner.delta_cost(old_sub, new_sub)


def test_shift_invariance_of_successor_distribution():
    case = gen_matmul_chain(5, 1, 9, random.Random(21))
    cfg = RunConfig(workers=1, budget=1, seed=17, max_steps=300)
    a = run_chain(case.input_term, case.ruleset, case.cost_model, cfg)
    shifted = _Shifted(case.cost_model, 1000)
    b = run_chain(case.input_term, case.ruleset, shifted, cfg)
    assert a.best_term == b.best_term
    assert b.best_cost == a.best_cost + 1000
    assert a.steps == b.steps


def test_trace_replays_to_best_term():
    case = next(
        c for c in (gen_matmul_chain(5, 1, 9, random.Random(s))
                    for s in range(20))
        if c.cost_model.cost(c.input_term) > c.oracle_cost
    )
    cfg = RunConfig(workers=1, budget=1, seed=2, max_steps=500,
                    record_trace=True)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                    target_cost=case.oracle_cost)
    assert res.best_trace is not None
    replayed = replay_trace(case.input_term, case.ruleset, res.best_trace)
    assert replayed == res.best_term


def test_trace_replay_through_restarts():
    nc = needle_case(4)
    cfg = RunConfig(workers=1, budget=1, seed=6, max_steps=4000, n_hard=50,
                    record_trace=True)
    res = run_chain(nc.input_term, nc.ruleset, nc.cost_model, cfg,
                    target_cost=0)
    if res.best_trace:  # solved after some restart: trace is segment-local
        assert replay_trace(nc.input_term, nc.ruleset, res.best_trace) \
            == res.best_term


def test_hard_restart_counter():
    nc = needle_case(6)
    cfg = RunConfig(workers=1, budget=1, seed=0, max_steps=900, n_hard=100)
    res = run_chain(nc.input_term, nc.ruleset, nc.cost_model, cfg)
    # flat landscape: every 100 stalled steps forces a restart
    assert res.hard_restarts >= 7


def test_max_proposals_budget():
    case = gen_matmul_chain(6, 1, 9, random.Random(2))
    cfg = RunConfig(workers=1, budget=1, seed=5, max_proposals=500)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg)
    assert res.proposals >= 500
    assert res.proposals - 500 < 60  # overshoot bounded by one step


def test_unsound_validator_forces_restart():
    case = gen_matmul_chain(4, 1, 9, random.Random(2))

    flagged = []

    def reject_everything(t):
        flagged.append(t)
        return False

    cfg = RunConfig(workers=1, budget=1, seed=1, max_steps=200,
                    validate_every=5)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                    validator=reject_everything)
    assert res.unsound_restarts > 0
    assert res.best_term == case.input_term


def test_search_parallel_equals_sequential():
    case = gen_matmul_chain(5, 1, 9, random.Random(30))
    seq = search(case.input_term, case.ruleset, case.cost_model,
                 RunConfig(workers=1, budget=3, seed=11, max_steps=150))
    par = search(case.input_term, case.ruleset, case.cost_model,
                 RunConfig(workers=2, budget=3, seed=11, max_steps=150))
    assert seq.best_term == par.best_term
    assert seq.best_cost == par.best_cost
    assert seq.steps == par.steps
    assert [r.best_cost for r in seq.chains] == [r.best_cost for r in par.chains]


def test_search_returns_minimum_over_chains():
    case = gen_matmul_chain(8, 1, 15, random.Random(44))
    cfg = RunConfig(workers=1, budget=4, seed=2, max_steps=120)
    agg = search(case.input_term, case.ruleset, case.cost_model, cfg)
    per_chain = [r.best_cost for r in agg.chains]
    assert agg.best_cost == min(per_chain)
    assert agg.best_chain == per_chain.index(min(per_chain))


def test_search_tie_breaks_lowest_chain_index():
    rs = parse_ruleset("", name="empty2")
    cfg = RunConfig(workers=1, budget=4, seed=0, n_hard=5)
    agg = search(P("(+ x 1)"), rs, AstSize(), cfg)
    assert agg.best_chain == 0


def test_empirical_frequencies_match_analytic_distribution():
    # 10,000 draws from a fixed 3-candidate set, beta = 2,
    # deltas {0, ln 4, ln 4}: expect {2/3, 1/6, 1/6}; chi-square df = 2.
    rng = random.Random(123)
    t = P("(+ x (+ x (+ x x)))")  # cost 7
    ln4 = math.log(4)
    base = AstSize().cost(t)

    class Fixed(CostModel):
        def __init__(self, mapping):
            super().__init__()
            self.mapping = mapping

        def cost(self, term):
            return self.mapping.get(term, base)

    c0, c1, c2 = P("(sin q0)"), P("(sin q1)"), P("(sin q2)")
    model = Fixed({c0: base, c1: base + ln4, c2: base + ln4})
    counts = {c0: 0, c1: 0, c2: 0}
    draws = 10000
    for _ in range(draws):
        counts[sample_successor(t, [c0, c1, c2], 2.0, model, rng)] += 1
    expected = {c0: draws * 2 / 3, c1: draws / 6, c2: draws / 6}
    chi2 = sum((counts[c] - expected[c]) ** 2 / expected[c] for c in counts)
    # p > 0.01 for df = 2 means chi2 below 9.2103
    assert chi2 < 9.2103
