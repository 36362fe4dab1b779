import ast
import math
import pickle
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rewrite_arena import (
    AstSize,
    CostModel,
    EquivalenceValidator,
    RunConfig,
    gen_matmul_chain,
    needle_case,
    parse_ruleset,
    parse_sexpr,
    print_sexpr,
    run_chain,
    search,
)
from rewrite_arena.benchmarks import (
    BenchmarkCase,
    TargetCost,
    halide_suite,
    integration_suite,
    matmul_case_from_dims,
    trig_suite,
)
from rewrite_arena.rules import (
    Ruleset,
    apply_rule_at,
    constant_term,
    fold_node,
    instantiate,
    match_pattern,
    parse_rule_line,
)
from rewrite_arena.runner import run_case
from rewrite_arena.rulesets import assoc_ruleset, halide_ruleset
from rewrite_arena.stochastic import (
    EmptyCandidateSetError,
    Proposal,
    _enumerate_candidates,
    chain_seed,
    proposals,
    replay_trace,
    sample_index,
)
from rewrite_arena.terms import leaf, positions, replace_at, term


def P(text):
    return parse_sexpr(text)


class _FixedDraw:
    """A stand-in for random.Random whose draws are all r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def test_sample_index_exact_law():
    # beta = 2, deltas {0, ln 4}: probabilities 4/5 and 1/5, so the draw
    # picks index 0 exactly when r < 0.8.
    deltas = [0.0, math.log(4)]
    assert [sample_index(deltas, 2.0, _FixedDraw(r))
            for r in (0.0, 0.7999, 0.8001, 0.9999)] == [0, 0, 1, 1]
    # beta = 0 is uniform: r in [k/3, (k+1)/3) picks index k.
    assert [sample_index([5.0, 0.0, 9.0], 0.0, _FixedDraw(r))
            for r in (0.0, 0.3333, 0.3334, 0.6667, 0.9999)] == [0, 0, 1, 2, 2]


def test_sample_index_overflow_safe():
    # Weights are shifted by the lowest delta: 1 and e^-1, split at
    # 1 / (1 + e^-1) = 0.731, with no overflow from exp(-5e5).
    deltas = [1e6, 1e6 + 2]
    assert [sample_index(deltas, 1.0, _FixedDraw(r))
            for r in (0.73, 0.732)] == [0, 1]


def test_sample_single_candidate_certain():
    rng = random.Random(0)
    for _ in range(5):
        assert sample_index([1.0], 1.0, rng) == 0


def test_sample_beta_zero_uniform():
    rng = random.Random(1)
    # AstSize deltas of (sin x), (+ x 1) and (* 2 (+ x 1)) from x.
    deltas = [1.0, 2.0, 4.0]
    counts = [0, 0, 0]
    for _ in range(6000):
        counts[sample_index(deltas, 0.0, rng)] += 1
    assert all(abs(c / 6000 - 1 / 3) < 0.03 for c in counts)


def test_sample_empty_candidates_raises():
    with pytest.raises(EmptyCandidateSetError):
        sample_index([], 1.0, random.Random(0))


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
    then sits at a term with no candidates.  Stuck at t0 itself, the chain
    ends at the stall limit, since every restart would come back."""
    steps = restarts = proposals = stall = 0
    at_start = True
    while max_steps is None or steps < max_steps:
        if stall >= n_hard:
            if max_steps is None or not moves_first:
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


def test_a_chain_stuck_at_its_start_ends_under_any_budget():
    # No rule applies to t0; with a deadline and a proposal cap the chain
    # used to restart into t0 without end, making no proposals.
    rs = parse_ruleset("peel: (f ?x) => ?x", name="stuck")
    cfg = RunConfig(workers=1, budget=1, seed=0, n_hard=40, max_proposals=100)
    started = time.monotonic()
    res = run_chain(P("(g a)"), rs, AstSize(), cfg, deadline=started + 60)
    assert (res.steps, res.hard_restarts, res.proposals) == (40, 0, 0)
    assert time.monotonic() - started < 30


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


def test_fold_steps_replay_to_best_term():
    case = next(c for c in halide_suite() if c.name == "halide-paper")
    cfg = replace(RunConfig(seed=0, max_proposals=3000, record_trace=True),
                  **case.stochastic_overrides)
    res = run_chain(case.input_term, case.ruleset, case.model_for("stochastic"),
                    cfg, target_cost=0)
    assert res.best_term == P("true")
    assert [rule for rule, _ in res.best_trace].count("fold") >= 2
    assert replay_trace(case.input_term, case.ruleset, res.best_trace) \
        == res.best_term


def test_replay_rejects_a_step_that_does_not_apply():
    rs = halide_ruleset()
    assert replay_trace(P("(+ 1 2)"), rs, [("fold", ())]) == P("3")
    # A fold needs literal children at its position.
    with pytest.raises(ValueError, match="no longer applies"):
        replay_trace(P("(+ x 2)"), rs, [("fold", ())])
    with pytest.raises(ValueError, match="no longer applies"):
        replay_trace(P("(< (+ 1 2) x)"), rs, [("fold", ())])
    # A rule the ruleset lacks is named, not a bare KeyError.
    with pytest.raises(ValueError, match="no-such-rule"):
        replay_trace(P("(+ 1 2)"), rs, [("no-such-rule", ())])


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

    cfg = RunConfig(workers=1, budget=1, seed=1, max_steps=200)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                    validator=reject_everything)
    assert res.unsound_restarts > 0
    assert res.best_term == case.input_term


def test_unsound_rewrite_note_names_the_witness_point(capsys):
    # (sin ?x) => ?x is unsound: the validator catches every step to x, and
    # the run's note names a point where the two sides differ.
    ruleset = Ruleset("unsound", parse_rule_line("drop-sin: (sin ?x) => ?x"))
    case = BenchmarkCase("drop-sin", P("(sin x)"), ruleset, AstSize(),
                         TargetCost(1), validate=True, time_limit=None)
    row = run_case(case, "stochastic", RunConfig(seed=1, max_steps=5))
    assert row.unsound_restarts == 5 and not row.solved
    note = re.fullmatch(r"note: drop-sin: unsound rewrite caught in chain 0 "
                        r"at (\{.*\}) \(lhs=(\S+), rhs=(\S+)\)\n",
                        capsys.readouterr().err)
    assert note is not None
    point, lhs, rhs = ast.literal_eval(note[1]), float(note[2]), float(note[3])
    assert list(point) == ["x"]
    assert lhs == pytest.approx(math.sin(point["x"]), rel=1e-5, abs=1e-6)
    assert rhs == pytest.approx(point["x"], rel=1e-5, abs=1e-6)
    assert abs(lhs - rhs) > 1e-3


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
    # 10,000 draws from 3 candidates, beta = 2, deltas {0, ln 4, ln 4}:
    # expect {2/3, 1/6, 1/6}; chi-square df = 2.
    rng = random.Random(123)
    ln4 = math.log(4)
    counts = [0, 0, 0]
    draws = 10000
    for _ in range(draws):
        counts[sample_index([0.0, ln4, ln4], 2.0, rng)] += 1
    expected = [draws * 2 / 3, draws / 6, draws / 6]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    # p > 0.01 for df = 2 means chi2 below 9.2103
    assert chi2 < 9.2103


# Chains with the curated schedule, no target and a proposal budget, so each
# spends its whole budget.  The rows were captured before the stochastic
# pattern layer was compiled; they pin chains bit for bit.
GOLDEN_CHAINS = {
    # Validator on: every 25th accepted term and each new best are checked.
    "trig-cos2-sin2": (
        lambda: next(c for c in trig_suite() if c.name == "trig-cos2-sin2"),
        3, 4000,
        ("(- 1 (* 2 (pow (sin x) 2)))", 8, 1083, 4000, 3, 0)),
    # Reaches `true`, where no rule applies: dead ends and hard restarts.
    "halide-paper": (
        lambda: next(c for c in halide_suite() if c.name == "halide-paper"),
        3, 3000,
        ("true", 0, 3926, 3003, 13, 0)),
    # Unsolved at this budget, so the best term depends on the whole path.
    "matmul-12": (
        lambda: matmul_case_from_dims(
            [30, 5, 41, 12, 7, 33, 18, 2, 25, 9, 16, 40, 3], name="matmul-12"),
        3, 800,
        ("(* A1 (* (* (* (* (* (* (* A2 (* A3 A4)) A5) A6) A7) A8) A9) "
         "(* A10 (* A11 A12))))", 13496, 80, 800, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHAINS))
def test_stochastic_golden_rows(name):
    build, seed, max_proposals, row = GOLDEN_CHAINS[name]
    case = build()
    cfg = replace(RunConfig(seed=seed, max_proposals=max_proposals),
                  **(case.stochastic_overrides or {}))
    validator = (EquivalenceValidator(case.input_term, seed=seed)
                 if case.validate else None)
    res = run_chain(case.input_term, case.ruleset, case.model_for("stochastic"),
                    cfg, validator=validator)
    assert (print_sexpr(res.best_term), res.best_cost, res.steps,
            res.proposals, res.hard_restarts, res.unsound_restarts) == row


def _reference_proposals(t, ruleset, dedup=True):
    """All one-step rewrites of t, deduplicated by result term, written
    independently of the engine: position-major (preorder), rule-minor
    (ruleset order, then constant folding), identity never proposed.
    With dedup off, every non-identity rewrite is kept."""
    out = []
    seen = set()
    for pos, sub in positions(t):
        for rule in ruleset.rules_for_root(sub.op.name):
            subst = match_pattern(rule.lhs, sub)
            if subst is None:
                continue
            if rule.guard is not None and not rule.guard.passes(subst[rule.guard.var]):
                continue
            candidate = replace_at(t, pos, instantiate(rule.rhs, subst))
            if candidate == t or dedup and candidate in seen:
                continue
            seen.add(candidate)
            out.append(Proposal(candidate, rule.name, pos))
        if ruleset.fold_constants and sub.children:
            values = []
            for k in sub.children:
                v = k.op.value
                if v is None:
                    break
                values.append(v)
            if len(values) == len(sub.children):
                folded = fold_node(sub.op.name, values)
                if folded is not None:
                    candidate = replace_at(t, pos, constant_term(folded))
                    if candidate != t and not (dedup and candidate in seen):
                        seen.add(candidate)
                        out.append(Proposal(candidate, "fold", pos))
    return out


# Rule shapes the suites lack: a bare-variable left-hand side, a
# non-linear one with a literal right-hand side, and a guard on a nested
# variable with a bare-variable right-hand side.
_EDGE_RULES = """
pad: ?a => (+ ?a 0)
same: (- ?a ?a) => 0
keep: (* ?a (/ ?b ?b)) => ?a if nonzero(?b)
"""


def _dedup_terms():
    """(term, ruleset) along a seeded 30-step walk from each suite input;
    trig walks reach terms such as (* 1 1) whose rewrites repeat."""
    starts = [(case.input_term, case.ruleset) for case in [
        *trig_suite(), *integration_suite(), *halide_suite(),
        matmul_case_from_dims([30, 5, 41, 12, 7, 33, 18, 2, 25, 9, 16,
                               40, 3], name="matmul-12")]]
    for fold in (False, True):
        rs = parse_ruleset(_EDGE_RULES, "edge", fold_constants=fold)
        starts += [(P(text), rs) for text in (
            "(* (- x x) (/ (+ y 1) (+ y 1)))", "(- (* 2 3) (* 2 3))",
            "(* x (/ 0 0))")]
    rng = random.Random(0)
    out = []
    for t, ruleset in starts:
        for _ in range(30):
            out.append((t, ruleset))
            successors = _reference_proposals(t, ruleset)
            if not successors:
                break
            t = rng.choice(successors).term
    return out


def _enumerated(terms):
    """(rule, position, result) of each rewrite the engine enumerates."""
    return [[(p.rule, p.position, p.term) for p in proposals(t, rs)]
            for t, rs in terms]


def _reference(terms, dedup=True):
    """(rule, position, result) of each rewrite the reference proposes."""
    return [[(p.rule, p.position, p.term)
             for p in _reference_proposals(t, rs, dedup)] for t, rs in terms]


def _assert_dedups_like_reference(terms):
    want = _reference(terms)
    # Order and deduplication match the reference.
    assert _enumerated(terms) == want
    # Without deduplication the reference keeps more, so the lists above
    # did drop duplicate results.
    assert sum(map(len, _reference(terms, dedup=False))) > sum(map(len, want))


def test_dedup_matches_reference_on_seeded_walks():
    _assert_dedups_like_reference(_dedup_terms())


def test_compiled_rewriters_survive_pickling():
    case = trig_suite()[0]
    rs = case.ruleset
    terms = [(t, rs) for t, ruleset in _dedup_terms()
             if ruleset.name == rs.name]
    assert terms
    before = _enumerated(terms)  # compiles rs's rewriters
    assert rs._rewriters
    copy = pickle.loads(pickle.dumps(rs))
    assert _enumerated([(t, copy) for t, _ in terms]) == before
    # Parallel chains get the already-used ruleset pickled.
    model = case.model_for("stochastic")
    seq, par = [search(case.input_term, rs, model,
                       RunConfig(workers=workers, budget=3, seed=5,
                                 max_steps=200),
                       validator=EquivalenceValidator(case.input_term,
                                                      seed=5))
                for workers in (1, 2)]
    assert (seq.best_term, seq.best_cost, seq.steps, seq.proposals,
            seq.unsound_restarts) == (par.best_term, par.best_cost,
                                      par.steps, par.proposals,
                                      par.unsound_restarts)
    assert [r.best_cost for r in seq.chains] == \
        [r.best_cost for r in par.chains]


# Rewrites that collide across positions: lift and left change only a
# child, which down rewrites too; comm's two directions agree; two and a
# fold of (+ 1 1) agree; comm of (+ x x) changes nothing.
_COLLIDING_RULES = """
lift: (f (h ?y)) => (f (k ?y))
down: (h ?y) => (k ?y)
comm: (+ ?a ?b) <=> (+ ?b ?a)
left: (+ (h ?y) ?z) => (+ (k ?y) ?z)
two: (f (+ 1 1)) => (f 2)
"""


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return leaf(rng.choice(["x", "y", "0", "1", "2"]))
    op = rng.choice(["f", "h", "k", "+", "+"])
    return term(op, *[_random_term(rng, depth - 1)
                      for _ in range(2 if op == "+" else 1)])


@pytest.mark.parametrize("fold", [False, True])
def test_dedup_matches_reference_on_colliding_rewrites(fold):
    rs = parse_ruleset(_COLLIDING_RULES, "colliding", fold_constants=fold)
    rng = random.Random(int(fold))
    _assert_dedups_like_reference([(_random_term(rng, 6), rs)
                                   for _ in range(400)])


def _brute_force(t, ruleset):
    """(rule, position, result) of each rewrite of t: every rule applied at
    every position, identity dropped, the first of equal results kept."""
    out, seen = [], {t}
    for pos, _ in positions(t):
        for rule in ruleset.rules:
            new = apply_rule_at(rule, t, pos)
            if new is not None and new not in seen:
                seen.add(new)
                out.append((rule.name, pos, new))
    return out


_LEAF_RULESETS = [
    parse_ruleset("pad: ?a => (+ ?a 0)\nneg: (neg ?a) => ?a", "variable-lhs"),
    parse_ruleset("one: 1 => (neg (neg 1))\nflip: (+ ?a ?b) => (+ ?b ?a)",
                  "literal-lhs"),
]
_TERMS = st.recursive(
    st.sampled_from(["x", "0", "1"]).map(leaf),
    lambda kids: st.one_of(st.builds(lambda a: term("neg", a), kids),
                           st.builds(lambda a, b: term("+", a, b), kids,
                                     kids)),
    max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(_TERMS)
def test_rules_with_a_leaf_lhs_still_rewrite_leaves(t):
    for rs in _LEAF_RULESETS:
        assert rs.rewrites_leaves
        got = [(c.rule, c.position, c.materialize(t))
               for c in _enumerate_candidates(t, rs)]
        assert got == _brute_force(t, rs)
    # Growing a leaf never gives a term another rewrite gives.
    assert {pos for rule, pos, _ in got if rule == "one"} == \
        {pos for pos, sub in positions(t) if sub == leaf("1")}


def test_leaves_are_skipped_only_without_a_leaf_lhs():
    assert not assoc_ruleset().rewrites_leaves
    assert not trig_suite()[0].ruleset.rewrites_leaves
    assert needle_case(3).ruleset.rewrites_leaves  # a => b, b => a
    t = P("(* (* A1 A2) (* A3 A4))")
    assert _enumerate_candidates(t, assoc_ruleset()) and [
        (c.rule, c.position, c.materialize(t))
        for c in _enumerate_candidates(t, assoc_ruleset())
    ] == _brute_force(t, assoc_ruleset())
