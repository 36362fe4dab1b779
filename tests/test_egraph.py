import random
from fractions import Fraction

import pytest

from rewrite_arena import (
    AstSize,
    BackoffScheduler,
    EGraph,
    MatMulScalarOps,
    DimensionError,
    EqsatConfig,
    Inequivalent,
    IntegSquare,
    ReachTerm,
    WeightedAstSize,
    const_fold,
    eval_numeric,
    extract,
    fuzz_equiv,
    gen_matmul_chain,
    needle_case,
    parse_sexpr,
    print_sexpr,
    pulse,
    run_iteration,
    saturate,
)
from rewrite_arena.benchmarks import BenchmarkCase
from rewrite_arena.egraph import ExtractionError
from rewrite_arena.rules import parse_ruleset
from rewrite_arena.runner import run_case_eqsat
from rewrite_arena.rulesets import assoc_ruleset, trig_ruleset
from rewrite_arena.terms import Term, leaf, symbol
from helpers import random_term


def P(text):
    return parse_sexpr(text)


def test_add_term_hashconses():
    g = EGraph()
    assert g.add_term(P("x")) == g.add_term(P("x"))
    assert g.add_term(P("(* A B)")) == g.add_term(P("(* A B)"))
    assert g.add_term(P("(* A B)")) != g.add_term(P("(* B A)"))


def test_union_find_basics():
    g = EGraph()
    a = g.add_term(P("x"))
    b = g.add_term(P("y"))
    assert g.union(a, a) == g.find(a)
    g.union(a, b)
    assert g.find(a) == g.find(b)
    assert g.find(g.find(a)) == g.find(a)


def test_union_zero_one_sets_contradiction():
    g = EGraph()
    zero = g.add_term(P("0"))
    one = g.add_term(P("1"))
    assert not g.contradiction
    g.union(zero, one)
    assert g.contradiction


def test_congruence_after_rebuild():
    g = EGraph()
    fx = g.add_term(P("(sin x)"))
    fy = g.add_term(P("(sin y)"))
    x = g.add_term(P("x"))
    y = g.add_term(P("y"))
    assert g.find(fx) != g.find(fy)
    g.union(x, y)
    g.rebuild()
    assert g.find(fx) == g.find(fy)


def test_rebuild_on_clean_graph_is_noop():
    g = EGraph()
    g.add_term(P("(+ x y)"))
    nodes = g.num_nodes()
    before = dict(g.hashcons)
    g.rebuild()
    assert g.num_nodes() == nodes
    assert g.hashcons == before


def test_hashcons_keys_canonical_after_rebuild():
    g = EGraph()
    g.add_term(P("(+ (sin x) (sin y))"))
    g.union(g.add_term(P("x")), g.add_term(P("y")))
    g.rebuild()
    for node, cid in g.hashcons.items():
        assert cid in g.classes
        canon = (node[0], *[g.find(c) for c in node[1:]])
        assert canon == node


def _assert_congruent(g):
    """Full congruence scan: canonical nodes map to exactly one class, and
    the hashcons agrees with class membership."""
    owner = {}
    for cid, cls in g.classes.items():
        assert g.find(cid) == cid
        for node in cls.nodes:
            canon = (node[0], *[g.find(c) for c in node[1:]])
            assert canon == node  # nodes canonical after rebuild
            assert owner.setdefault(canon, cid) == cid
            assert g.find(g.hashcons[canon]) == cid
    for node, cid in g.hashcons.items():
        assert node in g.classes[g.find(cid)].nodes


def test_congruence_full_scan_after_random_unions():
    rng = random.Random(64)
    for _ in range(25):
        g = EGraph()
        roots = [g.add_term(random_term(rng, depth=3)) for _ in range(4)]
        g.rebuild()
        _assert_congruent(g)
        classes = list(g.classes.keys())
        for _ in range(4):
            a, b = rng.choice(classes), rng.choice(classes)
            if g.find(a) != g.find(b):
                g.union(a, b)
            g.rebuild()
            _assert_congruent(g)
            classes = list(g.classes.keys())


def test_class_count_nonincreasing_under_unions():
    g = EGraph()
    g.add_term(P("(+ (* q1 q2) (* q2 q1))"))
    count = g.num_classes()
    g.union(g.add_term(P("q1")), g.add_term(P("q2")))
    g.rebuild()
    assert g.num_classes() < count


def test_constant_folding_analysis():
    g = EGraph()
    cid = g.add_term(P("(+ 1 2)"))
    g.rebuild()
    assert g.constant_of(cid) == Fraction(3)
    # the literal 3 is materialized into the class
    assert g.represents(cid, P("3"))


def test_ematch_variable_matches_every_class():
    g = EGraph()
    g.add_term(P("(+ x y)"))
    g.rebuild()
    assert len(g.ematch(P("?a"))) == g.num_classes()


def test_ematch_nested_product():
    g = EGraph()
    g.add_term(P("(* A (* B C))"))
    g.rebuild()
    hits = g.ematch(P("(* ?a (* ?b ?c))"))
    assert len(hits) == 1
    subst, root = hits[0]
    assert g.find(subst["?a"]) == g.find(g.add_term(P("A")))


def test_ematch_after_union_matches_in_shared_class():
    g = EGraph()
    left = g.add_term(P("(* (* A B) C)"))
    right = g.add_term(P("(* A (* B C))"))
    g.union(left, right)
    g.rebuild()
    for pattern in (P("(* (* ?a ?b) ?c)"), P("(* ?a (* ?b ?c))")):
        hits = g.ematch(pattern)
        assert any(g.find(root) == g.find(left) for _, root in hits)


def test_ematch_nonlinear_pattern():
    g = EGraph()
    g.add_term(P("(- q3 q3)"))
    g.add_term(P("(- q3 q4)"))
    g.rebuild()
    hits = g.ematch(P("(- ?a ?a)"))
    assert len(hits) == 1


def test_scheduler_bans_after_threshold():
    sched = BackoffScheduler(match_limit=0, ban_length=5)
    assert sched.can_run("r", 0)
    banned = sched.record("r", 1, 0)
    assert banned
    assert not sched.can_run("r", 1)
    assert not sched.can_run("r", 5)
    assert sched.can_run("r", 6)
    assert sched.stats["r"].times_banned == 1


def test_scheduler_doubles_on_retrigger():
    sched = BackoffScheduler(match_limit=2, ban_length=3)
    sched.record("r", 5, 0)
    st = sched.stats["r"]
    assert st.match_limit == 4 and st.ban_length == 6
    sched.record("r", 50, 4)
    assert st.match_limit == 8 and st.ban_length == 12


def test_run_iteration_needle_two_steps():
    nc = needle_case(8)
    g = EGraph()
    root = g.add_term(nc.input_term)
    g.rebuild()
    sched = BackoffScheduler()
    run_iteration(g, nc.ruleset, sched, 0)
    # after one iteration b is equal to a
    a = g.add_term(P("a"))
    b = g.add_term(P("b"))
    assert g.find(a) == g.find(b)
    assert not g.represents(root, nc.criterion.goal)
    run_iteration(g, nc.ruleset, sched, 1)
    assert g.represents(root, nc.criterion.goal)


def test_extract_singleton():
    g = EGraph()
    cid = g.add_term(P("x"))
    g.rebuild()
    term, cost = extract(g, cid, AstSize())
    assert term == P("x") and cost == 1


def test_extract_picks_cheaper_association():
    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5)}
    g = EGraph()
    left = g.add_term(P("(* (* A B) C)"))
    right = g.add_term(P("(* A (* B C))"))
    g.union(left, right)
    g.rebuild()
    term, cost = extract(g, left, MatMulScalarOps(dims))
    assert cost == 64
    assert term == P("(* (* A B) C)")


def test_extract_never_beats_added_term():
    rng = random.Random(19)
    size = AstSize()
    for _ in range(50):
        t = random_term(rng)
        g = EGraph()
        cid = g.add_term(t)
        g.rebuild()
        _, cost = extract(g, cid, size)
        assert cost <= size.cost(t)


def _enumerate_terms(g, cid, depth):
    """All concrete trees representable from cid within a depth bound."""
    cid = g.find(cid)
    if depth < 0:
        return []
    out = []
    for node in g.classes[cid].nodes:
        if len(node) == 1:
            out.append(parse_sexpr(node[0].name))
            continue
        child_options = [_enumerate_terms(g, c, depth - 1) for c in node[1:]]
        if any(not opts for opts in child_options):
            continue

        def combos(k, acc):
            if k == len(child_options):
                from rewrite_arena.terms import Term

                out.append(Term(node[0], tuple(acc)))
                return
            for choice in child_options[k]:
                combos(k + 1, acc + [choice])

        combos(0, [])
    return out


def test_extraction_optimal_vs_enumeration_oracle():
    size = AstSize()
    rs = trig_ruleset()
    rng = random.Random(8)
    sched = BackoffScheduler()
    for trial in range(8):
        t = random_term(rng, depth=3)
        g = EGraph()
        root = g.add_term(t)
        g.rebuild()
        for i in range(2):
            run_iteration(g, rs, sched, i)
            if g.contradiction:
                break
        if g.contradiction:
            continue
        got_term, got_cost = extract(g, root, size)
        enumerated = _enumerate_terms(g, root, depth=6)
        assert enumerated
        best_enum = min(size.cost(u) for u in enumerated)
        assert got_cost <= best_enum
        assert size.cost(got_term) == got_cost
        assert g.represents(root, got_term)


def _saturate_extract(t, ruleset, model, cfg=EqsatConfig(), **kwargs):
    g = EGraph()
    root = g.add_term(t)
    extract_from, report = saturate(g, root, ruleset, cfg, **kwargs)
    best, _ = extract(extract_from, root, model)
    return best, report


def test_saturate_matmul_five_matches_dp():
    case = gen_matmul_chain(5, 1, 9, random.Random(6))
    best, report = _saturate_extract(case.input_term, case.ruleset,
                                     case.cost_model)
    assert case.cost_model.cost(best) == case.oracle_cost
    assert report.stop_reason == "saturated"


def test_saturate_iteration_limit_zero_returns_input():
    t = P("(* (* A B) C)")
    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5)}
    best, report = _saturate_extract(t, assoc_ruleset(), MatMulScalarOps(dims),
                                     EqsatConfig(iterations=0))
    assert best == t
    assert report.iterations == 0
    assert report.stop_reason == "iteration_limit"


def test_saturate_contradiction_restores_checkpoint():
    trap = P("(/ (- x x) (- x x))")
    g = EGraph()
    root = g.add_term(trap)
    extract_from, report = saturate(g, root, trig_ruleset(),
                                    EqsatConfig(iterations=10),
                                    checkpointing=True)
    assert report.contradiction
    assert report.restored_checkpoint
    assert report.iterations <= 10
    assert g.contradiction and not extract_from.contradiction
    best, _ = extract(extract_from, root, AstSize())
    verdict = fuzz_equiv(trap, best, samples=50, tol=1e-6)
    assert not isinstance(verdict, Inequivalent)


def test_saturation_report_json():
    case = gen_matmul_chain(3, 1, 9, random.Random(2))
    g = EGraph()
    root = g.add_term(case.input_term)
    _, report = saturate(g, root, case.ruleset)
    import json

    data = json.loads(report.to_json())
    assert data["schema"] == 1
    assert data["e_nodes"] > 0 and data["e_classes"] > 0
    assert data["contradiction"] is False


def test_pulse_monotone_and_matches_saturate_for_one_pulse():
    case = gen_matmul_chain(6, 1, 9, random.Random(9))
    single, _ = _saturate_extract(case.input_term, case.ruleset,
                                  case.cost_model, EqsatConfig(iterations=3))
    pulsed, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                            EqsatConfig(pulse_iterations=3), time_limit=5.0)
    model = case.cost_model
    assert model.cost(pulsed) <= model.cost(single)
    # extraction cost never increases across pulses (adopt-if-better)
    assert model.cost(pulsed) <= model.cost(case.input_term)


def test_single_pulse_equals_saturate_with_same_limit():
    case = gen_matmul_chain(4, 1, 9, random.Random(31))
    single, _ = _saturate_extract(case.input_term, case.ruleset,
                                  case.cost_model, EqsatConfig(iterations=10))
    pulsed, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                            EqsatConfig(pulse_iterations=10), time_limit=5.0)
    assert pulsed == single
    # the first pulse saturated, so the second cannot improve and stops
    assert len(reports) <= 2


def test_sound_ruleset_extraction_is_fuzz_equivalent():
    # With only the (sound) associativity rules, whatever extraction picks
    # must agree numerically with the input wherever both are defined.
    case = gen_matmul_chain(5, 1, 9, random.Random(15))
    best, _ = _saturate_extract(case.input_term, case.ruleset, case.cost_model)
    verdict = fuzz_equiv(case.input_term, best, samples=50, tol=1e-6)
    assert not isinstance(verdict, Inequivalent)


def test_pulse_beats_single_shot_on_long_chain():
    # A 200-matrix chain cannot saturate; three iterations reach only a
    # local neighborhood, while pulsing from each extraction keeps walking.
    case = gen_matmul_chain(200, 1, 20, random.Random(3))
    single, _ = _saturate_extract(case.input_term, case.ruleset,
                                  case.cost_model,
                                  EqsatConfig(iterations=3, nodes=50000))
    pulsed, _ = pulse(case.input_term, case.ruleset, case.cost_model,
                      EqsatConfig(pulse_iterations=3), time_limit=6.0)
    model = case.cost_model
    assert model.cost(pulsed) <= model.cost(single)


def test_extract_goal_indicator_unsupported():
    nc = needle_case(3)
    g = EGraph()
    root = g.add_term(nc.input_term)
    g.rebuild()
    with pytest.raises(ExtractionError):
        extract(g, root, nc.cost_model)


def test_extract_cost_is_term_cost_for_every_model():
    # Extraction and term costing share one combining rule per model.
    rng = random.Random(23)
    models = [AstSize(), WeightedAstSize({"+": 3, "sin": 0, "x": 2}),
              IntegSquare()]
    for _ in range(30):
        t = random_term(rng)
        for model in models:
            g = EGraph()
            root = g.add_term(t)
            term, cost = extract(g, root, model)
            assert term == t and cost == model.cost(t)
    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5), "D": (5, 2)}
    t = P("(* (* A B) (* C D))")
    g = EGraph()
    term, cost = extract(g, g.add_term(t), MatMulScalarOps(dims))
    assert term == t and cost == MatMulScalarOps(dims).cost(t)


def test_extract_ill_dimensioned_product_raises():
    dims = {"A": (2, 3), "B": (4, 5)}
    g = EGraph()
    root = g.add_term(P("(* A B)"))
    with pytest.raises(DimensionError):
        extract(g, root, MatMulScalarOps(dims))


def test_quiet_iteration_with_banned_rule_is_not_saturation():
    # Iteration 0 bans add-comm (two matches over a limit of one) and so
    # applies nothing; the run must go on until the ban lapses.
    goal = P("(+ z (+ y x))")
    case = BenchmarkCase(
        name="banned-quiet", input_term=P("(+ (+ x y) z)"),
        ruleset=parse_ruleset("add-comm: (+ ?a ?b) => (+ ?b ?a)"),
        cost_model=AstSize(), criterion=ReachTerm(goal),
        eqsat_overrides={"match_limit": 1, "ban_length": 1})
    res = run_case_eqsat(case)
    assert res.solved and res.units == 3
    g = EGraph()
    root = g.add_term(case.input_term)
    _, report = saturate(g, root, case.ruleset,
                         EqsatConfig(match_limit=1, ban_length=1))
    assert report.stop_reason == "saturated" and report.iterations > 1
    assert g.represents(root, goal)


def test_pulse_honours_scheduler_limits():
    case = gen_matmul_chain(6, 1, 9, random.Random(9))
    improved, _ = pulse(case.input_term, case.ruleset, case.cost_model,
                        EqsatConfig(pulse_iterations=3), time_limit=5.0)
    assert improved != case.input_term
    # With a match limit of zero every rule is banned at once.
    stuck, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                           EqsatConfig(pulse_iterations=3, match_limit=0),
                           time_limit=5.0)
    assert stuck == case.input_term
    assert [r.stop_reason for r in reports] == ["iteration_limit"]


def test_depth_ten_thousand_without_recursion():
    plus = symbol("+", 2)
    ground, open_chain = P("1"), leaf("x")
    for _ in range(10_000):
        ground = Term(plus, (P("1"), ground))
        open_chain = Term(plus, (P("1"), open_chain))
    assert P(print_sexpr(open_chain)) == open_chain
    assert const_fold(ground) == P("10001")
    assert const_fold(open_chain) is open_chain
    assert eval_numeric(open_chain, {"x": 2.0}) == 10_002.0
    g = EGraph()
    root = g.add_term(open_chain)
    g.rebuild()
    term, cost = extract(g, root, AstSize())
    assert term == open_chain and cost == 20_001
