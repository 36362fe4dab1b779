import gc
import json
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rewrite_arena import (
    AstSize,
    BackoffScheduler,
    EGraph,
    MatMulScalarOps,
    EqsatConfig,
    Inequivalent,
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
from rewrite_arena import runner, terms
from rewrite_arena.benchmarks import (
    BenchmarkCase,
    ReachTerm,
    TargetCost,
    matmul_case_from_dims,
    suite_from_json,
    trig_suite,
)
from rewrite_arena.costs import (
    DimensionError,
    IntegSquare,
    WeightedAstSize,
    dims_of,
)
from rewrite_arena.egraph import (
    MAX_PATTERN_OPERATORS,
    EGraphError,
    ExtractionError,
    IterationReport,
    matcher,
)
from rewrite_arena.equivalence import eval_numeric
from rewrite_arena.rules import (
    Guard,
    Rule,
    const_fold,
    constant_term,
    instantiate,
    is_pattern_var,
    parse_ruleset,
    pattern_vars,
)
from rewrite_arena.runner import run_case, run_case_eqsat
from rewrite_arena.stochastic import RunConfig
from rewrite_arena.rulesets import (
    assoc_ruleset,
    halide_ruleset,
    trig_ruleset,
)
from rewrite_arena.terms import (
    Symbol,
    Term,
    leaf,
    positions,
    symbol,
    variables,
)
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
    assert g.classes[g.find(cid)].constant == Fraction(3)
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
    pattern = P("(* ?a (* ?b ?c))")
    hits = g.ematch(pattern)
    assert len(hits) == 1
    assert matcher(pattern).names == ("?a", "?b", "?c")
    root, a, b, c = hits[0]
    assert g.find(a) == g.find(g.add_term(P("A")))
    assert g.find(c) == g.find(g.add_term(P("C")))


def test_ematch_after_union_matches_in_shared_class():
    g = EGraph()
    left = g.add_term(P("(* (* A B) C)"))
    right = g.add_term(P("(* A (* B C))"))
    g.union(left, right)
    g.rebuild()
    for pattern in (P("(* (* ?a ?b) ?c)"), P("(* ?a (* ?b ?c))")):
        hits = g.ematch(pattern)
        assert any(g.find(hit[0]) == g.find(left) for hit in hits)


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


def test_run_iteration_frees_its_matches_before_the_collector_resumes(
        monkeypatch):
    # The young generation's count at resume is what the first collection
    # after it will walk: with the match tuples still alive it reads most
    # of the iteration's 11,948 matches, with them freed about none.
    case = matmul_case_from_dims(list(range(21, 0, -1)), name="matmul-20")
    g = EGraph()
    g.add_term(case.input_term)
    g.rebuild()
    scheduler = BackoffScheduler(match_limit=10**7)
    counts = []

    def enable():
        counts.append(gc.get_count()[0])
        gc.enable()

    monkeypatch.setattr(terms, "gc", SimpleNamespace(
        isenabled=lambda: True, disable=gc.disable, enable=enable,
        collect=gc.collect))
    was_enabled = gc.isenabled()
    try:
        for k in range(6):
            report = run_iteration(g, case.ruleset, scheduler, k)
    finally:
        if not was_enabled:
            gc.disable()
    assert report.matches == 11948 and len(counts) == 6
    assert counts[-1] < report.matches / 2


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


def test_saturate_stops_at_the_node_limit():
    # Node-limited saturation of long matrix chains is where plain eqsat
    # falls behind; a matmul-12 chain outgrows 50 e-nodes in a few steps.
    case = gen_matmul_chain(12, 1, 20, random.Random(4))
    cfg = EqsatConfig(nodes=50, match_limit=10**7)
    g = EGraph()
    root = g.add_term(case.input_term)
    extract_from, report = saturate(g, root, case.ruleset, cfg)
    assert report.stop_reason == "node_limit"
    assert 0 < report.iterations < cfg.iterations
    assert extract_from is g and g.num_nodes() > cfg.nodes
    best, cost = extract(g, root, case.cost_model)
    assert case.oracle_cost <= cost <= case.cost_model.cost(case.input_term)


def test_saturate_stops_at_a_passed_deadline():
    case = gen_matmul_chain(12, 1, 20, random.Random(4))
    g = EGraph()
    root = g.add_term(case.input_term)
    extract_from, report = saturate(g, root, case.ruleset,
                                    deadline=time.monotonic() - 1)
    assert report.stop_reason == "time_limit"
    assert report.iterations == 0
    best, _ = extract(extract_from, root, case.cost_model)
    assert best == case.input_term


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
    import dataclasses
    import json

    data = json.loads(json.dumps(dataclasses.asdict(report)))
    assert data["nodes"] > 0 and data["classes"] > 0
    assert data["contradiction"] is False


def test_pulse_monotone_and_matches_saturate_for_one_pulse():
    case = gen_matmul_chain(6, 1, 9, random.Random(9))
    single, _ = _saturate_extract(case.input_term, case.ruleset,
                                  case.cost_model, EqsatConfig(iterations=3))
    pulsed, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                            EqsatConfig(pulse_iterations=3),
                            deadline=time.monotonic() + 5.0)
    model = case.cost_model
    assert model.cost(pulsed) <= model.cost(single)
    # extraction cost never increases across pulses (adopt-if-better)
    assert model.cost(pulsed) <= model.cost(case.input_term)


def test_single_pulse_equals_saturate_with_same_limit():
    case = gen_matmul_chain(4, 1, 9, random.Random(31))
    single, _ = _saturate_extract(case.input_term, case.ruleset,
                                  case.cost_model, EqsatConfig(iterations=10))
    pulsed, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                            EqsatConfig(pulse_iterations=10),
                            deadline=time.monotonic() + 5.0)
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
                      EqsatConfig(pulse_iterations=3),
                      deadline=time.monotonic() + 6.0)
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
                        EqsatConfig(pulse_iterations=3),
                        deadline=time.monotonic() + 5.0)
    assert improved != case.input_term
    # With a match limit of zero every rule is banned at once.
    stuck, reports = pulse(case.input_term, case.ruleset, case.cost_model,
                           EqsatConfig(pulse_iterations=3, match_limit=0),
                           deadline=time.monotonic() + 5.0)
    assert stuck == case.input_term
    assert [r.stop_reason for r in reports] == ["iteration_limit"]


def test_depth_ten_thousand_without_recursion():
    plus, times = symbol("+", 2), symbol("*", 2)
    ground, open_chain = P("1"), leaf("x")
    pattern, product = leaf("?z"), leaf("A")
    for _ in range(10_000):
        ground = Term(plus, (P("1"), ground))
        open_chain = Term(plus, (P("1"), open_chain))
        pattern = Term(plus, (P("?y"), pattern))
        product = Term(times, (product, leaf("A")))
    assert P(print_sexpr(open_chain)) == open_chain
    assert variables(open_chain) == {"x"}
    assert pattern_vars(pattern) == {"?y", "?z"}
    assert dims_of({"A": (3, 3)}, product) == (3, 3)
    assert const_fold(ground) == P("10001")
    assert const_fold(open_chain) is open_chain
    assert eval_numeric(open_chain, {"x": 2.0}) == 10_002.0
    g = EGraph()
    root = g.add_term(open_chain)
    g.rebuild()
    term, cost = extract(g, root, AstSize())
    assert term == open_chain and cost == 20_001
    assert g.represents(root, open_chain)
    # The search for the ground chain fails only at its deepest leaf.
    assert not g.represents(root, ground)


# ---------------------------------------------------------------------------
# Compiled e-matching and instantiation against brute force.

MUL, SUB = symbol("*", 2), symbol("-", 2)
# One name at two arities.  symbol() interns a name at one arity only, so
# these two are built directly; the matcher must tell them apart by
# identity and arity, not by name.
H1, H2 = Symbol("h", 1), Symbol("h", 2)


def _h(*children):
    return Term(H1 if len(children) == 1 else H2, tuple(children))


MATCH_PATTERNS = [
    P("?a"),
    P("(* (* ?a ?b) ?c)"),
    P("(- ?a ?a)"),
    P("(* ?a 1)"),
    _h(P("?a")),
    _h(P("?a"), P("?b")),
    _h(_h(P("?a")), P("?a")),
]
# (left-hand side, right-hand side) pairs for the instantiation check.
REWRITES = [
    (P("?a"), P("(- ?a ?a)")),
    (P("(* (* ?a ?b) ?c)"), P("(* ?a (* ?b ?c))")),
    (P("(- ?a ?a)"), P("0")),
    (P("(* ?a 1)"), P("?a")),
    (_h(P("?a")), Term(MUL, (_h(P("?a"), P("?a")), P("2")))),
    (_h(P("?a"), P("?b")), _h(_h(P("?b")), P("?a"))),
]

_match_terms = st.recursive(
    st.sampled_from([leaf("x"), leaf("y"), P("1"), P("2")]),
    lambda kids: st.one_of(
        st.builds(lambda op, a, b: Term(op, (a, b)),
                  st.sampled_from([MUL, SUB, H2]), kids, kids),
        st.builds(_h, kids)),
    max_leaves=8)


def _brute_force_matches(g, pattern):
    """Set of (root, substitution items) over every class: each pattern
    node is matched against every e-node of its class and the children's
    substitution sets are joined.  No order, no shared state."""

    def matches(p, cid):
        cid = g.find(cid)
        if is_pattern_var(p):
            return [{p.op.name: cid}]
        out = []
        for node in g.classes[cid].nodes:
            if node[0] is not p.op or len(node) != len(p.children) + 1:
                continue
            partial = [{}]
            for kid_pattern, kid in zip(p.children, node[1:]):
                partial = [{**s, **t} for s in partial
                           for t in matches(kid_pattern, kid)
                           if all(s.get(v, c) == c for v, c in t.items())]
            out.extend(partial)
        return out

    return {(cid, frozenset(s.items()))
            for cid in g.classes for s in matches(pattern, cid)}


@settings(max_examples=150, deadline=None)
@given(st.lists(_match_terms, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                max_size=4),
       st.booleans())
def test_compiled_ematch_equals_brute_force(terms, unions, rebuilt):
    g = EGraph()
    for t in terms:
        g.add_term(t)
    g.rebuild()
    ids = sorted(g.classes)
    for a, b in unions:
        g.union(ids[a % len(ids)], ids[b % len(ids)])
    if rebuilt:
        g.rebuild()
    elif g._dirty:  # a union merged two classes: no query until a rebuild
        for pattern in MATCH_PATTERNS:
            with pytest.raises(EGraphError):
                g.ematch(pattern)
        with pytest.raises(EGraphError):
            g.represents(ids[0], terms[0])
        return
    for pattern in MATCH_PATTERNS:
        names = matcher(pattern).names
        found = [(root, frozenset(zip(names, bound)))
                 for root, *bound in g.ematch(pattern)]
        assert len(found) == len(set(found)), "duplicate match"
        assert set(found) == _brute_force_matches(g, pattern)
    # Applying a rule puts its right-hand side, with each variable's class
    # spelled out as a term of that class, in the class of the match root.
    size = AstSize()
    concrete = {cid: extract(g, cid, size)[0] for cid in g.classes}
    rules = [Rule(f"r{k}", lhs, rhs) for k, (lhs, rhs) in enumerate(REWRITES)]
    # Match everything first: a new literal class leaves the graph dirty.
    matched = [(rule, g.ematch(rule.lhs)) for rule in rules]
    spelled = []
    for rule, hits in matched:
        names = matcher(rule.lhs).names
        for root, *bound in hits:
            spelled.append((root, instantiate(
                rule.rhs, {v: concrete[c] for v, c in zip(names, bound)})))
        g.add_instantiated(rule, hits)
    g.rebuild()
    for root, t in spelled:
        assert g.represents(root, t)


def test_add_instantiated_canonicalizes_stale_bindings():
    g = EGraph()
    product = g.add_term(P("(* x y)"))
    x, y = g.add_term(P("x")), g.add_term(P("y"))
    big = g.union(g.add_term(P("u")), g.add_term(P("v")))
    g.union(big, x)  # the two-node class leads, so x's id goes stale
    g.rebuild()
    assert g.find(x) != x
    nodes, unions = g.num_nodes(), g.union_count
    # The product is found under the canonical x, and it is its own root.
    rule = Rule("same", P("(* ?a ?b)"), P("(* ?a ?b)"))
    g.add_instantiated(rule, [(g.find(product), x, y)])
    assert g.num_nodes() == nodes and g.union_count == unions


def test_ematch_pattern_operator_limit():
    g = EGraph()
    g.add_term(P("(sin x)"))
    g.rebuild()
    sin = symbol("sin", 1)

    def tower(n):
        p = P("?a")
        for _ in range(n):
            p = Term(sin, (p,))
        return p

    assert g.ematch(tower(MAX_PATTERN_OPERATORS)) == []
    with pytest.raises(EGraphError):
        g.ematch(tower(MAX_PATTERN_OPERATORS + 1))


def test_a_literal_leaf_needs_no_rebuild():
    # A numeral is its own literal: no union, nothing to materialize.
    g = EGraph()
    root = g.add_term(P("(+ x 1)"))
    assert g.represents(root, P("(+ x 1)"))
    # 2/4 and (+ 1 1) denote literals the rebuild still has to add.
    for t, literal in ((Term(symbol("2/4", 0)), "1/2"), (P("(+ 1 1)"), "2")):
        g = EGraph()
        cid = g.add_term(t)
        with pytest.raises(EGraphError):
            g.represents(cid, P(literal))
        g.rebuild()
        assert g.represents(cid, P(literal)) and g.represents(cid, t)


# ---------------------------------------------------------------------------
# Queries on a rebuilt graph against references that assume nothing of it.

def _dfs_represents(g, cid, t):
    """True when the class contains t as a concrete tree: the depth-first
    search over (class, subterm) pairs that the hashcons lookup replaced.
    Each pair is memoized, and it reads False while its own search is
    still open, so cycles through the graph terminate."""
    find, classes = g.find, g.classes
    memo = {}
    # Frames: [key, subterm, candidate e-nodes, candidate, child].
    stack = []

    def enter(c, node):
        """The memoized answer, or None after opening a frame."""
        key = (find(c), id(node))
        hit = memo.get(key)
        if hit is None:
            memo[key] = False
            arity = len(node.children)
            candidates = [e for e in classes[key[0]].nodes
                          if e[0] is node.op and len(e) - 1 == arity]
            stack.append([key, node, candidates, 0, 0])
        return hit

    result = enter(cid, t)
    while stack:
        frame = stack[-1]
        key, node, candidates, k, child = frame
        if result is False:  # this candidate failed; try the next one
            k, child = k + 1, 0
        elif result is True:  # this child is represented; go on
            child += 1
        if k == len(candidates) or child == len(node.children):
            result = k < len(candidates)
            memo[key] = result
            stack.pop()
            continue
        frame[3], frame[4] = k, child
        result = enter(candidates[k][child + 1], node.children[child])
    return result


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from([None, "trig", "assoc"]))
def test_represents_equals_depth_first_reference(seed, n_terms, ruleset):
    rng = random.Random(seed)
    g = EGraph()
    added = [random_term(rng, depth=rng.randint(1, 4)) for _ in range(n_terms)]
    ids = [g.add_term(t) for t in added]
    g.rebuild()
    for _ in range(rng.randint(0, 4)):
        g.union(rng.choice(ids), rng.randrange(len(g._uf)))
    g.rebuild()
    if ruleset is not None:
        run_iteration(g, _STEP_RULESETS[ruleset], BackoffScheduler())
    # Every subterm of an added term is in some class; the random ones,
    # and the others asked of the wrong class, mostly are not.
    queries = [sub for t in added for _, sub in positions(t)]
    queries += [random_term(rng, depth=rng.randint(0, 3)) for _ in range(8)]
    classes = sorted(g.classes)
    for t in queries:
        for cid in rng.sample(classes, min(len(classes), 12)) + ids:
            assert g.represents(cid, t) == _dfs_represents(g, cid, t)
    for cid, t in zip(ids, added):
        assert g.represents(cid, t)


@pytest.mark.parametrize("kind", ["nonzero", "literal"])
def test_guard_decides_alike_on_terms_and_classes(kind):
    rule = Rule("guarded", P("?a"), P("?a"), Guard(kind, "?a"))
    g = EGraph()
    bound = [P(text) for text in ("0", "1", "1/2", "true", "false", "x",
                                  "(- 1 1)", "(sin 0)")]
    ids = [g.add_term(t) for t in bound]
    g.rebuild()
    got = [g.guarded(rule, [(cid, cid)]) == [(cid, cid)] for cid in ids]
    assert got == [rule.guard.passes(t) for t in bound]
    want = {"nonzero": [False, True, True, True, True, True, False, True],
            "literal": [True, True, True, False, False, False, True, False]}
    assert got == want[kind]


# ---------------------------------------------------------------------------
# Flat match tuples and one applier per rule against the dict path they
# replaced: an interpretive matcher that yields {variable: class} dicts in
# the compiled matcher's order, and per match a post-order builder and a
# union call.

def _dict_matches(g, p, cid, subst):
    """Each extension of subst matching p in class cid: class order, node
    order, children left to right."""
    if is_pattern_var(p):
        name = p.op.name
        if name not in subst:
            yield {**subst, name: cid}
        elif subst[name] == cid:
            yield subst
        return
    for node in g.classes[cid].nodes:
        if node[0] is p.op and len(node) == len(p.children) + 1:
            yield from _dict_children(g, p.children, node[1:], subst)


def _dict_children(g, patterns, kids, subst):
    if not patterns:
        yield subst
        return
    for bound in _dict_matches(g, patterns[0], kids[0], subst):
        yield from _dict_children(g, patterns[1:], kids[1:], bound)


def _dict_instantiate(g, p, subst, canonical):
    """The class of p under subst, built post-order through the hashcons;
    each variable made canonical at its first occurrence."""
    if is_pattern_var(p):
        name = p.op.name
        if name not in canonical:
            canonical[name] = g.find(subst[name])
        return canonical[name]
    node = (p.op, *[_dict_instantiate(g, c, subst, canonical)
                    for c in p.children])
    cid = g.hashcons.get(node)
    return g._add_new(node) if cid is None else g.find(cid)


def _dict_iteration(g, ruleset, scheduler, iteration):
    """run_iteration through substitution dicts, one union per match."""
    unions_before = g.union_count
    matched, banned, total = [], [], 0
    for rule in ruleset:
        if not scheduler.can_run(rule.name, iteration):
            banned.append(rule.name)
            continue
        hits = [(subst, cid) for cid in g.classes
                for subst in _dict_matches(g, rule.lhs, cid, {})]
        total += len(hits)
        if scheduler.record(rule.name, len(hits), iteration):
            banned.append(rule.name)
            continue
        if rule.guard is not None:
            hits = [(subst, cid) for subst, cid in hits if rule.guard.admits(
                g.classes[g.find(subst[rule.guard.var])].constant)]
        matched.append((rule, hits))
    applied = 0
    for rule, hits in matched:
        for subst, root in hits:
            g.union(root, _dict_instantiate(g, rule.rhs, subst, {}))
        applied += len(hits)
    g.rebuild()
    return IterationReport(iteration, total, applied,
                           g.union_count - unions_before, g.num_nodes(),
                           g.num_classes(), g.contradiction, banned)


def _halide_term(rng, depth, boolean=True):
    """A random term over halide-mini's signature."""
    if boolean:
        if depth <= 0 or rng.random() < 0.15:
            return P(rng.choice(("true", "false")))
        if rng.random() < 0.4:
            return Term(symbol(rng.choice(("&&", "||")), 2),
                        (_halide_term(rng, depth - 1),
                         _halide_term(rng, depth - 1)))
        return Term(symbol(rng.choice(("<", "<=", "==")), 2),
                    (_halide_term(rng, depth - 1, False),
                     _halide_term(rng, depth - 1, False)))
    if depth <= 0 or rng.random() < 0.3:
        return P(rng.choice(("x", "y", "0", "1", "2")))
    return Term(symbol(rng.choice(("+", "-", "max", "min")), 2),
                (_halide_term(rng, depth - 1, False),
                 _halide_term(rng, depth - 1, False)))


# Between them: guards, literal and bare-variable right-hand sides, and
# non-linear left-hand sides such as (- ?a ?a) => 0.
_APPLY_RULESETS = {"trig": trig_ruleset(), "halide-mini": halide_ruleset(),
                   "assoc": assoc_ruleset()}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5),
       st.sampled_from(sorted(_APPLY_RULESETS)), st.integers(1, 4),
       st.sampled_from([3, 30, 1000]))
def test_applier_equals_dict_reference(seed, n_terms, name, iterations,
                                       match_limit):
    ruleset = _APPLY_RULESETS[name]
    rng = random.Random(seed)
    g = EGraph()
    for _ in range(n_terms):
        depth = rng.randint(1, 4)
        g.add_term(_halide_term(rng, depth) if name == "halide-mini"
                   else random_term(rng, depth))
    g.rebuild()
    ref = g.copy()
    schedulers = [BackoffScheduler(match_limit, 2) for _ in range(2)]
    for k in range(iterations):
        if g.num_nodes() > 1500:
            break
        got = run_iteration(g, ruleset, schedulers[0], k)
        want = _dict_iteration(ref, ruleset, schedulers[1], k)
        assert got == want
        assert _graph_state(g) == _graph_state(ref)


def test_applier_equals_dict_reference_on_a_long_chain():
    # The sweep above stops at 1,500 nodes; the golden matmul-12 chain
    # puts hundreds of missed right-hand-side roots straight into their
    # match's class in each of its later iterations.
    g = EGraph()
    g.add_term(_golden_matmul().input_term)
    g.rebuild()
    ref = g.copy()
    schedulers = [BackoffScheduler() for _ in range(2)]
    for k in range(len(GOLDEN_ROWS["matmul-12"][1])):
        got = run_iteration(g, assoc_ruleset(), schedulers[0], k)
        want = _dict_iteration(ref, assoc_ruleset(), schedulers[1], k)
        assert got == want
        assert _graph_state(g) == _graph_state(ref)


@pytest.mark.parametrize("term, rule, contradiction", [
    ("(+ 1 2)", "zero: (+ ?a ?b) => 0", True),
    ("(+ 1 2)", "times: (+ ?a ?b) => (* ?a ?b)", True),
    ("(- x x)", "cancel: (- ?a ?a) => 0", False),
    ("(f x)", "three: (f ?a) => (+ 1 2)", False),
])
def test_applier_root_joins_its_constant(term, rule, contradiction):
    # No right-hand side's root is in the graph, so each goes straight
    # into its match's class, which must then hold what a union would
    # leave, before the rebuild as after it.  (+ 1 2) folds to 3, which
    # the root's 0, or the 2 that (* 1 2) folds to, contradicts.  The
    # classes of (- x x) and (f x) hold no constant until the root's joins
    # them; with none in the graph, rebuild runs no analysis at all.
    ruleset = parse_ruleset(rule, name="roots")
    g = EGraph()
    root = g.add_term(P(term))
    g.rebuild()
    ref = g.copy()
    (lies,) = ruleset.rules
    g.add_instantiated(lies, g.ematch(lies.lhs))
    for subst, cid in [(subst, cid) for cid in ref.classes
                       for subst in _dict_matches(ref, lies.lhs, cid, {})]:
        ref.union(cid, _dict_instantiate(ref, lies.rhs, subst, {}))
    assert g.classes[g.find(root)].constant is not None
    assert _graph_state(g) == _graph_state(ref)
    g.rebuild()
    ref.rebuild()
    assert _graph_state(g) == _graph_state(ref)
    assert g.contradiction == contradiction


def test_extract_reads_stale_children_through_find():
    # y's class leads the union (a tie, and the lower id), so the node
    # (f (g (h x))) keeps a stale child until a rebuild.
    g = EGraph()
    y = g.add_term(P("y"))
    root = g.add_term(P("(f (g (h x)))"))
    inner = g.add_term(P("(g (h x))"))
    g.union(inner, y)
    assert g.find(inner) == y and g._dirty
    size = AstSize()
    term, cost = extract(g, root, size)
    enumerated = sorted(_enumerate_terms(g, root, depth=4), key=size.cost)
    assert size.cost(enumerated[0]) < size.cost(enumerated[1])
    assert (term, cost) == (enumerated[0], size.cost(enumerated[0]))
    assert term == P("(f y)")
    g.rebuild()
    assert g.represents(root, term)


# ---------------------------------------------------------------------------
# Extraction against the full sweeps it shortens.

def _sweep_extract(g, root, model):
    """Extraction by full sweeps: every sweep re-evaluates every e-node,
    until one improves no class.  The reference the skipping extract must
    reproduce exactly, picks and tie-breaks included."""
    combine, scalar, find = model._combine, model._scalar, g.find
    best, best_node = {}, {}
    changed = True
    while changed:
        changed = False
        for cid, cls in g.classes.items():
            for node in cls.nodes:
                child_values = []
                for child in node[1:]:
                    value = best.get(find(child))
                    if value is None:
                        break
                    child_values.append(value)
                else:
                    value = combine(node[0].name, child_values)
                    prev = best.get(cid)
                    if prev is None or scalar(value) < scalar(prev):
                        best[cid] = value
                        best_node[cid] = node
                        changed = True
    root = find(root)
    if root not in best:
        raise ExtractionError("root class admits no finite-cost term")
    built = {}
    stack = [root]
    while stack:
        cid = stack[-1]
        if cid in built:
            stack.pop()
            continue
        node = best_node[cid]
        kids = [find(c) for c in node[1:]]
        missing = [k for k in kids if k not in built]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        built[cid] = Term(node[0], tuple(built[k] for k in kids))
    return built[root], scalar(best[root])


def _bracketed(rng, names):
    """The product of the named matrices, bracketed at random."""
    parts = [leaf(name) for name in names]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [P(f"(* {print_sexpr(parts[i])} "
                            f"{print_sexpr(parts[i + 1])})")]
    return parts[0]


def _extraction_graph(seed, matrices):
    """A random e-graph and a cost model for it.  Like _run_against_fixpoint:
    random terms (with numerals under AstSize, whose many ties test the
    tie-breaks; short matrix chains of dimensions 1-3 under
    MatMulScalarOps), a few trig or assoc iterations, then random unions,
    only of classes of one shape for matrices, and a rebuild or, half the
    time, none, so that extraction reads stale children."""
    rng = random.Random(seed)
    g = EGraph()
    if matrices:
        n = rng.randint(2, 6)
        dims = [rng.randint(1, 3) for _ in range(n + 1)]
        names = [f"A{i}" for i in range(n)]
        env = {name: (dims[i], dims[i + 1]) for i, name in enumerate(names)}
        model, rulesets = MatMulScalarOps(env), ["assoc"]
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(n)
            g.add_term(_bracketed(rng, names[i:rng.randint(i + 1, n)]))
    else:
        model, rulesets = AstSize(), ["trig", "assoc"]
        for _ in range(rng.randint(1, 6)):
            g.add_term(random_term(rng, depth=rng.randint(2, 4)))
    g.rebuild()
    scheduler = BackoffScheduler()
    for k in range(rng.randint(0, 3)):
        if g.num_nodes() <= 1500:
            run_iteration(g, _STEP_RULESETS[rng.choice(rulesets)], scheduler, k)
    shapes = {}
    for cid in g.classes:
        shape = dims_of(env, _sweep_extract(g, cid, model)[0]) if matrices else 0
        shapes.setdefault(shape, []).append(cid)
    for _ in range(rng.randint(0, 8)):
        same = rng.choice(list(shapes.values()))
        g.union(rng.choice(same), rng.choice(same))
    if rng.random() < 0.5:
        g.rebuild()
    return g, model


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_extract_equals_full_sweep_reference(seed, matrices):
    g, model = _extraction_graph(seed, matrices)
    for cid in g.classes:
        assert extract(g, cid, model) == _sweep_extract(g, cid, model)


# ---------------------------------------------------------------------------
# The one-pass rebuild against the plain fixpoint it replaced.

class _FixpointEGraph(EGraph):
    """An e-graph whose rebuild is the plain fixpoint: every pass scans a
    list of all (node, class) pairs, and passes repeat until one changes
    nothing.  The reference the shortened rebuild must reproduce exactly."""

    def rebuild(self):
        if not self._dirty:
            return
        while True:
            changed = False
            pairs = [(node, cid)
                     for cid, cls in self.classes.items()
                     for node in cls.nodes]
            self.hashcons = {}
            for node, cid in pairs:
                root = self.find(cid)
                canon = self._canonicalize(node)
                existing = self.hashcons.get(canon)
                if existing is None:
                    self.hashcons[canon] = root
                elif self.find(existing) != root:
                    self.union(existing, root)
                    changed = True
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None:
                    continue
                canon_nodes = {}
                for node in cls.nodes:
                    canon_nodes[self._canonicalize(node)] = None
                cls.nodes = canon_nodes
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None:
                    continue
                for node in list(cls.nodes):
                    if self._join_into(self.find(cid), self._make_constant(node)):
                        changed = True
            for cid in list(self.classes.keys()):
                cls = self.classes.get(cid)
                if cls is None or cls.constant is None:
                    continue
                lit = constant_term(cls.constant)
                key = (lit.op,)
                owner = self.hashcons.get(key)
                if owner is None:
                    lit_id = self.add_enode(lit.op, [])
                    self.union(lit_id, cid)
                    changed = True
                elif self.find(owner) != self.find(cid):
                    self.union(owner, cid)
                    changed = True
            if not changed:
                break
        self._dirty = False


def _graph_state(g):
    return (list(g._uf),
            [(cid, list(cls.nodes), cls.constant)
             for cid, cls in g.classes.items()],
            list(g.hashcons.items()),
            g.union_count, g.contradiction, g._dirty)


_STEPS = st.one_of(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
             min_size=1, max_size=12),
    st.sampled_from(["trig", "assoc"]))
_STEP_RULESETS = {"trig": trig_ruleset(), "assoc": assoc_ruleset()}


def test_rebuild_repeats_pass_when_scan_leaves_stale_key():
    # z's class takes (sin (cos b)) and keeps its early place, so the scan
    # keys that node before it merges (cos b) into (cos a).  Only then does
    # (sin (cos a)) in a later class share its canonical node: the first
    # pass cannot see the congruence, and a second pass must unite them.
    g = EGraph()
    z = g.add_term(P("z"))
    sin_a = g.add_term(P("(sin (cos a))"))
    sin_b = g.add_term(P("(sin (cos b))"))
    g.union(z, sin_b)
    g.union(g.add_term(P("a")), g.add_term(P("b")))
    ref = g.copy()
    ref.__class__ = _FixpointEGraph
    g.rebuild()
    ref.rebuild()
    assert g.find(sin_a) == g.find(z)
    assert _graph_state(g) == _graph_state(ref)


def _run_against_fixpoint(seed, n_terms, steps):
    """Run the same steps on an e-graph and on its fixpoint twin, and
    compare their whole state after every rebuild.  A step is a batch of
    unions (ids taken modulo the id count, stale ones included) or the
    name of a ruleset to run one saturation iteration of."""
    # Numerals in the random terms make the constant analysis fold, add
    # literal nodes and, when 0 and 1 meet, set the contradiction flag.
    rng = random.Random(seed)
    g = EGraph()
    for _ in range(n_terms):
        g.add_term(random_term(rng, depth=rng.randint(2, 4)))
    ref = g.copy()
    ref.__class__ = _FixpointEGraph
    g.rebuild()
    ref.rebuild()
    assert _graph_state(g) == _graph_state(ref)
    schedulers = (BackoffScheduler(), BackoffScheduler())
    for k, step in enumerate(steps):
        if isinstance(step, str):
            if g.num_nodes() > 1500:
                continue
            got, want = [run_iteration(graph, _STEP_RULESETS[step], scheduler, k)
                         for graph, scheduler in zip((g, ref), schedulers)]
            assert got == want
        else:
            for graph in (g, ref):
                for a, b in step:
                    graph.union(a % len(graph._uf), b % len(graph._uf))
                graph.rebuild()
        assert _graph_state(g) == _graph_state(ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.lists(_STEPS, max_size=5))
def test_rebuild_equals_fixpoint_reference(seed, n_terms, steps):
    _run_against_fixpoint(seed, n_terms, steps)


def test_rebuild_equals_fixpoint_reference_seeded_sweep():
    # Orders that only some graphs reach (a class gaining nodes during its
    # own turn of the scan, then keying them again) show up about once in
    # 600 seeds; this sweep covers several of them on every run.
    for seed in range(3000):
        rng = random.Random(seed)
        steps = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                steps.append(rng.choice(["trig", "assoc"]))
            else:
                steps.append([(rng.randrange(10**6), rng.randrange(10**6))
                              for _ in range(rng.randint(1, 12))])
        _run_against_fixpoint(rng.randrange(2**32), rng.randint(1, 6), steps)


# ---------------------------------------------------------------------------
# Golden rows: per iteration (matches, applied, unions, nodes, classes,
# contradiction, banned), then the extracted term and its cost.  Recorded
# from the generator matcher and recursive instantiator that the compiled
# ones replaced; any change to match order, union order or class ids shows.

def _golden_matmul():
    return matmul_case_from_dims([30, 5, 41, 12, 7, 33, 18, 2, 25, 9, 16, 40, 3],
                                 name="matmul-12")


def _golden_trig():
    # Guards (recip, div-self) pass and the constant analysis folds.
    return next(c for c in trig_suite() if c.name == "trig-sin-over-tan")


def _golden_checkpoint():
    # Guards fail on (- x x) once it folds to 0; iteration 2 unions 0 with
    # 1, and extraction comes from the checkpoint after iteration 1.
    return BenchmarkCase(
        name="checkpoint-trap",
        input_term=P("(* (/ (- x x) (- x x)) (sin x))"),
        ruleset=trig_ruleset(), cost_model=AstSize(),
        criterion=TargetCost(0), checkpointing=True)


GOLDEN_ROWS = {
    "matmul-12": (_golden_matmul, [
        (10, 10, 10, 43, 33, False, []),
        (46, 46, 26, 95, 59, False, []),
        (240, 240, 217, 222, 110, False, []),
        (856, 856, 666, 328, 116, False, []),
    ], "(* (* A1 (* A2 (* A3 (* A4 (* A5 (* A6 A7)))))) "
       "(* (* (* (* A8 A9) A10) A11) A12))", 5950),
    "trig-sin-over-tan": (_golden_trig, [
        (2, 2, 2, 9, 7, False, []),
        (8, 8, 5, 18, 11, False, []),
        (31, 31, 29, 33, 14, False, []),
    ], "(cos x)", 2),
    "checkpoint-trap": (_golden_checkpoint, [
        (4, 4, 4, 9, 5, False, []),
        (13, 10, 4, 9, 3, True, []),
    ], "(* 1 (sin x))", 4),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
def test_eqsat_golden_rows(name, monkeypatch):
    build, rows, best_term, best_cost = GOLDEN_ROWS[name]
    reports = []
    step = runner.run_iteration

    def recording(*args, **kwargs):
        reports.append(step(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(runner, "run_iteration", recording)
    res = run_case_eqsat(build())
    assert [(r.matches, r.applied, r.unions, r.nodes, r.classes,
             r.contradiction, r.banned) for r in reports] == rows
    assert (res.best_term, res.best_cost) == (best_term, best_cost)


def test_eqsat_reuses_last_solved_check_extraction(monkeypatch):
    # matmul-12 runs four iterations and five solved checks; the answer is
    # the fifth check's extraction, not a sixth one.  checkpoint-trap ends
    # in a contradiction, so its answer is extracted again, from the
    # checkpoint the last check did not see.
    graphs = []
    real = runner.extract

    def counting(g, root, model):
        graphs.append(g)
        return real(g, root, model)

    monkeypatch.setattr(runner, "extract", counting)
    for name, checks, again in (("matmul-12", 5, False),
                                ("checkpoint-trap", 2, True)):
        build, rows, best_term, best_cost = GOLDEN_ROWS[name]
        graphs.clear()
        res = run_case_eqsat(build())
        assert (res.best_term, res.best_cost) == (best_term, best_cost)
        assert res.units == len(rows)
        assert len(graphs) == checks + again
        assert all(g is graphs[0] for g in graphs[:checks])
        if again:
            assert graphs[-1] is not graphs[0]


def _suite_case(**spec) -> BenchmarkCase:
    _, (case,) = suite_from_json(json.dumps({"cases": [{
        "name": "tiny", "ruleset": "custom", "cost": {"model": "ast_size"},
        **spec}]}))
    return case


def test_eqsat_row_is_solved_when_saturation_stops_solved():
    # Saturation stops once the graph represents true, where extraction
    # ties y with true at cost 1; the row once answered y, unsolved.
    case = _suite_case(input="(f x)",
                       rules=["to-y: (f x) => y", "to-true: (f x) => true"],
                       criterion={"kind": "reach_true"})
    res = run_case(case, "eqsat", RunConfig())
    assert (res.solved, res.best_term, res.best_cost, res.units) == \
        (True, "true", 1, 1)


def test_eqsat_answers_the_cheapest_term_when_the_goal_is_not_reached():
    # The row once answered the input, at cost 3.
    case = _suite_case(input="(g (f x))", rules=["shrink: (f x) => y"],
                       criterion={"kind": "reach_term", "goal": "z"})
    res = run_case(case, "eqsat", RunConfig())
    assert (res.solved, res.best_term, res.best_cost) == (False, "(g y)", 2)
