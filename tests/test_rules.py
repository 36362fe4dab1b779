import random

import pytest
from hypothesis import given, settings, strategies as st

from rewrite_arena import (
    Guard,
    Rule,
    Ruleset,
    parse_ruleset,
    parse_sexpr,
    print_sexpr,
    proposals,
)
from rewrite_arena.rules import (
    RuleError,
    UnboundVariableError,
    apply_rule_at,
    const_fold,
    constant_of,
    instantiate,
    is_pattern_var,
    match_pattern,
    parse_rule_line,
    pattern_vars,
)
from rewrite_arena.costs import AstSize, MatMulScalarOps
from rewrite_arena.egraph import EGraph, matcher
from rewrite_arena.rulesets import assoc_ruleset, builtin_ruleset, trig_ruleset
from rewrite_arena.terms import (Term, leaf, number, positions, replace_at,
                                 term)
from helpers import random_term


def P(text):
    return parse_sexpr(text)


def test_match_variable_binds_whole_term():
    t = P("(+ x 1)")
    assert match_pattern(P("?a"), t) == {"?a": t}


def test_match_cancel_shape():
    subst = match_pattern(P("(/ (* ?a ?b) (* ?c ?b))"), P("(/ (* x y) (* z y))"))
    assert subst == {"?a": P("x"), "?b": P("y"), "?c": P("z")}


def test_match_nonlinear_requires_equal_bindings():
    assert match_pattern(P("(/ (* ?a ?b) (* ?c ?b))"),
                         P("(/ (* x y) (* z w))")) is None


def test_match_wrong_head_fails():
    assert match_pattern(P("(sin ?a)"), P("(cos x)")) is None


def test_instantiate_examples():
    assert instantiate(P("?a"), {"?a": P("x")}) == P("x")
    assert instantiate(P("(/ 1 (/ ?a ?b))"), {"?a": P("2"), "?b": P("x")}) \
        == P("(/ 1 (/ 2 x))")
    with pytest.raises(UnboundVariableError):
        instantiate(P("(sin ?q)"), {})
    # The first missing variable, left to right, is the one named.
    with pytest.raises(UnboundVariableError) as error:
        instantiate(P("(+ (* ?c ?a) (+ ?b ?a))"), {"?c": P("x")})
    assert str(error.value) == "unbound pattern variable ?a"


def test_instantiate_inverts_match_property():
    rng = random.Random(3)
    pats = ["(+ ?a ?b)", "(/ (* ?a ?b) ?c)", "(sin ?a)", "?a",
            "(- ?a ?a)", "(pow ?a 2)"]
    hits = 0
    for _ in range(400):
        p = P(pats[rng.randrange(len(pats))])
        t = random_term(rng)
        subst = match_pattern(p, t)
        if subst is not None:
            hits += 1
            assert instantiate(p, subst) == t
    assert hits > 20


def test_rule_validation():
    with pytest.raises(RuleError):
        Rule("bad", P("?a"), P("(+ ?a ?b)"))
    with pytest.raises(RuleError):
        Rule("bad-guard", P("(+ ?a 0)"), P("?a"), Guard("nonzero", "?z"))
    with pytest.raises(RuleError):
        Guard("unknown-kind", "?a")


def test_a_folding_ruleset_rejects_a_rule_named_fold():
    # Its steps and the constant-fold step would share one name, so a
    # trace step named fold could replay either.
    text = "fold: (+ ?a ?b) => (+ ?b ?a)"
    with pytest.raises(RuleError, match="'fold' is the constant-fold"):
        parse_ruleset(text, fold_constants=True)
    assert [r.name for r in parse_ruleset(text)] == ["fold"]


def test_const_fold():
    assert const_fold(P("(- 2 2)")) == P("0")
    assert const_fold(P("(+ (* 2 3) x)")) == P("(+ 6 x)")
    assert const_fold(P("(/ 1 0)")) == P("(/ 1 0)")
    assert const_fold(P("(< 2 3)")) == P("true")
    assert const_fold(P("(&& true false)")) == P("false")


RECIP = parse_rule_line("recip: (/ ?b ?a) => (/ 1 (/ ?a ?b)) if nonzero(?b)")[0]


def test_apply_recip_at_root():
    assert apply_rule_at(RECIP, P("(/ x 2)"), ()) == P("(/ 1 (/ 2 x))")


def test_apply_recip_guard_rejects_literal_zero():
    assert apply_rule_at(RECIP, P("(/ 0 2)"), ()) is None
    # exact folding: 2 - 2 is syntactically nonzero but folds to zero
    assert apply_rule_at(RECIP, P("(/ (- 2 2) x)"), ()) is None
    # x - x does not fold; the syntactic guard passes (by design)
    assert apply_rule_at(RECIP, P("(/ (- x x) 2)"), ()) is not None


def test_apply_assoc_at_root():
    assoc = parse_rule_line("assoc: (* (* ?a ?b) ?c) => (* ?a (* ?b ?c))")[0]
    assert apply_rule_at(assoc, P("(* (* A B) C)"), ()) == P("(* A (* B C))")
    assert apply_rule_at(assoc, P("(* A (* B C))"), ()) is None


def test_proposals_no_redex():
    assert proposals(P("A"), assoc_ruleset()) == []


def test_proposals_single_candidate():
    props = proposals(P("(* (* A B) C)"), assoc_ruleset())
    assert [(print_sexpr(p.term), p.rule) for p in props] == \
        [("(* A (* B C))", "assoc")]


def test_proposals_two_candidates():
    props = proposals(P("(* (* A B) (* C D))"), assoc_ruleset())
    terms = {print_sexpr(p.term) for p in props}
    assert terms == {"(* A (* B (* C D)))", "(* (* (* A B) C) D)"}


def test_proposals_deduplicate_by_result():
    # Both directions of a symmetric rule give the same candidate here.
    rs = parse_ruleset("swap: (+ ?a ?b) <=> (+ ?b ?a)", name="swap")
    props = proposals(P("(+ x y)"), rs)
    assert len(props) == 1
    assert props[0].term == P("(+ y x)")


def test_proposals_exclude_identity():
    rs = parse_ruleset("swap: (+ ?a ?b) => (+ ?b ?a)", name="swap-one")
    assert proposals(P("(+ x x)"), rs) == []


def test_proposals_local_change_property():
    rs = trig_ruleset()
    rng = random.Random(41)
    from rewrite_arena.terms import node_count, replace_at, subterm_at

    for _ in range(60):
        t = random_term(rng)
        for cand, rule, pos in proposals(t, rs):
            # differs from t only under pos
            assert replace_at(cand, pos, subterm_at(t, pos)) == t
            node_count(cand)  # well-formed


def test_assoc_reversibility_property():
    rs = assoc_ruleset()
    rng = random.Random(5)
    leaves = "ABCDEFG"

    def random_chain(lo, hi):
        names = list(leaves[:rng.randint(lo, hi)])
        t = P(names.pop())
        while names:
            left = rng.random() < 0.5
            other = P(names.pop())
            t = parse_sexpr(f"(* {print_sexpr(t if left else other)} "
                            f"{print_sexpr(other if left else t)})")
        return t

    for _ in range(40):
        t = random_chain(3, 6)
        for cand, _, _ in proposals(t, rs):
            back = {c.term for c in proposals(cand, rs)}
            assert t in back


def test_guard_monotonicity_property():
    guarded = trig_ruleset()
    unguarded = Ruleset("no-guards",
                        [Rule(r.name, r.lhs, r.rhs, None) for r in guarded],
                        guarded.fold_constants)
    rng = random.Random(17)
    for _ in range(80):
        t = random_term(rng)
        with_guards = {c.term for c in proposals(t, guarded)}
        without = {c.term for c in proposals(t, unguarded)}
        assert with_guards <= without


def test_parse_ruleset_text_format():
    rs = parse_ruleset("""
    ; comment line
    double: (+ ?a ?a) => (* 2 ?a)
    pyth-sin: (pow (sin ?x) 2) <=> (- 1 (pow (cos ?x) 2))
    recip: (/ ?b ?a) => (/ 1 (/ ?a ?b)) if nonzero(?b)
    """, name="demo")
    names = [r.name for r in rs]
    assert names == ["double", "pyth-sin", "pyth-sin-rev", "recip"]
    assert rs.rules[3].guard == Guard("nonzero", "?b")


def test_parse_ruleset_rejects_duplicates_and_garbage():
    with pytest.raises(RuleError):
        parse_ruleset("a: x => y\na: y => x", name="dup")
    with pytest.raises(RuleError):
        parse_rule_line("no-arrow (+ ?a ?b) (+ ?b ?a)")


def test_pattern_vars():
    assert pattern_vars(P("(/ (* ?a ?b) (* ?c ?b))")) == {"?a", "?b", "?c"}
    assert pattern_vars(P("(+ x 1)")) == set()


# ---------------------------------------------------------------------------
# The compiled rewriters against the interpreters match_pattern and
# instantiate, which share no code with them.

def _fresh(t):
    """An equal term sharing no node with t."""
    return parse_sexpr(print_sexpr(t))


def _spell(p, subst):
    """p instantiated with a fresh copy of the binding at every variable,
    so equal occurrences of a repeated variable are distinct objects."""
    if is_pattern_var(p):
        return _fresh(subst[p.op.name])
    return Term(p.op, tuple(_spell(c, subst) for c in p.children))


def _abstract(t, rng, names=("?a", "?b", "?c")):
    """A fresh copy of t with some subterms turned into variables; a
    subterm equal to one already abstracted usually reuses its variable."""
    chosen = {}

    def walk(node):
        if rng.random() < 0.25:
            if node in chosen and rng.random() < 0.8:
                return leaf(chosen[node])
            name = chosen.setdefault(node, rng.choice(names))
            return leaf(name)
        return Term(node.op, tuple(walk(c) for c in node.children))

    return walk(t)


PATTERN_SHAPES = [
    "?a", "(- ?a ?a)", "(+ ?a 0)", "(* 2 (+ ?a ?b))", "(+ ?a (+ ?b ?a))",
    "(/ (* ?a ?b) (* ?c ?b))", "(|| ?a true)", "(pow (sin ?a) 2)",
    "(- (neg ?a) (neg (neg ?a)))", "(* -3 x)",
]


def _same_nodes(got, want, bindings, pattern_leaves):
    """Equal terms whose bound subterms and pattern leaves are the
    reference's own objects."""
    stack = [(got, want)]
    while stack:
        a, b = stack.pop()
        if id(b) in bindings or id(b) in pattern_leaves:
            assert a is b
            continue
        assert a.op is b.op
        assert len(a.children) == len(b.children)
        stack.extend(zip(a.children, b.children))


def _check_rewriter(p, t, rhs):
    """A one-rule ruleset's rewriter at t gives exactly what the
    interpreters give, sharing their bound subterms and literal leaves."""
    rs = Ruleset("one", [Rule("r", p, rhs)])
    got = rs.rewriter(t.op.name)(t)
    subst = match_pattern(p, t)
    if subst is None:
        assert got == []
        return
    want = instantiate(rhs, subst)
    assert [name for name, _ in got] == ["r"] and got[0][1] == want
    leaves = {id(n) for _, n in positions(rhs)
              if not n.children and not is_pattern_var(n)}
    _same_nodes(got[0][1], want, {id(v) for v in subst.values()}, leaves)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compiled_patterns_agree_with_reference(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        p = P(rng.choice(PATTERN_SHAPES))
        t = _spell(p, {v: random_term(rng, 2) for v in pattern_vars(p)})
    else:
        t = random_term(rng)
        p = _abstract(t, rng)
        t = _fresh(t)
    if rng.random() < 0.4:
        # Perturb one subterm; leaf("2") is the numeral 2, the same
        # interned symbol that parsing "2" gives.
        pos, _ = rng.choice(list(positions(t)))
        new = leaf("2") if rng.random() < 0.3 else random_term(rng, 2)
        t = replace_at(t, pos, new)
    _check_rewriter(p, t, p)
    names = tuple(sorted(pattern_vars(p)))
    rhs = (_abstract(random_term(rng, 3), rng, names) if names
           else _fresh(random_term(rng, 3)))
    _check_rewriter(p, t, rhs)


def _saturated_once(rule, t):
    g = EGraph()
    root = g.add_term(t)
    g.add_instantiated(rule, g.ematch(rule.lhs))
    g.rebuild()
    return g, root


def test_compiled_patterns_are_cached_on_the_pattern():
    rule = Rule("r", P("(+ ?a (sin ?b))"), P("(* ?b 2)"))
    assert rule.lhs._memo is None and rule.rhs._memo is None
    g, root = _saturated_once(rule, P("(+ x (sin y))"))
    assert g.represents(root, P("(* y 2)"))
    match = matcher(rule.lhs)
    applier = rule.rhs._memo[("egraph.applier", match.names)]
    g, root = _saturated_once(rule, P("(+ 1 (sin 2))"))
    assert g.represents(root, P("(* 2 2)"))
    assert matcher(rule.lhs) is match
    assert rule.rhs._memo[("egraph.applier", match.names)] is applier


def test_equal_patterns_share_compiled_code_but_not_functions():
    # A suite rebuilds its rules for each case: equal sources compile once,
    # and each function still binds its own pattern's operators.
    first, second = P("(- ?a (tan ?b))"), P("(- ?a (tan ?b))")
    assert first is not second
    g = EGraph()
    root = g.add_term(P("(- x (tan y))"))
    g.add_term(P("(- x (sin y))"))
    g.rebuild()
    x, y = g.add_term(P("x")), g.add_term(P("y"))
    assert g.ematch(first) == g.ematch(second) == [(root, x, y)]
    one, two = matcher(first), matcher(second)
    assert one is not two and one.__code__ is two.__code__
    assert one.__globals__ is not two.__globals__


def test_compiled_patterns_handle_deep_patterns():
    # Generated code stays flat: a nested expression would stop compiling
    # at about 100 levels (Python caps nesting at 200 parentheses).
    depth = 500
    p = P("(sin " * depth + "?a" + ")" * depth)
    t = P("(sin " * depth + "(+ x 1)" + ")" * depth)
    subst = match_pattern(p, t)
    assert subst == {"?a": P("(+ x 1)")}
    assert instantiate(p, subst) == t
    bottom_differs = P("(sin " * (depth - 1) + "(cos x)" + ")" * (depth - 1))
    assert match_pattern(p, bottom_differs) is None
    rewrite = Ruleset("deep", [Rule("deep", p, p)]).rewriter("sin")
    assert rewrite(t) == [("deep", t)]
    assert rewrite(bottom_differs) == []


def _built_nodes(result, inputs):
    """The nodes of result that are not nodes of the inputs: the ones a
    builder made."""
    given = {id(n) for t in inputs for _, n in positions(t)}
    return [n for _, n in positions(result) if id(n) not in given]


def _assert_built_like_init(nodes):
    for n in nodes:
        assert type(n) is Term and n._memo is None
        assert hash(n) == hash(Term(n.op, n.children))
        assert P(print_sexpr(n)) == n


@pytest.mark.parametrize("name", ["assoc", "trig", "integration", "halide",
                                  "needle3"])
def test_inline_built_nodes_equal_constructed_ones(name):
    """Every right-hand-side node that a compiled rewriter or instantiate
    builds hashes, compares and reads back as a node Term() builds."""
    rs = builtin_ruleset(name)
    rng = random.Random(name)
    leaves = [n for r in rs.rules for _, n in positions(r.rhs)]
    built = 0
    for rule in rs.rules:
        for _ in range(5):
            subst = {v: random_term(rng, 2) for v in pattern_vars(rule.lhs)}
            t = _spell(rule.lhs, subst)
            for _, new in rs.rewriter(t.op.name)(t):
                nodes = _built_nodes(new, [t, *leaves])
                _assert_built_like_init(nodes)
                built += len(nodes)
            nodes = _built_nodes(instantiate(rule.rhs, subst),
                                 [*subst.values(), *leaves])
            _assert_built_like_init(nodes)
            built += len(nodes)
    assert built


def _folding_term(rng, depth):
    """A random term over exactly folded, undefined and unfolded operators."""
    if depth == 0 or rng.random() < 0.25:
        return leaf(rng.choice(["x", "0", "1", "2", "-1", "1/2", "true",
                                "false"]))
    op = rng.choice(["+", "-", "*", "/", "pow", "<", "==", "&&", "!", "neg",
                     "sin", "min"])
    arity = 1 if op in ("!", "neg", "sin") else 2
    return term(op, *[_folding_term(rng, depth - 1) for _ in range(arity)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_constant_of_agrees_with_const_fold(seed):
    rng = random.Random(seed)
    t = _folding_term(rng, 5)
    want = const_fold(t).op.value
    subs = [n for _, n in positions(t)]
    for n in rng.sample(subs, len(subs) // 3):  # warm some nodes first
        assert constant_of(n) == const_fold(n).op.value
    for _ in range(2):  # then t itself, cold or part warm, then warm
        got = constant_of(t)
        assert got == want and type(got) is type(want)
    cold = _fresh(t)
    assert cold._memo is None and constant_of(cold) == want


def test_constant_of_walks_a_chain_deeper_than_the_recursion_limit():
    t = number(0)
    for _ in range(5000):
        t = term("+", number(1), t)
    assert constant_of(t) == const_fold(t).op.value == 5000
    assert constant_of(t.children[1]) == 4999  # memoized on the way


def test_memoized_constants_leave_cost_entries_alone():
    cases = [
        (AstSize(), "(/ (* (+ x 1) (- (* 2 3) 1)) (* y (* 2 3)))",
         ["(* 2 3)", "x"]),
        (MatMulScalarOps({"A": (2, 3), "B": (3, 4), "C": (4, 5)}),
         "(* (* A B) C)", ["(* A (* B C))", "(* B C)"]),
    ]
    for model, text, news in cases:
        plain = P(text)
        want = model.cost(plain)
        for costed_first in (True, False):
            t = P(text)
            if costed_first:
                assert model.cost(t) == want
            for _, n in positions(t):
                assert constant_of(n) == const_fold(n).op.value
            assert model.cost(t) == want
            for (_, a), (_, b) in zip(positions(plain), positions(t)):
                for new in news:
                    assert model.delta_cost(b, P(new)) == \
                        model.delta_cost(a, P(new))
                if b.children:  # both entries side by side
                    assert b._memo[model] == a._memo[model]
                    assert "rules.constant" in b._memo
