import pickle
import random
from typing import NamedTuple

import pytest

from rewrite_arena import (
    AstSize,
    MatMulScalarOps,
    dims_of,
    dp_optimal_cost,
    parse_sexpr,
)
from rewrite_arena.costs import (
    CostError,
    DimensionError,
    GoalIndicator,
    IntegSquare,
    WeightedAstSize,
    dims_from_spec,
    integ_cost,
    model_from_spec,
)
from rewrite_arena.terms import Term, replace_at, subterm_at, symbol
from helpers import random_term

DIMS = {"A": (2, 3), "B": (3, 4), "C": (4, 5)}


def P(text):
    return parse_sexpr(text)


def test_ast_size():
    assert AstSize().cost(P("(sin x)")) == 2
    assert AstSize().cost(P("x")) == 1


def test_matmul_association_costs_64_and_90():
    m = MatMulScalarOps(DIMS)
    assert m.cost(P("(* (* A B) C)")) == 64
    assert m.cost(P("(* A (* B C))")) == 90


def test_weighted_integral():
    w = WeightedAstSize({"int": 100, "d": 100})
    assert w.cost(P("(int x x)")) == 102


def test_dims_of_examples():
    assert dims_of({"A": (2, 3)}, P("A")) == (2, 3)
    assert dims_of(DIMS, P("(* A B)")) == (2, 4)
    with pytest.raises(DimensionError) as err:
        dims_of({"A": (2, 3)}, P("(* A A)"))
    assert "position" in str(err.value)
    with pytest.raises(CostError):
        dims_of({}, P("Q"))


def test_dims_of_names_the_position_of_the_one_fault():
    times, q, mismatch = symbol("*", 2), P("Q"), P("(* A C)")
    cases = [
        (P("Q"), "unbound matrix leaf 'Q' at position []"),
        (P("(* (* A B) (* C Q))"), "unbound matrix leaf 'Q' at position [1, 1]"),
        (P("(* (* A B) (+ C C))"), "non-product node '+' at position [1]"),
        (P("(* A (* (* B (* C C)) C))"),
         "dimension mismatch at position [1, 0, 1]: 4x5 times 4x5"),
        # A faulty subterm shared by identity is named at its first
        # position in left-to-right order.
        (Term(times, (Term(times, (P("A"), mismatch)), mismatch)),
         "dimension mismatch at position [0, 1]: 2x3 times 4x5"),
        (Term(times, (q, Term(times, (P("B"), q)))),
         "unbound matrix leaf 'Q' at position [0]"),
    ]
    for t, message in cases:
        with pytest.raises(CostError) as err:
            dims_of(DIMS, t)
        assert str(err.value) == message


def test_cost_memo_is_kept_per_model_object():
    t = P("(int (sin x) x)")
    light, heavy = WeightedAstSize({"int": 1}), WeightedAstSize({"int": 100})
    assert [light.cost(t), heavy.cost(t), light.cost(t)] == [4, 103, 4]
    # An unpickled copy is a new object, with memo entries of its own.
    copy = pickle.loads(pickle.dumps(heavy))
    assert copy is not heavy and copy.cost(t) == 103
    assert light in t._memo and heavy in t._memo and copy in t._memo


def test_matmul_errors():
    with pytest.raises(CostError):
        MatMulScalarOps({}).cost(P("Z"))
    with pytest.raises(DimensionError):
        MatMulScalarOps({"A": (2, 3)}).cost(P("(* A A)"))


def test_integ_cost_examples():
    assert integ_cost(P("x")) == 1
    assert integ_cost(P("(int x x)")) == 4
    # linearity is cost-decreasing: (x+y)^2 > x^2 + y^2
    assert integ_cost(P("(int (+ x x) x)")) == 16
    assert integ_cost(P("(+ (int x x) (int x x))")) == 9


def test_integ_equals_ast_size_without_integrals():
    rng = random.Random(9)
    model = IntegSquare()
    size = AstSize()
    for _ in range(200):
        t = random_term(rng)
        assert model.cost(t) == size.cost(t)


def test_ast_size_strictly_monotone_under_growth():
    # Replacing a leaf with a larger term strictly increases AstSize.
    rng = random.Random(31)
    size = AstSize()
    from rewrite_arena.terms import positions

    for _ in range(100):
        t = random_term(rng)
        leaf_positions = [p for p, s in positions(t) if not s.children]
        p = leaf_positions[rng.randrange(len(leaf_positions))]
        bigger = P("(+ x (sin y))")
        assert size.cost(replace_at(t, p, bigger)) > size.cost(t)


def test_matmul_never_beats_dp_oracle():
    rng = random.Random(4)
    from rewrite_arena.benchmarks import matmul_leaves, left_assoc_chain
    from rewrite_arena import proposals
    from rewrite_arena.rulesets import assoc_ruleset

    rs = assoc_ruleset()
    for _ in range(20):
        n = rng.randint(3, 6)
        dims = [rng.randint(1, 9) for _ in range(n + 1)]
        names = matmul_leaves(n)
        env = {names[i]: (dims[i], dims[i + 1]) for i in range(n)}
        model = MatMulScalarOps(env)
        oracle = dp_optimal_cost(dims)
        t = left_assoc_chain(names)
        # random walk over associations
        for _ in range(30):
            assert model.cost(t) >= oracle
            cands = proposals(t, rs)
            if not cands:
                break
            t = cands[rng.randrange(len(cands))].term


def test_goal_indicator():
    goal = P("(g2 b b)")
    model = GoalIndicator(goal)
    assert model.cost(goal) == 0
    assert model.cost(P("(f2 a a)")) == 1


def test_delta_cost_matches_full_recosting():
    rng = random.Random(77)
    from rewrite_arena.terms import positions, subterm_at
    from rewrite_arena.rulesets import trig_ruleset
    from rewrite_arena import proposals

    rs = trig_ruleset()
    size = AstSize()
    weighted = WeightedAstSize({"sin": 3, "pow": 2})
    for _ in range(60):
        t = random_term(rng)
        for cand, rule, pos in proposals(t, rs):
            old_sub = subterm_at(t, pos)
            new_sub = subterm_at(cand, pos)
            for model in (size, weighted):
                delta = model.delta_cost(old_sub, new_sub)
                assert delta == model.cost(cand) - model.cost(t)


def test_matmul_delta_cost_localizes_assoc():
    m = MatMulScalarOps(DIMS)
    old_sub = P("(* (* A B) C)")
    new_sub = P("(* A (* B C))")
    assert m.delta_cost(old_sub, new_sub) == 90 - 64
    # shape-changing replacement cannot localize
    assert m.delta_cost(P("A"), P("B")) is None


def test_cost_memo_survives_sharing():
    m = MatMulScalarOps(DIMS)
    t = P("(* (* A B) C)")
    assert m.cost(t) == 64
    t2 = replace_at(t, (1,), P("C"))
    assert t2 == t
    assert m.cost(t2) == 64


# ---------------------------------------------------------------------------
# Cost deltas read from the memo.

def _reference_deltas(t, candidates, model, base):
    """Cost changes by the formulas that re-cost every candidate: cost(new)
    - cost(old) when the change localizes, else the full result's cost."""
    out = []
    for c in candidates:
        delta = None
        if isinstance(model, WeightedAstSize):
            delta = model.cost(c.new_sub) - model.cost(c.old_sub)
        elif isinstance(model, MatMulScalarOps):
            model.cost(c.old_sub)
            model.cost(c.new_sub)
            c_old, r_old, k_old = c.old_sub._memo[model]
            c_new, r_new, k_new = c.new_sub._memo[model]
            if (r_old, k_old) == (r_new, k_new):
                delta = c_new - c_old
        if delta is None:
            delta = model.cost(replace_at(t, c.position, c.new_sub)) - base
        out.append(delta)
    return out


_MATMUL_12 = [30, 5, 41, 12, 7, 33, 18, 2, 25, 9, 16, 40, 3]
_FLOAT_WEIGHTS = {"sin": 0.1, "pow": 2.7}


def _walk_starts():
    """(case, models) for every built-in suite case and matmul-12."""
    from rewrite_arena.benchmarks import builtin_suites, matmul_case_from_dims

    generic = [AstSize(), WeightedAstSize(_FLOAT_WEIGHTS), IntegSquare()]
    cases = [case for suite in builtin_suites().values() for case in suite]
    for case in [*cases, matmul_case_from_dims(_MATMUL_12, name="matmul-12")]:
        yield case, [case.model_for("stochastic"), *generic,
                     GoalIndicator(case.input_term)]


def _walk(case, steps, rng):
    """Terms along a seeded walk from the case input."""
    from rewrite_arena.stochastic import proposals

    t = case.input_term
    for _ in range(steps):
        moves = proposals(t, case.ruleset)
        if not moves:
            return
        yield t
        t = rng.choice(moves).term


class _Candidate(NamedTuple):
    rule: str
    position: tuple
    old_sub: Term
    new_sub: Term


def _candidates(t, cons):
    """Each entry of t's list in a chain's table, as a _Candidate; new_sub
    is the replacement the table holds."""
    from rewrite_arena.stochastic import _enumerate_candidates

    out = []
    for i in range(len(_enumerate_candidates(t, cons.ruleset, cons))):
        _, pos, (rule, _, new_sub, _) = cons.locate(t, i)
        out.append(_Candidate(rule, pos, subterm_at(t, pos), new_sub))
    return out


def _chain_deltas(t, ruleset, model, base):
    """(candidates, deltas) a chain over ruleset and model computes at t,
    from one new table."""
    from rewrite_arena.stochastic import _Hashcons, _step_deltas

    cons = _Hashcons(ruleset, model)
    deltas = _step_deltas(t, cons, base)
    return _candidates(t, cons), deltas


def test_deltas_equal_full_recosting_bit_for_bit():
    rng = random.Random(14)
    kinds, counted = set(), 0
    for case, models in _walk_starts():
        for t in _walk(case, 20, rng):
            bases = [model.cost(t) for model in models]
            got = [_chain_deltas(t, case.ruleset, m, b)
                   for m, b in zip(models, bases)]
            for model, base, (candidates, deltas) in zip(models, bases, got):
                want = _reference_deltas(t, candidates, model, base)
                assert [type(d) for d in deltas] == [type(d) for d in want]
                assert deltas == want, (case.name, model)
                kinds.add(type(model))
                counted += len(deltas)
    assert kinds >= {AstSize, WeightedAstSize, IntegSquare, MatMulScalarOps,
                     GoalIndicator}
    assert counted > 5000


def _product_rewrites():
    """A model, a term, and one-rule rulesets that each rewrite the term
    once, in the order of the assertions below."""
    from rewrite_arena.rules import parse_ruleset

    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5), "D": (4, 7), "E": (3, 3)}
    rulesets = [parse_ruleset(text, "product") for text in (
        # Shape kept: the change localizes.
        "assoc: (* ?a (* ?b ?c)) => (* (* ?a ?b) ?c)",
        # C (4x5) -> D (4x7) changes every ancestor's shape.
        "swap: C => D",
        "swap: (* B C) => (* B D)",
        "swap: (* A (* B C)) => (* A (* B D))",
        "swap: (* A (* B C)) => (* E (* B D))")]
    return MatMulScalarOps(dims), P("(* A (* B C))"), rulesets


def test_shape_changing_products_are_costed_along_the_root_path():
    from rewrite_arena.rules import parse_ruleset
    from rewrite_arena.stochastic import _Hashcons, _step_deltas

    model, t, rulesets = _product_rewrites()
    base = model.cost(t)
    candidates, deltas = [], []
    for rs in rulesets:
        (candidate,), (delta,) = _chain_deltas(t, rs, model, base)
        candidates.append(candidate)
        deltas.append(delta)
    assert [c.position for c in candidates] == [(), (1, 1), (1,), (), ()]
    assert [model.delta_cost(c.old_sub, c.new_sub) for c in candidates] == [
        -26, None, None, None, None]
    assert deltas == _reference_deltas(t, candidates, model, base)
    # base 60 + 30; B*D costs 84 and A*(BD) 42; E*(BD) costs 63.
    assert deltas == [-26, 126 - 90, 126 - 90, 126 - 90, 147 - 90]
    # A replacement that breaks a product raises as full costing does.
    cons = _Hashcons(parse_ruleset("swap: (* B C) => D", "bad"), model)
    with pytest.raises(DimensionError) as got:
        _step_deltas(t, cons, base)
    with pytest.raises(DimensionError) as want:
        _reference_deltas(t, _candidates(t, cons), model, base)
    assert str(got.value) == str(want.value)


def test_deltas_write_no_memo_on_candidates(monkeypatch):
    from rewrite_arena import stochastic
    from rewrite_arena.terms import FALSE, TRUE, postorder

    built = []  # terms stochastic.replace_at built while deltas were taken
    replace = stochastic.replace_at
    monkeypatch.setattr(stochastic, "replace_at",
                        lambda *args: built.append(args) or replace(*args))
    rng = random.Random(3)
    fresh_total = 0
    for case, models in _walk_starts():
        # A rule's ground leaves and the boolean literals are shared by
        # every term that holds them, and may be costed there.
        shared = {id(n) for rule in case.ruleset.rules
                  for n in postorder(rule.rhs)} | {id(TRUE), id(FALSE)}
        for t in _walk(case, 10, rng):
            bases = [model.cost(t) for model in models]
            old = {id(n) for n in postorder(t)} | shared
            for model, base in zip(models, bases):
                n_built = len(built)
                candidates, _ = _chain_deltas(t, case.ruleset, model, base)
                assert len(built) == n_built  # no candidate term was built
                fresh = [n for c in candidates for n in postorder(c.new_sub)
                         if id(n) not in old]
                assert all(n._memo is None for n in fresh), case.name
                fresh_total += len(fresh)
    model, t, rulesets = _product_rewrites()
    base = model.cost(t)
    for rs in rulesets:
        candidates, _ = _chain_deltas(t, rs, model, base)
        assert all(c.new_sub._memo is None for c in candidates)
    assert fresh_total > 1000


def _chain(op, depth, bottom):
    t = bottom
    for _ in range(depth):
        t = Term(symbol(op, 1), (t,))
    return t


def test_value_and_delta_cost_on_deep_uncosted_terms():
    deep = _chain("sin", 100_000, P("x"))
    shallower = _chain("sin", 99_999, P("y"))
    for model in (AstSize(), WeightedAstSize({"sin": 0.1})):
        value, delta = model.value(deep), model.delta_cost(deep, shallower)
        assert model not in (deep._memo or {})
        assert model not in (shallower._memo or {})
        assert value == model.cost(deep)
        assert delta == model.cost(shallower) - model.cost(deep)
    # A right-nested product of square matrices, 100,000 levels deep.
    model = MatMulScalarOps({"A": (2, 2), "B": (2, 2)})
    a, b = P("A"), P("B")
    deep = b
    for _ in range(100_000):
        deep = Term(symbol("*", 2), (a, deep))
    assert model.value(deep) == (800_000, 2, 2) and deep._memo is None
    assert model.delta_cost(deep, deep.children[1]) == -8
    assert model.cost(deep) == 800_000


def test_root_path_fallback_on_a_deep_candidate():
    from rewrite_arena.rules import parse_ruleset

    model = IntegSquare()
    # An integral 50,000 levels down a sin chain; the candidate splits it.
    t = _chain("sin", 50_000, P("(int (+ x x) x)"))
    pos = (0,) * 50_000
    split = parse_ruleset("split: (int (+ x x) x) => (+ (int x x) (int x x))",
                          "split")
    base = model.cost(t)
    assert base == 50_000 + 16
    (candidate,), (delta,) = _chain_deltas(t, split, model, base)
    new_sub = candidate.new_sub
    assert candidate.position == pos
    assert new_sub == P("(+ (int x x) (int x x))")
    assert delta == 9 - 16 and new_sub._memo is None
    assert delta == model.cost(replace_at(t, pos, new_sub)) - base
    # An uncosted deep replacement is read by value's iterative fallback;
    # a stand-in rewriter of `int` proposes it.
    deep_sub = _chain("sin", 100_000, P("x"))
    grow = parse_ruleset("grow: (int ?a ?b) => ?a", "grow")
    grow._rewriters["int"] = lambda sub: [("grow", deep_sub)]
    (candidate,), (delta,) = _chain_deltas(t, grow, model, base)
    assert candidate.new_sub is deep_sub and candidate.position == pos
    assert deep_sub._memo is None
    assert delta == model.cost(replace_at(t, pos, deep_sub)) - base


@pytest.mark.parametrize("shape", [[13.5, 14], ["5", 19], [True, 3], [0, 4],
                                   [4], [4, 5, 6], "45"])
def test_dims_are_read_only_as_positive_json_integers(shape):
    # The first three once loaded as (13, 14), (5, 19) and (1, 3).
    for read in (dims_from_spec,
                 lambda d: model_from_spec({"model": "matmul_scalar_ops",
                                            "dims": d})):
        with pytest.raises(CostError, match="dims of 'A1' must be two "
                                            "integers of at least 1"):
            read({"A2": [1, 2], "A1": shape})
    assert dims_from_spec({"A1": [13, 14]}) == {"A1": (13, 14)}


@pytest.mark.parametrize("weight, message", [
    (True, "weight True is not a number, for 'x'"),
    ("3", "weight '3' is not a number, for 'x'"),
    ("1/2", "weight '1/2' is not a number, for 'x'"),
    (None, "weight None is not a number, for 'x'"),
    (float("nan"), "weight nan is not finite, for 'x'"),
])
def test_a_weight_that_is_no_finite_json_number_is_a_cost_error(weight,
                                                                 message):
    # The first three once loaded as 1, 3 and 0.5, and NaN failed inside
    # Fraction with "cannot convert NaN to integer ratio".
    with pytest.raises(CostError) as caught:
        model_from_spec({"model": "weighted_ast_size",
                         "weights": {"y": 2, "x": weight}})
    assert str(caught.value) == message
    model = model_from_spec({"model": "weighted_ast_size",
                             "weights": {"x": 2.0, "y": 2.5, "z": -1}})
    assert model.weights == {"x": 2, "y": 2.5, "z": -1}
    assert type(model.weights["x"]) is int


def test_an_infinite_weight_is_a_cost_error():
    # It once escaped the suite loader as an OverflowError: exit 3.
    with pytest.raises(CostError, match="weight inf is not finite"):
        model_from_spec({"model": "weighted_ast_size",
                         "weights": {"x": float("inf")}})
