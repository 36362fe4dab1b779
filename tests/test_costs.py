import pickle
import random

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
    integ_cost,
)
from rewrite_arena.terms import Term, replace_at, symbol
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
