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
    dims_from_spec,
    integ_cost,
    model_from_spec,
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
    """Terms along a seeded walk from the case input, with candidates."""
    from rewrite_arena.stochastic import _enumerate_candidates

    t = case.input_term
    for _ in range(steps):
        candidates = _enumerate_candidates(t, case.ruleset)
        if not candidates:
            return
        yield t, candidates
        t = rng.choice(candidates).materialize(t)


def test_deltas_equal_full_recosting_bit_for_bit():
    from rewrite_arena.stochastic import _deltas

    rng = random.Random(14)
    kinds, counted = set(), 0
    for case, models in _walk_starts():
        for t, candidates in _walk(case, 20, rng):
            bases = [model.cost(t) for model in models]
            got = [_deltas(t, candidates, m, b) for m, b in zip(models, bases)]
            for model, base, deltas in zip(models, bases, got):
                want = _reference_deltas(t, candidates, model, base)
                assert [type(d) for d in deltas] == [type(d) for d in want]
                assert deltas == want, (case.name, model)
                kinds.add(type(model))
                counted += len(deltas)
    assert kinds >= {AstSize, WeightedAstSize, IntegSquare, MatMulScalarOps,
                     GoalIndicator}
    assert counted > 5000


def _product_candidates():
    from rewrite_arena.stochastic import _Candidate

    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5), "D": (4, 7), "E": (3, 3)}
    t = P("(* A (* B C))")
    candidates = [
        # Shape kept: the change localizes.
        _Candidate("assoc", (), t, P("(* (* A B) C)")),
        # C (4x5) -> D (4x7) changes every ancestor's shape.
        _Candidate("swap", (1, 1), P("C"), P("D")),
        _Candidate("swap", (1,), P("(* B C)"), P("(* B D)")),
        _Candidate("swap", (), t, P("(* A (* B D))")),
        _Candidate("swap", (), t, P("(* E (* B D))")),
    ]
    return MatMulScalarOps(dims), t, candidates


def test_shape_changing_products_are_costed_along_the_root_path():
    from rewrite_arena.stochastic import _Candidate, _deltas

    model, t, candidates = _product_candidates()
    assert [model.delta_cost(c.old_sub, c.new_sub) for c in candidates] == [
        -26, None, None, None, None]
    base = model.cost(t)
    deltas = _deltas(t, candidates, model, base)
    assert deltas == _reference_deltas(t, candidates, model, base)
    # base 60 + 30; B*D costs 84 and A*(BD) 42; E*(BD) costs 63.
    assert deltas == [-26, 126 - 90, 126 - 90, 126 - 90, 147 - 90]
    # A replacement that breaks a product raises as full costing does.
    bad = [_Candidate("swap", (1,), P("(* B C)"), P("D"))]
    with pytest.raises(DimensionError) as got:
        _deltas(t, bad, model, base)
    with pytest.raises(DimensionError) as want:
        _reference_deltas(t, bad, model, base)
    assert str(got.value) == str(want.value)


def test_deltas_write_no_memo_on_candidates(monkeypatch):
    from rewrite_arena.stochastic import _Candidate, _deltas
    from rewrite_arena.terms import postorder

    built = []  # candidates materialized, by the walk or by _deltas
    materialize = _Candidate.materialize
    monkeypatch.setattr(_Candidate, "materialize",
                        lambda c, t: built.append(c) or materialize(c, t))
    rng = random.Random(3)
    fresh_total = 0
    for case, models in _walk_starts():
        for t, candidates in _walk(case, 10, rng):
            bases = [model.cost(t) for model in models]
            old = {id(n) for n in postorder(t)}
            fresh = [n for c in candidates for n in postorder(c.new_sub)
                     if id(n) not in old and n._memo is None]
            n_built = len(built)
            for model, base in zip(models, bases):
                _deltas(t, candidates, model, base)
            assert all(n._memo is None for n in fresh), case.name
            assert len(built) == n_built  # no candidate term was built
            fresh_total += len(fresh)
    model, t, candidates = _product_candidates()
    _deltas(t, candidates, model, model.cost(t))
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
    from rewrite_arena.stochastic import _Candidate, _deltas

    model = IntegSquare()
    # An integral 50,000 levels down a sin chain; the candidate splits it.
    t = _chain("sin", 50_000, P("(int (+ x x) x)"))
    pos = (0,) * 50_000
    new_sub = P("(+ (int x x) (int x x))")
    candidate = _Candidate("split", pos, P("(int (+ x x) x)"), new_sub)
    base = model.cost(t)
    assert base == 50_000 + 16
    (delta,) = _deltas(t, [candidate], model, base)
    assert delta == 9 - 16 and new_sub._memo is None
    assert delta == model.cost(replace_at(t, pos, new_sub)) - base
    # An uncosted deep replacement is read by value's iterative fallback.
    deep_sub = _chain("sin", 100_000, P("x"))
    (delta,) = _deltas(t, [_Candidate("grow", pos, t.children[0], deep_sub)],
                       model, base)
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
