import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from rewrite_arena import (
    AstSize,
    CostModel,
    Guard,
    Inequivalent,
    MatMulScalarOps,
    Rule,
    Ruleset,
    leaf,
    number,
    term,
    brute_force_optimal,
    builtin_suites,
    dp_optimal_cost,
    fuzz_equiv,
    gen_matmul_chain,
    judge,
    needle_case,
    parse_sexpr,
)
from rewrite_arena.benchmarks import (
    BenchmarkCase,
    ReachTerm,
    SuiteError,
    TargetCost,
    case_from_spec,
    case_to_spec,
    matmul_case_from_dims,
    suite_from_json,
    suite_to_json,
)
from rewrite_arena.costs import (
    GoalIndicator,
    IntegSquare,
    WeightedAstSize,
    model_to_spec,
)
from rewrite_arena.rules import pattern_vars
from rewrite_arena.rulesets import builtin_ruleset
from rewrite_arena.terms import node_count
from helpers import BINARY_OPS, UNARY_OPS


def P(text):
    return parse_sexpr(text)


def test_dp_examples():
    assert dp_optimal_cost([2, 3, 4, 5]) == 64
    assert dp_optimal_cost([10, 20, 30]) == 6000
    assert dp_optimal_cost([7, 9]) == 0


def test_brute_force_examples():
    assert brute_force_optimal([2, 3, 4, 5]) == 64
    assert brute_force_optimal([7, 9]) == 0
    with pytest.raises(ValueError):
        brute_force_optimal(list(range(2, 17)))


def test_dp_agrees_with_brute_force():
    rng = random.Random(0)
    for _ in range(120):
        n = rng.randint(1, 8)
        dims = [rng.randint(1, 12) for _ in range(n + 1)]
        assert dp_optimal_cost(dims) == brute_force_optimal(dims)


def test_gen_matmul_contract():
    rng = random.Random(11)
    case = gen_matmul_chain(7, 2, 9, rng)
    assert len(case.dims) == 7
    # chain compatibility: cols of A_i equal rows of A_{i+1}
    for i in range(1, 7):
        assert case.dims[f"A{i}"][1] == case.dims[f"A{i+1}"][0]
    assert case.oracle_cost <= case.cost_model.cost(case.input_term)
    assert isinstance(case.criterion, TargetCost)
    with pytest.raises(ValueError):
        gen_matmul_chain(1, 1, 5)
    with pytest.raises(ValueError):
        gen_matmul_chain(4, 5, 2)


def test_matmul_case_from_dims_paper_example():
    case = matmul_case_from_dims([2, 3, 4, 5])
    assert case.oracle_cost == 64
    assert case.cost_model.cost(case.input_term) == 64


def test_gen_matmul_two_matrices_is_trivial():
    case = gen_matmul_chain(2, 1, 9, random.Random(3))
    assert case.oracle_cost == case.cost_model.cost(case.input_term)


def test_needle_one_is_trivial_for_both_engines():
    from rewrite_arena import EGraph, BackoffScheduler, RunConfig, run_chain
    from rewrite_arena.egraph import run_iteration

    case = needle_case(1)
    g = EGraph()
    root = g.add_term(case.input_term)
    g.rebuild()
    sched = BackoffScheduler()
    for i in range(2):
        run_iteration(g, case.ruleset, sched, i)
        if g.represents(root, case.criterion.goal):
            break
    assert g.represents(root, case.criterion.goal)

    cfg = RunConfig(workers=1, budget=1, seed=0, max_steps=200)
    res = run_chain(case.input_term, case.ruleset, case.cost_model, cfg,
                    target_cost=0)
    assert res.best_term == case.criterion.goal


def test_dims_are_read_from_the_matmul_model():
    case = gen_matmul_chain(4, 1, 9, random.Random(1))
    assert case.dims is case.cost_model.dims
    assert "dims" not in {f.name for f in dataclasses.fields(BenchmarkCase)}
    assert needle_case(3).dims is None
    chain = dataclasses.replace(case, cost_model=AstSize(),
                                stochastic_cost_model=case.cost_model)
    assert chain.dims is case.cost_model.dims


def test_target_cost_says_where_each_case_is_solved():
    assert gen_matmul_chain(4, 1, 9, random.Random(1)).target_cost() == \
        gen_matmul_chain(4, 1, 9, random.Random(1)).oracle_cost
    assert builtin_suites()["halide-mini"][0].target_cost() == 0
    needle = needle_case(3)  # a GoalIndicator costs 0 only at the goal
    assert needle.target_cost() == 0
    assert dataclasses.replace(needle, cost_model=AstSize()).target_cost() \
        is None


def test_needle_case_shape():
    case = needle_case(8)
    assert case.input_term.op.arity == 8
    assert all(c.op.name == "a" for c in case.input_term.children)
    goal = case.criterion.goal
    assert goal.op.name == "g8"
    assert case.cost_model.cost(goal) == 0
    assert case.cost_model.cost(case.input_term) == 1
    with pytest.raises(ValueError):
        needle_case(0)


def test_builtin_suites_sizes():
    suites = builtin_suites()
    assert len(suites["trig"]) >= 10
    assert len(suites["integration"]) >= 6
    assert len(suites["halide-mini"]) >= 10


def test_builtin_cases_fuzz_consistent():
    # every case's input and intended solution agree numerically wherever
    # both are defined (integral nodes are never evaluable, so those cases
    # are vacuous rather than failing)
    for name, cases in builtin_suites().items():
        for case in cases:
            assert case.intended is not None, case.name
            verdict = fuzz_equiv(case.input_term, case.intended, samples=50)
            assert not isinstance(verdict, Inequivalent), case.name


def test_trig_targets_are_intended_costs():
    size = AstSize()
    for case in builtin_suites()["trig"]:
        assert case.criterion.value == size.cost(case.intended)


def test_trig_paper_case_target_is_six():
    case = next(c for c in builtin_suites()["trig"]
                if c.name == "trig-sin4-cos4")
    assert case.criterion.value == 6
    assert case.intended == P("(* 2 (pow (sin x) 2))")


def test_integration_paper_case_target():
    case = next(c for c in builtin_suites()["integration"]
                if c.name == "integ-x-cos")
    assert case.intended == P("(+ (* x (sin x)) (cos x))")
    assert case.criterion.value == node_count(case.intended)


def test_halide_paper_case_present():
    case = next(c for c in builtin_suites()["halide-mini"]
                if c.name == "halide-paper")
    assert case.input_term == P("(< (max i 2) (max (+ i 3) 3))")
    assert case.criterion == ReachTerm(P("true"))
    assert case.time_limit == 3.0


def test_suite_file_reads_reach_true_as_the_goal_true():
    spec = case_to_spec(builtin_suites()["halide-mini"][0])
    assert spec["criterion"] == {"kind": "reach_term", "goal": "true"}
    spec["criterion"] = {"kind": "reach_true"}
    _, (case,) = suite_from_json(json.dumps({"cases": [spec]}))
    assert case.criterion == ReachTerm(P("true"))
    assert case_to_spec(case)["criterion"] == {"kind": "reach_term",
                                               "goal": "true"}


def test_suite_file_sets_folding_on_a_builtin_ruleset():
    # Both flags were once dropped unless the case listed its own rules.
    spec = case_to_spec(gen_matmul_chain(3, rng=random.Random(1)))
    assert "rules" not in spec and "fold_constants" not in spec
    spec["fold_constants"] = True
    case = case_from_spec(spec)
    assert case.ruleset.fold_constants
    assert case.ruleset.rules == builtin_ruleset("assoc").rules
    _, (back,) = suite_from_json(suite_to_json("s", [case]))
    assert back.ruleset.fold_constants
    assert back.ruleset.rules == case.ruleset.rules
    halide = case_to_spec(builtin_suites()["halide-mini"][0])
    assert case_from_spec(halide).ruleset.fold_constants
    halide["fold_constants"] = False
    assert not case_from_spec(halide).ruleset.fold_constants


@pytest.mark.parametrize("name", ["trig", "custom"])
def test_an_empty_ruleset_round_trips(name):
    # `"rules": []` once read as no rules given: an empty trig reloaded as
    # the built-in trig rules, and an empty custom as an unknown ruleset.
    case = dataclasses.replace(builtin_suites()["trig"][0],
                               ruleset=Ruleset(name, []))
    _, (back,) = suite_from_json(suite_to_json("s", [case]))
    assert (back.ruleset.name, back.ruleset.rules) == (name, ())


@pytest.mark.parametrize("rules", [
    "peel: (f ?x) => ?x", {"peel: (f ?x) => ?x": 1}, None])
def test_suite_rules_that_are_not_a_list_are_rejected(rules):
    spec = case_to_spec(builtin_suites()["trig"][0])
    spec["rules"] = rules
    with pytest.raises(SuiteError, match="rules must be a list"):
        suite_from_json(json.dumps({"cases": [spec]}))


def _weights(weights):
    return {"model": "weighted_ast_size", "weights": weights}


@pytest.mark.parametrize("field, value, named", [
    ("input", 7, "input must be a string, got 7"),
    ("intended", 3, "intended must be a string, got 3"),
    ("ruleset", 5, "ruleset must be a string, got 5"),
    ("rules", ["peel: (f ?x) => ?x", 5], "a rules line must be a string"),
    ("criterion", "x", "criterion must be an object, got 'x'"),
    ("criterion", {"kind": "reach_term", "goal": 5},
     "criterion goal must be a string, got 5"),
    ("cost", "x", "cost must be an object, got 'x'"),
    ("cost", _weights(5), "cost weights must be an object, got 5"),
    ("stochastic_cost", [1], "stochastic_cost must be an object, got [1]"),
    ("dims", [1], "dims must be an object, got [1]"),
    ("stochastic_overrides", 5, "stochastic_overrides must be an object"),
    ("eqsat_overrides", 5, "eqsat_overrides must be an object, got 5"),
    # These two once loaded as the weight 1, and ran.
    ("cost", _weights({"int": True}), "weight True is not a number"),
    ("stochastic_cost", _weights({"int": True}), "for 'int'"),
    ("cost", _weights({"int": float("nan")}), "weight nan is not finite"),
    ("cost", {"model": "goal_indicator", "goal": 5},
     "a goal_indicator model's goal must be a string, got 5"),
    ("cost", {"model": "goal_indicator"},
     "a goal_indicator model needs its goal"),
    ("cost", {"model": "matmul_scalar_ops"},
     "a matmul_scalar_ops model needs its dims"),
])
def test_a_suite_field_of_the_wrong_json_type_exits_2_naming_it(
        tmp_path, capsys, field, value, named):
    # Each once exited 2 with a raw Python error that named no field, such
    # as "TypeError: object of type 'int' has no len()".
    from rewrite_arena.cli import main

    spec = case_to_spec(next(c for c in builtin_suites()["integration"]
                             if c.name == "integ-cos"))
    spec[field] = value
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"cases": [spec]}))
    code = main(["bench", str(path), "--time-limit", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "case 'integ-cos': " in err and named in err


def test_judge_target_cost():
    case = gen_matmul_chain(3, 1, 9, random.Random(2))
    model = case.cost_model
    # meeting the target exactly counts as solved
    assert judge(case, case.input_term, model) == (
        model.cost(case.input_term) <= case.criterion.value)


def test_judge_examples_and_monotonicity():
    trig = builtin_suites()["trig"]
    case = next(c for c in trig if c.name == "trig-sin4-cos4")
    size = AstSize()
    assert judge(case, case.intended, size)          # equality boundary
    assert judge(case, P("(sin x)"), size)           # cheaper than intended
    assert not judge(case, case.input_term, size)    # no progress
    # monotone: lowering cost never unsolves
    assert judge(case, P("1"), size)


def test_judge_reach_term_and_true():
    nc = needle_case(4)
    assert judge(nc, nc.criterion.goal, nc.cost_model)
    assert not judge(nc, nc.input_term, nc.cost_model)
    halide = builtin_suites()["halide-mini"][0]
    assert judge(halide, P("true"), halide.cost_model)
    assert not judge(halide, P("false"), halide.cost_model)


def test_suite_json_roundtrip():
    cases = [gen_matmul_chain(4, 1, 9, random.Random(5), name="rt-matmul")]
    cases += builtin_suites()["trig"][:2]
    cases += [builtin_suites()["halide-mini"][0]]
    text = suite_to_json("roundtrip", cases)
    name, loaded = suite_from_json(text)
    assert name == "roundtrip"
    assert len(loaded) == len(cases)
    for orig, back in zip(cases, loaded):
        assert back.name == orig.name
        assert back.input_term == orig.input_term
        assert type(back.criterion) is type(orig.criterion)
        assert back.time_limit == orig.time_limit
        assert back.stochastic_overrides == orig.stochastic_overrides
        assert [r.name for r in back.ruleset] == [r.name for r in orig.ruleset]


# -- suite files round-trip every case field ----------------------------------

_LEAVES = (st.sampled_from(["x", "y", "z"]).map(leaf)
           | st.fractions(-5, 5, max_denominator=7).map(number))


def _terms(leaves):
    return st.recursive(
        leaves,
        lambda kids: (st.tuples(st.sampled_from(BINARY_OPS), kids, kids)
                      | st.tuples(st.sampled_from(UNARY_OPS), kids)
                      ).map(lambda parts: term(*parts)),
        max_leaves=6)


@st.composite
def _rulesets(draw):
    if draw(st.booleans()):
        return builtin_ruleset(draw(st.sampled_from(
            ["assoc", "trig", "integration", "halide", "needle3"])))
    rules = []
    for k in range(draw(st.integers(1, 3))):
        lhs = draw(_terms(_LEAVES | st.sampled_from(["?a", "?b"]).map(leaf)))
        lvars = sorted(pattern_vars(lhs))
        rhs_leaves = _LEAVES
        if lvars:
            rhs_leaves = rhs_leaves | st.sampled_from(lvars).map(leaf)
        rhs = draw(_terms(rhs_leaves))
        guard = None
        if lvars and draw(st.booleans()):
            guard = Guard(draw(st.sampled_from(["nonzero", "literal"])),
                          draw(st.sampled_from(lvars)))
        rules.append(Rule(f"r{k}", lhs, rhs, guard))
    # A custom ruleset may carry a built-in name; its rules must still travel.
    return Ruleset(draw(st.sampled_from(["custom", "trig"])), rules,
                   fold_constants=draw(st.booleans()))


_NUMBERS = st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False)
_DIMS = st.dictionaries(st.sampled_from(["A1", "A2", "A3"]),
                        st.tuples(st.integers(1, 50), st.integers(1, 50)),
                        min_size=1)
_MODELS = st.one_of(
    st.builds(AstSize),
    st.dictionaries(st.sampled_from(["+", "*", "sin", "int"]),
                    st.integers(0, 100) | st.floats(0, 100, allow_nan=False)
                    ).map(WeightedAstSize),
    st.builds(IntegSquare),
    _DIMS.map(MatMulScalarOps),
    _terms(_LEAVES).map(GoalIndicator),
)
# Suite files accept only fields of the config an override tunes, with
# values it accepts: n_soft of 100 or more keeps the default explore valid.
_STOCHASTIC_OVERRIDES = st.none() | st.dictionaries(
    st.sampled_from(["n_soft", "n_hard", "max_steps", "max_proposals"]),
    st.integers(100, 10**7), min_size=1)
_EQSAT_OVERRIDES = st.none() | st.dictionaries(
    st.sampled_from(["iterations", "nodes", "match_limit", "ban_length"]),
    st.integers(1, 10**7), min_size=1)

_CASES = st.builds(
    BenchmarkCase,
    name=st.text("abcxyz-0123456789", min_size=1, max_size=12),
    input_term=_terms(_LEAVES),
    ruleset=_rulesets(),
    cost_model=_MODELS,
    criterion=_NUMBERS.map(TargetCost) | _terms(_LEAVES).map(ReachTerm),
    oracle_cost=st.none() | _NUMBERS,
    stochastic_cost_model=st.none() | _MODELS,
    intended=st.none() | _terms(_LEAVES),
    validate=st.booleans(),
    checkpointing=st.booleans(),
    time_limit=st.none() | st.floats(0.1, 100),
    stochastic_overrides=_STOCHASTIC_OVERRIDES,
    eqsat_overrides=_EQSAT_OVERRIDES,
)


@st.composite
def _costable_cases(draw):
    """Cases a suite file accepts: a case with a MatMulScalarOps model gets
    a matrix chain as its input and any goal, and its oracle, if any, is the
    chain's; a GoalIndicator
    of a ReachTerm case has the criterion's goal; a target is not below the
    oracle."""
    case = draw(_CASES)
    models = (case.cost_model, case.stochastic_cost_model)
    if any(isinstance(m, MatMulScalarOps) for m in models):
        chain = matmul_case_from_dims(draw(st.lists(st.integers(1, 50),
                                                    min_size=2, max_size=5)))
        models = tuple(chain.cost_model if isinstance(m, MatMulScalarOps)
                       else m for m in models)
        oracle = None if case.oracle_cost is None else chain.oracle_cost
        case = dataclasses.replace(case, input_term=chain.input_term,
                                   oracle_cost=oracle)
        if isinstance(case.criterion, ReachTerm):
            case = dataclasses.replace(case,
                                       criterion=ReachTerm(chain.input_term))
    criterion = case.criterion
    if isinstance(criterion, ReachTerm):
        models = tuple(GoalIndicator(criterion.goal)
                       if isinstance(m, GoalIndicator) else m for m in models)
    if isinstance(criterion, TargetCost) and case.oracle_cost is not None:
        criterion = TargetCost(max(criterion.value, case.oracle_cost))
    cost_model, stochastic_model = models
    return dataclasses.replace(case, cost_model=cost_model,
                               stochastic_cost_model=stochastic_model,
                               criterion=criterion)


def _fields(case):
    """Every field of a case, with rulesets and cost models made comparable."""
    out = {}
    for f in dataclasses.fields(case):
        value = getattr(case, f.name)
        if isinstance(value, Ruleset):
            value = (value.name, value.rules, value.fold_constants)
        elif isinstance(value, CostModel):
            value = model_to_spec(value)
        out[f.name] = value
    return out


@settings(max_examples=80, deadline=None)
@given(_costable_cases())
def test_suite_file_roundtrips_every_case_field(case):
    _, (back,) = suite_from_json(suite_to_json("rt", [case]))
    assert _fields(back) == _fields(case)


def test_suite_file_accepts_a_negative_target_only_when_it_can_be_met():
    case = BenchmarkCase("neg", P("(+ x 1)"), builtin_ruleset("trig"),
                         WeightedAstSize({"+": -5}), TargetCost(-1))
    _, (back,) = suite_from_json(suite_to_json("s", [case]))
    assert back.criterion == TargetCost(-1)
    for stochastic in (AstSize(), IntegSquare()):
        bad = dataclasses.replace(case, stochastic_cost_model=stochastic)
        with pytest.raises(ValueError, match="stochastic_cost model never"):
            suite_from_json(suite_to_json("s", [bad]))
