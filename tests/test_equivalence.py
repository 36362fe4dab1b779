import math
import random

import pytest

from rewrite_arena import (
    EquivalenceValidator,
    Inconclusive,
    Inequivalent,
    fuzz_equiv,
    parse_sexpr,
)
from rewrite_arena.benchmarks import halide_suite, trig_suite
from rewrite_arena.equivalence import (
    Equivalent,
    UnknownOperatorError,
    _sample_env,
    eval_numeric,
    eval_points,
)
from rewrite_arena.operators import OPERATORS
from rewrite_arena.stochastic import proposals
from rewrite_arena.terms import postorder, variables
from helpers import random_term


def P(text):
    return parse_sexpr(text)


def test_eval_basic():
    assert eval_numeric(P("(- x x)"), {"x": 3.7}) == 0.0
    assert eval_numeric(P("(/ 1 x)"), {"x": 0.0}) is None
    got = eval_numeric(P("(+ (pow (sin x) 2) (pow (cos x) 2))"), {"x": 0.3})
    assert abs(got - 1.0) < 1e-12


def test_eval_partiality():
    assert eval_numeric(P("(log x)"), {"x": -1.0}) is None
    assert eval_numeric(P("(sqrt x)"), {"x": -4.0}) is None
    assert eval_numeric(P("(int x x)"), {"x": 1.0}) is None
    assert eval_numeric(P("(d x x)"), {"x": 1.0}) is None
    # undefinedness propagates upward
    assert eval_numeric(P("(+ 1 (/ 1 x))"), {"x": 0.0}) is None


def test_eval_booleans_and_comparisons():
    assert eval_numeric(P("(< 2 3)"), {}) == 1.0
    assert eval_numeric(P("(&& true false)"), {}) == 0.0
    assert eval_numeric(P("(max 2 5)"), {}) == 5.0


def test_eval_unknown_operator():
    with pytest.raises(UnknownOperatorError):
        eval_numeric(P("(frobnicate9 x x)"), {"x": 1.0})


def test_fuzz_trivially_equivalent():
    assert isinstance(fuzz_equiv(P("(- x x)"), P("0")), Equivalent)


def test_fuzz_trivially_inequivalent():
    verdict = fuzz_equiv(P("0"), P("1"))
    assert isinstance(verdict, Inequivalent)
    assert verdict.lhs == 0.0 and verdict.rhs == 1.0


def test_fuzz_tan_identity():
    assert isinstance(fuzz_equiv(P("(/ (sin x) (cos x))"), P("(tan x)")),
                      Equivalent)


def test_fuzz_never_flags_self():
    rng = random.Random(2)
    for _ in range(120):
        t = random_term(rng)
        verdict = fuzz_equiv(t, t, samples=30, rng=random.Random(5))
        assert not isinstance(verdict, Inequivalent)


def test_fuzz_symmetry_of_category():
    rng = random.Random(6)
    for _ in range(120):
        a = random_term(rng)
        b = random_term(rng)
        va = fuzz_equiv(a, b, samples=30, rng=random.Random(9))
        vb = fuzz_equiv(b, a, samples=30, rng=random.Random(9))
        assert type(va) is type(vb)


def test_fuzz_recip_direction_never_inequivalent():
    # dom(RHS) is a strict subset of dom(LHS): the extra points must be
    # skipped, never reported as a mismatch.
    lhs = P("(/ x 2)")
    rhs = P("(/ 1 (/ 2 x))")
    for seed in range(25):
        verdict = fuzz_equiv(lhs, rhs, samples=50, rng=random.Random(seed))
        assert not isinstance(verdict, Inequivalent)


def test_fuzz_nowhere_defined_is_inconclusive():
    verdict = fuzz_equiv(P("(/ (- x x) (- x x))"), P("1"), samples=40)
    assert isinstance(verdict, Inconclusive)


def test_small_integers_probed_first():
    # x/x vs 1 differs only at x = 0, where the left side is undefined;
    # |x| = 7 everywhere else would hide nothing, but a piecewise trap at
    # small integers must be caught by the explicit probes.
    trap = P("(* x (pow x -1))")  # undefined at 0, 1 elsewhere
    verdict = fuzz_equiv(trap, P("1"), samples=50)
    assert not isinstance(verdict, Inequivalent)
    catch = fuzz_equiv(P("(abs x)"), P("x"), samples=50)
    assert isinstance(catch, Inequivalent)
    assert catch.witness["x"] < 0


def test_validator_counts_and_flags():
    ref = P("(+ x 1)")
    validator = EquivalenceValidator(ref, samples=20, seed=3)
    assert validator(P("(+ 1 x)"))
    assert not validator(P("(+ x 2)"))
    assert validator.checks == 2 and validator.failures == 1


def test_eval_numeral_beyond_doubles_is_undefined():
    assert eval_numeric(P("1e400"), {}) is None
    assert eval_numeric(P("(+ (* x 1e400) 0)"), {"x": 1.0}) is None


# The evaluator as it was before eval_points: one post-order walk per point,
# one node at a time.  eval_points must agree with it point by point.

def _reference_eval(t, env):
    values = {}
    for node in postorder(t):
        args = [values[id(c)] for c in node.children]
        values[id(node)] = _reference_eval_node(node, args, env)
    return values[id(t)]


def _reference_eval_node(node, args, env):
    name = node.op.name
    if not node.children:
        if node.op.value is not None:
            try:
                return float(node.op.value)
            except OverflowError:  # the one change: 1e400 is undefined
                return None
        try:
            return float(env[name])
        except KeyError:
            raise UnknownOperatorError(f"variable {name!r} not bound") from None
    if None in args:
        return None
    try:
        evaluate = OPERATORS[name][2]
    except KeyError:
        raise UnknownOperatorError(f"cannot evaluate operator {name!r}") from None
    if evaluate is None:
        return None
    try:
        return evaluate(*args)
    except (OverflowError, ValueError):
        return None


def _reference_fuzz(a, b, samples, tol, rng):
    """fuzz_equiv as it was: each point drawn, then evaluated, in turn."""
    names = sorted(variables(a) | variables(b))
    passed = 0
    for index in range(samples):
        env = _sample_env(names, index, rng)
        va = _reference_eval(a, env)
        vb = _reference_eval(b, env)
        if va is None or vb is None or math.isnan(va) or math.isnan(vb):
            continue
        if abs(va - vb) > tol * (1.0 + max(abs(va), abs(vb))):
            return Inequivalent(dict(env), va, vb)
        passed += 1
    if passed >= max(10, samples // 2):
        return Equivalent(passed)
    return Inconclusive(f"only {passed} of {samples} points were defined "
                        f"on both sides")


def _suite_terms():
    """Inputs of the trig and halide suites, then a seeded walk from each."""
    rng = random.Random(3)
    out = []
    for case in [*trig_suite(), *halide_suite()]:
        t = case.input_term
        for _ in range(15):
            out.append(t)
            successors = proposals(t, case.ruleset)
            if not successors:
                break
            t = rng.choice(successors).term
    return out


def _same(a, b):
    return a == b or (a is not None and b is not None
                      and math.isnan(a) and math.isnan(b))


def test_eval_points_equals_the_per_point_walk():
    terms = [*_suite_terms(), *[random_term(random.Random(seed))
                                for seed in range(200)]]
    undefined = 0
    for i, t in enumerate(terms):
        rng = random.Random(i)
        names = sorted(variables(t))
        envs = [_sample_env(names, k, rng) for k in range(30)]
        got = eval_points(t, envs)
        want = [_reference_eval(t, env) for env in envs]
        assert len(got) == len(want)
        assert all(map(_same, got, want)), t
        undefined += want.count(None)
    assert undefined > 0  # undefined points were compared too


def test_fuzz_equiv_matches_the_per_point_loop():
    trap = P("(/ (- x x) (- x x))")  # undefined everywhere, 0 = 1 in eqsat
    pairs = [(trap, P("1")), (trap, P("0")), (P("0"), P("1")),
             (P("(abs x)"), P("x")), (P("(* x (pow x -1))"), P("1"))]
    rng = random.Random(8)
    pairs += [(random_term(rng), random_term(rng)) for _ in range(150)]
    for a, b in pairs:
        for samples in (30, 50):
            want = _reference_fuzz(a, b, samples, 1e-6, random.Random(samples))
            got = fuzz_equiv(a, b, samples, 1e-6, random.Random(samples))
            assert got == want, (a, b)
    assert isinstance(fuzz_equiv(P("0"), P("1")), Inequivalent)
