import random

import pytest

from rewrite_arena import (
    EquivalenceValidator,
    Inconclusive,
    Inequivalent,
    fuzz_equiv,
    parse_sexpr,
)
from rewrite_arena.equivalence import (
    Equivalent,
    UnknownOperatorError,
    eval_numeric,
)
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
