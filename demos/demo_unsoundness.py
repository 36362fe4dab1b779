#!/usr/bin/env python3
# Rules whose guards only check syntactic zero-ness can prove 0 = 1 in an
# e-graph: the division rules fire on x - x before 0 lands in its class.
# This script reproduces that derivation and both mitigations.

from rewrite_arena import (
    AstSize,
    EGraph,
    EqsatConfig,
    EquivalenceValidator,
    RunConfig,
    extract,
    fuzz_equiv,
    parse_sexpr,
    print_sexpr,
    run_chain,
    saturate,
)
from rewrite_arena.rulesets import trig_ruleset

rules = trig_ruleset()  # contains recip, cancel, div-self, zero-div
trap = parse_sexpr("(/ (- x x) (- x x))")
print("seed term:", print_sexpr(trap))

# The derivation: div-self rewrites the whole fraction to 1 while x - x
# is not yet known to be 0; one iteration later zero-div proves the same
# class equal to 0, and the constant analysis raises the contradiction
# flag.  Without checkpointing the surviving graph openly believes 0 = 1.
limits = EqsatConfig(iterations=10)
g = EGraph()
root = g.add_term(trap)
_, report = saturate(g, root, rules, limits)
zero = g.add_term(parse_sexpr("0"))
one = g.add_term(parse_sexpr("1"))
print(f"\nno checkpointing: contradiction={report.contradiction} after "
      f"{report.iterations} iterations; 0 and 1 share a class: "
      f"{g.find(zero) == g.find(one)}")

# With checkpointing, extraction falls back to the last clean snapshot.
# For this (nowhere-defined) seed the fuzzer can only say Inconclusive;
# the point is that it never reports a defined disagreement.
g = EGraph()
root = g.add_term(trap)
checkpoint, report = saturate(g, root, rules, limits, checkpointing=True)
best, _ = extract(checkpoint, root, AstSize())
verdict = fuzz_equiv(trap, best, samples=50)
print(f"checkpointing:    restored={report.restored_checkpoint}; "
      f"extracted {print_sexpr(best)!r}; fuzz verdict "
      f"{type(verdict).__name__}")

# The stochastic engine's mitigation is a numeric validator: every few
# accepted steps (and before adopting any new best term) the current term
# is fuzzed against the input; a mismatch forces a hard restart.
t0 = parse_sexpr("(+ (- (pow (sin x) 4) (pow (cos x) 4)) 1)")
validator = EquivalenceValidator(t0, samples=30, seed=5)
cfg = RunConfig(workers=1, budget=1, seed=5, max_steps=30000,
                explore=10, n_soft=200, n_hard=300)
res = run_chain(t0, rules, AstSize(), cfg, validator=validator)
final = fuzz_equiv(t0, res.best_term, samples=50)
print(f"\nstochastic with validator: best {print_sexpr(res.best_term)!r} "
      f"cost {res.best_cost}; {res.unsound_restarts} unsoundness restarts, "
      f"{validator.checks} checks; final verdict {type(final).__name__}")
