#!/usr/bin/env python3
# A tour of the shared term/rule/cost interface and both search engines,
# on one tiny example: reassociating (AB)C to minimize scalar multiplies.

import random

from rewrite_arena import (
    AstSize,
    EGraph,
    MatMulScalarOps,
    RunConfig,
    extract,
    parse_sexpr,
    print_sexpr,
    proposals,
    run_chain,
    saturate,
)
from rewrite_arena.rulesets import assoc_ruleset

# Terms are parsed from s-expressions; numerals are exact rationals.
t = parse_sexpr("(* (* A B) C)")
print("input term:   ", print_sexpr(t))

# A cost model maps terms to numbers.  For matrix chains the cost is the
# number of scalar multiplications given each leaf's dimensions.
dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5)}
model = MatMulScalarOps(dims)
print("cost (AB)C:   ", model.cost(t))
print("cost A(BC):   ", model.cost(parse_sexpr("(* A (* B C))")))

# The proposal function enumerates every one-step rewrite.
rules = assoc_ruleset()
for cand, rule, pos in proposals(t, rules):
    print(f"proposal via {rule} at {pos}: {print_sexpr(cand)}")

# Engine 1: stochastic search walks concrete terms, sampling successors
# with Boltzmann weights exp(-beta/2 * cost change).
cfg = RunConfig(beta=1.0, workers=1, budget=1, seed=0, max_steps=100)
result = run_chain(t, rules, model, cfg)
print("stochastic best:", print_sexpr(result.best_term),
      "cost", result.best_cost, f"({result.steps} steps)")

# Engine 2: equality saturation grows an e-graph of all equal terms, then
# extracts the cheapest one.
g = EGraph()
root = g.add_term(t)
g, report = saturate(g, root, rules)
best, _ = extract(g, root, model)
print("eqsat best:     ", print_sexpr(best), "cost", model.cost(best),
      f"({report.iterations} iterations, {report.nodes} e-nodes,",
      report.stop_reason + ")")

# Both engines agree with the exhaustive answer on this 3-matrix chain.
term, cost = extract(g, root, AstSize())
print("smallest form represented:", print_sexpr(term), "ast size", cost)
