"""Dual-engine equational program optimizer.

Two engines over one term/rule/cost interface: a parallel MCMC rewrite
search that walks concrete terms, and a small equality saturation engine
with e-graphs, backoff rule scheduling, extraction, checkpointing, and
pulsing.  A benchmark harness with independent oracles compares them.
"""

from .terms import Term, leaf, number, parse_sexpr, print_sexpr, term
from .rules import Guard, Rule, Ruleset, parse_ruleset, proposals
from .costs import AstSize, CostModel, MatMulScalarOps, cost, dims_of
from .equivalence import (
    EquivalenceValidator,
    Inconclusive,
    Inequivalent,
    fuzz_equiv,
)
from .stochastic import RunConfig, run_chain, search
from .egraph import BackoffScheduler, EGraph, extract, run_iteration
from .benchmarks import (
    brute_force_optimal,
    builtin_suites,
    dp_optimal_cost,
    gen_matmul_chain,
    integration_suite,
    judge,
    needle_case,
    trig_suite,
)
from .runner import EqsatConfig, pulse, saturate, scaling_report

__version__ = "0.1.0"
