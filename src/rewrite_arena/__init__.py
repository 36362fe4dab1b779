"""Dual-engine equational program optimizer.

Two engines over one term/rule/cost interface: a parallel MCMC rewrite
search that walks concrete terms, and a small equality saturation engine
with e-graphs, backoff rule scheduling, extraction, checkpointing, and
pulsing.  A benchmark harness with independent oracles compares them.
"""

from .terms import (
    ArityError,
    InvalidPositionError,
    ParseError,
    Position,
    Symbol,
    Term,
    TermError,
    leaf,
    node_count,
    number,
    parse_sexpr,
    positions,
    print_sexpr,
    replace_at,
    subterm_at,
    symbol,
    term,
)
from .rules import (
    Guard,
    Proposal,
    Rule,
    RuleError,
    Ruleset,
    Substitution,
    apply_rule_at,
    const_fold,
    instantiate,
    match_pattern,
    parse_ruleset,
    pattern_vars,
    proposals,
)
from .costs import (
    AstSize,
    CostError,
    CostModel,
    DimEnv,
    DimensionError,
    GoalIndicator,
    IntegSquare,
    MatMulScalarOps,
    WeightedAstSize,
    cost,
    dims_of,
    integ_cost,
)
from .equivalence import (
    Equivalent,
    EquivalenceValidator,
    EvalEnv,
    Inconclusive,
    Inequivalent,
    Verdict,
    eval_numeric,
    fuzz_equiv,
)
from .stochastic import (
    RunConfig,
    RunResult,
    SearchResult,
    chain_seed,
    replay_trace,
    run_chain,
    sample_successor,
    search,
    successor_weights,
)
from .egraph import (
    BackoffScheduler,
    EClassId,
    EGraph,
    ExtractionError,
    IterationReport,
    extract,
    run_iteration,
)
from .benchmarks import (
    BenchmarkCase,
    ReachTerm,
    ReachTrue,
    TargetCost,
    brute_force_optimal,
    builtin_suites,
    dp_optimal_cost,
    gen_matmul_chain,
    halide_suite,
    integration_suite,
    judge,
    needle_case,
    suite_from_json,
    suite_to_json,
    trig_suite,
)
from .rulesets import (
    assoc_ruleset,
    builtin_ruleset,
    halide_ruleset,
    integration_ruleset,
    needle_ruleset,
    trig_ruleset,
)
from .runner import (
    CaseResult,
    EqsatConfig,
    SaturationReport,
    aggregate,
    pulse,
    run_case,
    run_suite,
    saturate,
    scaling_report,
)

__version__ = "0.1.0"
