#!/usr/bin/env python3
# Matrix chain reassociation at scale: random chains, the O(N^3) dynamic
# programming oracle, both engines, and pulsing for large chains.

import random
import time

from rewrite_arena import (
    RunConfig,
    brute_force_optimal,
    dp_optimal_cost,
    gen_matmul_chain,
    search,
)
from rewrite_arena.runner import run_case, run_case_eqsat

# The DP oracle agrees with exhaustive enumeration on small chains.
rng = random.Random(0)
dims = [rng.randint(1, 9) for _ in range(7)]
print("dims", dims, "dp", dp_optimal_cost(dims),
      "brute force", brute_force_optimal(dims))

# A generated case bundles the input chain, the assoc ruleset, the cost
# model, and the oracle as the solved criterion.
case = gen_matmul_chain(40, 1, 20, random.Random(1))
print(f"\nchain of 40 matrices; left-associated cost "
      f"{case.cost_model.cost(case.input_term)}, optimum {case.oracle_cost}")

# Stochastic search with a few parallel chains closes the gap quickly.
cfg = RunConfig(workers=2, budget=2, seed=3)
result = search(case.input_term, case.ruleset, case.cost_model, cfg,
                target_cost=case.oracle_cost, deadline=time.monotonic() + 5.0)
print(f"stochastic: cost {result.best_cost} "
      f"(ratio {result.best_cost / case.oracle_cost:.4f}, "
      f"{result.proposals} proposals, {result.wall_time:.1f}s)")

# Single-shot equality saturation saturates the whole associahedron; fine
# for moderate sizes.
r = run_case_eqsat(case, time_limit=5.0)
print(f"eqsat:      cost {r.best_cost} (ratio {r.ratio and 1/r.ratio:.4f},"
      f" {r.units} iterations, {r.wall_time:.1f}s)")

# For big chains the e-graph cannot saturate; pulsing (short saturations
# reseeded from the current best term) keeps it near-optimal.
big = gen_matmul_chain(150, 1, 20, random.Random(7))
r = run_case(big, "eqsat-pulsed", cfg, time_limit=5.0)
print(f"\nchain of 150, pulsed eqsat: {r.best_cost} vs optimum "
      f"{big.oracle_cost} (x{r.best_cost / big.oracle_cost:.4f}, "
      f"{r.units} total iterations)")
