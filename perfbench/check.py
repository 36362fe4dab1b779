"""Answer checker: every returned term is re-checked outside the engines.

A row fails when its term is provably inequivalent to the input, when its
reported cost differs from the cost recomputed with the case's model, when
its `solved` flag differs from a fresh `benchmarks.judge`, or, on matrix
chains, when it beats the dynamic-programming oracle or changes the
product's dimensions.  Inconclusive fuzzing (the integration suite's `int`
does not evaluate) is counted on its own, not as a failure.  No check
raises: an exception is recorded as that row's failure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    inconclusive: bool
    problem: str = ""


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_row(arena, case, engine: str, result, seed: int) -> Verdict:
    """Check one CaseResult against its case; `seed` seeds the fuzzing."""
    try:
        return _check(arena, case, engine, result, seed)
    except Exception as exc:  # a checker crash is that row's failure
        return Verdict(False, False, f"checker raised {exc!r}")


def _check(arena, case, engine, result, seed) -> Verdict:
    term = arena.terms.parse_sexpr(result.best_term)
    model = case.model_for(engine)
    rng = random.Random(f"answer-check:{seed}:{case.name}:{engine}")
    verdict = arena.equivalence.fuzz_equiv(case.input_term, term, rng=rng)
    if isinstance(verdict, arena.equivalence.Inequivalent):
        return Verdict(False, False, f"inequivalent at {verdict.witness}")
    inconclusive = isinstance(verdict, arena.equivalence.Inconclusive)
    cost = model.cost(term)
    if not _same(cost, result.best_cost):
        return Verdict(False, inconclusive,
                       f"cost {cost} != reported {result.best_cost}")
    if case.dims is not None:
        if case.oracle_cost is not None and cost < case.oracle_cost:
            return Verdict(False, inconclusive,
                           f"cost {cost} below the oracle {case.oracle_cost}")
        dims_of = arena.costs.dims_of
        if dims_of(case.dims, term) != dims_of(case.dims, case.input_term):
            return Verdict(False, inconclusive, "product dimensions changed")
    if arena.benchmarks.judge(case, term, model) != result.solved:
        return Verdict(False, inconclusive, "solved flag disagrees with judge")
    return Verdict(True, inconclusive)
