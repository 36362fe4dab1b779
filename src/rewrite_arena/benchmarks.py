"""Benchmark cases, generators, oracles, solved criteria and suite files.

A case bundles an input term, a ruleset, cost models for each engine, and
a solved criterion.  Matrix chains are generated with a dynamic-programming
oracle (cross-checked by exhaustive enumeration).  The curated families,
each case with a known rewrite path and intended solution, are rows of one
table (_FAMILIES) that one builder turns into cases.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields

from .costs import (
    AstSize,
    CostModel,
    DimEnv,
    GoalIndicator,
    IntegSquare,
    WeightedAstSize,
    MatMulScalarOps,
    dims_from_spec,
    model_from_spec,
    model_to_spec,
)
from .rules import Ruleset, parse_rule_line, rule_line
from .rulesets import (
    assoc_ruleset,
    builtin_ruleset,
    halide_ruleset,
    integration_ruleset,
    needle_ruleset,
    trig_ruleset,
)
from .stochastic import RunConfig, check_time_limit
from .terms import (Term, TermError, TRUE, leaf, parse_sexpr, positions,
                    print_sexpr, symbol)


@dataclass(frozen=True)
class TargetCost:
    value: float


@dataclass(frozen=True)
class ReachTerm:
    goal: Term


Criterion = TargetCost | ReachTerm


@dataclass
class BenchmarkCase:
    name: str
    input_term: Term
    ruleset: Ruleset
    cost_model: CostModel
    criterion: Criterion
    oracle_cost: float | None = None
    stochastic_cost_model: CostModel | None = None
    intended: Term | None = None
    validate: bool = False
    checkpointing: bool = False
    time_limit: float = 10.0
    # Per-suite tuning; fields the user set explicitly on the command line
    # take precedence.  Saturating a reassociation chain needs every match,
    # so the matmul cases disable the backoff limit.
    stochastic_overrides: dict | None = None
    eqsat_overrides: dict | None = None

    def model_for(self, engine: str) -> CostModel:
        if engine == "stochastic" and self.stochastic_cost_model is not None:
            return self.stochastic_cost_model
        return self.cost_model

    @property
    def dims(self) -> DimEnv | None:
        """The matrix leaves' dimensions: the matmul_scalar_ops model's."""
        for model in (self.cost_model, self.stochastic_cost_model):
            if isinstance(model, MatMulScalarOps):
                return model.dims
        return None

    def target_cost(self) -> float | None:
        """The cost at which an engine may stop, or None: the target, or 0
        when the goal costs 0 (a GoalIndicator's, or halide-mini's `true`)."""
        crit = self.criterion
        if isinstance(crit, TargetCost):
            return crit.value
        return 0 if self.cost_model.cost(crit.goal) == 0 else None


def judge(case: BenchmarkCase, found: Term, model: CostModel) -> bool:
    """Solved iff the found term meets the case's criterion."""
    crit = case.criterion
    if isinstance(crit, TargetCost):
        return model.cost(found) <= crit.value
    return found == crit.goal


# ---------------------------------------------------------------------------
# Matrix chain multiplication.

def dp_optimal_cost(dims: list[int]) -> int:
    """Interval dynamic program over the chain; O(n^3)."""
    n = len(dims) - 1
    if n < 1:
        raise ValueError("need at least one matrix (two dimensions)")
    best = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            best[i][j] = min(
                best[i][k] + best[k + 1][j] + dims[i] * dims[k + 1] * dims[j + 1]
                for k in range(i, j)
            )
    return best[0][n - 1]


def brute_force_optimal(dims: list[int]) -> int:
    """Exhaustive minimum over every parenthesization; independent of the DP."""
    n = len(dims) - 1
    if n < 1:
        raise ValueError("need at least one matrix (two dimensions)")
    if n > 12:
        raise ValueError("brute force limited to 12 matrices (Catalan growth)")

    def trees(i: int, j: int):
        if i == j:
            yield (dims[i], dims[i + 1], 0)
            return
        for k in range(i, j):
            for rl, cl, costl in trees(i, k):
                for rr, cr, costr in trees(k + 1, j):
                    yield (rl, cr, costl + costr + rl * cl * cr)

    return min(c for _, _, c in trees(0, n - 1))


# Chain saturation must see every assoc match; backoff bans only stall it.
_MATMUL_EQSAT = {"match_limit": 10_000_000, "iterations": 100}


def matmul_leaves(n: int) -> list[str]:
    return [f"A{i}" for i in range(1, n + 1)]


def left_assoc_chain(names: list[str]) -> Term:
    t = leaf(names[0])
    for name in names[1:]:
        t = Term(symbol("*", 2), (t, leaf(name)))
    return t


def gen_matmul_chain(n: int, dim_lo: int = 1, dim_hi: int = 20,
                     rng: random.Random | None = None,
                     name: str | None = None) -> BenchmarkCase:
    """Random compatible chain of n matrices as a left-associated product."""
    if n < 2:
        raise ValueError("need at least two matrices")
    if not (1 <= dim_lo <= dim_hi):
        raise ValueError("need 1 <= dim_lo <= dim_hi")
    if rng is None:
        rng = random.Random(0)
    dims = [rng.randint(dim_lo, dim_hi) for _ in range(n + 1)]
    return matmul_case_from_dims(dims, name or f"matmul-{n}")


def matmul_case_from_dims(dims: list[int], name: str = "matmul") -> BenchmarkCase:
    n = len(dims) - 1
    names = matmul_leaves(n)
    env: DimEnv = {names[i]: (dims[i], dims[i + 1]) for i in range(n)}
    oracle = dp_optimal_cost(dims)
    return BenchmarkCase(
        name=name,
        input_term=left_assoc_chain(names),
        ruleset=assoc_ruleset(),
        cost_model=MatMulScalarOps(env),
        criterion=TargetCost(oracle),
        oracle_cost=oracle,
        eqsat_overrides=dict(_MATMUL_EQSAT),
    )


# ---------------------------------------------------------------------------
# The needle system.

def needle_case(n: int) -> BenchmarkCase:
    """f(a..a) must become g(b..b); the cost surface is flat off the goal."""
    if n < 1:
        raise ValueError("needle arity must be at least 1")
    f = symbol(f"f{n}", n)
    g = symbol(f"g{n}", n)
    a, b = leaf("a"), leaf("b")
    start = Term(f, (a,) * n)
    goal = Term(g, (b,) * n)
    return BenchmarkCase(
        name=f"needle-{n}",
        input_term=start,
        ruleset=needle_ruleset(n),
        cost_model=GoalIndicator(goal),
        criterion=ReachTerm(goal),
        intended=goal,
    )


# ---------------------------------------------------------------------------
# Curated suites.

# Short exploration bursts with frequent restarts suit the small curated
# terms; long exploration diffuses an 11-node term into churn it cannot
# exploit its way back from.
_CURATED_SCHEDULE = {"explore": 10, "n_soft": 200, "n_hard": 300}

# The curated families: suite -> (ruleset factory, cost model factory,
# stochastic cost model factory or None, case options, rows).  A row is
# (name, input, intended); an intended of None means the case must reach
# `true`, any other is solved at its cost under the family's cost model.
_FAMILIES = {
    "trig": (trig_ruleset, AstSize, None,
             {"validate": True, "checkpointing": True}, [
        ("trig-sin4-cos4", "(+ (- (pow (sin x) 4) (pow (cos x) 4)) 1)",
         "(* 2 (pow (sin x) 2))"),
        ("trig-pyth", "(+ (pow (sin x) 2) (pow (cos x) 2))", "1"),
        ("trig-one-minus-cos2", "(- 1 (pow (cos x) 2))", "(pow (sin x) 2)"),
        ("trig-tan-cos", "(* (tan x) (cos x))", "(sin x)"),
        ("trig-sin-over-tan", "(/ (sin x) (tan x))", "(cos x)"),
        ("trig-cos2-sin2", "(- (pow (cos x) 2) (pow (sin x) 2))",
         "(- 1 (* 2 (pow (sin x) 2)))"),
        ("trig-pyth-in-sum", "(+ (pow (sin y) 2) (+ (pow (cos y) 2) z))",
         "(+ 1 z)"),
        ("trig-sin-over-cos", "(/ (sin x) (cos x))", "(tan x)"),
        ("trig-add-zero", "(+ 0 (sin x))", "(sin x)"),
        ("trig-cancel", "(/ (* z y) (* x y))", "(/ z x)"),
        ("trig-pyth-minus", "(+ (pow (sin z) 2) (- (pow (cos z) 2) (sin z)))",
         "(- 1 (sin z))"),
        ("trig-div-self", "(/ (+ (sin x) 1) (+ (sin x) 1))", "1"),
    ]),
    "integration": (integration_ruleset,
                    lambda: WeightedAstSize({"int": 100, "d": 100}),
                    IntegSquare, {"checkpointing": True}, [
        ("integ-x-cos", "(int (* x (cos x)) x)", "(+ (* x (sin x)) (cos x))"),
        ("integ-x-plus-x", "(int (+ x x) x)", "(pow x 2)"),
        ("integ-cos", "(int (cos x) x)", "(sin x)"),
        ("integ-sin", "(int (sin x) x)", "(* -1 (cos x))"),
        ("integ-cos-plus-sin", "(int (+ (cos x) (sin x)) x)",
         "(- (sin x) (cos x))"),
        ("integ-x-sin", "(int (* x (sin x)) x)", "(- (sin x) (* x (cos x)))"),
        ("integ-2x", "(int (* 2 x) x)", "(pow x 2)"),
        ("integ-zero", "(int (- (cos x) (cos x)) x)", "0"),
    ]),
    "halide-mini": (halide_ruleset, lambda: WeightedAstSize({"true": 0}),
                    None, {"time_limit": 3.0}, [
        ("halide-paper", "(< (max i 2) (max (+ i 3) 3))", None),
        ("halide-add-cancel", "(< (+ i 1) (+ i 2))", None),
        ("halide-lt-next", "(< i (+ i 1))", None),
        ("halide-min-comm", "(== (min i j) (min j i))", None),
        ("halide-le-min", "(<= (min i j) i)", None),
        ("halide-le-max", "(<= i (max i j))", None),
        ("halide-add-zero", "(== (+ i 0) i)", None),
        ("halide-lt-sub", "(< (- i 1) i)", None),
        ("halide-total", "(|| (< i 5) (<= 5 i))", None),
        ("halide-max-shift", "(< (max i 0) (max (+ i 1) 1))", None),
        ("halide-max-same", "(== (max i i) i)", None),
        ("halide-min-shift", "(< (min i 2) (+ (min i 1) 3))", None),
    ]),
}


def _family(suite: str) -> list[BenchmarkCase]:
    """A family's cases, sharing one ruleset and one object per model
    (cost memos are keyed by the model object)."""
    make_ruleset, make_model, make_stochastic, options, rows = _FAMILIES[suite]
    ruleset, model = make_ruleset(), make_model()
    stochastic_model = make_stochastic() if make_stochastic else None
    cases = []
    for name, input_text, intended_text in rows:
        input_term = parse_sexpr(input_text)
        intended = TRUE if intended_text is None else parse_sexpr(intended_text)
        criterion = (ReachTerm(TRUE) if intended_text is None
                     else TargetCost(model.cost(intended)))
        cases.append(BenchmarkCase(
            name, input_term, ruleset, model, criterion,
            stochastic_cost_model=stochastic_model, intended=intended,
            stochastic_overrides=dict(_CURATED_SCHEDULE), **options))
    return cases


def trig_suite() -> list[BenchmarkCase]:
    return _family("trig")


def integration_suite() -> list[BenchmarkCase]:
    return _family("integration")


def halide_suite() -> list[BenchmarkCase]:
    return _family("halide-mini")


def builtin_suites() -> dict[str, list[BenchmarkCase]]:
    return {suite: _family(suite) for suite in _FAMILIES}


# ---------------------------------------------------------------------------
# Suite files (JSON).

class SuiteError(ValueError):
    """A suite file that does not describe valid cases."""


def _is_builtin(rs: Ruleset) -> bool:
    """True when the built-in ruleset of the same name has the same rules."""
    try:
        builtin = builtin_ruleset(rs.name)
    except (KeyError, ValueError):
        return False
    return (builtin.rules == rs.rules
            and builtin.fold_constants == rs.fold_constants)


def case_to_spec(case: BenchmarkCase) -> dict:
    if isinstance(case.criterion, TargetCost):
        crit = {"kind": "target_cost", "value": case.criterion.value}
    else:
        crit = {"kind": "reach_term", "goal": print_sexpr(case.criterion.goal)}
    spec = {
        "name": case.name,
        "input": print_sexpr(case.input_term),
        "ruleset": case.ruleset.name,
        "cost": model_to_spec(case.cost_model),
        "criterion": crit,
    }
    if not _is_builtin(case.ruleset):
        spec["rules"] = [rule_line(r) for r in case.ruleset]
        spec["fold_constants"] = case.ruleset.fold_constants
    if case.stochastic_cost_model is not None:
        spec["stochastic_cost"] = model_to_spec(case.stochastic_cost_model)
    if case.oracle_cost is not None:
        spec["oracle"] = case.oracle_cost
    if case.dims is not None:
        spec["dims"] = {k: list(v) for k, v in case.dims.items()}
    if case.intended is not None:
        spec["intended"] = print_sexpr(case.intended)
    if case.validate:
        spec["validate"] = True
    if case.checkpointing:
        spec["checkpointing"] = True
    if case.stochastic_overrides is not None:
        spec["stochastic_overrides"] = dict(case.stochastic_overrides)
    if case.eqsat_overrides is not None:
        spec["eqsat_overrides"] = dict(case.eqsat_overrides)
    spec["time_limit"] = case.time_limit
    return spec


def case_from_spec(spec: dict) -> BenchmarkCase:
    if "rules" in spec:  # a list of rule lines, possibly empty
        if not isinstance(spec["rules"], list):
            raise SuiteError(f"rules must be a list, got {spec['rules']!r}")
        rules = [r for line in spec["rules"] for r in parse_rule_line(line)]
        name, fold = spec.get("ruleset", "custom"), False
    else:
        builtin = builtin_ruleset(spec["ruleset"])
        name, rules, fold = builtin.name, builtin.rules, builtin.fold_constants
    ruleset = Ruleset(name, rules, _flag(spec, "fold_constants", fold))
    crit_spec = spec["criterion"]
    kind = crit_spec["kind"]
    if kind == "target_cost":
        criterion: Criterion = TargetCost(
            _finite(crit_spec["value"], "criterion value"))
    elif kind == "reach_term":
        criterion = ReachTerm(parse_sexpr(crit_spec["goal"]))
    elif kind == "reach_true":  # the older spelling of the goal `true`
        criterion = ReachTerm(TRUE)
    else:
        raise ValueError(f"unknown criterion kind {kind!r}")
    time_limit = spec.get("time_limit", 10.0)
    if time_limit is not None:
        time_limit = float(_finite(time_limit, "time_limit"))
    check_time_limit(time_limit)
    dims = dims_from_spec(spec["dims"]) if "dims" in spec else None
    oracle = spec.get("oracle")
    case = BenchmarkCase(
        name=spec["name"],
        input_term=parse_sexpr(spec["input"]),
        ruleset=ruleset,
        cost_model=model_from_spec(spec["cost"]),
        criterion=criterion,
        oracle_cost=None if oracle is None else _finite(oracle, "oracle"),
        stochastic_cost_model=(model_from_spec(spec["stochastic_cost"])
                               if "stochastic_cost" in spec else None),
        intended=parse_sexpr(spec["intended"]) if "intended" in spec else None,
        validate=_flag(spec, "validate"),
        checkpointing=_flag(spec, "checkpointing"),
        time_limit=time_limit,
        stochastic_overrides=_overrides(spec, "stochastic_overrides"),
        eqsat_overrides=_overrides(spec, "eqsat_overrides"),
    )
    if dims is not None and case.dims is None:
        raise ValueError("dims are given, but no model is matmul_scalar_ops")
    models = {"cost": case.cost_model,
              "stochastic_cost": case.stochastic_cost_model}
    for field, model in models.items():
        if model is None:
            continue
        model.cost(case.input_term)  # CostError if uncostable
        if isinstance(criterion, ReachTerm):
            model.cost(criterion.goal)  # target_cost() costs the goal
            if (isinstance(model, GoalIndicator)
                    and model.goal != criterion.goal):
                raise ValueError(f"the {field} model's goal "
                                 f"{print_sexpr(model.goal)} is not the "
                                 "criterion's")
        if (kind == "target_cost" and criterion.value < 0
                and not _may_cost_below_zero(model)):
            raise ValueError(f"criterion value {criterion.value} is below 0, "
                             f"which the {field} model never costs")
        if dims is not None and isinstance(model, MatMulScalarOps):
            for leaf_name in sorted(set(dims) | set(model.dims)):
                if dims.get(leaf_name) != model.dims.get(leaf_name):
                    raise ValueError(
                        f"dims of {leaf_name!r} are {dims.get(leaf_name)}, "
                        f"but the {field} model has "
                        f"{model.dims.get(leaf_name)}")
        if isinstance(model, MatMulScalarOps) and case.oracle_cost is not None:
            shapes = [model.dims[sub.op.name] for _, sub in
                      positions(case.input_term) if not sub.children]
            optimum = dp_optimal_cost([shapes[0][0]] + [c for _, c in shapes])
            if case.oracle_cost != optimum:
                raise ValueError(f"oracle {case.oracle_cost} is not {optimum}, "
                                 f"the DP optimum of the {field} model's chain")
    if (kind == "target_cost" and case.oracle_cost is not None
            and criterion.value < case.oracle_cost):
        raise ValueError(f"criterion value {criterion.value} is below the "
                         f"oracle {case.oracle_cost}, so it can never be met")
    return case


def _may_cost_below_zero(model: CostModel) -> bool:
    # Of the models a spec names, only a negative weight costs below 0.
    return (isinstance(model, WeightedAstSize)
            and any(w < 0 for w in model.weights.values()))


def _flag(spec: dict, key: str, default: bool = False) -> bool:
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _finite(value, what: str):
    if isinstance(value, bool) or not (isinstance(value, (int, float))
                                       and -math.inf < value < math.inf):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return value


def _overrides(spec: dict, key: str) -> dict | None:
    """A case's tuning overrides, checked by building the config they tune."""
    from .runner import EqsatConfig  # runner imports this module

    overrides = spec.get(key)
    if overrides is None:
        return None
    config = RunConfig if key == "stochastic_overrides" else EqsatConfig
    unknown = set(overrides) - {f.name for f in fields(config)}
    if unknown:
        raise ValueError(f"unknown {key} field {sorted(unknown)[0]!r}")
    config(**overrides)
    return overrides


def suite_to_json(name: str, cases: list[BenchmarkCase]) -> str:
    return json.dumps(
        {"schema": 1, "suite": name, "cases": [case_to_spec(c) for c in cases]},
        indent=2,
    )


def suite_from_json(text: str) -> tuple[str, list[BenchmarkCase]]:
    """Read a suite file; SuiteError names the case that cannot be read,
    or whose name is not a non-empty string unique in the file."""
    try:
        data = json.loads(text)
        name, specs = data.get("suite", "suite"), list(data["cases"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SuiteError(f"not a suite: {type(exc).__name__}: {exc}") from None
    cases, names = [], set()  # rows are keyed by case name
    for i, spec in enumerate(specs):
        label = spec.get("name") if isinstance(spec, dict) else None
        if not (isinstance(label, str) and label) or label in names:
            raise SuiteError(f"case {i}: name {label!r} is empty, not a "
                             "string or an earlier case's")
        names.add(label)
        try:
            cases.append(case_from_spec(spec))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                TermError) as exc:
            raise SuiteError(f"case {label!r}: "
                             f"{type(exc).__name__}: {exc}") from None
    return name, cases
