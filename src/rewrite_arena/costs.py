"""Cost models used by both search engines.

Every model maps a term to a finite non-negative number and is a pure
function of the term (given fixed model parameters).  Costs are evaluated
iteratively and cached per term node, keyed by a per-model token, so the
near-copies produced during proposal generation re-cost only their fresh
spines.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .terms import Term, TermError, Position


class CostError(TermError):
    pass


class DimensionError(CostError):
    pass


DimEnv = dict[str, tuple[int, int]]

_TOKENS = itertools.count()


class CostModel:
    """Base: subclasses define _combine(op_name, child_values) -> value.

    `_combine` is the one rule for costing a node from its operator and its
    children's values: term costing folds it over a term, and e-graph
    extraction folds it over e-nodes.  `_scalar` maps a value to the cost
    that is compared.
    """

    def __init__(self):
        self._token = next(_TOKENS)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_token", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._token = next(_TOKENS)

    def _combine(self, op_name: str, child_values: list):
        raise NotImplementedError

    def _scalar(self, value):
        return value

    def delta_cost(self, old_sub: Term, new_sub: Term):
        """Cost change from replacing old_sub by new_sub in any context.

        Returns None when the change cannot be localized (ancestor node
        costs may depend on the subtree); callers then cost the full term.
        Additive models always localize.
        """
        return None

    def cost(self, t: Term):
        token = self._token
        memo = t._memo
        if memo is not None:
            cached = memo.get(token)
            if cached is not None:
                return self._scalar(cached)
        stack = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            memo = node._memo
            if memo is not None and token in memo:
                continue
            if expanded:
                vals = [c._memo[token] for c in node.children]
                if memo is None:
                    memo = node._memo = {}
                memo[token] = self._combine(node.op.name, vals)
            else:
                stack.append((node, True))
                for c in node.children:
                    cm = c._memo
                    if cm is None or token not in cm:
                        stack.append((c, False))
        return self._scalar(t._memo[token])


class AstSize(CostModel):
    """Total node count, leaves included."""

    def _combine(self, op_name, child_values):
        return 1 + sum(child_values)

    def delta_cost(self, old_sub, new_sub):
        return self.cost(new_sub) - self.cost(old_sub)

    def __repr__(self):
        return "AstSize()"


class WeightedAstSize(CostModel):
    """Node cost = weight(op) + sum of child costs; default weight 1."""

    def __init__(self, weights: dict[str, float] | None = None):
        super().__init__()
        self.weights = dict(weights or {})

    def _combine(self, op_name, child_values):
        return self.weights.get(op_name, 1) + sum(child_values)

    def delta_cost(self, old_sub, new_sub):
        return self.cost(new_sub) - self.cost(old_sub)

    def __repr__(self):
        return f"WeightedAstSize({self.weights!r})"


INTEGRAL_OPS = ("int", "d")


class IntegSquare(CostModel):
    """Squared-children model for integration search.

    Integration and differentiation nodes cost the square of the sum of
    their children's costs; every other node costs 1 plus its children.
    """

    def _combine(self, op_name, child_values):
        if op_name in INTEGRAL_OPS:
            s = sum(child_values)
            return s * s
        return 1 + sum(child_values)

    def __repr__(self):
        return "IntegSquare()"


class MatMulScalarOps(CostModel):
    """Scalar multiplications needed to evaluate a matrix product tree.

    Multiplying an m*n by an n*k matrix costs m*n*k; leaves cost nothing.
    Cached values are (cost, rows, cols) triples.
    """

    def __init__(self, dims: DimEnv):
        super().__init__()
        self.dims = dict(dims)

    def _combine(self, op_name, child_values):
        if not child_values:
            try:
                rows, cols = self.dims[op_name]
            except KeyError:
                raise CostError(f"unbound matrix leaf {op_name!r}") from None
            return (0, rows, cols)
        if op_name != "*" or len(child_values) != 2:
            raise CostError(f"non-product node {op_name!r} in matrix expression")
        (cl, rl, kl), (cr, rr, kr) = child_values
        if kl != rr:
            raise DimensionError(
                f"dimension mismatch: {rl}x{kl} times {rr}x{kr}"
            )
        return (cl + cr + rl * kl * kr, rl, kr)

    def _scalar(self, value):
        return value[0]

    def delta_cost(self, old_sub, new_sub):
        # Ancestor products depend only on the subtree's shape, so the
        # change localizes whenever the replacement preserves it.
        self.cost(old_sub)
        self.cost(new_sub)
        c_old, r_old, k_old = old_sub._memo[self._token]
        c_new, r_new, k_new = new_sub._memo[self._token]
        if (r_old, k_old) != (r_new, k_new):
            return None
        return c_new - c_old

    def __repr__(self):
        return f"MatMulScalarOps({len(self.dims)} leaves)"


class GoalIndicator(CostModel):
    """Flat landscape: 0 for the goal term, 1 for everything else."""

    def __init__(self, goal: Term):
        super().__init__()
        self.goal = goal

    def cost(self, t: Term):
        return 0 if t == self.goal else 1

    def __repr__(self):
        return "GoalIndicator()"


def cost(model: CostModel, t: Term):
    return model.cost(t)


def dims_of(env: DimEnv, t: Term) -> tuple[int, int]:
    """(rows, cols) of a matrix expression; errors name the position."""
    out: dict[int, tuple[int, int]] = {}
    stack: list[tuple[Term, Position, bool]] = [(t, (), False)]
    while stack:
        node, pos, expanded = stack.pop()
        if expanded:
            if not node.children:
                try:
                    out[id(node)] = env[node.op.name]
                except KeyError:
                    raise CostError(
                        f"unbound matrix leaf {node.op.name!r} at position {list(pos)}"
                    ) from None
                continue
            if node.op.name != "*" or len(node.children) != 2:
                raise CostError(
                    f"non-product node {node.op.name!r} at position {list(pos)}"
                )
            rl, kl = out[id(node.children[0])]
            rr, kr = out[id(node.children[1])]
            if kl != rr:
                raise DimensionError(
                    f"dimension mismatch at position {list(pos)}: "
                    f"{rl}x{kl} times {rr}x{kr}"
                )
            out[id(node)] = (rl, kr)
        else:
            stack.append((node, pos, True))
            for idx in range(len(node.children) - 1, -1, -1):
                stack.append((node.children[idx], pos + (idx,), False))
    return out[id(t)]


_INTEG_SQUARE = IntegSquare()


def integ_cost(t: Term):
    return _INTEG_SQUARE.cost(t)


# ---------------------------------------------------------------------------
# JSON specs, used by benchmark suite files.

def model_to_spec(model: CostModel) -> dict:
    from .terms import print_sexpr

    if isinstance(model, AstSize):
        return {"model": "ast_size"}
    if isinstance(model, WeightedAstSize):
        return {"model": "weighted_ast_size", "weights": dict(model.weights)}
    if isinstance(model, IntegSquare):
        return {"model": "integ_square"}
    if isinstance(model, MatMulScalarOps):
        return {"model": "matmul_scalar_ops",
                "dims": {k: list(v) for k, v in model.dims.items()}}
    if isinstance(model, GoalIndicator):
        return {"model": "goal_indicator", "goal": print_sexpr(model.goal)}
    raise CostError(f"unknown cost model {model!r}")


def model_from_spec(spec: dict) -> CostModel:
    from .terms import parse_sexpr

    kind = spec.get("model")
    if kind == "ast_size":
        return AstSize()
    if kind == "weighted_ast_size":
        return WeightedAstSize({k: _num(v) for k, v in spec.get("weights", {}).items()})
    if kind == "integ_square":
        return IntegSquare()
    if kind == "matmul_scalar_ops":
        return MatMulScalarOps({k: (int(v[0]), int(v[1]))
                                for k, v in spec["dims"].items()})
    if kind == "goal_indicator":
        return GoalIndicator(parse_sexpr(spec["goal"]))
    raise CostError(f"unknown cost model spec {spec!r}")


def _num(v):
    f = Fraction(v)
    return int(f) if f.denominator == 1 else float(f)
