"""Cost models used by both search engines.

Every model maps a term to a finite non-negative number and is a pure
function of the term (given fixed model parameters).  `cost` evaluates
iteratively and caches a value per term node, keyed by the model object
itself (a memo entry keeps its model alive, so no other model reuses the
key).  `value` only reads that memo: a proposal's cost change combines
just the nodes its rewrite built, from the memo entries of the rest, and
stores nothing on them.
"""
from __future__ import annotations

from fractions import Fraction

from .terms import (Position, Term, TermError, parse_sexpr, positions,
                    postorder, print_sexpr, replace_at)


class CostError(TermError):
    pass


class DimensionError(CostError):
    pass


DimEnv = dict[str, tuple[int, int]]


class CostModel:
    """Base: subclasses define _combine(op_name, child_values) -> value.

    `_combine` is the one rule for costing a node from its operator and its
    children's values: term costing folds it over a term, and e-graph
    extraction folds it over e-nodes.  `_scalar` maps a value to the cost
    that is compared.
    """

    def _combine(self, op_name: str, child_values: list):
        raise NotImplementedError

    @property
    def extractable(self) -> bool:
        """Whether e-graph extraction can fold a per-node rule of this model."""
        return type(self)._combine is not CostModel._combine

    def _scalar(self, value):
        return value

    def delta_cost(self, old_sub: Term, new_sub: Term):
        """Cost change from replacing old_sub by new_sub in any context.

        Returns None when the change cannot be localized (ancestor node
        costs may depend on the subtree); callers then take spliced_cost.
        Additive models always localize.
        """
        return None

    def value(self, t: Term):
        """t's memo entry, or its value combined from its children's, with
        nothing stored.  Only the uncosted part recurses; an uncosted part
        deeper than the recursion limit is read by _walk into a local dict."""
        memo = t._memo
        if memo is not None and self in memo:
            return memo[self]
        try:
            return self._value(t)
        except RecursionError:
            return self._walk(t, {})

    def _value(self, t: Term):
        # The value of t, which has no memo entry; see value.
        return self._combine(t.op.name, [
            c._memo[self] if c._memo is not None and self in c._memo
            else self._value(c) for c in t.children])

    def spliced_cost(self, t: Term, pos: Position, new_sub: Term):
        """Cost of t with new_sub at pos, t costed: new_sub's value combined
        up the root path with the siblings' memo entries, nothing stored."""
        spine = []
        for i in pos:
            spine.append(t)
            t = t.children[i]
        value = self.value(new_sub)
        for node, i in zip(reversed(spine), reversed(pos)):
            vals = [c._memo[self] for c in node.children]
            vals[i] = value
            value = self._combine(node.op.name, vals)
        return self._scalar(value)

    def cost(self, t: Term):
        memo = t._memo
        if memo is not None:
            cached = memo.get(self)
            if cached is not None:
                return self._scalar(cached)
        return self._scalar(self._walk(t))

    def _walk(self, t: Term, local: dict | None = None):
        """t's value by one iterative bottom-up walk over its uncosted part,
        stopping at memo entries.  Each value goes to its node's memo, or,
        given `local`, to that dict by node id, with nothing stored."""
        stack = [(t, False)]
        while stack:
            node, expanded = stack.pop()
            memo = node._memo
            if (memo is not None and self in memo
                    or local is not None and id(node) in local):
                continue
            if expanded:
                value = self._combine(node.op.name, [
                    c._memo[self] if c._memo is not None and self in c._memo
                    else local[id(c)] for c in node.children])
                if local is not None:
                    local[id(node)] = value
                elif memo is None:
                    node._memo = {self: value}
                else:
                    memo[self] = value
            else:
                stack.append((node, True))
                for c in node.children:
                    cm = c._memo
                    if cm is None or self not in cm:
                        stack.append((c, False))
        return t._memo[self] if local is None else local[id(t)]


class WeightedAstSize(CostModel):
    """Node cost = weight(op) + sum of child costs; default weight 1."""

    def __init__(self, weights: dict[str, float] | None = None):
        self.weights = dict(weights or {})

    def _combine(self, op_name, child_values):
        return self.weights.get(op_name, 1) + sum(child_values)

    def delta_cost(self, old_sub, new_sub):
        return self.value(new_sub) - self.value(old_sub)

    def __repr__(self):
        return f"WeightedAstSize({self.weights!r})"


class AstSize(WeightedAstSize):
    """Total node count, leaves included: every weight is 1."""

    def __init__(self):
        super().__init__()

    def __repr__(self):
        return "AstSize()"


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

    def _value(self, t):
        # CostModel._value, with a product's triples unpacked, not listed.
        if t.op.name != "*" or len(t.children) != 2:
            return CostModel._value(self, t)
        a, b = t.children
        ma, mb = a._memo, b._memo
        left = ma[self] if ma is not None and self in ma else self._value(a)
        right = mb[self] if mb is not None and self in mb else self._value(b)
        if left[2] != right[1]:
            return self._combine("*", [left, right])  # raises
        return (left[0] + right[0] + left[1] * left[2] * right[2],
                left[1], right[2])

    def delta_cost(self, old_sub, new_sub):
        # Ancestor products depend only on the subtree's shape, so the
        # change localizes whenever the replacement preserves it.
        c_old, r_old, k_old = self.value(old_sub)
        c_new, r_new, k_new = self.value(new_sub)
        if (r_old, k_old) != (r_new, k_new):
            return None
        return c_new - c_old

    def __repr__(self):
        return f"MatMulScalarOps({len(self.dims)} leaves)"


class GoalIndicator(CostModel):
    """Flat landscape: 0 for the goal term, 1 for everything else."""

    def __init__(self, goal: Term):
        self.goal = goal

    def cost(self, t: Term):
        return 0 if t == self.goal else 1

    def spliced_cost(self, t, pos, new_sub):
        return self.cost(replace_at(t, pos, new_sub))

    def __repr__(self):
        return "GoalIndicator()"


def dims_of(env: DimEnv, t: Term) -> tuple[int, int]:
    """(rows, cols) of a matrix expression; errors name the position."""
    out: dict[int, tuple[int, int]] = {}
    for node in postorder(t):
        name, kids = node.op.name, node.children
        if not kids and name in env:
            out[id(node)] = env[name]
            continue
        if name == "*" and len(kids) == 2:
            (rl, kl), (rr, kr) = out[id(kids[0])], out[id(kids[1])]
            if kl == rr:
                out[id(node)] = (rl, kr)
                continue
        where = list(next(pos for pos, sub in positions(t) if sub is node))
        if not kids:
            raise CostError(f"unbound matrix leaf {name!r} at position {where}")
        if name != "*" or len(kids) != 2:
            raise CostError(f"non-product node {name!r} at position {where}")
        raise DimensionError(f"dimension mismatch at position {where}: "
                             f"{rl}x{kl} times {rr}x{kr}")
    return out[id(t)]


_INTEG_SQUARE = IntegSquare()


def integ_cost(t: Term):
    return _INTEG_SQUARE.cost(t)


# ---------------------------------------------------------------------------
# JSON specs, used by benchmark suite files.

def model_to_spec(model: CostModel) -> dict:
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
