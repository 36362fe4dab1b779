"""The operator table against the per-operator ladders it replaced.

`_ladder_fold_node` and `_ladder_eval_node` are the exact fold and the
float evaluation as they were written before `operators.OPERATORS`, one
`if name ==` test per operator.  Over a grid of arguments for every
operator, the table-driven `rules.fold_node` and `equivalence.eval_points`
must give the same value, the same None, or raise the same exception type.
"""
import itertools
import math
from fractions import Fraction

import pytest

from rewrite_arena.equivalence import UnknownOperatorError, eval_points
from rewrite_arena.operators import DIV_EPS, OPERATORS
from rewrite_arena.rules import fold_node
from rewrite_arena.terms import Term, leaf, number, symbol, term

_UNDEFINED = term("/", number(1), number(0))


def _eval_node(node, args, env):
    """node's operator over args, through eval_points: argument i is a
    variable a<i> bound to it, or an undefined subterm where it is None."""
    env = dict(env)
    kids = []
    for i, a in enumerate(args):
        if a is None:
            kids.append(_UNDEFINED)
        else:
            kids.append(leaf(f"a{i}"))
            env[f"a{i}"] = a
    return eval_points(Term(node.op, tuple(kids)) if kids else node, [env])[0]

_ARITH = frozenset({"+", "-", "*", "/", "pow", "neg", "min", "max", "abs"})
_COMPARE = frozenset({"<", "<=", ">", ">=", "==", "!="})
_LOGIC = frozenset({"&&", "||", "!"})


def _ladder_fold_node(op_name, args):
    if op_name in _ARITH:
        if any(isinstance(a, bool) for a in args):
            return None
        if op_name == "+":
            return args[0] + args[1]
        if op_name == "-":
            return args[0] - args[1]
        if op_name == "*":
            return args[0] * args[1]
        if op_name == "/":
            return None if args[1] == 0 else args[0] / args[1]
        if op_name == "neg":
            return -args[0]
        if op_name == "min":
            return min(args)
        if op_name == "max":
            return max(args)
        if op_name == "abs":
            return abs(args[0])
        if op_name == "pow":
            base, exp = args
            if exp.denominator != 1 or abs(exp.numerator) > 64:
                return None
            if base == 0 and exp < 0:
                return None
            return base ** exp.numerator
    if op_name in _COMPARE:
        if any(isinstance(a, bool) for a in args):
            return None
        a, b = args
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                "==": a == b, "!=": a != b}[op_name]
    if op_name in _LOGIC:
        if not all(isinstance(a, bool) for a in args):
            return None
        if op_name == "&&":
            return args[0] and args[1]
        if op_name == "||":
            return args[0] or args[1]
        return not args[0]
    return None


def _ladder_eval_node(node, args, env):
    name = node.op.name
    if not node.children:
        if node.op.value is not None:
            return float(node.op.value)
        try:
            return float(env[name])
        except KeyError:
            raise UnknownOperatorError(f"variable {name!r} not bound") from None
    if any(a is None for a in args):
        return None
    try:
        if name == "+":
            return args[0] + args[1]
        if name == "-":
            return args[0] - args[1]
        if name == "*":
            return args[0] * args[1]
        if name == "/":
            return None if abs(args[1]) < DIV_EPS else args[0] / args[1]
        if name == "neg":
            return -args[0]
        if name == "pow":
            base, exp = args
            if base < 0 and exp != int(exp):
                return None
            if base == 0 and exp < 0:
                return None
            return math.pow(base, exp)
        if name == "sqrt":
            return None if args[0] < 0 else math.sqrt(args[0])
        if name == "log":
            return None if args[0] <= 0 else math.log(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "abs":
            return abs(args[0])
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "tan":
            return None if abs(math.cos(args[0])) < DIV_EPS else math.tan(args[0])
        if name == "min":
            return min(args)
        if name == "max":
            return max(args)
        if name == "<":
            return 1.0 if args[0] < args[1] else 0.0
        if name == "<=":
            return 1.0 if args[0] <= args[1] else 0.0
        if name == ">":
            return 1.0 if args[0] > args[1] else 0.0
        if name == ">=":
            return 1.0 if args[0] >= args[1] else 0.0
        if name == "==":
            return 1.0 if args[0] == args[1] else 0.0
        if name == "!=":
            return 1.0 if args[0] != args[1] else 0.0
        if name == "&&":
            return 1.0 if args[0] > 0.5 and args[1] > 0.5 else 0.0
        if name == "||":
            return 1.0 if args[0] > 0.5 or args[1] > 0.5 else 0.0
        if name == "!":
            return 0.0 if args[0] > 0.5 else 1.0
    except (OverflowError, ValueError):
        return None
    if name in ("int", "d"):
        return None
    raise UnknownOperatorError(f"cannot evaluate operator {name!r}")


_UNARY = frozenset({"neg", "abs", "sqrt", "log", "exp", "sin", "cos", "tan",
                    "!"})
# Every tabled operator, the ladders' sets, and one neither knows.
NAMES = sorted(set(OPERATORS) | _ARITH | _COMPARE | _LOGIC | {"frob"})

RATIONALS = [Fraction(v) for v in
             ("0", "1", "-1", "1/2", "-1/2", "2", "-3", "7/3", "64", "65",
              "-64", "-65", "1000")]
EXACT = [*RATIONALS, True, False]
FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, 1e-10, -1e-10,
          DIV_EPS, 64.0, 65.0, 710.0, 1e308, -1e308, math.pi / 2,
          math.inf, -math.inf, math.nan, None]


def _arity(name):
    return 1 if name in _UNARY else 2


def _outcome(function, *args):
    """('value', type, value), or ('raises', exception type)."""
    try:
        value = function(*args)
    except Exception as exc:  # the type is compared
        return ("raises", type(exc))
    if isinstance(value, float) and math.isnan(value):
        return ("value", float, "nan")
    return ("value", type(value), value)


@pytest.mark.parametrize("name", NAMES)
def test_fold_node_matches_the_ladder(name):
    for args in itertools.product(EXACT, repeat=_arity(name)):
        args = list(args)
        assert (_outcome(fold_node, name, args)
                == _outcome(_ladder_fold_node, name, args)), (name, args)


@pytest.mark.parametrize("name", NAMES)
def test_eval_node_matches_the_ladder(name):
    node = Term(symbol(name, _arity(name)),
                tuple(leaf("x") for _ in range(_arity(name))))
    for args in itertools.product(FLOATS, repeat=_arity(name)):
        args = list(args)
        assert (_outcome(_eval_node, node, args, {})
                == _outcome(_ladder_eval_node, node, args, {})), (name, args)


def test_eval_node_leaves_match_the_ladder():
    env = {"x": 2.5}
    for node in (leaf("3/4"), leaf("true"), leaf("false"), leaf("x"),
                 leaf("unbound")):
        assert (_outcome(_eval_node, node, [], env)
                == _outcome(_ladder_eval_node, node, [], env))

