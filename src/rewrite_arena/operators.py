"""What each operator means: exactly, over literals, and as a double.

`OPERATORS` maps an operator name to (kind, fold, evaluate).  `fold` is
the exact fold over rationals and booleans, and applies only when every
argument is an instance of `kind`.  `evaluate` is the float evaluation,
where a boolean is 1.0 or 0.0.  A None entry means the operator is
undefined in that mode, and either function returns None where it is
undefined at its arguments, as division is at 0.  rules.fold_node reads
the exact side; equivalence.eval_points reads the float side.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

# Float divisors, and cosines under tan, smaller than this count as 0.
DIV_EPS = 1e-9


def _pow_exact(base, exp):
    # Only integral exponents up to 64 fold, so results stay small.
    if exp.denominator != 1 or abs(exp.numerator) > 64:
        return None
    if base == 0 and exp < 0:
        return None
    return base ** exp.numerator


def _pow_float(base, exp):
    if base < 0 and exp != int(exp):
        return None
    if base == 0 and exp < 0:
        return None
    return math.pow(base, exp)


def _compare(test):
    return Fraction, test, lambda a, b: float(test(a, b))


OPERATORS = {
    "+": (Fraction, operator.add, operator.add),
    "-": (Fraction, operator.sub, operator.sub),
    "*": (Fraction, operator.mul, operator.mul),
    "/": (Fraction, lambda a, b: None if b == 0 else a / b,
          lambda a, b: None if abs(b) < DIV_EPS else a / b),
    "neg": (Fraction, operator.neg, operator.neg),
    "abs": (Fraction, abs, abs),
    "min": (Fraction, min, min),
    "max": (Fraction, max, max),
    "pow": (Fraction, _pow_exact, _pow_float),
    "sqrt": (None, None, lambda a: None if a < 0 else math.sqrt(a)),
    "log": (None, None, lambda a: None if a <= 0 else math.log(a)),
    "exp": (None, None, math.exp),
    "sin": (None, None, math.sin),
    "cos": (None, None, math.cos),
    "tan": (None, None,
            lambda a: None if abs(math.cos(a)) < DIV_EPS else math.tan(a)),
    "<": _compare(operator.lt),
    "<=": _compare(operator.le),
    ">": _compare(operator.gt),
    ">=": _compare(operator.ge),
    "==": _compare(operator.eq),
    "!=": _compare(operator.ne),
    "&&": (bool, lambda a, b: a and b,
           lambda a, b: float(a > 0.5 and b > 0.5)),
    "||": (bool, lambda a, b: a or b,
           lambda a, b: float(a > 0.5 or b > 0.5)),
    "!": (bool, operator.not_, lambda a: float(not a > 0.5)),
    # Integrals and derivatives are symbolic only.
    "int": (None, None, None),
    "d": (None, None, None),
}
