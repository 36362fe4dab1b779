"""Numeric evaluation and equivalence fuzzing.

Terms are evaluated as IEEE doubles over an assignment of their variables.
Evaluation is partial: division by (near) zero, logs of non-positives, and
integral/derivative nodes are undefined and yield None.  Fuzzing compares
two terms pointwise, skipping points where either side is undefined, which
is exactly how a rewrite can relate terms on the intersection of their
domains.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .operators import OPERATORS
from .terms import Term, TermError, postorder, variables

EvalEnv = dict[str, float]

_SMALL_INTS = (-2.0, -1.0, 0.0, 1.0, 2.0)


class UnknownOperatorError(TermError):
    pass


@dataclass(frozen=True)
class Equivalent:
    points: int


@dataclass(frozen=True)
class Inequivalent:
    witness: dict
    lhs: float
    rhs: float


@dataclass(frozen=True)
class Inconclusive:
    reason: str


Verdict = Equivalent | Inequivalent | Inconclusive


def eval_numeric(t: Term, env: EvalEnv) -> float | None:
    """Evaluate t at env; None where mathematically undefined."""
    values: dict[int, float | None] = {}
    for node in postorder(t):
        args = [values[id(c)] for c in node.children]
        values[id(node)] = _eval_node(node, args, env)
    return values[id(t)]


def _eval_node(node: Term, args: list[float | None], env: EvalEnv) -> float | None:
    name = node.op.name
    if not node.children:
        if node.op.value is not None:  # a numeral, or true/false as 1/0
            return float(node.op.value)
        try:
            return float(env[name])
        except KeyError:
            raise UnknownOperatorError(f"variable {name!r} not bound") from None
    if None in args:  # undefinedness propagates upward
        return None
    try:
        evaluate = OPERATORS[name][2]
    except KeyError:
        raise UnknownOperatorError(f"cannot evaluate operator {name!r}") from None
    if evaluate is None:
        return None
    try:
        return evaluate(*args)
    except (OverflowError, ValueError):
        return None


def _sample_env(variables: list[str], index: int, rng: random.Random) -> EvalEnv:
    # The first few points pin every variable to a small integer; catching
    # identities that only fail there while later points avoid (-0.1, 0.1).
    if index < len(_SMALL_INTS):
        return {v: _SMALL_INTS[index] for v in variables}
    env = {}
    for v in variables:
        if rng.random() < 1 / 3:
            env[v] = rng.choice(_SMALL_INTS)
        else:
            magnitude = rng.uniform(0.1, 10.0)
            env[v] = magnitude if rng.random() < 0.5 else -magnitude
    return env


def fuzz_equiv(a: Term, b: Term, samples: int = 50, tol: float = 1e-6,
               rng: random.Random | None = None) -> Verdict:
    """Numerically compare a and b at sampled points.

    Points where either side is undefined are skipped.  The first point
    where the sides disagree beyond the relative tolerance is returned as
    an Inequivalent witness.
    """
    if rng is None:
        rng = random.Random(0)
    names = sorted(variables(a) | variables(b))
    passed = 0
    for index in range(samples):
        env = _sample_env(names, index, rng)
        va = eval_numeric(a, env)
        vb = eval_numeric(b, env)
        if va is None or vb is None:
            continue
        if math.isnan(va) or math.isnan(vb):
            continue
        scale = 1.0 + max(abs(va), abs(vb))
        if abs(va - vb) > tol * scale:
            return Inequivalent(dict(env), va, vb)
        passed += 1
    if passed >= max(10, samples // 2):
        return Equivalent(passed)
    return Inconclusive(f"only {passed} of {samples} points were defined on both sides")


@dataclass
class EquivalenceValidator:
    """Callable detector used by the stochastic engine.

    Flags a term as unsound when fuzzing against the reference term returns
    Inequivalent; undefined points never count against a term.
    """

    reference: Term
    samples: int = 30
    tol: float = 1e-6
    seed: int = 0
    checks: int = field(default=0, init=False)
    failures: int = field(default=0, init=False)
    last_failure: Inequivalent | None = field(default=None, init=False)

    def __call__(self, t: Term) -> bool:
        """True when t is acceptable (not provably inequivalent)."""
        self.checks += 1
        verdict = fuzz_equiv(self.reference, t, self.samples, self.tol,
                             random.Random(self.seed + self.checks))
        if isinstance(verdict, Inequivalent):
            self.failures += 1
            self.last_failure = verdict
            return False
        return True
