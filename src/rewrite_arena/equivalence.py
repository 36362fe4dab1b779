"""Numeric evaluation and equivalence fuzzing.

Terms are evaluated as IEEE doubles over an assignment of their variables.
Evaluation is partial: division by (near) zero, logs of non-positives, and
integral/derivative nodes are undefined and yield None, as does a numeral
too large for a double.  eval_points evaluates a term at every sample point
in one walk.  Fuzzing compares two terms pointwise, skipping points where
either side is undefined, which is exactly how a rewrite can relate terms
on the intersection of their domains.
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
    return eval_points(t, [env])[0]


def eval_points(t: Term, envs: list[EvalEnv]) -> list[float | None]:
    """Evaluate t at each env in one walk: each node holds one value per
    point, None where undefined (as is a numeral too large for a double).
    An unknown operator raises where its arguments are defined."""
    undefined = [None] * len(envs)
    values: dict[int, list] = {}
    for node in postorder(t):
        name, value = node.op.name, node.op.value
        if node.children:
            rows = list(zip(*[values[id(c)] for c in node.children]))
            if name not in OPERATORS and any(None not in a for a in rows):
                raise UnknownOperatorError(f"cannot evaluate operator {name!r}")
            evaluate = OPERATORS.get(name, (None, None, None))[2]
            column = []
            for args in rows:
                if evaluate is None or None in args:  # None propagates up
                    column.append(None)
                    continue
                try:
                    column.append(evaluate(*args))
                except (OverflowError, ValueError):
                    column.append(None)
        elif value is not None:  # a numeral, or true/false as 1/0
            try:
                column = [float(value)] * len(envs)
            except OverflowError:
                column = undefined
        else:
            try:
                column = [float(env[name]) for env in envs]
            except KeyError:
                raise UnknownOperatorError(
                    f"variable {name!r} not bound") from None
        values[id(node)] = column
    return values[id(t)]


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
    envs = [_sample_env(names, index, rng) for index in range(samples)]
    passed = 0
    for env, va, vb in zip(envs, eval_points(a, envs), eval_points(b, envs)):
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
