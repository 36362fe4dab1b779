"""Call timers and spans around the package's public functions.

The tracer wraps functions under the name their caller looks up: the
stochastic engine and the runner bind `match_pattern`, `instantiate`,
`replace_at`, `run_chain`, `run_iteration` and `extract` at import, so the
wrappers go on those modules, not only on the defining one.  Coarse
boundaries (case runs, chains, saturation iterations, e-matching, rebuild,
extraction, checkpoint copies, validator calls) are recorded as spans;
hot leaves (pattern matching, instantiation, costing, e-graph inserts) get
call counts and timers only, so memory stays bounded.

Every wrapped call also charges its duration to the enclosing wrapped call,
so a function's self time is its total minus the time of its children.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

_CLOCK = time.perf_counter


class Stat:
    __slots__ = ("calls", "s", "child_s", "hits", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.hits = 0  # a per-function count of useful outcomes, see _HITS
        self.active = False


# How each wrapped function's result counts toward Stat.hits.
_HITS = {
    "rules.match_pattern": lambda r: r is not None,
    "costs.delta_cost": lambda r: r is not None,
    "equivalence.validate": lambda r: not r,  # failures
    "egraph.ematch": len,  # matches
    "stochastic.enumerate": len,  # candidates kept
}

# Wrapped functions whose results are captured, and the Capture list.
_SINKS = {"stochastic.run_chain": "chains",
          "egraph.run_iteration": "iterations"}


class Capture:
    """What the engines return and the runner drops: chain and iteration
    reports.  Kept per engine call, so rows can be compared exactly."""

    def __init__(self):
        self.chains: list = []
        self.iterations: list = []

    def take(self) -> tuple[list, list]:
        chains, iterations = self.chains, self.iterations
        self.chains, self.iterations = [], []
        return chains, iterations


class Tracer:
    """Wraps the package's functions while installed.

    With `timed` false only the chain and iteration reports are captured
    (one wrapped call per chain and per saturation iteration), which is
    what untimed work counters need, and `between` may run after each
    iteration.  With `timed` true every boundary in
    `targets` is timed and coarse boundaries also record spans.
    """

    def __init__(self, arena, timed: bool, between=None):
        self.arena = arena
        self.timed = timed
        # Called between cases and after each saturation iteration of an
        # untimed pass; returns the seconds it took, which `paused` sums.
        self.between = between
        self.paused = 0.0
        self.capture = Capture()
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent, case]
        self.case = ""
        self._stack: list[list] = []  # frames: [child_s, span index]

    # -- what gets wrapped ---------------------------------------------------

    def targets(self):
        """(owner, attribute, metric name, records a span) for each wrap."""
        a = self.arena
        eg = a.egraph.EGraph
        out = [
            (a.stochastic, "run_chain", "stochastic.run_chain", True),
            (a.runner, "run_iteration", "egraph.run_iteration", True),
        ]
        if not self.timed:
            return out
        out += [
            (a.runner, "run_case_stochastic", "runner.run_case", True),
            (a.runner, "run_case_eqsat", "runner.run_case", True),
            (a.stochastic, "match_pattern", "rules.match_pattern", False),
            (a.stochastic, "instantiate", "rules.instantiate", False),
            (a.rules.Guard, "passes", "rules.guard", False),
            (a.stochastic, "_enumerate_candidates", "stochastic.enumerate", False),
            (a.stochastic, "replace_at", "terms.replace_at", False),
            (a.equivalence.EquivalenceValidator, "__call__",
             "equivalence.validate", True),
            (a.equivalence, "eval_numeric", "equivalence.eval_numeric", False),
            (eg, "ematch", "egraph.ematch", True),
            (eg, "add_instantiated", "egraph.add_instantiated", False),
            (eg, "union", "egraph.union", False),
            (eg, "rebuild", "egraph.rebuild", True),
            (a.runner, "extract", "egraph.extract", True),
            (eg, "copy", "egraph.copy", True),
            (eg, "represents", "egraph.represents", False),
            (a.rulesets, "parse_ruleset", "rulesets.parse", False),
        ]
        # Cost models override cost/delta_cost per class; wrap each definition.
        for cls in vars(a.costs).values():
            if isinstance(cls, type) and issubclass(cls, a.costs.CostModel):
                for attr in ("cost", "delta_cost"):
                    if attr in vars(cls):
                        out.append((cls, attr, f"costs.{attr}", False))
        return out

    # -- wrappers ------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _capturing(self, name, fn):
        cap = self.capture
        # Capture.take swaps the lists, so look the sink up on every call.
        sink = _SINKS[name]
        between = self.between if name == "egraph.run_iteration" else None

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            getattr(cap, sink).append(result)
            if between is not None:
                self.paused += between()
            return result
        return wrapper

    def wrap(self, name: str, fn, span: bool = True):
        """`fn` timed under `name`; `span` also records each call as a span."""
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans
        hit = _HITS.get(name)
        cap = self.capture
        sink_name = _SINKS.get(name)
        # add_instantiated recurses through self; time the outermost call.
        reentrant = name == "egraph.add_instantiated"

        def wrapper(*args, **kwargs):
            if reentrant and stat.active:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            if span:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, self.case])
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            stat.active = True
            start = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _CLOCK()
                stat.active = False
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.s += dur
                stat.child_s += frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[index][1] = start
                    spans[index][2] = end
            if hit is not None:
                stat.hits += hit(result)
            if sink_name is not None:
                getattr(cap, sink_name).append(result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, span in self.targets():
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                wrapped = (self.wrap(name, fn, span) if self.timed
                           else self._capturing(name, fn))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- results -------------------------------------------------------------

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, case) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "case": case}) + "\n")
