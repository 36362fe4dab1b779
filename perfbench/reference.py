"""A fixed pure-Python job that measures how fast the host runs right now.

The shared 2-CPU host the bounds were set on changes speed in phases that
last minutes: the same pass took from 2.1 to 3.5 s within ten runs.  The
job here uses nothing from the package, so no change to the package can
change its time; what changes its time is the host.  A run samples it
between cases and between saturation iterations, at most once a second,
and leaves that time out of what it measures.  The bounded end-to-end
times are scaled by REFERENCE_S over the mean sample, which cancels most
of the host's drift.  The unscaled times are reported beside them.

The job builds, hashes, interns and walks small trees of tuples and
objects, which is the kind of work both engines do.
"""
from __future__ import annotations

import gc
import random
import time

# The job's time on the host the bounds were set on, in a calm phase.
REFERENCE_S = 0.075


class _Node:
    __slots__ = ("op", "kids", "h")

    def __init__(self, op: str, kids: tuple):
        self.op = op
        self.kids = kids
        self.h = hash((op,) + tuple(k.h for k in kids))


def _job() -> int:
    rng = random.Random(7)
    total = 0
    for _ in range(20):
        nodes = [_Node(f"x{i}", ()) for i in range(60)]
        interned: dict[int, list] = {}
        for i in range(1500):
            node = _Node("+" if i & 1 else "*",
                         (rng.choice(nodes), rng.choice(nodes)))
            interned.setdefault(node.h, []).append(node)
            nodes.append(node)
        stack = [nodes[-1]]
        while stack:
            node = stack.pop()
            total += len(node.kids)
            if total % 3 == 0:
                stack.extend(node.kids[:1])
        total += len(interned) + len(sorted(interned))
    return total


class HostClock:
    """Samples the job at most once every `every` seconds."""

    def __init__(self, every: float = 1.0):
        self.every = every
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self) -> float:
        """Sample the job if it is due; the seconds spent, 0 if not due.

        Call it only outside timed work, or subtract what it returns.
        """
        if time.perf_counter() < self._next:
            return 0.0
        # With the cyclic collector off, the job neither pays for a full
        # collection of the engine's objects nor takes one off the engine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _job()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - t0)
        self._next = end + self.every
        return end - t0

    def factor(self) -> float:
        """REFERENCE_S over the mean sample: below 1 in a slow phase."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
