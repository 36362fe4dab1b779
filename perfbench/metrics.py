"""Metric catalogue and the arithmetic that turns passes into metrics.

END_TO_END and PER_LAYER list every metric the benchmark prints, in the
order of BENCHMARK.json, as (name, unit, better).
"""
from __future__ import annotations

import math
import statistics

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("proposals_per_s", "1/s", "higher"),
    ("case_s.p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _timer(name: str) -> list:
    return [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]


PER_LAYER = [
    # Results of the untraced passes that a bounded metric cannot carry:
    # they are 0 or undefined on some workload, or vary with the seed.
    ("eqsat_s", "s", "lower"),
    ("case_s.tail", "s", "lower"),
    ("solved", "count", "higher"),
    ("oracle_ratio.geomean", "ratio", "higher"),
    ("fail_frac", "ratio", "lower"),
    ("answer_check.inconclusive", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    # Set-up.
    ("benchmarks.build.s", "s", "lower"),
    ("rulesets.parse.s", "s", "lower"),
    ("runner.run_case.self_s", "s", "lower"),
    # Stochastic side.
    *_timer("rules.match_pattern"),
    ("rules.match_pattern.hit_ratio", "ratio", "higher"),
    *_timer("rules.instantiate"),
    *_timer("rules.guard"),
    *_timer("stochastic.enumerate"),
    ("stochastic.candidates", "count", "lower"),
    ("stochastic.dedup_ratio", "ratio", "higher"),
    ("stochastic.run_chain.self_s", "s", "lower"),
    ("stochastic.proposals", "count", "higher"),
    ("stochastic.steps", "count", "higher"),
    ("stochastic.hard_restarts", "count", "lower"),
    ("stochastic.unsound_restarts", "count", "lower"),
    *_timer("terms.replace_at"),
    *_timer("equivalence.validate"),
    ("equivalence.validate.failures", "count", "lower"),
    *_timer("equivalence.eval_numeric"),
    *_timer("costs.cost"),
    *_timer("costs.delta_cost"),
    ("costs.delta_cost.local_ratio", "ratio", "higher"),
    # E-graph side.
    *_timer("egraph.ematch"),
    ("egraph.ematch.matches", "count", "lower"),
    *_timer("egraph.add_instantiated"),
    *_timer("egraph.union"),
    ("egraph.union_ratio", "ratio", "higher"),
    *_timer("egraph.rebuild"),
    ("egraph.run_iteration.calls", "count", "lower"),
    ("egraph.run_iteration.self_s", "s", "lower"),
    ("egraph.bans", "count", "lower"),
    *_timer("egraph.extract"),
    *_timer("egraph.copy"),
    *_timer("egraph.represents"),
    ("egraph.iterations", "count", "lower"),
    ("egraph.enodes", "count", "lower"),
    ("egraph.eclasses", "count", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Wrapped functions reported as calls and inclusive seconds.
TIMED = ("rules.match_pattern", "rules.instantiate", "rules.guard",
         "stochastic.enumerate", "terms.replace_at", "equivalence.validate",
         "equivalence.eval_numeric", "costs.cost", "costs.delta_cost",
         "egraph.ematch", "egraph.add_instantiated", "egraph.union",
         "egraph.rebuild", "egraph.extract", "egraph.copy",
         "egraph.represents")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; value 0 with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return 0.0, 0.0, n
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(setups: list[float], passes: list, rss_mb: float) -> dict:
    """End-to-end metrics over the untraced passes of a run."""
    if any(p.proposals for p in passes):
        # Stochastic proposals per second of stochastic engine time.
        done = sum(p.proposals for p in passes)
        busy = sum(p.seconds["stochastic"] for p in passes)
    else:
        # A workload without the stochastic engine proposes rewrites through
        # e-matching: matches per second of e-graph engine time.
        done = sum(p.matches for p in passes)
        busy = sum(p.seconds["eqsat"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "proposals_per_s": _ratio(done, busy),
        "case_s.p50": statistics.median(s for p in passes
                                        for s in p.case_seconds),
        "peak_rss_mb": rss_mb,
    }


# How each bounded metric follows the host's speed: seconds scale with the
# reference.HostClock factor, rates with its inverse, memory not at all.
_SPEED_POWER = {"setup_s": 1, "wall_s": 1, "proposals_per_s": -1,
                "case_s.p50": 1, "peak_rss_mb": 0}


def host_scaled(e2e: dict, factor: float) -> dict:
    """End-to-end metrics scaled to the reference host speed."""
    return {k: v * factor ** _SPEED_POWER[k] for k, v in e2e.items()}


def outcomes(first, passes: list, attempted: int, failed: int,
             inconclusive: int) -> dict:
    """Results of the untraced passes that carry no bound.

    `first` holds the rows of the first pass; every pass repeats them.
    """
    ratios = [r.result.ratio for r in first.rows if r.result.ratio is not None]
    geomean = (math.exp(sum(math.log(x) for x in ratios) / len(ratios))
               if ratios and min(ratios) > 0 else 0.0)
    value, _, _ = tail([s for p in passes for s in p.case_seconds])
    return {
        "eqsat_s": statistics.median(p.seconds["eqsat"] for p in passes),
        "case_s.tail": value,
        "solved": sum(r.result.solved for r in first.rows),
        "oracle_ratio.geomean": geomean,
        "fail_frac": _ratio(failed, attempted),
        "answer_check.inconclusive": inconclusive,
    }


def layers(tracer, rows: list) -> dict:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    get = tracer.get
    for name in TIMED:
        stat = get(name)
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.s"] = stat.s
    out["rules.match_pattern.hit_ratio"] = _ratio(
        get("rules.match_pattern").hits, get("rules.match_pattern").calls)
    enum = get("stochastic.enumerate")
    out["stochastic.candidates"] = enum.hits
    out["stochastic.dedup_ratio"] = _ratio(enum.hits,
                                           get("rules.instantiate").calls)
    for name in ("stochastic.run_chain", "egraph.run_iteration",
                 "runner.run_case"):
        stat = get(name)
        out[f"{name}.self_s"] = stat.s - stat.child_s
    out["egraph.run_iteration.calls"] = get("egraph.run_iteration").calls
    out["equivalence.validate.failures"] = get("equivalence.validate").hits
    out["costs.delta_cost.local_ratio"] = _ratio(
        get("costs.delta_cost").hits, get("costs.delta_cost").calls)
    out["egraph.ematch.matches"] = get("egraph.ematch").hits

    chains = [c for r in rows for c in r.chains]
    for field in ("proposals", "steps", "hard_restarts", "unsound_restarts"):
        out[f"stochastic.{field}"] = sum(getattr(c, field) for c in chains)
    iterations = [i for r in rows for i in r.iterations]
    out["egraph.iterations"] = len(iterations)
    # The largest e-graph of the pass, which sets its memory.
    out["egraph.enodes"] = max((i.nodes for i in iterations), default=0)
    out["egraph.eclasses"] = max((i.classes for i in iterations), default=0)
    out["egraph.union_ratio"] = _ratio(sum(i.unions for i in iterations),
                                       sum(i.applied for i in iterations))
    # Rule-iterations sat out under a backoff ban.
    out["egraph.bans"] = sum(len(i.banned) for i in iterations)
    return out


def median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
