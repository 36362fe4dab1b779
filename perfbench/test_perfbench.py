"""Tests of the benchmark itself, at toy size (`--smoke`).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import determinism  # noqa: E402
from check import check_row  # noqa: E402
from metrics import END_TO_END, PER_LAYER, host_scaled, tail  # noqa: E402
from reference import REFERENCE_S, HostClock  # noqa: E402
from workloads import WORKLOADS, load_arena  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_matches_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
            == END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == PER_LAYER)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_run_counts_layers_of_its_workload():
    proc = bench("--workload", "eqsat-matmul", "--seed", "2", "--seconds", "1",
                 "--trace", "1", "--smoke")
    m = {k: v["value"] for k, v in
         json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert m["egraph.ematch.calls"] > 0 and m["egraph.extract.calls"] > 0
    assert m["egraph.iterations"] == m["egraph.run_iteration.calls"]
    # Idle layers on this workload.
    assert m["rules.match_pattern.calls"] == 0
    assert m["equivalence.validate.calls"] == 0
    assert m["stochastic.proposals"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_runs_repeat_exactly_with_and_without_tracing(workload):
    assert determinism.check(workload, seed=5, seconds=1, smoke=True) == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "curated-both", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_answer_checker_rejects_wrong_answers():
    arena = load_arena(ROOT / "src")
    case = WORKLOADS["stoch-matmul"].cases(arena, 3, smoke=True)[-1]
    cfg = arena.stochastic.RunConfig(seed=3, max_proposals=200)
    good = arena.runner.run_case_stochastic(case, cfg, early_exit=False)
    assert check_row(arena, case, "stochastic", good, 3).ok

    wrong_cost = replace(good, best_cost=good.best_cost + 1)
    assert not check_row(arena, case, "stochastic", wrong_cost, 3).ok
    wrong_flag = replace(good, solved=not good.solved)
    assert not check_row(arena, case, "stochastic", wrong_flag, 3).ok
    # A cheaper term than the oracle can only be a different product.
    dropped = arena.terms.print_sexpr(case.input_term.children[0])
    cheat = replace(good, best_term=dropped, best_cost=0)
    assert not check_row(arena, case, "stochastic", cheat, 3).ok

    trig = arena.benchmarks.trig_suite()[0]
    result = arena.runner.run_case_eqsat(replace(trig, time_limit=None))
    unsound = replace(result, best_term="(sin x)",
                      best_cost=trig.cost_model.cost(
                          arena.terms.parse_sexpr("(sin x)")))
    verdict = check_row(arena, trig, "eqsat", unsound, 3)
    assert not verdict.ok and "inequivalent" in verdict.problem


def test_integration_answers_are_inconclusive_not_failed():
    arena = load_arena(ROOT / "src")
    case = replace(arena.benchmarks.integration_suite()[0], time_limit=None)
    result = arena.runner.run_case_eqsat(case)
    verdict = check_row(arena, case, "eqsat", result, 1)
    assert verdict.ok and verdict.inconclusive


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    random.Random(0).shuffle(samples)
    value, pct, n = tail(samples)
    assert n == 40 and value == 29.0 and pct == 75.0
    assert sum(s > value for s in samples) == 10
    assert tail(samples[:10]) == (0.0, 0.0, 10)


def test_host_clock_samples_when_due_and_scales_times_not_memory():
    host = HostClock(every=3600.0)
    assert host.tick() > 0 and host.tick() == 0.0
    assert len(host.samples) == 1
    assert host.factor() == pytest.approx(REFERENCE_S / host.samples[0])
    raw = {"setup_s": 1.0, "wall_s": 2.0, "proposals_per_s": 100.0,
           "case_s.p50": 0.5, "peak_rss_mb": 30.0}
    assert host_scaled(raw, 0.5) == {"setup_s": 0.5, "wall_s": 1.0,
                                     "proposals_per_s": 200.0,
                                     "case_s.p50": 0.25, "peak_rss_mb": 30.0}
