"""Acceptance suite: every shipping criterion, one test each.

Each test prints a PASS/FAIL line (visible with `pytest -s` or on failure)
and then asserts.  Several criteria run wall-clock benchmark workloads, so
the whole module takes on the order of ten minutes on a small machine.
"""
import math
import random
import time

from rewrite_arena import (
    AstSize,
    BackoffScheduler,
    EGraph,
    EqsatConfig,
    Inequivalent,
    RunConfig,
    brute_force_optimal,
    builtin_suites,
    dp_optimal_cost,
    extract,
    fuzz_equiv,
    gen_matmul_chain,
    needle_case,
    parse_sexpr,
    run_chain,
    run_iteration,
    saturate,
    search,
)
from rewrite_arena.costs import MatMulScalarOps, integ_cost
from rewrite_arena.rulesets import trig_ruleset
from rewrite_arena.runner import (
    run_case,
    run_case_eqsat,
    run_case_stochastic,
    scaling_report,
)
from rewrite_arena.stochastic import sample_index

CHI2_CRIT_DF2_P01 = 9.210340  # chi-square 0.99 quantile, 2 degrees of freedom


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {desc}{suffix}", flush=True)
    return ok


def test_c01_matmul_example_fidelity():
    dims = {"A": (2, 3), "B": (3, 4), "C": (4, 5)}
    model = MatMulScalarOps(dims)
    left = model.cost(parse_sexpr("(* (* A B) C)"))
    right = model.cost(parse_sexpr("(* A (* B C))"))
    dp = dp_optimal_cost([2, 3, 4, 5])
    ok = (left, right, dp) == (64, 90, 64)
    assert _report(1, "dims [2,3,4,5] give association costs {64,90}, DP 64",
                   ok, f"got {left}/{right}/dp={dp}")


def test_c02_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(2024)
    agree = True
    for _ in range(200):
        n = rng.randint(1, 8)
        dims = [rng.randint(1, 15) for _ in range(n + 1)]
        if dp_optimal_cost(dims) != brute_force_optimal(dims):
            agree = False
            break
    elapsed = time.monotonic() - started
    ok = agree and elapsed < 5.0
    assert _report(2, "DP equals brute force on 200 random dims vectors",
                   ok, f"{elapsed:.2f}s")


def test_c03_matmul_stochastic_within_one_percent():
    cfg = RunConfig(workers=8, seed=1)
    hits = 0
    runs = []
    for n in (10, 50, 100):
        for k in range(10):
            case = gen_matmul_chain(n, 1, 20, random.Random(9000 + 17 * n + k))
            target = case.oracle_cost * 1.01
            result = search(case.input_term, case.ruleset, case.cost_model,
                            cfg, target_cost=target,
                            deadline=time.monotonic() + 10.0)
            ratio = result.best_cost / case.oracle_cost
            runs.append(ratio)
            hits += ratio <= 1.01
    ok = hits >= 27
    assert _report(3, "stochastic within 1% of DP optimum in >= 27/30 runs "
                      "(n in {10,50,100}, 8 workers, 10s)",
                   ok, f"{hits}/30, worst ratio {max(runs):.4f}")


def test_c04_matmul_eqsat_exact_and_pulsed():
    worst_time = 0.0
    exact = True
    for n in range(2, 31):
        case = gen_matmul_chain(n, 1, 20, random.Random(500 + n))
        res = run_case_eqsat(case, time_limit=10.0)
        worst_time = max(worst_time, res.wall_time)
        if res.best_cost != case.oracle_cost:
            exact = False
            break
    case200 = gen_matmul_chain(200, 1, 20, random.Random(4242))
    pulsed = run_case(case200, "eqsat-pulsed", RunConfig(), time_limit=10.0)
    pulse_ratio = pulsed.best_cost / case200.oracle_cost
    ok = exact and worst_time <= 10.0 and pulse_ratio <= 1.05
    assert _report(4, "EqSat exact for all n <= 30 in 10s; pulsed within 5% "
                      "at n = 200",
                   ok, f"worst n<=30 time {worst_time:.2f}s, "
                       f"pulsed ratio {pulse_ratio:.4f}")


def _chi2_uniformity(counts, expected):
    return sum((c - e) ** 2 / e for c, e in zip(counts, expected))


def test_c05_sampling_law():
    ln4 = math.log(4)
    deltas = [0.0, ln4, ln4]
    draws = 10000

    def frequencies(beta, seed):
        rng = random.Random(seed)
        counts = [0, 0, 0]
        for _ in range(draws):
            counts[sample_index(deltas, beta, rng)] += 1
        return counts

    counts_2 = frequencies(2.0, 11)
    chi2_beta2 = _chi2_uniformity(
        counts_2, [draws * 2 / 3, draws / 6, draws / 6])
    counts_0 = frequencies(0.0, 12)
    chi2_beta0 = _chi2_uniformity(counts_0, [draws / 3] * 3)
    ok = chi2_beta2 < CHI2_CRIT_DF2_P01 and chi2_beta0 < CHI2_CRIT_DF2_P01
    assert _report(5, "empirical successor frequencies match {2/3,1/6,1/6} "
                      "at beta=2 and uniform at beta=0 (chi-square p>0.01)",
                   ok, f"chi2={chi2_beta2:.2f}/{chi2_beta0:.2f} "
                       f"< {CHI2_CRIT_DF2_P01}")


def test_c06_needle_separation():
    # EqSat half: N = 16 solved within two iterations.
    nc = needle_case(16)
    g = EGraph()
    root = g.add_term(nc.input_term)
    g.rebuild()
    sched = BackoffScheduler()
    iters_needed = None
    for i in range(2):
        run_iteration(g, nc.ruleset, sched, i)
        if g.represents(root, nc.criterion.goal):
            iters_needed = i + 1
            break
    eqsat_ok = iters_needed is not None and iters_needed <= 2

    # Stochastic half: a 10,000-proposal budget, five seeds.  The flat
    # cost surface makes the expected hitting time Omega(2^N) steps, so the
    # budget must sit well below 2^N steps for failure to be the expected
    # outcome.  The walk is a birth-death chain on the number of b leaves
    # with N proposals per step (N + 1 at f(b..b)); solved exactly, it
    # reaches the goal within 10,000 proposals with probability 0.53 per
    # seed at N = 8 (1,250 steps, about 5 * 2^8) but 0.0008 at N = 16
    # (625 steps against 2^16 states).  At N = 16 a correct engine fails
    # >= 4/5 seeds with probability 0.99999.
    failures = 0
    spent = True
    for seed in range(5):
        cfg = RunConfig(workers=1, budget=1, seed=seed, max_proposals=10000)
        res = run_chain(nc.input_term, nc.ruleset, nc.cost_model, cfg,
                        target_cost=0)
        if res.best_term != nc.criterion.goal:
            failures += 1
            # A chain that stops early must not pass as a failure of search.
            spent = spent and res.proposals >= 10000
    stochastic_ok = failures >= 4 and spent
    ok = eqsat_ok and stochastic_ok
    assert _report(6, "needle N=16: EqSat <= 2 iterations; stochastic fails "
                      ">= 4/5 seeds, each spending a 10,000-proposal budget",
                   ok, f"eqsat iters={iters_needed}, "
                       f"stochastic failures={failures}/5, "
                       f"failed chains spent budget={spent}")


def test_c07_unsoundness_reproduction():
    rs = trig_ruleset()  # includes recip and cancel
    trap = parse_sexpr("(/ (- x x) (- x x))")
    g = EGraph()
    root = g.add_term(trap)
    extract_from, report = saturate(g, root, rs, EqsatConfig(iterations=10),
                                    checkpointing=True)
    best, _ = extract(extract_from, root, AstSize())
    flag_ok = report.contradiction and report.iterations <= 10
    verdict = fuzz_equiv(trap, best, samples=50, tol=1e-6)
    checkpoint_ok = report.restored_checkpoint and \
        not isinstance(verdict, Inequivalent)

    t0 = parse_sexpr("(+ (- (pow (sin x) 4) (pow (cos x) 4)) 1)")
    from rewrite_arena import EquivalenceValidator

    validator = EquivalenceValidator(t0, samples=30, tol=1e-6, seed=7)
    cfg = RunConfig(workers=1, budget=1, seed=7, max_steps=100_000)
    res = run_chain(t0, rs, AstSize(), cfg, validator=validator)
    final = fuzz_equiv(t0, res.best_term, samples=50, tol=1e-6)
    stochastic_ok = (res.steps >= 100_000 and res.unsound_restarts >= 0
                     and not isinstance(final, Inequivalent))
    ok = flag_ok and checkpoint_ok and stochastic_ok
    assert _report(7, "contradiction flagged <= 10 iterations with valid "
                      "checkpointed extraction; 1e5-step validated run "
                      "returns an equivalent answer",
                   ok, f"flag@{report.iterations} iters, extraction "
                       f"{type(verdict).__name__}, restarts="
                       f"{res.unsound_restarts}, final "
                       f"{type(final).__name__}")


def test_c08_trig_suite_both_engines():
    suite = builtin_suites()["trig"]
    cfg = RunConfig(workers=8, seed=42)
    st_solved = eq_solved = 0
    st_sin4 = eq_sin4 = False
    for case in suite:
        r_eq = run_case_eqsat(case, time_limit=10.0)
        r_st = run_case_stochastic(case, cfg, time_limit=10.0)
        eq_solved += r_eq.solved
        st_solved += r_st.solved
        if case.name == "trig-sin4-cos4":
            eq_sin4 = r_eq.solved and r_eq.best_cost <= 6
            st_sin4 = r_st.solved and r_st.best_cost <= 6
    need = math.ceil(0.7 * len(suite))
    ok = (eq_solved >= need and st_solved >= need and eq_sin4 and st_sin4)
    assert _report(8, "both engines solve >= 70% of the trig suite in 10s "
                      "at 8 workers, and sin^4-cos^4+1 to cost <= 6",
                   ok, f"eqsat {eq_solved}/{len(suite)}, stochastic "
                       f"{st_solved}/{len(suite)}, sin4 eq={eq_sin4} "
                       f"st={st_sin4}")


def test_c09_integration_example_and_cost_model():
    case = next(c for c in builtin_suites()["integration"]
                if c.name == "integ-x-cos")
    r_eq = run_case_eqsat(case, time_limit=10.0)
    solved = r_eq.solved
    if not solved:
        cfg = RunConfig(workers=8, seed=5)
        solved = run_case_stochastic(case, cfg, time_limit=10.0).solved
    lin_before = integ_cost(parse_sexpr("(int (+ x x) x)"))
    lin_after = integ_cost(parse_sexpr("(+ (int x x) (int x x))"))
    cost_ok = (lin_before, lin_after) == (16, 9)
    ok = solved and cost_ok
    assert _report(9, "integral of x cos x reaches the intended target in "
                      "10s; squared-children model makes linearity 16 -> 9",
                   ok, f"solved={solved}, costs {lin_before}->{lin_after}")


def test_c10_halide_paper_case_both_engines():
    case = next(c for c in builtin_suites()["halide-mini"]
                if c.name == "halide-paper")
    r_eq = run_case_eqsat(case, time_limit=3.0)
    cfg = RunConfig(workers=8, seed=3)
    r_st = run_case_stochastic(case, cfg, time_limit=3.0)
    ok = (r_eq.solved and r_eq.wall_time <= 3.0
          and r_st.solved and r_st.wall_time <= 3.5)
    assert _report(10, "both engines prove (< (max i 2) (max (+ i 3) 3)) "
                       "within 3 s",
                   ok, f"eqsat {r_eq.wall_time:.2f}s, "
                       f"stochastic {r_st.wall_time:.2f}s")


def test_c11_scaling():
    suite = builtin_suites()["trig"]
    # Throughput half: full-window runs, no early exit.
    rows = scaling_report(suite, [1, 8], RunConfig(seed=0), time_limit=2.5,
                          early_exit=False)
    rate_1 = rows[0]["proposals_per_sec"]
    rate_8 = rows[1]["proposals_per_sec"]
    speedup = rate_8 / rate_1
    throughput_ok = speedup >= 4.0

    # Solved-count half: 8 workers never behind 1 worker, 4 of 5 seeds.
    wins = 0
    for seed in range(5):
        solved = {}
        for workers in (1, 8):
            cfg = RunConfig(workers=workers, budget=workers, seed=seed)
            solved[workers] = sum(
                run_case_stochastic(case, cfg, time_limit=3.0).solved
                for case in suite)
        wins += solved[8] >= solved[1]
    solved_ok = wins >= 4
    ok = throughput_ok and solved_ok
    assert _report(11, "proposals/sec at 8 workers >= 4x the 1-worker rate; "
                       "solved count at 8 workers >= 1 worker in >= 4/5 seeds",
                   ok, f"speedup {speedup:.2f}x "
                       f"({rate_1:.0f} -> {rate_8:.0f}/s), "
                       f"solved wins {wins}/5")


def test_c12_determinism():
    from test_cli import run_cli, strip_wall_time

    args = ["bench", "trig", "--engine", "stochastic", "--workers", "1",
            "--seed", "7", "--max-steps", "2000", "--time-limit", "300",
            "--format", "csv"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    stochastic_ok = strip_wall_time(first) == strip_wall_time(second)

    eq_args = ["bench", "halide-mini", "--engine", "eqsat", "--format", "csv"]
    _, eq_first = run_cli(eq_args)
    _, eq_second = run_cli(eq_args)
    eqsat_ok = strip_wall_time(eq_first) == strip_wall_time(eq_second)
    ok = stochastic_ok and eqsat_ok
    assert _report(12, "single-worker reruns with one seed emit identical "
                       "result rows (wall-time column excluded)",
                   ok, f"stochastic={stochastic_ok}, eqsat={eqsat_ok}")
