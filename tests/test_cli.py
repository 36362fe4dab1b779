import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rewrite_arena.cli import (
    _eqsat_config,
    _pinned_fields,
    _run_config,
    build_parser,
    main,
)
from rewrite_arena import runner
from rewrite_arena.runner import CSV_COLUMNS, EqsatConfig
from rewrite_arena.stochastic import RunConfig


def run_cli(args, env=None):
    """Run the CLI in-process, capturing stdout."""
    import contextlib

    buf = io.StringIO()
    old_env = {}
    env = env or {}
    for k, v in env.items():
        old_env[k] = os.environ.get(k)
        os.environ[k] = v
    try:
        with contextlib.redirect_stdout(buf):
            code = main(args)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


def strip_wall_time(csv_text):
    rows = list(csv.reader(io.StringIO(csv_text)))
    idx = rows[0].index("wall_time_s")
    return [tuple(v for i, v in enumerate(row) if i != idx) for row in rows]


def test_bench_csv_schema_and_determinism():
    args = ["bench", "halide-mini", "--engine", "stochastic",
            "--workers", "1", "--seed", "7", "--format", "csv",
            "--time-limit", "2"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == 0 and code2 == 0
    header = out1.splitlines()[0].split(",")
    assert header == CSV_COLUMNS
    assert strip_wall_time(out1) == strip_wall_time(out2)


def test_bench_time_limit_overrides_each_case_limit():
    code, out = run_cli(["bench", "needle", "--n", "16", "--engine",
                         "stochastic", "--workers", "1", "--time-limit", "0.5",
                         "--format", "csv"])
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert float(row["wall_time_s"]) < 2


@pytest.mark.parametrize("args, message", [
    (["bench", "matmul", "--n", "1", "--engine", "eqsat"], "two matrices"),
    (["bench", "matmul", "--dim-lo", "0", "--engine", "eqsat"], "dim_lo"),
    (["bench", "needle", "--n", "0"], "arity"),
    (["gen", "matmul", "--n", "1"], "two matrices"),
    (["gen", "matmul", "--dim-lo", "5", "--dim-hi", "2"], "dim_lo"),
    (["scale", "--workers-list", "0", "--time-limit", "0.1"], "worker count"),
])
def test_bad_sizes_exit_2_with_a_message(capsys, args, message):
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_bench_json_schema_versioned():
    code, out = run_cli(["bench", "needle", "--n", "6", "--engine", "eqsat",
                         "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    row = data["rows"][0]
    assert row["engine"] == "eqsat"
    assert row["solved"] == 1
    assert row["units"] <= 2
    assert "aggregate" in data


def test_bench_both_engines_partition():
    code, out = run_cli(["bench", "needle", "--n", "4", "--engine", "both",
                         "--format", "json", "--workers", "1", "--seed", "3",
                         "--time-limit", "2"])
    assert code == 0
    data = json.loads(out)
    agg = data["aggregate"]
    assert set(agg["partition"]) == {
        "both_solved", "only_eqsat", "only_stochastic", "neither"}
    assert sum(agg["partition"].values()) == 1


def test_engine_specific_flags_rejected():
    with pytest.raises(SystemExit) as err:
        run_cli(["bench", "trig", "--engine", "eqsat", "--workers", "4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["bench", "trig", "--engine", "stochastic",
                 "--iterations", "5"])
    assert err.value.code == 2


def test_bench_without_flags_takes_config_defaults(monkeypatch):
    monkeypatch.delenv("REWRITE_ARENA_SEED", raising=False)
    args = build_parser().parse_args(["bench", "trig"])
    assert _run_config(args) == RunConfig(workers=8)
    assert _eqsat_config(args) == EqsatConfig()
    assert _pinned_fields(args) == frozenset()


# (flag, value, config field it sets and pins)
TUNING_FLAGS = [
    ("--beta", "0.5", "beta"),
    ("--budget", "3", "budget"),
    ("--n-soft", "200", "n_soft"),
    ("--explore", "10", "explore"),
    ("--n-hard", "300", "n_hard"),
    ("--workers", "2", "workers"),
    ("--max-steps", "40", "max_steps"),
    ("--max-proposals", "50", "max_proposals"),
    ("--iterations", "4", "iterations"),
    ("--node-limit", "500", "nodes"),
    ("--pulse-iterations", "2", "pulse_iterations"),
    ("--match-limit", "7", "match_limit"),
    ("--ban-length", "6", "ban_length"),
]


@pytest.mark.parametrize("flag, value, field", TUNING_FLAGS)
def test_each_tuning_flag_sets_and_pins_its_field(monkeypatch, flag, value,
                                                  field):
    monkeypatch.delenv("REWRITE_ARENA_SEED", raising=False)
    args = build_parser().parse_args(["bench", "trig", flag, value])
    defaults = {"run": RunConfig(workers=8), "eqsat": EqsatConfig()}
    got = {"run": _run_config(args), "eqsat": _eqsat_config(args)}
    owner = "run" if hasattr(defaults["run"], field) else "eqsat"
    assert str(getattr(got[owner], field)) in (value, value + ".0")
    assert _pinned_fields(args) == frozenset({field})
    # Every other field keeps its default.
    got[owner] = replace(got[owner], **{field: getattr(defaults[owner], field)})
    assert got == defaults


def test_unknown_suite_exits_2():
    code, _ = run_cli(["bench", "definitely-not-a-suite"])
    assert code == 2


def test_unreadable_suite_file_exits_2():
    code, _ = run_cli(["bench", "/nonexistent/path/suite.json"])
    assert code == 2


def test_gen_matmul_roundtrips_through_bench(tmp_path):
    out_path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "4", "--count", "2",
                       "--seed", "5", "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["schema"] == 1 and len(data["cases"]) == 2
    code, out = run_cli(["bench", str(out_path), "--engine", "eqsat",
                         "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert all(r["solved"] == "1" for r in rows)
    assert all(float(r["ratio"]) == 1.0 for r in rows)


def test_output_file_written_atomically(tmp_path):
    out_path = tmp_path / "rows.csv"
    code, _ = run_cli(["bench", "needle", "--n", "3", "--engine", "eqsat",
                       "--format", "csv", "--output", str(out_path)])
    assert code == 0
    assert out_path.exists()
    assert not (tmp_path / "rows.csv.tmp").exists()
    header = out_path.read_text().splitlines()[0]
    assert header.split(",") == CSV_COLUMNS


def test_env_seed_overrides_flag():
    args = ["bench", "halide-mini", "--engine", "stochastic", "--workers",
            "1", "--seed", "7", "--format", "csv", "--time-limit", "2"]
    _, with_env = run_cli(args, env={"REWRITE_ARENA_SEED": "99"})
    _, with_flag = run_cli(["bench", "halide-mini", "--engine", "stochastic",
                            "--workers", "1", "--seed", "99", "--format",
                            "csv", "--time-limit", "2"])
    assert strip_wall_time(with_env) == strip_wall_time(with_flag)


def test_scale_rows(tmp_path):
    code, out = run_cli(["scale", "--suite", "halide-mini",
                         "--workers-list", "1", "--time-limit", "0.3",
                         "--seed", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["workers"] == 1
    assert rows[0]["proposals"] > 0
    assert rows[0]["proposals_per_sec"] > 0


def test_bench_with_case_level_jobs():
    code, out = run_cli(["bench", "halide-mini", "--engine", "eqsat",
                         "--format", "csv", "--jobs", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert all(r["solved"] == "1" for r in rows)


def test_list_subcommand():
    code, out = run_cli(["list"])
    assert code == 0
    for token in ("matmul", "needle", "trig", "integration", "halide-mini"):
        assert token in out


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "rewrite_arena.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "trig" in proc.stdout


def test_package_runs_as_a_module():
    import rewrite_arena

    src = str(Path(rewrite_arena.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rewrite_arena", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "trig" in proc.stdout


def test_scale_rejects_jobs():
    with pytest.raises(SystemExit) as err:
        run_cli(["scale", "--jobs", "2"])
    assert err.value.code == 2


def _write_suite(tmp_path, mutate):
    out_path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "3", "--count", "2",
                       "--seed", "1", "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    mutate(data["cases"][1])
    out_path.write_text(json.dumps(data))
    return out_path


@pytest.mark.parametrize("mutate, detail", [
    (lambda spec: spec.pop("ruleset"), "KeyError"),
    (lambda spec: spec.update(input="(* A1 A2"), "ParseError"),
    (lambda spec: spec.update(criterion={"kind": "nope"}), "ValueError"),
    (lambda spec: spec.update(dims={"A1": [2]}), "IndexError"),
    # Each of these once ran into an internal error, or (NaN) a case that
    # could never be solved.
    (lambda spec: spec["cost"]["dims"].pop("A3"), "unbound matrix leaf 'A3'"),
    (lambda spec: spec["cost"]["dims"].update(A2=[5, 4]),
     "DimensionError: dimension mismatch"),
    (lambda spec: spec["criterion"].update(value="abc"),
     "criterion value must be a finite number, got 'abc'"),
    (lambda spec: spec["criterion"].update(value=float("nan")), "got nan"),
    (lambda spec: spec.update(oracle="abc"),
     "oracle must be a finite number, got 'abc'"),
    # Both loaded, then ran without a word.
    (lambda spec: spec["criterion"].update(value=-1),
     "criterion value -1 is below 0, which the cost model never costs"),
    (lambda spec: spec["dims"].update(A2=[7, 7]),
     "dims of 'A2' are (7, 7), but the cost model has"),
])
def test_malformed_suite_case_exits_2_naming_it(tmp_path, capsys, mutate,
                                                detail):
    path = _write_suite(tmp_path, mutate)
    for engine in ("stochastic", "eqsat", "eqsat-pulsed", "both"):
        code, out = run_cli(["bench", str(path), "--engine", engine,
                             "--time-limit", "1"])
        err = capsys.readouterr().err
        assert code == 2 and out == "", engine
        assert "matmul-3-1" in err and detail in err
        assert "internal error" not in err


_NEEDLE = ["bench", "needle", "--n", "3", "--engine"]


@pytest.mark.parametrize("args, mutate, message", [
    ([*_NEEDLE, "eqsat", "--iterations", "-1"], None, "negative"),
    ([*_NEEDLE, "eqsat", "--match-limit", "-1"], None, "negative"),
    ([*_NEEDLE, "eqsat-pulsed", "--pulse-iterations", "0"], None,
     "pulse_iterations"),
    ([*_NEEDLE, "stochastic", "--max-proposals", "-5"], None, "negative"),
    ([*_NEEDLE, "stochastic", "--beta", "-1"], None, "beta"),
    ([*_NEEDLE, "stochastic", "--beta", "inf"], None, "beta"),
    (["bench", "matmul", "--count", "0"], None, "--count"),
    (["gen", "matmul", "--count", "0"], None, "--count"),
    (["scale", "--workers-list", ","], None, "--workers-list"),
    (["--engine", "eqsat"],
     lambda spec: spec.update(eqsat_overrides={"bogus": 1}), "'bogus'"),
    (["--engine", "eqsat"],
     lambda spec: spec.update(stochastic_overrides={"max_proposals": -5}),
     "negative"),
    # A NaN time limit never expired; a negative one ran nothing.
    ([*_NEEDLE, "stochastic", "--workers", "1", "--time-limit", "nan"], None,
     "time_limit"),
    ([*_NEEDLE, "eqsat", "--time-limit", "-1"], None, "time_limit"),
    (["--engine", "eqsat"],
     lambda spec: spec.update(time_limit=float("nan")), "time_limit"),
    (["--engine", "eqsat"], lambda spec: spec.update(time_limit=-1),
     "time_limit"),
    ([*_NEEDLE, "eqsat", "--jobs", "0"], None, "--jobs"),
    ([*_NEEDLE, "eqsat", "--jobs", "-1"], None, "--jobs"),
    # {missing} is a directory that does not exist.
    ([*_NEEDLE, "eqsat", "--output", "{missing}/x.csv"], None, "x.csv"),
    (["gen", "matmul", "--output", "{missing}/x.json"], None, "x.json"),
])
def test_out_of_range_tuning_exits_2_with_a_message(tmp_path, capsys, args,
                                                    mutate, message):
    args = [a.replace("{missing}", str(tmp_path / "missing")) for a in args]
    if mutate is not None:
        args = ["bench", str(_write_suite(tmp_path, mutate)), *args]
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert mutate is None or "matmul-3-1" in err


def test_unwritable_output_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code, _ = run_cli([*_NEEDLE, "eqsat", "--output", str(target)])
    assert code == 2 and "cannot write" in capsys.readouterr().err
    assert not (tmp_path / "out.tmp").exists()


def _no_case_may_run(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a case ran before the command was rejected")

    # Every engine starts in search or saturate.
    for name in ("run_case", "search", "saturate"):
        monkeypatch.setattr(runner, name, refuse)


@pytest.mark.parametrize("args", [
    [*_NEEDLE, "eqsat"],
    ["scale", "--suite", "halide-mini", "--workers-list", "1"],
])
def test_unwritable_output_fails_before_any_case_runs(tmp_path, capsys,
                                                      monkeypatch, args):
    _no_case_may_run(monkeypatch)
    target = tmp_path / "out"
    target.mkdir()
    code, out = run_cli([*args, "--output", str(target)])
    assert code == 2 and out == ""
    assert "cannot write" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["out"]


def test_pulsing_a_case_without_per_node_costs_exits_2(capsys, monkeypatch):
    _no_case_may_run(monkeypatch)
    code, out = run_cli(["bench", "needle", "--engine", "eqsat-pulsed"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "needle-8" in err
    assert "eqsat-pulsed" in err and "internal error" not in err


def test_extracting_a_case_without_per_node_costs_exits_2(tmp_path, capsys,
                                                          monkeypatch):
    def goal_cost(spec):
        spec["cost"] = {"model": "goal_indicator", "goal": spec["input"]}

    path = _write_suite(tmp_path, goal_cost)
    _no_case_may_run(monkeypatch)
    code, out = run_cli(["bench", str(path), "--engine", "eqsat"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "matmul-3-1" in err
    assert "engine eqsat " in err and "internal error" not in err


def _deep_suite(tmp_path, time_limit):
    """A suite file whose second case has a rule too deep to e-match."""
    deep = "(f " * 20 + "?x" + ")" * 20

    def case(name, rule):
        return {"name": name, "input": "(g a)", "rules": [rule],
                "cost": {"model": "ast_size"},
                "criterion": {"kind": "target_cost", "value": 1},
                "time_limit": time_limit}

    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"schema": 1, "suite": "deep", "cases": [
        case("shallow", "peel: (f ?x) => ?x"),
        case("stuck", f"deep: {deep} => ?x")]}))
    return path


@pytest.mark.parametrize("engine", ["eqsat", "eqsat-pulsed", "both"])
def test_a_rule_too_deep_to_ematch_exits_2(tmp_path, capsys, monkeypatch,
                                           engine):
    _no_case_may_run(monkeypatch)
    code, out = run_cli(["bench", str(_deep_suite(tmp_path, 1.0)),
                         "--engine", engine])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "stuck" in err and "deep" in err
    assert "internal error" not in err


def test_a_stochastic_chain_stuck_at_its_start_ends(tmp_path):
    # Neither case's start term admits a rewrite, and no time limit is
    # set: only the proposal cap could end the chain, and none is proposed.
    path = _deep_suite(tmp_path, None)
    proc = subprocess.run(
        [sys.executable, "-m", "rewrite_arena.cli", "bench", str(path),
         "--engine", "stochastic", "--workers", "1", "--max-proposals",
         "100", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [(r["case"], r["units"], r["hard_restarts"]) for r in rows] == [
        ("shallow", "0", "0"), ("stuck", "0", "0")]


def test_non_suite_json_exits_2(tmp_path):
    for text in ("{not json", "[1, 2]", '{"suite": "s"}'):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _ = run_cli(["bench", str(path)])
        assert code == 2


def test_gen_suite_file_rows_equal_direct_bench(tmp_path):
    # The suite file must carry the matmul cases' saturation overrides.
    out_path = tmp_path / "suite.json"
    gen = ["--n", "20", "--count", "3", "--seed", "0"]
    assert run_cli(["gen", "matmul", *gen, "--output", str(out_path)])[0] == 0
    args = ["--engine", "eqsat", "--format", "csv"]
    code, via_file = run_cli(["bench", str(out_path), *args])
    assert code == 0
    code, direct = run_cli(["bench", "matmul", *gen, *args])
    assert code == 0
    rows = strip_wall_time(via_file)
    assert rows == strip_wall_time(direct)
    solved = rows[0].index("solved")
    assert [r[solved] for r in rows[1:]] == ["1", "1", "1"]


# CSV rows minus wall_time_s of two seeded runs that repeat exactly.
_GOLDEN_HALIDE_BOTH = """\
engine,case,best_cost,oracle_cost,ratio,solved,units,unit_kind,hard_restarts,unsound_restarts
stochastic,halide-paper,0,,,1,63,proposals,0,0
eqsat,halide-paper,0,,,1,4,iterations,0,0
stochastic,halide-add-cancel,0,,,1,4,proposals,0,0
eqsat,halide-add-cancel,0,,,1,1,iterations,0,0
stochastic,halide-lt-next,0,,,1,3,proposals,0,0
eqsat,halide-lt-next,0,,,1,1,iterations,0,0
stochastic,halide-min-comm,0,,,1,25,proposals,0,0
eqsat,halide-min-comm,0,,,1,2,iterations,0,0
stochastic,halide-le-min,0,,,1,2,proposals,0,0
eqsat,halide-le-min,0,,,1,1,iterations,0,0
stochastic,halide-le-max,0,,,1,2,proposals,0,0
eqsat,halide-le-max,0,,,1,1,iterations,0,0
stochastic,halide-add-zero,0,,,1,9,proposals,0,0
eqsat,halide-add-zero,0,,,1,2,iterations,0,0
stochastic,halide-lt-sub,0,,,1,2,proposals,0,0
eqsat,halide-lt-sub,0,,,1,1,iterations,0,0
stochastic,halide-total,0,,,1,1,proposals,0,0
eqsat,halide-total,0,,,1,1,iterations,0,0
stochastic,halide-max-shift,0,,,1,63,proposals,0,0
eqsat,halide-max-shift,0,,,1,4,iterations,0,0
stochastic,halide-max-same,0,,,1,2,proposals,0,0
eqsat,halide-max-same,0,,,1,2,iterations,0,0
stochastic,halide-min-shift,9,,,0,3004,proposals,6,0
eqsat,halide-min-shift,0,,,1,4,iterations,0,0
"""

_GOLDEN_MATMUL_PULSED = """\
engine,case,best_cost,oracle_cost,ratio,solved,units,unit_kind,hard_restarts,unsound_restarts
eqsat-pulsed,matmul-12-0,1150,1150,1.0,1,9,iterations,0,0
eqsat-pulsed,matmul-12-1,960,960,1.0,1,6,iterations,0,0
"""


@pytest.mark.parametrize("args, golden", [
    (["halide-mini", "--engine", "both", "--workers", "1", "--seed", "1",
      "--max-proposals", "3000"], _GOLDEN_HALIDE_BOTH),
    (["matmul", "--n", "12", "--count", "2", "--seed", "1", "--engine",
      "eqsat-pulsed"], _GOLDEN_MATMUL_PULSED),
])
def test_bench_rows_match_golden(args, golden):
    code, out = run_cli(["bench", *args, "--format", "csv"])
    assert code == 0
    assert strip_wall_time(out) == [tuple(line.split(","))
                                    for line in golden.splitlines()]


def test_validated_case_with_a_numeral_beyond_doubles_exits_0(tmp_path):
    # 1e400 has no double: the validator must treat it as undefined, not
    # crash with an OverflowError.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema": 1, "suite": "big", "cases": [
        {"name": "big", "input": "(+ (* x 1e400) 0)", "ruleset": "trig",
         "cost": {"model": "ast_size"},
         "criterion": {"kind": "target_cost", "value": 1},
         "validate": True}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "rewrite_arena.cli", "bench", str(path),
         "--engine", "stochastic", "--workers", "1", "--max-proposals",
         "200", "--format", "csv"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [r["case"] for r in csv.DictReader(io.StringIO(proc.stdout))] \
        == ["big"]
