import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from rewrite_arena.cli import (
    _eqsat_config,
    _pinned_fields,
    _run_config,
    build_parser,
    main,
)
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
])
def test_malformed_suite_case_exits_2_naming_it(tmp_path, capsys, mutate,
                                                detail):
    path = _write_suite(tmp_path, mutate)
    code, out = run_cli(["bench", str(path), "--engine", "eqsat"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
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
])
def test_out_of_range_tuning_exits_2_with_a_message(tmp_path, capsys, args,
                                                    mutate, message):
    if mutate is not None:
        args = ["bench", str(_write_suite(tmp_path, mutate)), *args]
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert mutate is None or "matmul-3-1" in err


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
