import contextlib
import copy
import csv
import functools
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rewrite_arena.benchmarks import (builtin_suites, case_to_spec,
                                      needle_case, suite_from_json,
                                      suite_to_json)
from rewrite_arena.cli import (
    _eqsat_config,
    _load_cases,
    _pinned_fields,
    _run_config,
    build_parser,
    main,
)
from rewrite_arena import cli, runner, stochastic
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


def test_env_seed_overrides_the_gen_seed(monkeypatch):
    gen = ["gen", "matmul", "--n", "3", "--count", "1"]
    monkeypatch.delenv("REWRITE_ARENA_SEED", raising=False)
    _, seed_0 = run_cli(gen)
    _, with_flag = run_cli([*gen, "--seed", "5"])
    monkeypatch.setenv("REWRITE_ARENA_SEED", "5")
    code, with_env = run_cli(gen)
    assert code == 0 and with_env == with_flag != seed_0


@pytest.mark.parametrize("args", [
    ["gen", "matmul", "--n", "3", "--count", "1"],
    ["bench", "needle", "--n", "3", "--engine", "eqsat"],
    ["scale", "--workers-list", "1", "--time-limit", "0.1"],
])
def test_a_non_integer_env_seed_exits_2(capsys, monkeypatch, args):
    monkeypatch.setenv("REWRITE_ARENA_SEED", "five")
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: REWRITE_ARENA_SEED must be an integer")


def test_scale_rows(tmp_path):
    code, out = run_cli(["scale", "--suite", "halide-mini",
                         "--workers-list", "1", "--time-limit", "0.3",
                         "--seed", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["workers"] == 1
    assert rows[0]["proposals"] > 0
    assert rows[0]["proposals_per_sec"] > 0
    # Why a worker count can outrun the CPUs: its chains share processes.
    assert rows[0]["usable_cpus"] == stochastic.usable_cpus()
    assert rows[0]["processes"] == 1
    code, out = run_cli(["scale", "--suite", "halide-mini",
                         "--workers-list", "1,3", "--time-limit", "0.2",
                         "--seed", "2", "--format", "csv"])
    assert code == 0
    header, *lines = list(csv.reader(io.StringIO(out)))
    assert header == [*rows[0]] and len(lines) == 2
    assert [int(line[header.index("processes")]) for line in lines] == \
        [1, min(3, stochastic.usable_cpus())]


def test_bench_with_case_level_jobs():
    code, out = run_cli(["bench", "halide-mini", "--engine", "eqsat",
                         "--format", "csv", "--jobs", "2"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert all(r["solved"] == "1" for r in rows)


@pytest.mark.parametrize("suite, cpus, want", [
    (["halide-mini"], 4, [4]),  # 8 jobs on 4 usable CPUs
    (["halide-mini"], 16, [8]),  # 8 jobs on 12 cases and 16 CPUs
    (["needle", "--n", "3"], 16, []),  # one case runs in-process
])
def test_bench_starts_at_most_one_process_per_case_and_usable_cpu(
        monkeypatch, suite, cpus, want):
    started = []

    class Recording:
        """The pool's interface, run in-process; records its size."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(stochastic.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    code, out = run_cli(["bench", *suite, "--engine", "eqsat", "--jobs", "8",
                         "--format", "csv"])
    assert code == 0 and started == want
    assert all(r["solved"] == "1" for r in csv.DictReader(io.StringIO(out)))


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


@pytest.mark.parametrize("flag", [["--node-limit", "5"], ["--budget", "4"]])
def test_scale_rejects_flags_it_does_not_read(capsys, flag):
    # Scale runs no e-graph and sets the budget to each worker count.
    with pytest.raises(SystemExit) as err:
        run_cli(["scale", "--workers-list", "1", "--time-limit", "0.2", *flag])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


def _write_suite(tmp_path, mutate):
    out_path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "3", "--count", "2",
                       "--seed", "1", "--output", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    mutate(data["cases"][1])
    out_path.write_text(json.dumps(data))
    return out_path


def _set_a1(spec, shape):
    spec["dims"]["A1"] = spec["cost"]["dims"]["A1"] = shape


@pytest.mark.parametrize("mutate, detail", [
    (lambda spec: spec.pop("ruleset"), "KeyError"),
    (lambda spec: spec.update(input="(* A1 A2"), "ParseError"),
    (lambda spec: spec.update(criterion={"kind": "nope"}), "ValueError"),
    (lambda spec: spec.update(dims={"A1": [2]}),
     "dims of 'A1' must be two integers of at least 1, got [2]"),
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
    # These loaded as True, or (the string "5") as 5.0.
    (lambda spec: spec.update(checkpointing="false"),
     "checkpointing must be true or false, got 'false'"),
    (lambda spec: spec.update(validate="no"),
     "validate must be true or false, got 'no'"),
    (lambda spec: spec.update(
        rules=["assoc: (* (* ?a ?b) ?c) <=> (* ?a (* ?b ?c))"],
        fold_constants="false"),
     "fold_constants must be true or false, got 'false'"),
    # A step named fold replayed as this rule or as constant folding.
    (lambda spec: spec.update(
        rules=["fold: (* (* ?a ?b) ?c) => (* ?a (* ?b ?c))"],
        fold_constants=True),
     "rule name 'fold' is the constant-fold step's in a folding ruleset"),
    (lambda spec: spec.update(time_limit="5"),
     "time_limit must be a finite number, got '5'"),
    # Both loaded as (4, 16): truncated, or converted from a string.
    (lambda spec: _set_a1(spec, [4.5, 16]), "got [4.5, 16]"),
    (lambda spec: _set_a1(spec, ["4", 16]), "got ['4', 16]"),
    # This loaded and ran a case that could never be solved.
    (lambda spec: spec.update(criterion={"kind": "reach_term",
                                         "goal": "(* A1 Q)"}),
     "unbound matrix leaf 'Q'"),
    # The first two ran into an internal error, the others ran as given.
    (lambda spec: spec.update(stochastic_overrides={"budget": 1.5}),
     "budget must be an integer, got 1.5"),
    (lambda spec: spec.update(stochastic_overrides={"seed": "x"}),
     "seed must be an integer, got 'x'"),
    (lambda spec: spec.update(stochastic_overrides={"max_steps": 10.5}),
     "max_steps must be an integer, got 10.5"),
    (lambda spec: spec.update(stochastic_overrides={"workers": True}),
     "workers must be an integer, got True"),
    (lambda spec: spec.update(stochastic_overrides={"beta": True}),
     "beta must be a number, got True"),
    (lambda spec: spec.update(eqsat_overrides={"iterations": 2.5}),
     "iterations must be an integer, got 2.5"),
    (lambda spec: spec.update(eqsat_overrides={"nodes": 1e9}),
     "nodes must be an integer, got 1000000000.0"),
    (lambda spec: spec.update(eqsat_overrides={"pulse_iterations": 1.5}),
     "pulse_iterations must be an integer, got 1.5"),
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


def _bench_rejects(path, capsys, case, detail):
    code, out = run_cli(["bench", str(path), "--engine", "both",
                         "--time-limit", "1", "--workers", "1"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert case in err and detail in err


# Each of these three lies once loaded and ran a case that could never be
# solved.
def test_suite_target_below_the_oracle_exits_2(tmp_path, capsys):
    def lie(spec):
        spec["criterion"]["value"] = spec["oracle"] - 1

    _bench_rejects(_write_suite(tmp_path, lie), capsys, "matmul-3-1",
                   "is below the oracle")


def test_suite_oracle_off_the_chain_optimum_exits_2(tmp_path, capsys):
    _bench_rejects(_write_suite(tmp_path, lambda spec: spec.update(oracle=1)),
                   capsys, "matmul-3-1", "oracle 1 is not")


def test_suite_dims_that_no_model_reads_exits_2(tmp_path, capsys):
    # With its model set to ast_size, matmul-3-1 kept the chain's oracle,
    # dropped its dims and ran to ratio 384.0.
    def unread(spec):
        spec["cost"] = {"model": "ast_size"}

    _bench_rejects(_write_suite(tmp_path, unread), capsys, "matmul-3-1",
                   "dims are given, but no model is matmul")


def test_suite_goal_indicator_off_the_criterion_goal_exits_2(tmp_path,
                                                             capsys):
    # With its model's goal set to its input, needle-3's early-exit target
    # was met at the input, so the chain stopped unsolved.
    spec = case_to_spec(needle_case(3))
    spec["cost"]["goal"] = spec["input"]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"schema": 1, "cases": [spec]}))
    _bench_rejects(path, capsys, "needle-3",
                   "the cost model's goal (f3 a a a) is not")


def _renamed_suite(tmp_path, names):
    """A generated matrix suite file whose cases are named names."""
    path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "3", "--count", str(len(names)),
                       "--seed", "1", "--output", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    for spec, name in zip(data["cases"], names):
        spec["name"] = name
    path.write_text(json.dumps(data))
    return path


# Rows are keyed by case name.  A list-valued name exited 3 (internal
# error: TypeError: unhashable type: 'list'), the other bad names loaded
# and ran, and three cases named `same` ran and reported "cases": 1.
def test_a_list_valued_case_name_exits_2(tmp_path, capsys):
    _bench_rejects(_renamed_suite(tmp_path, ["a", ["b"]]), capsys, "case 1",
                   "name ['b'] is empty, not a string")


@pytest.mark.parametrize("name", [5, None, True, ""])
def test_a_case_name_that_is_not_a_non_empty_string_exits_2(tmp_path, capsys,
                                                            name):
    _bench_rejects(_renamed_suite(tmp_path, ["a", name]), capsys, "case 1",
                   f"name {name!r} is empty, not a string")


def test_cases_that_share_a_name_exit_2(tmp_path, capsys):
    _bench_rejects(_renamed_suite(tmp_path, ["same"] * 3), capsys, "case 1",
                   "name 'same' is empty, not a string or an earlier case's")


def test_every_builtin_suite_and_a_gen_matmul_file_have_unique_case_names(
        tmp_path):
    suites = {name: [case.name for case in cases]
              for name, cases in builtin_suites().items()}
    path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "4", "--count", "12",
                       "--seed", "5", "--output", str(path)])
    assert code == 0
    suites["gen matmul"] = [case.name for case in
                            suite_from_json(path.read_text())[1]]
    assert len(suites["gen matmul"]) == 12
    for suite, names in suites.items():
        assert all(names) and len(set(names)) == len(names), suite


@functools.cache
def _fuzz_bases():
    """Suite file contents to fuzz: each curated family and a gen matmul
    file."""
    bases = {name: json.loads(suite_to_json(name, cases))
             for name, cases in builtin_suites().items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "suite.json"
        assert run_cli(["gen", "matmul", "--n", "4", "--count", "3",
                        "--seed", "2", "--output", str(path)])[0] == 0
        bases["gen matmul"] = json.loads(path.read_text())
    return bases


# Values that some fields accept, then wrong types, edge numbers,
# malformed s-expressions and rule lines, an empty rules list, and a rule
# that nests the e-matcher 100 levels deep.  Operator names start with fz-
# so that no other test meets their arities.
_FUZZ_VALUES = [
    "x", 1, 10, 0, 1.5, "(+ x 0)", "trig", {"model": "ast_size"}, False,
    None, True, -1, 1e308, float("inf"), float("nan"), 2 ** 64, "", [], {},
    [1], {"a": 1}, "(", "(+ 1", "()", "(1 x)", "(+ 1 2) x",
    "(sin)", "(fz-op a b)", "r: (+ ?a 0) => ?a", ["no colon"],
    ["r: (+ ?a 0)"], ["r: ?a => ?b"], ["r: (+ ?a 0) => ?a if zero(?a)"],
    ["r: (+ ?a 0) => ?a if nonzero(?b)"], ["r: (+ ?a => ?a"],
    ["fz-wide: (fz-wide" + " ?a" * 100 + ") => ?a"],
]


def _fuzz_fields(suite):
    """(path, value) of every field in the suite's cases, and (path, None)
    of each case's optional fields that it lacks."""
    def walk(value, path):
        yield path, value
        items = (value.items() if isinstance(value, dict) else
                 enumerate(value) if isinstance(value, list) else ())
        for key, sub in items:
            yield from walk(sub, (*path, key))

    for i, spec in enumerate(suite["cases"]):
        yield from walk(spec, ("cases", i))
        for key in ("rules", "dims", "intended", "eqsat_overrides"):
            if key not in spec:
                yield ("cases", i, key), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_fuzzed_suite_file_exits_0_or_2_and_counts_every_case(data):
    base = _fuzz_bases()[data.draw(st.sampled_from(sorted(_fuzz_bases())))]
    # A value is drawn from the pool or moved from another field.
    fields = list(_fuzz_fields(base))
    values = st.one_of(st.sampled_from(_FUZZ_VALUES),
                       st.sampled_from([value for _, value in fields]))
    suite = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, key = data.draw(st.sampled_from([p for p, _ in fields]))
        value = copy.deepcopy(data.draw(values))
        with contextlib.suppress(LookupError, TypeError):  # a path gone
            functools.reduce(lambda at, k: at[k], parents, suite)[key] = value
    engine = data.draw(st.sampled_from(
        ["stochastic", "eqsat", "eqsat-pulsed", "both"]))
    budgets = {"stochastic": ["--workers", "1", "--max-proposals", "200"],
               "eqsat": ["--iterations", "2"]}
    args = [arg for owner, flags in budgets.items()
            if engine.startswith(owner) or engine == "both" for arg in flags]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(suite))
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["bench", str(path), "--engine", engine,
                                 *args, "--format", "json"])
    assert code in (0, 2) and "internal error" not in err.getvalue(), \
        err.getvalue()
    if code == 0:
        aggregate, cases = json.loads(out)["aggregate"], len(suite["cases"])
        assert aggregate["cases"] == cases
        assert all(stats["total"] == cases
                   for stats in aggregate["engines"].values())
        if engine == "both":
            assert sum(aggregate["partition"].values()) == cases


def test_gen_matmul_writes_the_cases_bench_matmul_builds(tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv("REWRITE_ARENA_SEED", raising=False)
    path = tmp_path / "suite.json"
    code, _ = run_cli(["gen", "matmul", "--n", "4", "--count", "3",
                       "--seed", "5", "--output", str(path)])
    assert code == 0
    _, written = suite_from_json(path.read_text())
    args = build_parser().parse_args(["bench", "matmul", "--n", "4",
                                      "--count", "3", "--seed", "5"])
    built = _load_cases(args, _run_config(args))
    assert len(built) == 3
    assert [(c.name, c.dims, c.oracle_cost) for c in written] == \
        [(c.name, c.dims, c.oracle_cost) for c in built]


def test_every_config_field_but_the_seed_has_a_tuning_flag():
    # A field no flag sets could be set only by tests.
    flagged = {(owner, field)
               for owner, field, _, _ in cli.TUNING_FLAGS.values()}
    assert flagged == (
        {("stochastic", f.name) for f in fields(RunConfig) if f.name != "seed"}
        | {("eqsat", f.name) for f in fields(EqsatConfig)})


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


def _read_fifo(path, nbytes=-1):
    """A started thread that opens the FIFO at path, reads nbytes of it
    (all, by default) into the list it returns, and closes it."""
    got = []

    def read():
        with open(path, "rb") as fh:
            got.append(fh.read(nbytes))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    return reader, got


def _join(reader, path):
    """Wait for a _read_fifo thread; if no writer ever opened the FIFO,
    open it once so the reader's own open returns."""
    reader.join(timeout=30)
    if reader.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)


@pytest.mark.parametrize("args", [
    ["gen", "matmul", "--n", "2", "--count", "1"],
    [*_NEEDLE, "eqsat", "--format", "json"],
])
def test_output_to_a_fifo_is_written_in_place(tmp_path, args):
    fifo = tmp_path / "rows"
    os.mkfifo(fifo)
    reader, got = _read_fifo(fifo)
    try:
        code, out = run_cli([*args, "--output", str(fifo)])
    finally:
        _join(reader, fifo)
    assert code == 0 and out == ""
    assert json.loads(got[0])
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["rows"]


def test_a_failed_write_to_a_fifo_exits_2(tmp_path, capsys):
    # The reader takes one byte and leaves; the rest (over 64 KiB, more
    # than a pipe holds) then cannot be written.
    fifo = tmp_path / "rows"
    os.mkfifo(fifo)
    reader, got = _read_fifo(fifo, 1)
    try:
        code, out = run_cli(["gen", "matmul", "--n", "40", "--count", "20",
                             "--output", str(fifo)])
    finally:
        _join(reader, fifo)
    assert code == 2 and out == "" and got == [b"{"]
    assert f"cannot write {fifo}: " in capsys.readouterr().err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["rows"]


def test_output_through_a_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "data" / "rows.json"
    target.parent.mkdir()
    target.write_text("old\n")
    link = tmp_path / "rows.json"
    link.symlink_to(target)
    code, _ = run_cli([*_NEEDLE, "eqsat", "--format", "json",
                       "--output", str(link)])
    assert code == 0 and link.is_symlink()
    assert json.loads(target.read_text())["rows"]
    assert sorted(os.listdir(tmp_path)) == ["data", "rows.json"]
    assert os.listdir(target.parent) == ["rows.json"]


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
        # Dims and oracle go too: no model would read them, and that fails
        # the load before the engine check runs.
        spec["cost"] = {"model": "goal_indicator", "goal": spec["input"]}
        del spec["dims"], spec["oracle"]

    path = _write_suite(tmp_path, goal_cost)
    _no_case_may_run(monkeypatch)
    code, out = run_cli(["bench", str(path), "--engine", "eqsat"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "matmul-3-1" in err
    assert "engine eqsat " in err and "internal error" not in err


def _deep_suite(tmp_path, time_limit, deep="(f " * 20 + "?x" + ")" * 20):
    """A suite file whose second case has a rule too deep to e-match, with
    the left-hand side `deep`."""

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


@pytest.mark.parametrize("engine", ["eqsat", "eqsat-pulsed", "both"])
def test_a_rule_too_wide_to_ematch_exits_2(tmp_path, capsys, monkeypatch,
                                           engine):
    # Each repeated variable or literal leaf nests the compiled e-matcher a
    # level deeper; both exited 3 on Python's indentation limit.
    _no_case_may_run(monkeypatch)
    for deep in ("(wide" + " ?x" * 120 + ")",
                 "(wide-ones" + " 1" * 120 + " ?x)"):
        code, out = run_cli(["bench", str(_deep_suite(tmp_path, 1.0, deep)),
                             "--engine", engine])
        err = capsys.readouterr().err
        assert code == 2 and out == "" and "internal error" not in err
        assert err.startswith("error: case stuck: rule deep: pattern (wide")


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
