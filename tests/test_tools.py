"""tools/bench_pairs.py runs each benchmark free of stale bytecode."""
import importlib.util
import json
import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_benchmark_run_reads_and_writes_no_stale_bytecode(
        tmp_path, monkeypatch):
    # A run that loaded the bytecode an earlier run left beside its
    # sources read setup_s about half what a run compiling them did.
    bench_pairs = _bench_pairs()
    seen = []

    def run(cmd, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        seen.append((env["PYTHONDONTWRITEBYTECODE"], cache,
                     os.listdir(cache)))
        out = Path(cwd) / ".bench_out" / "BENCH_eqsat-matmul_seed3_trace0.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "metrics": {"wall_s": {"value": 1.0}}, "host": {"passes": 2},
            "signature": "0123456789abcdef", "problems": []}))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for _ in range(2):
        got = bench_pairs.run_once(tmp_path, "eqsat-matmul", 3, 1.0)
        assert got["signature"] == "0123456789ab"
    (flag, first, listed), (_, second, _) = seen
    assert flag == "1" and listed == []
    assert first != second and not os.path.exists(first)
