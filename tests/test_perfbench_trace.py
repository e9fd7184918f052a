"""The benchmark's trace self-check, run in tier-1: every function that
perfbench requires to record a call on ``run-default`` does so, and so does
every function it requires on ``bruhat-factor``, since the default run
reaches those too.  A caller moved off a traced function would otherwise
fail only in the benchmark.  perfbench is read and run, never changed."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _must_call(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.MUST_CALL


def test_default_run_reaches_every_required_function(monkeypatch, tmp_path):
    must_call = _must_call(monkeypatch)
    out = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"),
                          "--workload", "run-default", "--seed", "1",
                          "--trace", str(tmp_path / "spans.txt")],
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failed"] == 0
    calls = {name: row["calls"] for name, row in result["trace"].items()}
    required = dict.fromkeys(must_call["run-default"] + must_call["bruhat-factor"])
    unreached = [name for name in required if not calls.get(name)]
    assert not unreached
