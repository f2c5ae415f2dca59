"""Smoke tests for the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/tests

Each run sends three ops per round for about a second.  The tests check the
output contract (every metric named in BENCHMARK.json, with its unit, and no
failed op) and that each workload bypasses the layers it should.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7"]
        + ["--seconds", "1", "--trace", str(trace), "--limit", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_contract(lines, result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in spec_metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split(" = ")[0]: line.split()[-1] for line in lines if " = " in line}
    for name, unit in units.items():
        assert printed[name] == unit
    assert "error_ratio = 0 ratio" in lines[-2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = run(workload, 0)
    assert_contract(lines, result, SPEC["end_to_end"])
    meta = json.loads(lines[0])["meta"]
    assert meta["seed"] == 7 and meta["ops_per_round"] >= 1 and meta["nproc"] >= 1


@pytest.mark.parametrize("workload", ["rewrite-stream", "numeric-sweep"])
def test_traced_run_shows_bypassed_layers(workload):
    lines, result = run(workload, 1)
    assert_contract(lines, result, SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "rewrite-stream":
        assert m["grammar.evaluate.calls"] > 0
        assert m["hopf.tensor_multiply.calls"] == 0
        assert all(v == 0 for k, v in m.items() if k.startswith("crossproduct."))
    else:
        assert m["kinematics.sweep_rows.calls"] > 0
        assert all(v == 0 for k, v in m.items() if k.startswith("scalars."))


def test_tracer_rebinds_every_import_by_name():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import kappahopf\n"
        "from kappahopf import cli, crossproduct, grammar, hopf\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "assert crossproduct.coproduct is hopf.coproduct is grammar.coproduct\n"
        "assert kappahopf.coproduct is hopf.coproduct\n"
        "assert cli.check_jacobi is hopf.check_jacobi\n"
        "assert hopf.coproduct.__wrapped__.__module__ == 'kappahopf.hopf'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(BENCH)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
