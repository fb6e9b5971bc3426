"""Smoke-size runs of every benchmark workload.

Checks that each run emits exactly the metrics BENCHMARK.json names, with
their units, and that the output checks pass; that the benchmark refuses to
run without the chirpim sources; and that the stored bler reference rows
are still what the default seed produces.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stdout
    assert result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: e["unit"] for name, e in result["metrics"].items()} == named
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.fixture(scope="module")
def modules():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run
        import workloads
    finally:
        del sys.path[:2]
    return run, workloads


def test_spec_matches_the_benchmark(modules):
    run, workloads = modules
    assert [{"name": wl.name, "why": f"Op: {wl.operation}. {wl.why}"}
            for wl in workloads.WORKLOADS.values()] == SPEC["workloads"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_bler_reference_rows_match_default_seed(modules):
    run, workloads = modules
    wl = workloads.WORKLOADS["bler-paper"]
    rows = wl.run(wl.config(run.chunk_seed(run.DEFAULT_SEED, 0), wl.chunk))
    reference = HERE / "reference" / f"bler-paper-seed{run.DEFAULT_SEED}.json"
    assert rows == json.loads(reference.read_text())
