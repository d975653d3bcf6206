"""Tests of the benchmark itself, at the tiny input sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_workloads
import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench_cli(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert WORKLOADS == list(bench_workloads.WORKLOADS)
    assert BENCH["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in BENCH["end_to_end"]) == BENCH["end_to_end"][0]["bound"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_benchmark_metrics(workload, trace):
    proc = bench_cli(ROOT, workload, trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "network":
        # counts repeat exactly: 4 s of the handover network
        assert result["metrics"]["kernel.enum_calls"]["value"] == 48
        assert result["metrics"]["simulator.trace_events"]["value"] == 51


def test_wrong_expected_answer_shows_in_ok_ratio():
    expect = dict(bench_workloads.EXPECT["verify"]["tiny"], weak_tau=False)
    result = run.run("verify", 0, 0.1, False, "tiny", expect=expect)
    reps = result["attempted"] // bench_workloads.Verify.items
    assert result["failed"] == reps >= 1
    assert not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - 1 / bench_workloads.Verify.items)


def test_traced_run_restores_the_package():
    from hybridpi import equivalence, kernel, simulator

    before = (kernel.refresh, simulator.prune, simulator.simulate, equivalence.build_lts)
    result = run.run("verify", 0, 0.1, True, "tiny")
    assert result["metrics"]["equivalence.lts_states"]["value"] > 0
    assert (kernel.refresh, simulator.prune, simulator.simulate, equivalence.build_lts) == before
    # the set-up's fresh imports leave the loaded modules in place
    assert sys.modules["hybridpi.kernel"] is kernel


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_cli(tmp_path, "network", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
