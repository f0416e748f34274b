"""Self-test of the benchmark at tiny sizes (--smoke).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, GROUP_METRICS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WHY, WORKLOADS  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics(workload):
    printed, result = parse(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in END_TO_END:
        assert printed[name][1] == unit
    assert printed["failed_ratio"] == (0.0, "ratio")


# per-layer metrics each workload must move, at smoke sizes too
EXERCISED = {
    "built-ladder": ("constructions.build.s", "core.comb_certificate.s",
                     "core.majority_certificate.s", "families.minus_color.calls",
                     "families.maximum_matching.f2.edges", "families.find_member.f1.calls"),
    "perturbed": ("cli.coloring_from_document.s", "transforms.improve_toward_combed.calls",
                  "families.find_member_containing.calls", "verify.is_polychromatic.violated_ratio"),
    "search": ("search.brute_force_poly.nodes", "search.structured_poly.nodes",
               "families.enumerate_members.members", "search.brute_force_poly.self_s"),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_per_layer_metrics(workload):
    proc = bench(workload, 1)
    printed, result = parse(proc)
    assert result["correct"] and result["failed"] == 0
    assert "absent hooks" not in proc.stdout
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _ in PER_LAYER}
    assert {n: u for n, (_, u) in printed.items() if n != "failed_ratio"} == \
        {n: u for n, u, _ in PER_LAYER}
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
    for name in ("verify.is_polychromatic.calls", *EXERCISED[workload]):
        assert result["metrics"][name]["value"] > 0, name


def test_all_runs_every_workload_and_group_metric():
    printed, result = parse(bench("all", 0))
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m, _ in END_TO_END}
    assert set(GROUP_METRICS) <= set(printed)
    assert all(printed[m][1] == "s" for m in GROUP_METRICS)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY


def test_without_the_package_it_fails_without_a_result():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = bench("built-ladder", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
