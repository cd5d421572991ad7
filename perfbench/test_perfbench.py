"""Tests of the benchmark itself; they are not part of the package's suite.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs perfbench/run.py as BENCHMARK.json's command does, with short
runs, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]

# Counts and mapping outcomes a later change may rest a claim on; together
# with every ``*.calls`` metric they must repeat exactly for one seed.
EXACT = {
    "lut.keys_looked_up",
    "crossbar.bit_matmuls",
    "crossbar.binary_macs",
    "io.bytes_read",
    "io.bytes_written",
    "mapping.bitflip.flipped_share",
    "mapping.signflip.flipped_share",
    "quality.err_per_weight",
    "harness.bitflip_recovery",
}


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (last_json(run_bench(workload, 7, 1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == PER_LAYER
    exact = [n for n in PER_LAYER if n in EXACT or n.endswith(".calls")]
    if workload == "sweep":
        # The eval report carries the map_seconds timing column, so the
        # number of bytes written varies with the digits of those timings.
        exact.remove("io.bytes_written")
    assert {n: first["metrics"][n] for n in exact} == {
        n: second["metrics"][n] for n in exact
    }


def test_plain_run_reports_end_to_end_metrics():
    result = last_json(run_bench("cli_io", 3, 0))
    assert result["correct"] and result["attempted"] >= 3 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package():
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("sweep", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
