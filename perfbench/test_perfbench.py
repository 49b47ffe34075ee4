"""The benchmark's own test: every workload at the tiny size.

Run from the repository root (not part of tier-1, which collects
``tests/`` only)::

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace, section):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "CHECK FAILED" not in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name in ("error_rate", "sim_p50_us", "sim_gbps"):
            assert name in done.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_child_spans():
    sys.path.insert(0, str(HERE))
    from spans import Tracer

    tracer = Tracer("unit")
    tracer.spans = [
        ["ssd.offload", 0.0, 10.0, -1],
        ["sim.loop", 1.0, 7.0, 0],
        ["flash.program", 2.0, 3.0, 1],
        ["flash.ecc_encode", 2.2, 2.7, 2],
    ]
    assert tracer.self_times() == pytest.approx([4.0, 5.0, 0.5, 0.5])
