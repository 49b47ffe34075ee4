"""``tools/bench_diff.py`` and the committed ``BENCH_trajectory.jsonl``."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_diff", REPO / "tools" / "bench_diff.py")
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def _row(commit, workload, wall, fingerprint="aa"):
    return {
        "commit": commit, "workload": workload, "seed": 7, "repeats": 3,
        "wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 40.0,
        "fingerprint": fingerprint, "host": "test",
    }


def test_diff_compares_the_last_two_rows_per_workload():
    rows = [
        _row("c1", "zns-lsm", 4.0),
        _row("c1", "fleet-hedged", 1.0),
        _row("c2", "zns-lsm", 2.0),
        _row("c3", "zns-lsm", 1.0, fingerprint="bb"),
    ]
    lines = bench_diff.diff(rows)
    assert "zns-lsm: c2 -> c3" in lines
    assert any("wall_s" in line and "(-50.0%)" in line for line in lines)
    assert any("setup_s" in line and "(+0.0%)" in line for line in lines)
    assert any(line.strip().startswith("fingerprint") and "CHANGED" in line for line in lines)
    assert "fleet-hedged: only one row (c1)" in lines


def test_committed_trajectory_rows_are_complete():
    rows = bench_diff.load(bench_diff.TRAJECTORY)
    keys = {"commit", "workload", "seed", "repeats", "fingerprint", "host", *bench_diff.METRICS}
    assert rows
    for row in rows:
        assert keys <= set(row), row
        assert row["workload"] in bench_diff.WORKLOADS
    assert bench_diff.diff(rows)
