"""The committed perf trajectory: record perfbench rows, diff the last two.

``BENCH_trajectory.jsonl`` at the repository root holds one JSON object
per line and per workload: the commit measured, the workload and seed, the
wall/setup/peak-RSS medians of ``perfbench/run.py``, the number of
repeats, the simulated fingerprint and a host description. A fingerprint
that changes between two rows of one workload means the simulated model
changed, not just its speed.

Diff the last two rows of every workload (the default)::

    python3 tools/bench_diff.py

Append one row per workload for the checkout at ``--root`` (default: this
one), measured with ``perfbench/run.py --seconds SECONDS``::

    python3 tools/bench_diff.py record --commit abc1234 --seconds 0

Host times are noisy on shared machines; a diff is a pointer, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO / "BENCH_trajectory.jsonl"
WORKLOADS = ("fleet-hedged", "zns-lsm", "dse-sweep", "sql-tpch")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")

_HEADER = re.compile(
    r"^workload (?P<workload>\S+)\s+seed (?P<seed>\d+)\s+.*repeats (?P<repeats>\d+)"
    r"\s+fingerprint (?P<fingerprint>[0-9a-f]+)"
)


def load(path: Path) -> List[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def diff(rows: List[dict]) -> List[str]:
    """One line per metric for every workload with at least two rows."""
    by_workload: Dict[str, List[dict]] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    lines = []
    for workload, history in by_workload.items():
        if len(history) < 2:
            lines.append(f"{workload}: only one row ({history[0]['commit']})")
            continue
        old, new = history[-2], history[-1]
        lines.append(f"{workload}: {old['commit']} -> {new['commit']}")
        for metric in METRICS:
            before, after = old[metric], new[metric]
            change = (after - before) / before * 100.0 if before else float("nan")
            lines.append(f"  {metric:<12} {before:10.4f} -> {after:10.4f}  ({change:+.1f}%)")
        same = old["fingerprint"] == new["fingerprint"]
        lines.append(
            f"  fingerprint  {old['fingerprint']} -> {new['fingerprint']}"
            f"  ({'same' if same else 'CHANGED'})"
        )
    return lines


def measure(root: Path, workload: str, seconds: float) -> dict:
    """Run ``perfbench/run.py`` for one workload and parse its report."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed on {workload}:\n{done.stdout}{done.stderr}")
    header = _HEADER.match(lines[0])
    if header is None:
        raise SystemExit(f"unexpected perfbench header: {lines[0]!r}")
    metrics = json.loads(lines[-1])["metrics"]
    row = {
        "workload": workload,
        "seed": int(header["seed"]),
        "repeats": int(header["repeats"]),
        "fingerprint": header["fingerprint"],
    }
    row.update({name: metrics[name]["value"] for name in METRICS})
    return row


def host() -> str:
    return (
        f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus, "
        f"Python {platform.python_version()}"
    )


def record(root: Path, commit: str, seconds: float, path: Path) -> None:
    with path.open("a", encoding="utf-8") as handle:
        for workload in WORKLOADS:
            row = {"commit": commit, **measure(root, workload, seconds), "host": host()}
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            handle.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=("diff", "record"), default="diff")
    parser.add_argument("--file", type=Path, default=TRAJECTORY)
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--commit", help="label for recorded rows (default: root's HEAD)")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.command == "record":
        commit = args.commit or subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=args.root, capture_output=True, text=True, check=True,
        ).stdout.strip()
        record(args.root, commit, args.seconds, args.file)
        return 0
    print("\n".join(diff(load(args.file))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
