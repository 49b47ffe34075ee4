"""Repository benchmark: seeded simulation campaigns, timed on the host.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-hedged --seed 11 --seconds 10 --trace 0

The named campaign (``perfbench/workloads.py``) is repeated until
``--seconds`` have passed, at least ``MIN_REPEATS`` times, each repeat in a
fresh interpreter (``perfbench/campaign.py``) and one at a time. Host-time
metrics are medians over the repeats. Output checks run after the timed
repeats; a failed check, a failed command or a simulated fingerprint that
differs between repeats makes the run incorrect and its exit status 1.

With ``--trace 1`` one more campaign runs with span wrappers on every
layer (``perfbench/spans.py``). Its per-layer metrics are reported instead
of the end-to-end ones, its spans are written to ``perfbench/out/``, and
its simulated fingerprint must equal the untraced one.

Human-readable figures go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Names and units of the reported metrics.
SPEC = HERE.parent / "BENCHMARK.json"
MIN_REPEATS = 3
#: Longest one campaign may take before the run is abandoned.
CAMPAIGN_TIMEOUT_S = 120

#: Simulated end-to-end figures, printed where the workload defines them.
SIMULATED = ("sim_p50_us", "sim_tail_us", "sim_ops_per_s", "sim_gbps", "sim_ipc")

#: Per-layer figures read off one workload's report; 0 on the others.
REPORT_LAYER = (
    "fleet.hedges_issued", "fleet.hedge_win_rate", "fleet.reconstructions",
    "zns.compactions", "zns.compaction_link_kib", "zns.zone_resets", "zns.l0_runs_end",
    "sql.device_scans", "sql.host_scans", "serve.oltp_p99_us",
)


def campaign(workload, size, trace_out=None):
    """Run one campaign in a fresh interpreter and return its JSON record."""
    command = [
        sys.executable, str(HERE / "campaign.py"),
        "--workload", workload.name, "--seed", str(workload.seed), "--size", size,
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CAMPAIGN_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"campaign {workload.name} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    return f"median of {len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every campaign (for the benchmark's own test)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.make(args.workload, args.seed, args.size)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    # -- timed, untraced repeats ---------------------------------------------------
    runs = []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < MIN_REPEATS or time.perf_counter() < deadline:
        runs.append(campaign(workload, args.size))
    walls = [r["wall_s"] for r in runs]
    setups = [r["setup_s"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]

    # -- output checks (outside the timed window) ----------------------------------
    first = runs[0]
    checks = [tuple(check) for r in runs for check in r["checks"]]
    checks.append(
        ("fingerprint identical across repeats",
         all(r["fingerprint"] == first["fingerprint"] for r in runs))
    )
    checks += workload.reference_checks(first["reference"])

    traced = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced = campaign(
            workload, args.size, out_dir / f"trace-{workload.name}-seed{workload.seed}.json"
        )
        checks += [tuple(check) for check in traced["checks"]]
        checks.append(
            ("traced fingerprint == untraced", traced["fingerprint"] == first["fingerprint"])
        )

    failed_checks = [name for name, ok in checks if not ok]
    attempted = sum(r["ops"] for r in runs) + len(checks)
    failed = sum(r["failed_ops"] for r in runs) + len(failed_checks)

    # -- report --------------------------------------------------------------------
    wall_s = statistics.median(walls)
    print(f"workload {workload.name}  seed {workload.seed}  size {args.size}  "
          f"repeats {len(runs)}  fingerprint {first['fingerprint'][:16]}")
    print(f"  {'wall_s':<15} {wall_s:12.4f} s      ({spread(walls)})")
    print(f"  {'setup_s':<15} {statistics.median(setups):12.4f} s      ({spread(setups)})")
    print(f"  {'peak_rss_mb':<15} {statistics.median(rss):12.1f} MiB    ({spread(rss)})")
    print(f"  {'error_rate':<15} {failed / attempted:12.4g} ratio  "
          f"({failed} failed of {attempted} ops + checks)")
    for name in SIMULATED:
        if name in first["sim"]:
            value, unit, note = first["sim"][name]
            print(f"  {name:<15} {value:12.4f} {unit:<6} (simulated; {note})")
        else:
            print(f"  {name:<15} {'n/a':>12}        (not defined for this workload)")
    for name in failed_checks:
        print(f"  CHECK FAILED: {name}")
    print(f"  checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")

    if traced is None:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        values = {name: 0 for name in REPORT_LAYER}
        values.update(traced["layer"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["wall_s"] - wall_s
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"  traced run {traced['wall_s']:.4f} s (untraced median {wall_s:.4f} s)")
        for name, unit in units.items():
            print(f"    {name:<26} {values[name]:14.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
