"""One campaign in a fresh interpreter, timed; prints one JSON line.

``run.py`` starts this script once per repeat, so every campaign pays the
first-use costs a user's own run would pay, and no process-wide cache
carries over from one repeat to the next::

    python3 perfbench/campaign.py --workload zns-lsm --seed 7 [--trace-out FILE]

Without ``--trace-out`` the campaign runs unwrapped and reports its wall
time and its set-up time (until the event loop is first entered). With
it, every layer runs under span wrappers, the spans are written to FILE
after the campaign, and the per-layer metrics are reported.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the sources on sys.path)
from spans import FirstEvent, Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    workload = workloads.make(args.workload, args.seed, args.size)

    if args.trace_out:
        hook = Tracer(f"{workload.name}/seed{workload.seed}/traced")
    else:
        hook = FirstEvent()
    hook.install()
    start = time.perf_counter()
    try:
        result = workload.run()
    finally:
        end = time.perf_counter()
        hook.uninstall()
    wall_s = end - start
    # ru_maxrss is KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.summarize(result)

    layer = dict(outcome.layer)
    if args.trace_out:
        layer.update(hook.metrics(wall_s))
        hook.dump(args.trace_out)
        setup_s = None
    else:
        setup_s = (hook.at if hook.at is not None else end) - start

    print(json.dumps({
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "fingerprint": outcome.fingerprint,
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops,
        "checks": outcome.checks,
        "sim": {name: [m.value, m.unit, m.note] for name, m in outcome.sim.items()},
        "layer": layer,
        "reference": outcome.reference,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
