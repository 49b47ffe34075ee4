"""Extension experiment: interleaving conventional I/O with an offload.

Section V-A claims ASSASIN "can support flexible interleaving of
read/write requests that do not exploit computational storage with
computational storage operations" because the FTL stays independent and
the crossbar decouples data placement from compute placement. This sweep
runs the scan offload while a host issues conventional page reads at
increasing rates, measuring both the offload's throughput and the host
reads' service latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import assasin_sb_config
from repro.experiments.common import render_table
from repro.kernels import get_kernel
from repro.ssd.device import ComputationalSSD
from repro.ssd.firmware import BackgroundIO

DATA_BYTES = 16 << 20
HOST_READ_RATES_GBPS = (0.0, 0.5, 1.0, 2.0)
PAGE = 4096


@dataclass
class MixedIOResult:
    # host read rate GB/s -> (offload GB/s, host mean latency us, p99 us)
    results: Dict[float, Tuple[float, float, float]]

    def offload_gbps(self, rate: float) -> float:
        return self.results[rate][0]


def run(data_bytes: int = DATA_BYTES, rates=HOST_READ_RATES_GBPS) -> MixedIOResult:
    kernel = get_kernel("scan")
    results: Dict[float, Tuple[float, float, float]] = {}
    for rate in rates:
        device = ComputationalSSD(assasin_sb_config())
        background = None
        if rate > 0:
            interval = PAGE / rate  # ns between host page reads
            # The host re-reads a window of the mounted dataset.
            background = BackgroundIO(lpas=list(range(0, 2048, 7)), interval_ns=interval)
        result = device.offload(kernel, data_bytes, background=background)
        if background is not None and background.latencies_ns:
            mean_us = background.mean_latency_ns / 1e3
            p99_us = background.p99_latency_ns / 1e3
        else:
            mean_us = p99_us = 0.0
        results[rate] = (result.throughput_gbps, mean_us, p99_us)
    return MixedIOResult(results=results)


def render(result: MixedIOResult) -> str:
    rows = [
        [f"{rate:.1f}", *map(float, values)]
        for rate, values in sorted(result.results.items())
    ]
    return render_table(
        ("host reads GB/s", "offload GB/s", "host mean lat (us)", "host p99 lat (us)"),
        rows,
        title="Extension: scomp offload interleaved with conventional host reads",
    )
