"""Figures 16-18: performance scalability of the ASSASIN SSD.

A byte-scan dummy kernel (1 GHz core ~ 1 GB/s) runs on 1..16 AssasinSb
cores. Expected: linear compute scaling until the 8 GB/s flash array binds
(Fig 16), >98% core utilisation while unbound (Fig 17), and balanced
channel throughput thanks to the independent FTL's striping (Fig 18).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import assasin_sb_config
from repro.experiments.common import render_table
from repro.kernels import get_kernel
from repro.ssd.device import ComputationalSSD, simulate_offload
from repro.ssd.firmware import OffloadResult

CORE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 16)
DATA_BYTES = 32 << 20


@dataclass
class ScalingResult:
    per_core_peak_gbps: float
    results: Dict[int, OffloadResult]

    def throughput(self, cores: int) -> float:
        return self.results[cores].throughput_gbps

    def utilisation(self, cores: int) -> float:
        """Fig 17: achieved vs ideal (nominal core/flash bound)."""
        ideal = min(cores * self.per_core_peak_gbps, 8.0)
        return min(1.0, self.throughput(cores) / ideal)

    def channel_shares(self, cores: int) -> List[float]:
        raw = self.results[cores].channel_bytes
        total = sum(raw)
        return [b / total for b in raw] if total else [0.0] * len(raw)


def run(core_counts: Tuple[int, ...] = CORE_COUNTS, data_bytes: int = DATA_BYTES) -> ScalingResult:
    base = assasin_sb_config()
    kernel = get_kernel("scan")
    sample = ComputationalSSD(base).sample_kernel(kernel)
    per_core_peak = sample.throughput_bytes_per_ns(base.core.frequency_ghz)
    results = {
        n: simulate_offload(base.with_cores(n), kernel, data_bytes) for n in core_counts
    }
    return ScalingResult(per_core_peak_gbps=per_core_peak, results=results)


def render(result: ScalingResult) -> str:
    rows = []
    for n in sorted(result.results):
        shares = result.channel_shares(n)
        rows.append(
            [
                n,
                result.throughput(n),
                result.utilisation(n),
                max(shares) - min(shares),
            ]
        )
    from repro.utils.charts import bar_chart

    table = render_table(
        ("cores", "GB/s (Fig16)", "core util (Fig17)", "channel imbalance (Fig18)"),
        rows,
        title=(
            "Figures 16-18: scan scaling on AssasinSb "
            f"(per-core peak {result.per_core_peak_gbps:.2f} GB/s, flash bound 8 GB/s)"
        ),
    )
    chart = bar_chart(
        [(f"{n} cores", result.throughput(n)) for n in sorted(result.results)],
        unit=" GB/s",
        max_value=8.0,
    )
    return table + "\n\n" + chart
