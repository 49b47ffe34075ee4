"""Figure 5 + Section III-A: cycle decomposition of Filter on the Baseline.

A single baseline core runs the Filter offload; the paper reports
~0.63 GB/s and shows that even a perfect-but-compulsory-missing L1 leaves a
~3x memory-stall slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import baseline_config
from repro.experiments.common import render_table
from repro.kernels import get_kernel
from repro.ssd.device import ComputationalSSD

SAMPLE_BYTES = 128 * 1024


@dataclass
class Fig5Result:
    throughput_gbps: float
    cycles_per_byte: float
    buckets: Dict[str, float]

    @property
    def compute_cycles(self) -> float:
        return self.buckets["compute"]

    @property
    def memory_cycles(self) -> float:
        return sum(v for k, v in self.buckets.items() if k != "compute")

    @property
    def memory_slowdown(self) -> float:
        """Total time over compute-only time (the paper's ~3x)."""
        return (self.compute_cycles + self.memory_cycles) / self.compute_cycles


def run(sample_bytes: int = SAMPLE_BYTES) -> Fig5Result:
    kernel = get_kernel("filter")
    result = ComputationalSSD(baseline_config()).sample_kernel(kernel, sample_bytes)
    return Fig5Result(
        throughput_gbps=result.throughput_bytes_per_ns(1.0),
        cycles_per_byte=result.cycles_per_byte,
        buckets=dict(result.buckets.as_dict()),
    )


def render(result: Fig5Result) -> str:
    total = result.compute_cycles + result.memory_cycles
    rows = [
        (name, cycles, 100.0 * cycles / total)
        for name, cycles in result.buckets.items()
        if cycles > 0
    ]
    table = render_table(
        ("component", "cycles", "% of total"),
        rows,
        title="Figure 5: Filter cycle decomposition on Baseline (1 core)",
    )
    footer = (
        f"\nthroughput: {result.throughput_gbps:.2f} GB/s "
        f"(paper: ~0.63 GB/s); memory slowdown: {result.memory_slowdown:.1f}x "
        "(paper: ~3x)"
    )
    return table + footer
