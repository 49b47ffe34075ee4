"""Figure 19: sensitivity to flash data layout skew.

ASSASIN's SSD-level crossbar is compared against the channel-local
alternative (Figure 7) for layouts with Skew in {0, 0.25, 0.5, 0.75, 1}.
The crossbar pools all cores against whatever channels hold data, so it
degrades only when the heaviest channel's bandwidth physically binds; the
channel-local design additionally strands the compute of lightly loaded
channels. The gap widens with the kernel's compute intensity, so the sweep
runs both the scan dummy and the compute-heavier RAID6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import SSDConfig, assasin_sb_config, assasin_sb_core
from repro.experiments.common import render_table
from repro.kernels import get_kernel
from repro.ssd.device import simulate_offload

SKEWS = (0.0, 0.25, 0.5, 0.75, 1.0)
DATA_BYTES = 32 << 20
KERNELS = ("scan", "raid6")


def channel_local_config() -> SSDConfig:
    return SSDConfig(
        name="ChannelLocal", core=assasin_sb_core(), num_cores=8, crossbar=False
    )


@dataclass
class Fig19Result:
    # kernel -> skew -> (crossbar GB/s, channel-local GB/s)
    results: Dict[str, Dict[float, Tuple[float, float]]]

    def advantage(self, kernel: str, skew: float) -> float:
        xbar, local = self.results[kernel][skew]
        return xbar / local if local else float("inf")


def run(data_bytes: int = DATA_BYTES, skews=SKEWS, kernels=KERNELS) -> Fig19Result:
    results: Dict[str, Dict[float, Tuple[float, float]]] = {}
    xbar_cfg = assasin_sb_config()
    local_cfg = channel_local_config()
    for kernel_name in kernels:
        kernel = get_kernel(kernel_name)
        per_kernel: Dict[float, Tuple[float, float]] = {}
        for skew in skews:
            xbar = simulate_offload(xbar_cfg, kernel, data_bytes, layout_skew=skew)
            local = simulate_offload(local_cfg, kernel, data_bytes, layout_skew=skew)
            per_kernel[skew] = (xbar.throughput_gbps, local.throughput_gbps)
        results[kernel_name] = per_kernel
    return Fig19Result(results=results)


def render(result: Fig19Result) -> str:
    sections = []
    for kernel, sweep in result.results.items():
        rows = [
            [skew, xbar, local, xbar / local if local else float("inf")]
            for skew, (xbar, local) in sorted(sweep.items())
        ]
        sections.append(
            render_table(
                ("skew", "ASSASIN xbar GB/s", "channel-local GB/s", "advantage"),
                rows,
                title=f"Figure 19 ({kernel}): layout-skew sensitivity",
            )
        )
    return "\n\n".join(sections)
