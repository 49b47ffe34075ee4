"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these isolate individual mechanisms:

* stream ISA on/off (AssasinSb vs AssasinSp at equal clocks),
* prefetcher choice (none / stride / DCPT) on the Baseline hierarchy,
* crossbar on/off at even layout (should be free),
* eager read-ahead window depth in the firmware.
"""

from dataclasses import replace

import pytest
from conftest import run_once

from repro.config import PrefetcherKind, assasin_sb_config, prefetch_core
from repro.core.core import CoreModel
from repro.experiments.fig19 import channel_local_config
from repro.kernels import get_kernel
from repro.ssd.device import simulate_offload
from repro.ssd import firmware as fw

DATA = 16 << 20


def test_ablation_stream_isa(benchmark, fig13_result):
    """Isolate the stream ISA: Sb vs Sp at the common 1 GHz clock."""

    def collect():
        return {
            kernel: fig13_result.throughput(kernel, "AssasinSb")
            / fig13_result.throughput(kernel, "AssasinSp")
            for kernel in ("stat", "raid4", "raid6")
        }

    ratios = run_once(benchmark, collect)
    print("\nstream-ISA ablation (Sb/Sp):", {k: round(v, 3) for k, v in ratios.items()})
    # Multi-stream kernels benefit most (pointer-per-stream elimination).
    assert ratios["raid6"] >= ratios["stat"]
    assert all(0.98 <= r <= 1.3 for r in ratios.values())


def test_ablation_prefetcher_choice(benchmark):
    """DCPT was the paper's best prefetcher; stride helps less; none least."""

    def run_all():
        kernel = get_kernel("stat")
        inputs = kernel.make_inputs(64 * 1024)
        out = {}
        for kind in (PrefetcherKind.NONE, PrefetcherKind.STRIDE, PrefetcherKind.DCPT):
            core = replace(prefetch_core(), prefetcher=kind, name=f"pf-{kind.value}")
            out[kind.value] = CoreModel(core).run(kernel, inputs).cycles
        return out

    cycles = run_once(benchmark, run_all)
    print("\nprefetcher ablation (cycles):", {k: int(v) for k, v in cycles.items()})
    assert cycles["dcpt"] <= cycles["stride"] <= cycles["none"]
    assert cycles["dcpt"] < 0.75 * cycles["none"]


def test_ablation_crossbar_free_at_even_layout(benchmark):
    """With an even layout the crossbar must not cost performance."""

    def run_pair():
        kernel = get_kernel("scan")
        xbar = simulate_offload(assasin_sb_config(), kernel, DATA)
        local = simulate_offload(channel_local_config(), kernel, DATA)
        return xbar.throughput_gbps, local.throughput_gbps

    xbar, local = run_once(benchmark, run_pair)
    print(f"\ncrossbar ablation at skew=0: xbar={xbar:.2f} local={local:.2f} GB/s")
    assert xbar == pytest.approx(local, rel=0.08)


def test_ablation_eager_window(benchmark, monkeypatch):
    """Shrinking the firmware read-ahead window starves the cores."""

    def run_windows():
        kernel = get_kernel("scan")
        out = {}
        for window in (1, 4, 32):
            monkeypatch.setattr(fw, "EAGER_WINDOW_PAGES", window)
            out[window] = simulate_offload(
                assasin_sb_config(), kernel, DATA
            ).throughput_gbps
        return out

    rates = run_once(benchmark, run_windows)
    print("\neager-window ablation (GB/s):", {k: round(v, 2) for k, v in rates.items()})
    assert rates[32] > rates[1] * 1.5  # one page of read-ahead exposes tR
    assert rates[32] >= rates[4] * 0.99
