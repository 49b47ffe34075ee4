"""Integration tests: the full scomp path on the computational SSD."""

import pytest

from repro.config import (
    SSDConfig,
    all_configs,
    assasin_sb_config,
    assasin_sb_core,
    baseline_config,
    prefetch_config,
    udp_config,
)
from repro.errors import DeviceError
from repro.kernels import get_kernel
from repro.ssd.device import ComputationalSSD, simulate_offload

DATA = 32 << 20  # 32 MiB keeps retiming fast while past startup transients


@pytest.fixture(scope="module")
def stat_results():
    kernel = get_kernel("stat")
    return {
        name: simulate_offload(cfg, kernel, data_bytes=DATA)
        for name, cfg in all_configs().items()
    }


def test_assasin_beats_baseline_on_stat(stat_results):
    base = stat_results["Baseline"].throughput_gbps
    sb = stat_results["AssasinSb"].throughput_gbps
    assert 1.3 <= sb / base <= 2.5, f"speedup {sb / base:.2f} outside paper band"


def test_baseline_is_dram_limited_on_stat(stat_results):
    assert stat_results["Baseline"].limiter == "dram"
    assert stat_results["Prefetch"].limiter == "dram"


def test_prefetch_gains_little_under_memory_wall(stat_results):
    # Paper VI-B: DCPT helps latency but the DRAM wall caps Stat/RAID4.
    base = stat_results["Baseline"].throughput_gbps
    pf = stat_results["Prefetch"].throughput_gbps
    assert pf / base < 1.15


def test_assasin_bypasses_dram(stat_results):
    result = stat_results["AssasinSb"]
    assert result.dram_traffic.total == pytest.approx(0.0)
    assert result.limiter in ("flash", "core")


def test_assasin_sb_matches_sp_and_cache_variant(stat_results):
    sp = stat_results["AssasinSp"].throughput_gbps
    sb = stat_results["AssasinSb"].throughput_gbps
    sbc = stat_results["AssasinSb$"].throughput_gbps
    assert sb == pytest.approx(sbc, rel=0.02)  # cache unused -> no effect
    assert sb >= sp * 0.98  # stream ISA never loses


def test_throughput_bounded_by_flash_array(stat_results):
    for name, result in stat_results.items():
        assert result.throughput_gbps <= 8.01, f"{name} exceeds the flash array"


def test_mount_dataset_capacity_check():
    cfg = baseline_config()
    device = ComputationalSSD(cfg)
    with pytest.raises(DeviceError):
        device.mount_dataset(cfg.flash.capacity_bytes + (4 << 20))


def test_plain_read_path():
    device = ComputationalSSD(baseline_config())
    lpas = device.mount_dataset(1 << 20)
    done = device.read_pages(lpas[:16])
    assert done > 0
    assert device.host.bytes_to_host == 16 * 4096


def test_scomp_command_recorded():
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("scan")
    device.offload(kernel, 8 << 20)
    assert len(device.host.submissions) == 1
    assert device.host.submissions[0].kernel == "scan"
    assert len(device.host.completions) == 1


def test_offload_rejects_empty():
    device = ComputationalSSD(assasin_sb_config())
    with pytest.raises(DeviceError):
        device.offload(get_kernel("scan"), 0)


def test_scaling_linear_then_flash_bound():
    kernel = get_kernel("scan")
    cfg = assasin_sb_config()
    rates = {}
    for n in (1, 2, 4, 8, 12):
        rates[n] = simulate_offload(cfg.with_cores(n), kernel, DATA).throughput_gbps
    assert rates[2] == pytest.approx(2 * rates[1], rel=0.05)
    assert rates[4] == pytest.approx(4 * rates[1], rel=0.05)
    assert rates[12] <= 8.01  # flash array bound
    assert rates[12] >= 0.9 * min(8.0, 12 * rates[1])


def test_core_utilisation_high_when_unbound():
    kernel = get_kernel("scan")
    result = simulate_offload(assasin_sb_config(), kernel, DATA)
    assert result.mean_utilisation > 0.95  # paper: > 98% (Figure 17)


def test_channels_balanced_without_skew():
    kernel = get_kernel("scan")
    result = simulate_offload(assasin_sb_config(), kernel, DATA)
    total = sum(result.channel_bytes)
    shares = [b / total for b in result.channel_bytes]
    assert max(shares) - min(shares) < 0.02  # Figure 18


def test_skewed_layout_concentrates_channel_traffic():
    kernel = get_kernel("scan")
    result = simulate_offload(assasin_sb_config(), kernel, DATA, layout_skew=1.0)
    shares = result.channel_bytes
    assert shares[0] == pytest.approx(sum(shares), rel=0.01)
    assert result.throughput_gbps <= 1.05  # single channel bound


def test_crossbar_beats_channel_local_under_skew():
    kernel = get_kernel("raid6")  # compute-heavy: pooling matters
    xbar_cfg = assasin_sb_config()
    local_cfg = SSDConfig(name="local", core=assasin_sb_core(), num_cores=8, crossbar=False)
    skew = 0.5
    xbar = simulate_offload(xbar_cfg, kernel, DATA, layout_skew=skew)
    local = simulate_offload(local_cfg, kernel, DATA, layout_skew=skew)
    assert xbar.throughput_gbps > 1.2 * local.throughput_gbps


def test_udp_dram_traffic_at_least_doubles_input():
    # Section VI-B: accelerator staging copies keep DRAM pressure >= the
    # baseline's two passes per input byte; ASSASIN carries none of it.
    kernel = get_kernel("stat")
    result = simulate_offload(udp_config(), kernel, DATA)
    base = simulate_offload(baseline_config(), kernel, DATA)
    assert result.dram_traffic.total >= 2.0
    assert base.dram_traffic.total >= 2.0
    assert result.limiter == "dram"
