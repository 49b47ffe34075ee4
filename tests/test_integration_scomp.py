"""End-to-end integration: real bytes through flash -> compute -> results.

These tests exercise the complete scomp path the paper's Figure 9/10
describe: the host writes data, the FTL places pages in the NAND array
(with real contents), an scomp command triggers the offload, the engine's
ISA program computes on the exact bytes read back through the FTL mapping,
and the result matches the kernel's Python reference.
"""

import pytest

from repro.config import assasin_sb_config, baseline_config
from repro.errors import DeviceError
from repro.kernels import get_kernel
from repro.kernels.tuples import TUPLE_BYTES, iter_tuples, random_tuples
from repro.ssd.device import ComputationalSSD

PAGE = 4096


def test_write_then_read_dataset_roundtrip():
    device = ComputationalSSD(assasin_sb_config())
    payload = bytes(range(256)) * 64  # 16 KiB
    lpas = device.write_dataset(payload)
    assert device.read_dataset(lpas)[: len(payload)] == payload


def test_read_dataset_requires_contents():
    device = ComputationalSSD(assasin_sb_config())
    lpas = device.mount_dataset(PAGE)  # metadata only
    with pytest.raises(DeviceError):
        device.read_dataset(lpas)


def test_overwrite_goes_out_of_place_but_reads_latest():
    device = ComputationalSSD(assasin_sb_config())
    device.write_dataset(b"\xaa" * PAGE)
    before = device.ftl.lookup(0)
    device.write_dataset(b"\xbb" * PAGE)
    after = device.ftl.lookup(0)
    assert before != after
    assert device.read_dataset([0]) == b"\xbb" * PAGE


def test_scomp_filter_end_to_end_functional():
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("filter")
    data = random_tuples(2 * PAGE // TUPLE_BYTES, seed=3)  # exactly 2 pages
    result, outputs, _ = device.offload_functional(kernel, data)
    expected = kernel.reference([data])[0]
    assert outputs[0] == expected
    assert result.bytes_in == len(data)
    assert result.throughput_gbps > 0
    # Every surviving tuple satisfies the predicate.
    for t in iter_tuples(outputs[0]):
        assert kernel.selects(t)


def test_scomp_stat_end_to_end_functional_on_baseline():
    device = ComputationalSSD(baseline_config())
    kernel = get_kernel("stat")
    data = bytes(range(256)) * 32  # 8 KiB, block-aligned
    result, outputs, state = device.offload_functional(kernel, data)
    assert state == kernel.reference_state([data])
    assert result.config_name == "Baseline"


def test_scomp_parse_end_to_end_functional():
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("parse")
    # Exactly one page of well-formed rows ending in a newline.
    rows = []
    value = 1
    while sum(len(r) for r in rows) < PAGE - 16:
        rows.append(f"{value}|{value * 7}|{value % 97}\n".encode())
        value += 1
    data = b"".join(rows)
    pad = b"\n" * (PAGE - len(data))  # newline padding emits zero fields
    data += pad
    _, outputs, _ = device.offload_functional(kernel, data)
    assert outputs[0] == kernel.reference([data])[0]


def test_functional_offload_rejects_multistream():
    device = ComputationalSSD(assasin_sb_config())
    with pytest.raises(DeviceError):
        device.offload_functional(get_kernel("raid4"), b"x" * PAGE)


def test_flash_contents_survive_gc_relocation():
    """GC must preserve data: overwrite to create garbage, collect, re-read.

    Uses a small flash geometry (4-page blocks) so write blocks actually
    close; the GC never touches open write points.
    """
    from dataclasses import replace

    from repro.config import FlashConfig
    from repro.ftl.gc import GarbageCollector
    from tests.test_ftl import run_gc_pass

    small_flash = FlashConfig(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=4,
    )
    cfg = replace(assasin_sb_config(), flash=small_flash)
    device = ComputationalSSD(cfg)
    first = b"".join(bytes([i]) * PAGE for i in range(16))  # 16 pages: closes blocks
    device.write_dataset(first)
    second = b"".join(bytes([i + 100]) * PAGE for i in range(16))
    device.write_dataset(second)  # invalidates every first-placement page
    gc = GarbageCollector(device.ftl, device.array)
    result = run_gc_pass(gc, at_ns=device.array.horizon_ns)
    assert result.reclaimed > 0
    assert device.read_dataset(range(16)) == second


def test_scomp_respects_block_interface():
    """The offload consumes whole logical pages: bytes_in is page-granular."""
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("scan")
    data = bytes(100_000)  # not page aligned
    result, _, _ = device.offload_functional(kernel, data)
    assert result.bytes_in % PAGE == 0
    assert result.bytes_in >= len(data)
