"""Unit tests for the kernel-pricing memo (`repro.kernels.pricing`).

``ComputationalSSD.sample_kernel`` looks every sampled run up in
``SAMPLES`` and runs the engine only on a miss.  These tests pin the key:
the core config and pipeline params by value, the sample size, the input
seed, and the kernel with every parameter that changes its program or
inputs; everything of the device outside its core stays out of the key.
The campaign-level proof that memoized pricing changes nothing observable
lives in test_sim_differential.py.
"""

import dataclasses

import pytest

from repro.config import FlashConfig, assasin_sb_config
from repro.core.core import CoreModel
from repro.core.pipeline import PipelineParams
from repro.dse import SweepSpec, run_sweep
from repro.errors import DeviceError
from repro.experiments.fig19 import channel_local_config
from repro.kernels import get_kernel
from repro.kernels.pricing import SAMPLES
from repro.ssd.device import ComputationalSSD


@pytest.fixture
def engine_runs(monkeypatch):
    """Names of the kernels the engine actually ran, on an empty memo."""
    runs = []
    original = CoreModel.run

    def counted(self, kernel, inputs):
        runs.append(kernel.name)
        return original(self, kernel, inputs)

    monkeypatch.setattr(CoreModel, "run", counted)
    SAMPLES.clear()
    yield runs
    SAMPLES.clear()


def test_sample_kernel_hits_after_one_miss(engine_runs):
    config = assasin_sb_config()
    first = ComputationalSSD(config).sample_kernel(get_kernel("stat"))
    assert engine_runs == ["stat"] and len(SAMPLES) == 1
    second = ComputationalSSD(config).sample_kernel(get_kernel("stat"))
    assert engine_runs == ["stat"]
    # The memo shares the sampled run object itself.
    assert second is first


def test_distinct_kernels_and_sizes_are_distinct_entries(engine_runs):
    device = ComputationalSSD(assasin_sb_config())
    device.sample_kernel(get_kernel("stat"))
    device.sample_kernel(get_kernel("scan"))
    device.sample_kernel(get_kernel("stat"), sample_bytes=8192)
    assert engine_runs == ["stat", "scan", "stat"] and len(SAMPLES) == 3


def _with_core(config, **changes):
    return dataclasses.replace(config, core=dataclasses.replace(config.core, **changes))


def test_config_change_invalidates_by_construction(engine_runs):
    base = assasin_sb_config()
    changed = _with_core(base, name=base.core.name + "-variant")
    ComputationalSSD(base).sample_kernel(get_kernel("stat"))
    ComputationalSSD(changed).sample_kernel(get_kernel("stat"))
    assert engine_runs == ["stat", "stat"]
    # Equal-valued configs share an entry even as distinct objects.
    ComputationalSSD(assasin_sb_config()).sample_kernel(get_kernel("stat"))
    assert engine_runs == ["stat", "stat"]
    # Any other core field misses too.
    ComputationalSSD(_with_core(base, frequency_ghz=2.0)).sample_kernel(get_kernel("stat"))
    assert engine_runs == ["stat", "stat", "stat"]


def test_device_outside_the_core_shares_one_run(engine_runs):
    """The engine is built from ``config.core`` alone, so core count,
    crossbar, flash geometry and the device name stay out of the key."""
    base = assasin_sb_config()
    variants = [
        base,
        base.with_cores(2),
        channel_local_config(),
        dataclasses.replace(base, flash=FlashConfig(chips_per_channel=4)),
        dataclasses.replace(base, name="renamed"),
    ]
    samples = [ComputationalSSD(v).sample_kernel(get_kernel("stat")) for v in variants]
    assert engine_runs == ["stat"] and len(SAMPLES) == 1
    assert all(s is samples[0] for s in samples)


def test_seed_is_part_of_the_key(engine_runs):
    device = ComputationalSSD(assasin_sb_config())
    kernel = get_kernel("stat")
    for seed in (1, 7):
        memoized = device.sample_kernel(kernel, 4096, seed=seed)
        direct = device.engine.run(kernel, kernel.make_inputs(4096, seed=seed))
        assert memoized.cycles == direct.cycles
        assert memoized.outputs == direct.outputs
    # Two memo misses plus the two direct runs; a repeat seed hits.
    assert len(engine_runs) == 4 and len(SAMPLES) == 2
    device.sample_kernel(kernel, 4096, seed=7)
    assert len(engine_runs) == 4


@pytest.mark.parametrize("sample_bytes", [0, -4096])
def test_non_positive_sample_window_is_rejected(engine_runs, sample_bytes):
    device = ComputationalSSD(assasin_sb_config())
    with pytest.raises(DeviceError, match="sample window"):
        device.sample_kernel(get_kernel("stat"), sample_bytes)
    assert engine_runs == [] and not SAMPLES


def test_dse_sweep_runs_each_core_once(engine_runs):
    """DSE points that differ only in core count share one engine run per
    (geometry, pipeline model, kernel)."""
    spec = SweepSpec(
        cores=(4, 8), geometries=("sb-S8P2", "sp"), kernels=("stat",),
        data_bytes=1 << 20, sample_bytes=4 * 1024,
    )
    result = run_sweep(spec)
    assert len(result.points) == 8
    assert len(engine_runs) == len(spec.geometries) * len(spec.pipeline_models)


def test_pipeline_model_and_params_change_the_key(engine_runs):
    """Timing-model knobs live outside the kernel's architectural inputs but
    change its cycle price, so they must be part of the key."""
    base = assasin_sb_config()
    ComputationalSSD(base).sample_kernel(get_kernel("stat"))
    ComputationalSSD(base.with_pipeline_model("predictive")).sample_kernel(get_kernel("stat"))
    assert len(engine_runs) == 2
    tweaked = ComputationalSSD(base)
    tweaked.engine = CoreModel(base.core, pipeline_params=PipelineParams(mispredict_penalty=5))
    tweaked.sample_kernel(get_kernel("stat"))
    assert len(engine_runs) == 3
    default = ComputationalSSD(base)
    default.engine = CoreModel(base.core, pipeline_params=PipelineParams())
    default.sample_kernel(get_kernel("stat"))
    assert len(engine_runs) == 3


def test_memo_is_value_keyed_not_id_keyed(engine_runs):
    """Regression: an ``id(config)``-keyed memo could alias a dead config's
    recycled id to a *different* config's entry.  Value keys make equal
    configs share and unequal configs miss, regardless of object identity
    or lifetime."""
    for i in range(5):
        # Fresh throwaway objects each round: with id-keying these recycle
        # CPython ids almost immediately.
        variant = _with_core(assasin_sb_config(), name=f"v{i}")
        ComputationalSSD(variant).sample_kernel(get_kernel("stat"), sample_bytes=4096)
        del variant
    assert len(engine_runs) == 5


KERNEL_VARIANTS = {
    "raid4 k": ({"k": 2}, {"k": 6}),
    "aes key": ({"key": bytes(range(16))}, {"key": bytes(range(16, 32))}),
    "psf select_fields": ({"select_fields": (0, 1, 3)}, {"select_fields": (2,)}),
}


@pytest.mark.parametrize("case", sorted(KERNEL_VARIANTS))
def test_kernel_parameters_are_part_of_the_key(engine_runs, case):
    """Two instances of one kernel that differ in a constructor parameter
    each price like an unmemoized run; a same-parameter instance shares the
    first one's engine run."""
    name = case.split()[0]
    device = ComputationalSSD(assasin_sb_config())
    for params in KERNEL_VARIANTS[case]:
        kernel = get_kernel(name, **params)
        memoized = device.sample_kernel(kernel, sample_bytes=4096)
        direct = device.engine.run(kernel, kernel.make_inputs(4096))
        assert memoized.cycles == direct.cycles
        assert memoized.bytes_out == direct.bytes_out
        assert memoized.outputs == direct.outputs
    # Two memo misses plus the two direct runs.
    assert len(engine_runs) == 4
    again = get_kernel(name, **KERNEL_VARIANTS[case][0])
    device.sample_kernel(again, sample_bytes=4096)
    ComputationalSSD(assasin_sb_config()).sample_kernel(again, sample_bytes=4096)
    assert len(engine_runs) == 4
