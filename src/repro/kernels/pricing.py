"""The shared memo of sampled kernel runs behind cycles-per-byte pricing.

ASSASIN's streaming kernels are size-linear by construction (DESIGN.md
§2): the core phase prices a kernel by running it once over a
representative window and extrapolating ``cycles_per_byte``.  That sampled
run is a full functional ISA simulation — the most expensive single step
of most campaigns — and it is a pure function of the core config, the
engine's ``PipelineParams``, the kernel (its program and generated inputs),
the sample size and the input seed.
:meth:`repro.ssd.device.ComputationalSSD.sample_kernel` is the one way to
get a sampled run: it looks every sample up in :data:`SAMPLES` first and
runs the engine only on a miss, so one run prices every same-shape scomp
in the process: every device of a fleet, every policy arm of a
comparison, every DSE point that differs only in core count.

The key is ``(core_config, pipeline_params, kernel.pricing_key(),
sample_bytes, seed)``.  The engine (``CoreModel`` or ``UDPLaneModel``) is
built from ``SSDConfig.core`` alone; core count, crossbar, flash, DRAM,
host link and the device name only shape the flash phase, so they are
left out of the key.  Configs and params are frozen dataclasses, so the
key is by value: a changed field misses by construction and equal configs
built separately share.  :meth:`repro.kernels.api.Kernel.pricing_key` is
the kernel's class plus every public instance attribute, so constructor
parameters that change the program or the inputs (``raid4 k``, ``psf
select_fields``, the ``aes`` key, ``filter`` shipdates, ``merge k``) are
part of it.  Samples are shared objects and must be treated as immutable.
"""

from __future__ import annotations

from typing import Dict

#: Sampled runs by pricing key; see the module docstring for the key.
SAMPLES: Dict[tuple, object] = {}
