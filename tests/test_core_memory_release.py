"""A core run's functional memory is freed by reference counting alone.

Every :class:`~repro.core.core.CoreModel` run allocates a multi-MiB
:class:`~repro.mem.memory.FlatMemory`. If anything the run leaves behind
forms a reference cycle through it, the memory outlives the run until the
cyclic collector happens to run, and a campaign's peak RSS then depends on
collector timing rather than on the simulation. The interpreter's handler
table used to be such a cycle (closures over the interpreter, built in its
constructor) even on fast-engine runs, which never use it.
"""

import gc
import weakref

import pytest

from repro.config import assasin_sb_core, baseline_core
from repro.core import core as core_module
from repro.core.core import CoreModel
from repro.kernels import get_kernel
from repro.mem.memory import FlatMemory


@pytest.mark.parametrize("make_core", [assasin_sb_core, baseline_core])
def test_fast_path_run_frees_its_memory_without_gc(monkeypatch, make_core):
    made = []

    class TrackedMemory(FlatMemory):
        def __init__(self, size_bytes):
            super().__init__(size_bytes)
            made.append(weakref.ref(self))

    monkeypatch.setattr(core_module, "FlatMemory", TrackedMemory)
    kernel = get_kernel("stat")
    model = CoreModel(make_core())
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = model.run(kernel, kernel.make_inputs(4096))
        assert result.instructions > 0
        assert made, "the run allocated no FlatMemory"
        assert all(ref() is None for ref in made)
    finally:
        if was_enabled:
            gc.enable()
