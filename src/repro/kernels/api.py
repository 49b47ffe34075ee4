"""Kernel contract shared by all offloaded functions.

Program ABIs
============

Stream form (``AssasinSb``/``AssasinSb$``): input streams ``0..num_inputs-1``
and output streams ``0..num_outputs-1``; function state lives at the
``state_base`` passed to :meth:`Kernel.build_stream_program`. The program
runs an infinite loop that ends when a ``StreamLoad`` finds its input
exhausted (paper Listing 1).

Memory form (everything else): processes one staged chunk per invocation.

=====  =========================================================
a0     input base; input stream ``i`` starts at ``a0 + i*a3``
a1     bytes per input stream in this chunk
a2     output base
a3     stride between staged input streams
a0     **return** — bytes written at the output base
=====  =========================================================

Kernels may assume chunk sizes and total input sizes are multiples of
:attr:`Kernel.block_bytes` (the firmware pads streams to page boundaries;
generators in :meth:`Kernel.make_inputs` honour it).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.isa.program import Program
from repro.mem.memory import FlatMemory

#: Per-core scratchpad budget for function state (Table IV: 64 KiB).
STATE_SIZE_LIMIT = 64 * 1024


def _hashable(value):
    """Lists (AES round keys, NN weights) as tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    return value


class Kernel(abc.ABC):
    """Base class for offloaded computational-storage functions."""

    #: Kernel registry name; subclasses override.
    name: str = "abstract"
    num_inputs: int = 1
    num_outputs: int = 1
    #: Input must be a multiple of this (firmware pads to it).
    block_bytes: int = 4
    #: Bytes of function state kept in the scratchpad.
    state_bytes: int = 0
    #: Optional override of the UDP ISA cycle factor (see repro.core.udp).
    udp_isa_factor: Optional[float] = None
    #: Write-path kernels store results back to flash (erasure coding,
    #: encryption); read-path kernels return results to the host.
    output_to_flash: bool = False
    #: On the write path, parity-style kernels also write the source data
    #: through to flash (RAID stores data + parity); transforming kernels
    #: (encryption, compression) store only their output.
    writes_input_through: bool = False

    def __init__(self) -> None:
        self._program_cache: Dict[Tuple[str, int], Program] = {}
        if self.state_bytes > STATE_SIZE_LIMIT:
            raise KernelError(
                f"{self.name}: state of {self.state_bytes}B exceeds the "
                f"{STATE_SIZE_LIMIT}B scratchpad budget"
            )

    def pricing_key(self) -> tuple:
        """Identity of this kernel's sampled run (:mod:`repro.kernels.pricing`).

        The program and the generated inputs are functions of the class
        and its constructor parameters, which kernels keep — with whatever
        they derive from them — in public attributes.  The key is the
        class plus every public instance attribute, so a parameter that
        changes the program or the inputs must not live only in a private
        one.
        """
        return (type(self),) + tuple(
            (name, _hashable(value))
            for name, value in vars(self).items()
            if not name.startswith("_")
        )

    # -- functional ground truth -------------------------------------------------

    @abc.abstractmethod
    def reference(self, inputs: List[bytes]) -> List[bytes]:
        """Pure-Python reference producing the expected output streams."""

    # -- programs -------------------------------------------------------------------

    @abc.abstractmethod
    def _build_stream_program(self, state_base: int) -> Program:
        ...

    @abc.abstractmethod
    def _build_memory_program(self, state_base: int) -> Program:
        ...

    def build_stream_program(self, state_base: int) -> Program:
        key = ("stream", state_base)
        if key not in self._program_cache:
            self._program_cache[key] = self._build_stream_program(state_base)
        return self._program_cache[key]

    def build_memory_program(self, state_base: int) -> Program:
        key = ("memory", state_base)
        if key not in self._program_cache:
            self._program_cache[key] = self._build_memory_program(state_base)
        return self._program_cache[key]

    # -- state ----------------------------------------------------------------------

    def init_state(self, mem: FlatMemory, state_base: int) -> None:
        """Write initial function state (tables, keys, accumulators)."""
        if self.state_bytes:
            mem.fill(state_base, self.state_bytes, 0)

    def read_state(self, mem: FlatMemory, state_base: int) -> bytes:
        return mem.load_bytes(state_base, self.state_bytes) if self.state_bytes else b""

    def finalize_outputs(self, outputs: List[bytes], final_state: bytes) -> List[bytes]:
        """Firmware epilogue: fold trailing function state into the outputs.

        Most kernels return outputs as-is; kernels whose last unit of work
        is still in scratchpad state at end-of-stream (e.g. an RLE run in
        progress) override this — it models the firmware flushing state
        after the core's StreamLoad hangs (paper Listing 1).
        """
        return outputs

    # -- workload generation ----------------------------------------------------------

    @abc.abstractmethod
    def make_inputs(self, total_bytes: int, seed: int = 1) -> List[bytes]:
        """Generate representative input streams totalling ~``total_bytes``."""

    def pad_to_block(self, nbytes: int) -> int:
        block = self.block_bytes
        return -(-nbytes // block) * block

    def check_inputs(self, inputs: List[bytes]) -> None:
        if len(inputs) != self.num_inputs:
            raise KernelError(
                f"{self.name} expects {self.num_inputs} input streams, got {len(inputs)}"
            )
        for i, data in enumerate(inputs):
            if len(data) % self.block_bytes:
                raise KernelError(
                    f"{self.name}: input {i} length {len(data)} not a multiple "
                    f"of block size {self.block_bytes}"
                )
