"""Greedy garbage collection over the page-mapped FTL.

Victim selection is greedy-by-invalid-count (the standard MQSim policy):
the block with the most invalid pages is reclaimed first, still-valid pages
are relocated through the allocator, and the erase is timed against the
flash array so GC pressure shows up as channel/die occupancy.

The collector holds no bookkeeping of its own: it asks the FTL for
:meth:`~repro.ftl.mapping.PageMapFTL.collectible` blocks, walks the
victim's :meth:`~repro.ftl.mapping.PageMapFTL.valid_pages`, moves each with
:meth:`~repro.ftl.mapping.PageMapFTL.relocate`, and hands the block back
through :meth:`~repro.ftl.mapping.PageMapFTL.erase`.

:meth:`GarbageCollector.collect_process` is the one pass: a generator
process for the unified :class:`repro.sim.Simulator` kernel. It yields
between page relocations, so foreground offload/serve processes scheduled
on the same kernel contend with GC on the plane and bus timelines instead
of seeing one atomic burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FTLError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.ftl.mapping import BlockId, PageMapFTL


@dataclass
class GCResult:
    """Outcome of one collection pass."""

    victim: BlockId
    relocated: int
    reclaimed: int
    done_ns: float


class GarbageCollector:
    """Greedy victim selection + valid-page relocation + timed erase."""

    def __init__(self, ftl: PageMapFTL, array: FlashArray) -> None:
        self.ftl = ftl
        self.array = array
        self.collections = 0
        self.pages_relocated = 0
        #: Outcome of the most recent pass (a process has no direct way to
        #: return it).
        self.last_result: Optional[GCResult] = None

    def pick_victim(self) -> Optional[BlockId]:
        """The collectible block with the most invalid pages.

        Ties go to the least-worn block, then to the lowest
        ``(channel, chip, die, plane, block)``.
        """
        candidates = self.ftl.collectible()
        if not candidates:
            return None
        erase_count = self.ftl.wear.erase_count
        return min(candidates, key=lambda b: (-candidates[b], erase_count(b), b))

    def collect_process(self, sim, at_ns: float = 0.0):
        """One GC pass as a process on the simulation kernel.

        Control returns to the simulator after every page relocation, so
        other processes on the same kernel (offload engines, background
        host reads) issue their reservations in global time order and GC
        pressure shows up as genuine contention. The finished
        :class:`GCResult` lands in :attr:`last_result`; its ``reclaimed``
        is the victim's invalid count once the pass starts.
        """
        victim = self.pick_victim()
        if victim is None:
            raise FTLError("no collectible invalid pages: nothing to collect")
        yield sim.wait_until(at_ns)
        reclaimed = self.ftl.collectible()[victim]
        relocated = 0
        now = sim.now
        for page, lpa in self.ftl.valid_pages(victim):
            read = self.array.service_read(PhysicalPageAddress(*victim, page), now)
            write = self.array.service_write(self.ftl.relocate(lpa), read.done_ns)
            now = write.array_done_ns
            relocated += 1
            yield sim.wait_until(now)
        self.ftl.erase(victim)
        done = self.array.erase(PhysicalPageAddress(*victim, 0), now)
        self.collections += 1
        self.pages_relocated += relocated
        self.last_result = GCResult(
            victim=victim, relocated=relocated, reclaimed=reclaimed, done_ns=done
        )
