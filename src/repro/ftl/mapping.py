"""Page-level FTL: logical-to-physical mapping over the allocator.

Implements the mapping responsibilities of Section II-A: page-granular
LPA -> PPA translation, out-of-place updates (old pages invalidated for the
garbage collector), and bulk ``populate`` used to mount datasets before an
offload run.

The FTL is the only owner of garbage-collection bookkeeping. Per block it
keeps ``{page: lpa}`` of the valid pages plus an invalid-page count, and a
running :attr:`PageMapFTL.invalid_count` over the whole array. The
collector and the cost model ask through :meth:`~PageMapFTL.collectible`,
:meth:`~PageMapFTL.valid_pages`, :meth:`~PageMapFTL.relocate` and
:meth:`~PageMapFTL.erase`, never through the raw state.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.config import FlashConfig
from repro.errors import FTLError
from repro.flash.array import PhysicalPageAddress
from repro.ftl.allocator import PageAllocator
from repro.ftl.wear import WearTracker

BlockId = Tuple[int, int, int, int, int]  # channel, chip, die, plane, block


def _block_of(ppa: PhysicalPageAddress) -> BlockId:
    return (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)


class PageMapFTL:
    """LPA -> PPA map with out-of-place updates and per-block GC state."""

    def __init__(self, config: FlashConfig, skew: float = 0.0) -> None:
        self.config = config
        self.wear = WearTracker()
        self.allocator = PageAllocator(config, skew=skew, wear=self.wear)
        self._map: Dict[int, PhysicalPageAddress] = {}
        #: ``{page: lpa}`` of each written block's valid pages.
        self._valid: Dict[BlockId, Dict[int, int]] = {}
        #: Invalid-page count of each block that holds any.
        self._invalid: Dict[BlockId, int] = {}
        #: Invalid pages across the whole array.
        self.invalid_count = 0
        self.updates = 0

    # -- translation -------------------------------------------------------------

    def lookup(self, lpa: int) -> PhysicalPageAddress:
        try:
            return self._map[lpa]
        except KeyError:
            raise FTLError(f"LPA {lpa} is unmapped") from None

    def is_mapped(self, lpa: int) -> bool:
        return lpa in self._map

    def __len__(self) -> int:
        return len(self._map)

    # -- writes --------------------------------------------------------------------

    def write(self, lpa: int) -> PhysicalPageAddress:
        """Map ``lpa`` to a fresh physical page (out-of-place update)."""
        if lpa < 0:
            raise FTLError("LPA must be non-negative")
        old = self._map.get(lpa)
        ppa = self._place(lpa)
        if old is not None:
            self._invalidate(old)
            self.updates += 1
        return ppa

    def populate(self, lpas: Iterable[int]) -> List[PhysicalPageAddress]:
        """Mount a dataset: map each LPA to a page per the placement policy."""
        return [self.write(lpa) for lpa in lpas]

    def trim(self, lpa: int) -> None:
        """Host discard: unmap and invalidate."""
        ppa = self._map.pop(lpa, None)
        if ppa is None:
            raise FTLError(f"trim of unmapped LPA {lpa}")
        self._invalidate(ppa)

    def _place(self, lpa: int) -> PhysicalPageAddress:
        # Allocate before touching any state: a full array changes nothing.
        ppa = self.allocator.allocate()
        self._map[lpa] = ppa
        block = _block_of(ppa)
        valid = self._valid.get(block)
        if valid is None:
            valid = self._valid[block] = {}
        valid[ppa.page] = lpa
        return ppa

    def _invalidate(self, ppa: PhysicalPageAddress) -> None:
        block = _block_of(ppa)
        del self._valid[block][ppa.page]
        self._invalid[block] = self._invalid.get(block, 0) + 1
        self.invalid_count += 1

    # -- GC interface -----------------------------------------------------------------

    def collectible(self) -> Dict[BlockId, int]:
        """``{block: invalid count}`` of every block the GC may reclaim.

        Open write points are left out: their remaining pages are about to
        be programmed.
        """
        open_blocks = self.allocator.open_blocks()
        return {b: n for b, n in self._invalid.items() if b not in open_blocks}

    def valid_pages(self, block: BlockId) -> Iterator[Tuple[int, int]]:
        """``(page, lpa)`` of each valid page of ``block``, in page order.

        Each page is re-read when the iteration reaches it, so a page a
        foreground write overwrites mid-pass is skipped. A block that is
        not a write point gains no pages, so no page is missed.
        """
        valid = self._valid.get(block, {})
        for page in sorted(valid):
            lpa = valid.get(page)
            if lpa is not None:
                yield page, lpa

    def relocate(self, lpa: int) -> PhysicalPageAddress:
        """Move a still-valid ``lpa`` to a fresh page (GC path); returns it."""
        old = self.lookup(lpa)
        ppa = self._place(lpa)
        self._invalidate(old)
        return ppa

    def erase(self, block: BlockId) -> None:
        """Drop an erased block's state, record its wear and free it."""
        if self._valid.get(block):
            raise FTLError(f"erase of block {block}, which still holds valid pages")
        self._valid.pop(block, None)
        self.invalid_count -= self._invalid.pop(block, 0)
        self.wear.record_erase(block)
        self.allocator.free_block(PhysicalPageAddress(*block, 0))

    # -- distribution stats -------------------------------------------------------------

    def channel_page_counts(self, lpas: Optional[Iterable[int]] = None) -> List[int]:
        """How many (of the given) mapped pages sit on each channel."""
        counts = [0] * self.config.channels
        source = (self._map[l] for l in lpas) if lpas is not None else self._map.values()
        for ppa in source:
            counts[ppa.channel] += 1
        return counts
