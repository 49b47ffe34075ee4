"""Tests for the FTL: allocation policy, mapping, skew, wear, GC."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import FTLError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.ftl.allocator import PageAllocator, measured_skew, skew_shares
from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import PageMapFTL
from repro.ftl.wear import WearTracker
from repro.sim import SimProcessError, Simulator

CFG = FlashConfig(
    channels=4,
    chips_per_channel=2,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=16,
)


def run_gc_pass(gc, at_ns=0.0):
    """Run one GC pass to completion as a process on a fresh simulator,
    re-raising the pass's own error (``FTLError`` when nothing is
    collectible) rather than the simulator's wrapper."""
    sim = Simulator()
    sim.spawn(gc.collect_process(sim, at_ns), label="gc")
    try:
        sim.run()
    except SimProcessError as exc:
        raise exc.__cause__ from None
    return gc.last_result


def test_skew_shares_extremes():
    assert skew_shares(4, 0.0) == pytest.approx([0.25] * 4)
    shares = skew_shares(4, 1.0)
    assert shares[0] == pytest.approx(1.0)
    assert sum(shares) == pytest.approx(1.0)


@given(st.integers(min_value=2, max_value=16), st.floats(min_value=0, max_value=1))
def test_skew_roundtrip(channels, skew):
    shares = skew_shares(channels, skew)
    assert sum(shares) == pytest.approx(1.0)
    assert measured_skew(shares) == pytest.approx(skew, abs=1e-9)


def test_skew_validation():
    with pytest.raises(FTLError):
        skew_shares(4, 1.5)


def test_allocator_stripes_evenly():
    alloc = PageAllocator(CFG, skew=0.0)
    pages = [alloc.allocate() for _ in range(64)]
    per_channel = [sum(1 for p in pages if p.channel == ch) for ch in range(4)]
    assert per_channel == [16, 16, 16, 16]


def test_allocator_skew_1_uses_single_channel():
    alloc = PageAllocator(CFG, skew=1.0)
    pages = [alloc.allocate() for _ in range(32)]
    assert all(p.channel == 0 for p in pages)


def test_allocator_moderate_skew_distribution():
    alloc = PageAllocator(CFG, skew=0.5)
    pages = [alloc.allocate() for _ in range(200)]
    counts = [sum(1 for p in pages if p.channel == ch) for ch in range(4)]
    assert measured_skew(counts) == pytest.approx(0.5, abs=0.05)


def test_allocator_never_hands_out_duplicates():
    alloc = PageAllocator(CFG, skew=0.0)
    seen = set()
    for _ in range(CFG.total_pages):
        ppa = alloc.allocate()
        assert ppa not in seen
        seen.add(ppa)
    with pytest.raises(FTLError):
        alloc.allocate()


def test_ftl_write_and_lookup():
    ftl = PageMapFTL(CFG)
    ppa = ftl.write(42)
    assert ftl.lookup(42) == ppa
    assert ftl.is_mapped(42) and not ftl.is_mapped(43)
    with pytest.raises(FTLError):
        ftl.lookup(43)


def test_ftl_update_is_out_of_place():
    ftl = PageMapFTL(CFG)
    first = ftl.write(7)
    second = ftl.write(7)
    assert first != second
    assert ftl.invalid_count == 1
    assert ftl.lookup(7) == second
    assert ftl.updates == 1


def test_ftl_trim():
    ftl = PageMapFTL(CFG)
    ftl.write(9)
    ftl.trim(9)
    assert not ftl.is_mapped(9)
    assert ftl.invalid_count == 1
    with pytest.raises(FTLError):
        ftl.trim(9)
    assert ftl.invalid_count == 1


def test_populate_distribution_matches_skew():
    for skew in (0.0, 0.25, 1.0):
        ftl = PageMapFTL(CFG, skew=skew)
        ftl.populate(range(160))
        counts = ftl.channel_page_counts()
        assert measured_skew(counts) == pytest.approx(skew, abs=0.06)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
def test_mapping_bijective_under_random_writes(lpas):
    ftl = PageMapFTL(CFG)
    for lpa in lpas:
        ftl.write(lpa)
    mapped = [ftl.lookup(l) for l in set(lpas)]
    assert len(set(mapped)) == len(mapped), "two LPAs share a physical page"


def test_gc_reclaims_most_invalid_block():
    ftl = PageMapFTL(CFG)
    array = FlashArray(CFG)
    # Fill a stream of pages, then overwrite them to invalidate.
    for lpa in range(64):
        ppa = ftl.write(lpa)
        array.service_write(ppa, 0.0)
    for lpa in range(64):
        ppa = ftl.write(lpa)  # out-of-place update invalidates the old page
        array.service_write(ppa, 0.0)
    gc = GarbageCollector(ftl, array)
    before = ftl.invalid_count
    result = run_gc_pass(gc, at_ns=array.horizon_ns)
    assert result.reclaimed > 0
    assert ftl.invalid_count == before - result.reclaimed
    assert ftl.wear.total_erases == 1
    # Relocated pages must still resolve.
    for lpa in range(64):
        ftl.lookup(lpa)


def test_gc_without_garbage_raises():
    ftl = PageMapFTL(CFG)
    array = FlashArray(CFG)
    gc = GarbageCollector(ftl, array)
    with pytest.raises(FTLError):
        run_gc_pass(gc)


def test_gc_frees_capacity_for_new_writes():
    small = FlashConfig(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=4,
    )
    ftl = PageMapFTL(small)
    array = FlashArray(small)
    gc = GarbageCollector(ftl, array)
    # Fill 3 of 4 blocks with live data, then invalidate one block's worth.
    for lpa in range(12):
        array.service_write(ftl.write(lpa), 0.0)
    for lpa in range(4):
        array.service_write(ftl.write(lpa), 0.0)  # uses the 4th block
    # Array is now full; GC must reclaim before further writes succeed.
    run_gc_pass(gc, at_ns=array.horizon_ns)
    ftl.write(100)  # should not raise


def test_wear_leveling_prefers_least_erased_blocks():
    """After GC, new write points open the least-worn free blocks."""
    small = FlashConfig(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=2,
    )
    ftl = PageMapFTL(small)
    array = FlashArray(small)
    gc = GarbageCollector(ftl, array)
    # Fill everything, then repeatedly invalidate + collect so blocks cycle.
    for lpa in range(6):
        array.service_write(ftl.write(lpa), 0.0)
    for round_ in range(6):
        for lpa in range(2):
            array.service_write(ftl.write(lpa), 0.0)
        run_gc_pass(gc, at_ns=array.horizon_ns)
    # Erases must be spread: no block should carry them all.
    assert ftl.wear.total_erases >= 6
    assert ftl.wear.max_erases < ftl.wear.total_erases
    assert ftl.wear.imbalance() < 2.5


def test_allocator_without_wear_tracker_still_works():
    alloc = PageAllocator(CFG, skew=0.0, wear=None)
    pages = [alloc.allocate() for _ in range(32)]
    assert len(set(pages)) == 32


# -- wear-levelled block picking vs the min-scan oracle ------------------------


class _MinScanUnit:
    """Reference write point: a flat free list scanned for the least-worn
    block, ties broken toward the natural pop order."""

    def __init__(self, config, channel, chip, die, plane, wear):
        self.config = config
        self.channel = channel
        self.chip = chip
        self.die = die
        self.plane = plane
        self.wear = wear
        self._free_blocks = list(range(config.blocks_per_plane - 1, -1, -1))
        self._retired = set()
        self._current_block = -1
        self._next_page = config.pages_per_block

    def _pick_block(self):
        best_index = min(
            range(len(self._free_blocks)),
            key=lambda i: (
                self.wear.erase_count(
                    (self.channel, self.chip, self.die, self.plane, self._free_blocks[i])
                ),
                -i,
            ),
        )
        return self._free_blocks.pop(best_index)

    def next_page(self):
        if self._next_page >= self.config.pages_per_block:
            if not self._free_blocks:
                return None
            self._current_block = self._pick_block()
            self._next_page = 0
        ppa = PhysicalPageAddress(
            self.channel, self.chip, self.die, self.plane, self._current_block, self._next_page
        )
        self._next_page += 1
        return ppa

    def release_block(self, block):
        if block == self._current_block and self._next_page < self.config.pages_per_block:
            raise FTLError("cannot release the open write block")
        if block in self._retired:
            return
        self._free_blocks.insert(0, block)

    def retire_block(self, block):
        self._retired.add(block)
        if block in self._free_blocks:
            self._free_blocks.remove(block)
        if block == self._current_block:
            self._current_block = -1
            self._next_page = self.config.pages_per_block


class _MinScanAllocator(PageAllocator):
    """Reference allocator: ``max`` over the channel deficits and a
    min-scan over each write point's free list."""

    def __init__(self, config, skew, wear):
        super().__init__(config, skew=skew, wear=wear)
        for cursor in self._cursors:
            cursor._units = [
                _MinScanUnit(config, u.channel, u.chip, u.die, u.plane, wear)
                for u in cursor._units
            ]

    def _pick_channel(self):
        for ch in range(self.config.channels):
            self._deficit[ch] += self.shares[ch]
        best = max(range(self.config.channels), key=lambda ch: (self._deficit[ch], -ch))
        self._deficit[best] -= 1.0
        return best


SMALL = FlashConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=1,
)


def _attempt(action):
    try:
        return action()
    except FTLError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([0.0, 0.4, 1.0]),
    st.lists(
        st.tuples(
            st.sampled_from(["allocate"] * 3 + ["gc"] * 2 + ["retire"]),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=10,
        max_size=150,
    ),
)
@example(1.0, [("allocate", 0)] * 4 + [("gc", 0)] * 2 + [("allocate", 0)] * 2)
def test_block_picker_matches_min_scan_oracle(skew, ops):
    """Random allocate / GC-erase + free / retire sequences pick identical
    pages under the erase-count buckets and under the min-scan oracle."""
    wears = (WearTracker(), WearTracker())
    allocs = (
        PageAllocator(SMALL, skew=skew, wear=wears[0]),
        _MinScanAllocator(SMALL, skew, wears[1]),
    )
    in_use = set()
    blocks = [
        (ch, chip, 0, 0, block)
        for ch in range(SMALL.channels)
        for chip in range(SMALL.chips_per_channel)
        for block in range(SMALL.blocks_per_plane)
    ]
    for op, pick in ops:
        if op == "allocate":
            got, want = (_attempt(alloc.allocate) for alloc in allocs)
            assert got == want
            if isinstance(got, PhysicalPageAddress):
                in_use.add((got.channel, got.chip, got.die, got.plane, got.block))
        elif op == "gc":
            assert allocs[0].open_blocks() == allocs[1].open_blocks()
            victims = sorted(in_use - allocs[0].open_blocks())
            if not victims:
                continue
            victim = victims[pick % len(victims)]
            freed = []
            for alloc, wear in zip(allocs, wears):
                wear.record_erase(victim)  # GC erases before freeing
                freed.append(_attempt(lambda: alloc.free_block(PhysicalPageAddress(*victim, 0))))
            assert freed[0] == freed[1]
            if freed[0] is None:
                in_use.discard(victim)
        else:
            victim = blocks[pick % len(blocks)]
            got, want = (alloc.retire_block(PhysicalPageAddress(*victim, 0)) for alloc in allocs)
            assert got == want
    assert allocs[0].allocated == allocs[1].allocated


def test_block_erased_while_free_is_refused():
    config = FlashConfig(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=1,
    )
    wear = WearTracker()
    alloc = PageAllocator(config, wear=wear)
    assert alloc.allocate().block == 0
    # Block 1 is next in the pool; wearing it while free breaks the
    # bucket invariant, which the pick must refuse rather than ignore.
    wear.record_erase((0, 0, 0, 0, 1))
    with pytest.raises(FTLError, match="erased while free"):
        alloc.allocate()


def test_only_an_open_write_point_is_refused_on_free():
    """A write point whose block just filled is closed, so GC may collect
    and free it; one with pages left may not be freed."""
    alloc = PageAllocator(SMALL, wear=WearTracker())
    full = alloc.allocate()  # pages_per_block=1: the block fills at once
    assert alloc.open_blocks() == set()
    alloc.free_block(full)
    alloc = PageAllocator(GC_GEOMETRY, wear=WearTracker())
    partial = alloc.allocate()
    with pytest.raises(FTLError, match="open write block"):
        alloc.free_block(partial)


def test_erase_of_block_with_valid_pages_is_refused():
    ftl = PageMapFTL(SMALL)
    ppa = ftl.write(0)  # pages_per_block=1: the block closes at once
    block = (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)
    with pytest.raises(FTLError, match="still holds valid pages"):
        ftl.erase(block)
    assert ftl.lookup(0) == ppa and ftl.wear.total_erases == 0
    ftl.write(0)  # out-of-place update: the block now holds only garbage
    assert ftl.collectible() == {block: 1}
    ftl.erase(block)
    assert ftl.invalid_count == 0 and ftl.collectible() == {}
    assert ftl.wear.erase_count(block) == 1


# -- per-block GC bookkeeping vs the flat-set oracle ---------------------------


def _block(ppa):
    return (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)


class _FlatSetFTL:
    """Reference bookkeeping: one flat set of invalid pages, grouped by
    block on demand, and a linear reverse lookup over the whole map."""

    def __init__(self, config):
        self.config = config
        self.wear = WearTracker()
        self.allocator = PageAllocator(config, wear=self.wear)
        self.map = {}
        self.invalid = set()

    def write(self, lpa):
        new = self.allocator.allocate()
        old = self.map.get(lpa)
        if old is not None:
            self.invalid.add(old)
        self.map[lpa] = new
        return new

    def trim(self, lpa):
        self.invalid.add(self.map.pop(lpa))

    def collectible(self):
        open_blocks = self.allocator.open_blocks()
        groups = {}
        for ppa in self.invalid:
            if _block(ppa) not in open_blocks:
                groups[_block(ppa)] = groups.get(_block(ppa), 0) + 1
        return groups

    def pick_victim(self):
        groups = self.collectible()
        if not groups:
            return None
        # ``max`` keeps the first of equal keys: scan in address order.
        return max(sorted(groups), key=lambda b: (groups[b], -self.wear.erase_count(b)))

    def collect(self):
        """One pass; returns ``(victim, reclaimed, [(page, lpa), ...])``."""
        victim = self.pick_victim()
        invalid_here = {ppa.page for ppa in self.invalid if _block(ppa) == victim}
        moved = []
        for page in range(self.config.pages_per_block):
            if page in invalid_here:
                continue
            ppa = PhysicalPageAddress(*victim, page)
            lpa = next((l for l, mapped in self.map.items() if mapped == ppa), None)
            if lpa is None:
                continue
            self.map[lpa] = self.allocator.allocate()
            self.invalid.add(ppa)
            moved.append((page, lpa))
        self.wear.record_erase(victim)
        self.invalid = {ppa for ppa in self.invalid if _block(ppa) != victim}
        self.allocator.free_block(PhysicalPageAddress(*victim, 0))
        return victim, len(invalid_here), moved


class _LoggedFTL(PageMapFTL):
    """The FTL under test, logging each GC relocation as ``(page, lpa)``."""

    def __init__(self, config):
        super().__init__(config)
        self.moved = []

    def relocate(self, lpa):
        self.moved.append((self.lookup(lpa).page, lpa))
        return super().relocate(lpa)


GC_GEOMETRY = FlashConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=4,
    pages_per_block=4,
)
LPAS = 16


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["write"] * 5 + ["trim"] + ["gc"] * 2),
            st.integers(min_value=0, max_value=1000),
        ),
        min_size=1,
        max_size=120,
    )
)
# Every first-placement block fully overwritten: equal counts and wear,
# so only the address breaks the tie.
@example([("write", lpa) for lpa in range(LPAS)] * 2 + [("gc", 0)] * 3)
# A trim leaves one invalid page in an otherwise live, closed block.
@example([("write", lpa) for lpa in range(LPAS)] + [("trim", 5), ("gc", 0)])
def test_gc_bookkeeping_matches_flat_set_oracle(ops):
    """Random write / overwrite / trim / GC sequences keep the per-block
    bookkeeping, the victim, the relocation order and the map identical to
    the flat-set reference."""
    ftl = _LoggedFTL(GC_GEOMETRY)
    gc = GarbageCollector(ftl, FlashArray(GC_GEOMETRY))
    oracle = _FlatSetFTL(GC_GEOMETRY)
    for op, pick in ops:
        if op == "write":
            lpa = pick % LPAS
            assert _attempt(lambda: ftl.write(lpa)) == _attempt(lambda: oracle.write(lpa))
        elif op == "trim":
            mapped = sorted(oracle.map)
            if mapped:
                lpa = mapped[pick % len(mapped)]
                ftl.trim(lpa)
                oracle.trim(lpa)
        elif oracle.pick_victim() is None:
            assert _attempt(lambda: run_gc_pass(gc, gc.array.horizon_ns)) is FTLError
        else:
            ftl.moved.clear()
            result = run_gc_pass(gc, gc.array.horizon_ns)
            victim, reclaimed, moved = oracle.collect()
            assert (result.victim, result.reclaimed, result.relocated) == (
                victim,
                reclaimed,
                len(moved),
            )
            assert ftl.moved == moved
        assert ftl.invalid_count == len(oracle.invalid)
        assert ftl.collectible() == oracle.collectible()
        assert gc.pick_victim() == oracle.pick_victim()
        assert {lpa: ftl.lookup(lpa) for lpa in range(LPAS) if ftl.is_mapped(lpa)} == oracle.map
    assert ftl.wear.total_erases == oracle.wear.total_erases
