"""Tests for the DBI-based DRAM-cache dispatcher (paper Section 7)."""

from collections import Counter
from functools import partial

from repro.dram.request import MemoryRequest
from repro.extensions.dram_cache import DispatchDecision, DramCacheDispatcher
from repro.utils.rng import DeterministicRng

from tests.dramcache.conftest import make_level, read, write


def make_rig(threshold=2):
    queue, level, _offchip = make_level("dbi")
    return queue, level, DramCacheDispatcher(
        level, queue_penalty_threshold=threshold
    )


def load_stacked(level, depth):
    """Park ``depth`` reads in the stacked read queue (the queue is not run)."""
    for i in range(depth):
        level.stacked.enqueue_read(
            MemoryRequest(block_addr=1000 + i, is_write=False)
        )


def dispatch(dispatcher, addr):
    return dispatcher.dispatch_read(
        MemoryRequest(block_addr=addr, is_write=False)
    )


class TestDirtyRouting:
    def test_dirty_block_forced_to_cache(self):
        queue, level, dispatcher = make_rig(threshold=2)
        write(queue, level, 5)
        queue.run()
        # A stacked queue deeper than the threshold would offload a clean read.
        load_stacked(level, 10)
        assert dispatch(dispatcher, 5) is DispatchDecision.DRAM_CACHE
        assert dispatcher.stats.as_dict()["dispatch.forced_to_cache"] == 1

    def test_clean_block_can_offload(self):
        queue, level, dispatcher = make_rig(threshold=2)
        read(queue, level, 5)  # present but clean
        queue.run()
        assert level.tags.contains(5) and not level.is_dirty(5)
        load_stacked(level, 3)
        assert dispatch(dispatcher, 5) is DispatchDecision.OFF_CHIP
        assert level.offchip.pending_reads == 1

    def test_absent_block_can_offload(self):
        _queue, level, dispatcher = make_rig(threshold=0)
        load_stacked(level, 1)
        assert dispatch(dispatcher, 999) is DispatchDecision.OFF_CHIP


class TestLoadBalancing:
    def test_balanced_queues_prefer_cache(self):
        _queue, _level, dispatcher = make_rig(threshold=2)
        assert dispatch(dispatcher, 1) is DispatchDecision.DRAM_CACHE

    def test_offload_engages_past_threshold(self):
        _queue, level, dispatcher = make_rig(threshold=3)
        load_stacked(level, 3)
        # Deeper by exactly the threshold: still the cache.
        assert dispatch(dispatcher, 1) is DispatchDecision.DRAM_CACHE
        load_stacked(level, 1)
        assert dispatch(dispatcher, 2) is DispatchDecision.OFF_CHIP
        # The offloaded read deepened the off-chip queue: back in the band.
        assert dispatch(dispatcher, 3) is DispatchDecision.DRAM_CACHE

    def test_off_chip_share_under_write_heavy_traffic(self):
        queue, level, dispatcher = make_rig(threshold=1)
        for addr in range(16):
            write(queue, level, addr)
        queue.run()
        assert all(level.is_dirty(addr) for addr in range(16))
        load_stacked(level, 10)
        for addr in range(16):
            dispatch(dispatcher, addr)
        # Every read was dirty: nothing could be offloaded.
        assert dispatcher.off_chip_share == 0.0

    def test_off_chip_share_under_clean_traffic(self):
        queue, level, dispatcher = make_rig(threshold=1)
        for addr in range(64):
            read(queue, level, addr)
        queue.run()
        # Back-to-back hits outrun the stacked bus; the excess goes off-chip.
        for addr in range(64):
            queue.schedule(queue.now + addr, partial(dispatch, dispatcher, addr))
        queue.run()
        assert dispatcher.off_chip_share > 0.3


class TestDramCacheModel:
    """The dirtiness the dispatcher reads, as the level keeps it."""

    def test_write_to_present_block_dirties(self):
        queue, level, dispatcher = make_rig(threshold=0)
        read(queue, level, 9)  # present but clean
        queue.run()
        assert level.tags.contains(9) and not level.is_dirty(9)
        write(queue, level, 9)
        queue.run()
        assert level.tags.contains(9) and level.is_dirty(9)
        load_stacked(level, 1)
        assert dispatch(dispatcher, 9) is DispatchDecision.DRAM_CACHE

    def test_evicted_dirty_block_cleared_in_dbi(self):
        queue, level, dispatcher = make_rig(threshold=0)
        num_sets = level.tags.config.num_sets
        write(queue, level, 0)
        queue.run()
        assert level.is_dirty(0)
        # Clean reads fill block 0's tag set until it is the LRU victim.
        for i in range(1, level.tags.config.associativity + 1):
            read(queue, level, i * num_sets)
            queue.run()
        assert not level.tags.contains(0)
        assert not level.is_dirty(0)
        assert level.stats.counter("dirty_evictions").value == 1
        # Written back off-chip, so a read of it may now be offloaded.
        load_stacked(level, 1)
        assert dispatch(dispatcher, 0) is DispatchDecision.OFF_CHIP


def random_stream(seed, count=400, footprint=80):
    """A warmed level, then one read or write per cycle, some of them misses."""
    queue, level, dispatcher = make_rig(threshold=1)
    for addr in range(64):
        read(queue, level, addr)
    queue.run()
    start = queue.now
    rng = DeterministicRng(seed)
    completions = Counter()
    reads = []
    for i in range(count):
        addr = rng.randint(0, footprint - 1)
        if rng.chance(0.4):
            request = MemoryRequest(block_addr=addr, is_write=True)
            queue.schedule(start + i, partial(level.enqueue_write, request))
        else:
            request = MemoryRequest(
                block_addr=addr,
                is_write=False,
                on_complete=lambda r: completions.update([id(r)]),
            )
            reads.append(request)
            queue.schedule(start + i, partial(dispatcher.dispatch_read, request))
    queue.run()
    return level, dispatcher, reads, completions


class TestMixedStream:
    def test_every_dispatched_read_completes_once(self):
        _level, dispatcher, reads, completions = random_stream(0xD15)
        assert completions == Counter(id(r) for r in reads)
        flat = dispatcher.stats.as_dict()
        assert flat["dispatch.reads"] == len(reads)
        # The stream exercised both routing rules.
        assert flat["dispatch.forced_to_cache"] > 0
        assert flat["dispatch.balanced_to_off_chip"] > 0

    def test_level_invariants_hold(self):
        for seed in (1, 2, 3):
            level, _dispatcher, _reads, _completions = random_stream(seed)
            assert level.is_idle()
            level.check_invariants()
