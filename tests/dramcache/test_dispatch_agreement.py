"""Regression: the Section-7 dispatch rule vs the timed level's authority.

:class:`~repro.extensions.dram_cache.DramCacheDispatcher` sends a read to
the DRAM cache whenever the cache may hold the only current copy, and may
offload it otherwise. That "must this read go to the cache?" answer has to
be exactly the timed level's dirtiness, block for block, after any mix of
reads, writes, evictions and DBI displacements.
"""

from repro.dram.request import MemoryRequest
from repro.extensions.dram_cache import DispatchDecision, DramCacheDispatcher
from repro.utils.rng import DeterministicRng

from tests.dramcache.conftest import make_level, read, write

FOOTPRINT = 64


def random_ops(count=400, write_fraction=0.5, seed=0x5D1):
    rng = DeterministicRng(seed)
    return [
        (rng.chance(write_fraction), rng.randint(0, FOOTPRINT - 1))
        for _ in range(count)
    ]


class TestModelAgreesWithTimedLevel:
    def test_dispatcher_routing_matches_level_dirtiness(self):
        queue, level, _ = make_level(
            "dbi", num_blocks=16, associativity=16, dbi_granularity=4
        )
        # Serialized so timing cannot skew which blocks end up dirty.
        for is_write, addr in random_ops(write_fraction=0.6):
            if is_write:
                write(queue, level, addr)
            else:
                read(queue, level, addr)
            queue.run()
        assert level.is_idle()
        dirty = {addr for addr in range(FOOTPRINT) if level.peek_dirty(addr)}
        assert dirty == level.dirty_blocks()
        assert dirty, "stream should leave some blocks dirty"
        assert len(dirty) < FOOTPRINT, "stream should leave some blocks clean"

        dispatcher = DramCacheDispatcher(level, queue_penalty_threshold=0)
        # A stacked queue deeper than every read below: each clean read
        # offloads, so the decision exposes the dirtiness it was based on.
        for i in range(2 * FOOTPRINT):
            level.stacked.enqueue_read(
                MemoryRequest(block_addr=1000 + i, is_write=False)
            )
        for addr in range(FOOTPRINT):
            decision = dispatcher.dispatch_read(
                MemoryRequest(block_addr=addr, is_write=False)
            )
            expected = (
                DispatchDecision.DRAM_CACHE
                if addr in dirty
                else DispatchDecision.OFF_CHIP
            )
            assert decision is expected, addr
        flat = dispatcher.stats.as_dict()
        assert flat["dispatch.forced_to_cache"] == len(dirty)
        assert flat["dispatch.balanced_to_off_chip"] == FOOTPRINT - len(dirty)
