#!/usr/bin/env python
"""The paper's Section 7 extensions, running.

Two of the "other optimizations enabled by DBI" as working subsystems:

1. **Self-balancing DRAM-cache dispatch** [49] — clean reads balance across
   a timed die-stacked cache level and off-chip memory on their read-queue
   depths; the level's DBI is the cheap oracle for "could this be dirty?".
   We contrast a write-heavy phase (most reads pinned to the DRAM cache)
   against a read-mostly phase (about half the reads offloaded).
2. **Coherent bulk DMA** — one ranged DBI query per DRAM row replaces
   per-block tag lookups when a device reads a large buffer.

Run:  python examples/section7_extensions.py
"""

from fractions import Fraction
from functools import partial

from repro.core.config import DbiConfig
from repro.core.dbi import DirtyBlockIndex
from repro.dram.config import DramConfig
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.dramcache import DramCacheConfig, DramCacheLevel
from repro.extensions.bulk_dma import BulkDmaEngine
from repro.extensions.dram_cache import DramCacheDispatcher
from repro.utils.events import EventQueue
from repro.utils.rng import DeterministicRng


def dram_cache_study() -> None:
    print("1. Self-balancing DRAM-cache dispatch")
    print("-" * 38)
    footprint = 4096
    for phase, write_prob in (("write-heavy", 0.6), ("read-mostly", 0.05)):
        rng = DeterministicRng(11)
        queue = EventQueue()
        level = DramCacheLevel(
            queue,
            DramCacheConfig(num_blocks=8192, dbi_granularity=64),
            MemoryController(queue, DramConfig()),
            rng=DeterministicRng(11),
        )
        dispatcher = DramCacheDispatcher(level, queue_penalty_threshold=1)
        # Warm the whole footprint into the DRAM cache.
        for addr in range(footprint):
            level.enqueue_read(MemoryRequest(block_addr=addr, is_write=False))
        queue.run()
        # One request every 4 cycles: faster than the stacked bus alone
        # serves them, so the balancer has queue imbalance to act on.
        start = queue.now
        for i in range(20000):
            request = MemoryRequest(
                block_addr=rng.randint(0, footprint - 1),
                is_write=rng.chance(write_prob),
            )
            target = (
                level.enqueue_write if request.is_write
                else dispatcher.dispatch_read
            )
            queue.schedule(start + 4 * i, partial(target, request))
        queue.run()
        flat = dispatcher.stats.as_dict()
        print(f"  {phase:12s}: {flat['dispatch.reads']:>6.0f} reads, "
              f"{flat.get('dispatch.forced_to_cache', 0):>6.0f} forced dirty, "
              f"{dispatcher.off_chip_share:.0%} offloaded to off-chip")
    print()


def bulk_dma_study() -> None:
    print("2. Coherent bulk DMA")
    print("-" * 38)
    rng = DeterministicRng(12)
    dbi = DirtyBlockIndex(
        DbiConfig(cache_blocks=65536, alpha=Fraction(1, 4), granularity=64,
                  associativity=16)
    )
    # Dirty a sparse working set.
    for _ in range(2000):
        dbi.mark_dirty(rng.randint(0, 1 << 16))
    engine = BulkDmaEngine(dbi)
    report = engine.prepare_read(start_block=4096, num_blocks=4096)  # 256 KB
    print(f"  transfer: {report.num_blocks} blocks "
          f"({report.num_blocks * 64 // 1024} KB)")
    print(f"  dirty blocks flushed     : {len(report.dirty_blocks_flushed)}")
    print(f"  conventional tag lookups : {report.conventional_tag_lookups}")
    print(f"  DBI queries              : {report.dbi_queries}")
    print(f"  lookup reduction         : {report.lookup_reduction:.0f}x")


def main() -> None:
    dram_cache_study()
    bulk_dma_study()


if __name__ == "__main__":
    main()
