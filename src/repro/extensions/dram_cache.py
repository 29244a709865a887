"""Self-balancing DRAM-cache dispatch using a DBI (paper Section 7).

Background (Sim et al. [49], "A mostly-clean DRAM cache for effective hit
speculation and self-balancing dispatch"): a die-stacked DRAM cache is fast
but bandwidth-limited; off-chip DRAM is slower but otherwise idle. A read
that *might* hit a **dirty** line in the DRAM cache must be served by the
cache; a read of a **clean-or-absent** line can be *dispatched to whichever
memory is less loaded* — the stale-read risk vanishes because off-chip
memory holds identical data for clean lines. The original mechanism needed
a counting Bloom filter (to find heavily-written pages) plus a small
dirty-page cache. The paper observes a DBI provides both functions
directly: it is the authority on dirtiness, and its LRW stack *is* a
recency-ordered list of written regions.

The dispatcher sits in front of a timed
:class:`~repro.dramcache.level.DramCacheLevel`: the level's dirty backend
answers "could this be dirty?", and the read queues its two controllers
already keep are the load signal.
"""

from __future__ import annotations

import enum

from repro.dram.request import MemoryRequest
from repro.dramcache.level import DramCacheLevel
from repro.utils.stats import StatGroup
from repro.utils.validation import check_non_negative


class DispatchDecision(enum.Enum):
    """Where a read was sent."""

    DRAM_CACHE = "dram_cache"  # forced (dirty) or chosen (less loaded)
    OFF_CHIP = "off_chip"


class DramCacheDispatcher:
    """Route reads between a DRAM-cache level and off-chip memory.

    The decision rule of [49], with the DBI replacing its dedicated
    structures:

    1. If the block *might be dirty* in the DRAM cache, the read **must**
       go to the DRAM cache.
    2. Otherwise the data is identical in both memories (clean or absent),
       so the read goes off-chip once the stacked read queue is deeper than
       the off-chip one by more than ``queue_penalty_threshold``.
    """

    def __init__(
        self,
        level: DramCacheLevel,
        queue_penalty_threshold: int = 4,
    ) -> None:
        check_non_negative("queue_penalty_threshold", queue_penalty_threshold)
        self.level = level
        self.threshold = queue_penalty_threshold
        self.stats = StatGroup("dispatch")

    def dispatch_read(self, request: MemoryRequest) -> DispatchDecision:
        """Enqueue one read into the memory chosen for it; return the choice."""
        level = self.level
        self.stats.counter("reads").increment()
        if level.is_dirty(request.block_addr):
            # Only the DRAM cache has the current data.
            self.stats.counter("forced_to_cache").increment()
            level.enqueue_read(request)
            return DispatchDecision.DRAM_CACHE
        # Clean everywhere: balance load.
        imbalance = level.stacked.pending_reads - level.offchip.pending_reads
        if imbalance > self.threshold:
            self.stats.counter("balanced_to_off_chip").increment()
            level.offchip.enqueue_read(request)
            return DispatchDecision.OFF_CHIP
        level.enqueue_read(request)
        return DispatchDecision.DRAM_CACHE

    @property
    def off_chip_share(self) -> float:
        """Fraction of reads the dispatcher managed to offload."""
        flat = self.stats.as_dict()
        reads = flat.get("dispatch.reads", 0)
        if not reads:
            return 0.0
        return flat.get("dispatch.balanced_to_off_chip", 0) / reads
