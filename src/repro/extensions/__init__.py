"""Additional DBI applications (paper Section 7).

The paper quantifies three optimizations but sketches several more uses of
the DBI's compact dirty-block organization. This package implements two of
them as working subsystems:

* :mod:`repro.extensions.dram_cache` — self-balancing dispatch in front of
  the timed die-stacked DRAM-cache level [49]: the level's DBI answers
  "could this line be dirty in the DRAM cache?" cheaply, so clean reads can
  be dispatched to whichever memory has the shorter read queue, without the
  counting Bloom filter and dirty-page cache the original proposal needed.
* :mod:`repro.extensions.bulk_dma` — coherent bulk DMA: one ranged DBI query
  replaces per-block tag-store probes when a device reads a large buffer.
"""

from repro.extensions.bulk_dma import BulkDmaEngine, DmaTransferReport
from repro.extensions.dram_cache import DispatchDecision, DramCacheDispatcher

__all__ = [
    "BulkDmaEngine",
    "DmaTransferReport",
    "DramCacheDispatcher",
    "DispatchDecision",
]
