"""Run-scale profiles.

The paper simulates 500M instructions per benchmark on a 2 MB/core LLC. A
pure-Python event simulator sustains ~10^5 events/s, so full-size runs are
infeasible (the calibration band for this reproduction flags exactly this).
Instead we shrink the *whole machine* — cache capacities and workload
footprints by the same divisor — preserving every ratio that drives the
paper's effects: working-set : cache size, DBI α, L1:L2:LLC proportions,
write-buffer pressure. DRAM geometry (row size, banks) stays physical.

Three profiles:

* ``QUICK_SCALE``   — CI-friendly: divisor 16, short traces.
* ``DEFAULT_SCALE`` — benchmark-harness default: divisor 8.
* ``FULL_SCALE``    — paper-sized caches; traces as long as you can afford.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from repro.cache.config import (
    CacheConfig,
    paper_l1_config,
    paper_l2_config,
    paper_llc_config,
)
from repro.dram.config import DramConfig
from repro.dramcache.config import DramCacheConfig, stacked_dram_config
from repro.sim.system import SystemConfig
from repro.sim.trace import Trace
from repro.workloads.mix import (
    MixSpec,
    WorkloadMix,
    category_mix_specs,
    category_mixes,
    mix_from_spec,
)
from repro.workloads.spec import SPEC_PROFILES, generate_trace


@dataclass(frozen=True)
class ScaleProfile:
    """How much to shrink the machine and how long to run it.

    Attributes:
        name: label used in reports.
        divisor: cache-capacity and footprint shrink factor (power of two).
        refs_single_core: memory references per single-core run.
        refs_per_core_multi: references per core in multi-core runs.
        mixes_per_system: multi-programmed mixes per core count.
        predictor_epoch_cycles: Skip-Cache epoch, scaled with run length.
    """

    name: str
    divisor: int
    refs_single_core: int
    refs_per_core_multi: int
    mixes_per_system: int
    predictor_epoch_cycles: int

    def _scale_cache(self, config: CacheConfig) -> CacheConfig:
        blocks = max(config.associativity * 4, config.num_blocks // self.divisor)
        return dataclasses.replace(config, num_blocks=blocks)

    @property
    def dram_row_blocks(self) -> int:
        """Paper rows are 128 blocks (8 KB); they shrink with the machine so
        dirty-blocks-per-row — the quantity AWB harvests — keeps its ratio."""
        return max(16, 128 // self.divisor)

    @property
    def dbi_granularity(self) -> int:
        """Half a (scaled) DRAM row, like the paper's 64 of 128.

        Scaling the granularity with the machine also keeps the DBI's
        *entry count* (128 for α=1/4) — the quantity that decides whether a
        write working set fits — identical to the paper's configuration.
        """
        return max(4, self.dram_row_blocks // 2)

    def dram_config(self) -> "DramConfig":
        return DramConfig(row_buffer_blocks=self.dram_row_blocks)

    def dram_cache_config(self, dirty_backend: str = "dbi") -> DramCacheConfig:
        """A die-stacked DRAM cache (8 MB full-size) shrunk by the divisor.

        The DBI granularity is pinned to the *off-chip* row size so one AWB
        drain is one off-chip row batch — the quantity the TicToc/Banshee
        trade-off study measures. α = 1 (an entry per cached row's worth of
        blocks) lets rows fill with dirty blocks before capacity displaces
        them, which is what makes the displaced batches row-dense.
        """
        return DramCacheConfig(
            num_blocks=max(64, (1 << 17) // self.divisor),
            dirty_backend=dirty_backend,
            dbi_alpha=Fraction(1, 1),
            dbi_granularity=self.dram_row_blocks,
            stacked=stacked_dram_config(
                row_buffer_blocks=2 * self.dram_row_blocks
            ),
        )

    def system_config(
        self,
        mechanism: str,
        num_cores: int = 1,
        mb_per_core: int = 2,
        **overrides,
    ) -> SystemConfig:
        """A Table 1 system shrunk by this profile's divisor."""
        params = dict(
            num_cores=num_cores,
            mechanism=mechanism,
            mb_per_core=mb_per_core,
            l1=self._scale_cache(paper_l1_config()),
            l2=self._scale_cache(paper_l2_config()),
            llc=self._scale_cache(paper_llc_config(num_cores, mb_per_core)),
            dram=self.dram_config(),
            predictor_epoch_cycles=self.predictor_epoch_cycles,
            dbi_alpha=Fraction(1, 4),
            dbi_granularity=self.dbi_granularity,
        )
        params.update(overrides)
        return SystemConfig(**params)

    def benchmark_trace(self, name: str, seed: int = 0xDB1,
                        refs: Optional[int] = None) -> Trace:
        """A single-core benchmark trace at this scale."""
        if name not in SPEC_PROFILES:
            raise ValueError(
                f"unknown benchmark {name!r}; choose from "
                f"{sorted(SPEC_PROFILES)}"
            )
        return generate_trace(
            SPEC_PROFILES[name],
            refs or self.refs_single_core,
            seed=seed,
            footprint_divisor=self.divisor,
        )

    def alone_trace(self, name: str, refs: Optional[int] = None) -> Trace:
        """The trace a benchmark runs alone on to normalize weighted speedup.

        One canonical trace per (benchmark, length): every copy of the
        benchmark in every mix divides by the same alone run, whatever seed
        and base address its mix gave it.
        """
        return self.benchmark_trace(
            name, refs=refs or self.refs_per_core_multi
        )

    def mixes(self, num_cores: int, count: Optional[int] = None,
              seed: int = 0xDB1,
              refs_per_core: Optional[int] = None) -> List[WorkloadMix]:
        """Category-balanced multi-programmed mixes at this scale."""
        return category_mixes(
            num_cores=num_cores,
            count=count or self.mixes_per_system,
            refs_per_core=refs_per_core or self.refs_per_core_multi,
            seed=seed,
            footprint_divisor=self.divisor,
        )

    def mix_specs(self, num_cores: int, count: Optional[int] = None,
                  seed: int = 0xDB1) -> List[MixSpec]:
        """Mix identities (no traces) — cheap even at paper width."""
        return category_mix_specs(
            num_cores, count or self.mixes_per_system, seed=seed
        )

    def mix_for(self, spec: MixSpec, seed: int = 0xDB1,
                refs_per_core: Optional[int] = None) -> WorkloadMix:
        """Materialize one mix spec's traces at this scale."""
        return mix_from_spec(
            spec,
            refs_per_core or self.refs_per_core_multi,
            seed=seed,
            footprint_divisor=self.divisor,
        )


QUICK_SCALE = ScaleProfile(
    name="quick",
    divisor=16,
    refs_single_core=24_000,
    refs_per_core_multi=10_000,
    mixes_per_system=3,
    predictor_epoch_cycles=30_000,
)

DEFAULT_SCALE = ScaleProfile(
    name="default",
    divisor=8,
    refs_single_core=100_000,
    refs_per_core_multi=30_000,
    mixes_per_system=9,
    predictor_epoch_cycles=100_000,
)

FULL_SCALE = ScaleProfile(
    name="full",
    divisor=1,
    refs_single_core=2_000_000,
    refs_per_core_multi=500_000,
    mixes_per_system=27,
    predictor_epoch_cycles=2_000_000,
)

SCALES = {
    profile.name: profile
    for profile in (QUICK_SCALE, DEFAULT_SCALE, FULL_SCALE)
}
