"""Campaign planning: the deterministic grid of cells to simulate.

A *cell* is one (mechanism, workload) simulation — the unit the journal
tracks and the result cache addresses. Plans are pure functions of the
campaign configuration: planning the same config twice yields the same
cells in the same order, and :func:`plan_fingerprint` hashes that identity
so a resume against a journal written by a *different* plan (edited config,
drifted code) is refused instead of quietly simulating the wrong grid.

Workloads are reconstructed, not stored: single-core cells name a
benchmark, multi-core cells name an index into the scale profile's
deterministic mix generator (:meth:`ScaleProfile.mixes`). The recorded mix
*name* is cross-checked at reconstruction time, so a generator change
between plan and resume is caught rather than silently swapping traces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.scaling import ScaleProfile
from repro.sim.system import SystemConfig
from repro.sim.trace import Trace
from repro.workloads.mix import paper_mix_count

#: Default campaign mechanisms: the paper's Figure 7 lineup (baseline
#: included, so speedups are computable straight from the results file).
DEFAULT_MECHANISMS = (
    "baseline", "tadip", "dawb", "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
)

#: Dirty-tracking backends the stacked-bandwidth sensitivity sweep compares.
SENSITIVITY_BACKENDS = ("tag", "dbi")

# Sensitivity cells need traces long enough to build reuse in the stacked
# level — below this, the sweep measures nothing (zero hits, write path
# never pressured), so short-trace tiers would publish a flat table. The
# handful of sens cells run at least this many refs regardless of the
# campaign-wide budget.
SENSITIVITY_REFS_FLOOR = 24000


@dataclass(frozen=True)
class CampaignCell:
    """One planned simulation.

    ``kind`` distinguishes the cell families (``None`` covers the legacy
    pair, derived from the other fields — see :attr:`category`):

    * ``bench`` — single-core benchmark × mechanism (Figure 6 surface);
    * ``mix``   — multi-core mix × mechanism (Figure 7/8 surfaces),
      identified by ``mix_index``/``mix_name``;
    * ``alone`` — single-benchmark run on the whole ``num_cores``-sized
      shared LLC; the alone-IPC normalizer for weighted speedup. Here
      ``num_cores`` records the *context* core count, the simulated system
      has one core;
    * ``trace`` — an externally ingested trace (``trace_name``) pinned to
      its registered sha256 (``trace_sha``);
    * ``sens``  — stacked-bandwidth sensitivity point: the dramcache level
      with dirty ``backend`` and its burst time stretched by ``bandwidth``.
    """

    cell_id: str
    mechanism: str
    num_cores: int
    benchmark: Optional[str] = None
    mix_index: Optional[int] = None
    mix_name: Optional[str] = None
    kind: Optional[str] = None
    trace_name: Optional[str] = None
    trace_sha: Optional[str] = None
    backend: Optional[str] = None
    bandwidth: Optional[int] = None

    def to_dict(self) -> Dict:
        data = {
            "cell_id": self.cell_id,
            "mechanism": self.mechanism,
            "num_cores": self.num_cores,
            "benchmark": self.benchmark,
            "mix_index": self.mix_index,
            "mix_name": self.mix_name,
        }
        # New-kind fields appear only when set, so legacy journals (and
        # their fingerprints) round-trip byte-identically. ``kind``
        # serializes as ``cell_kind``: journal records already spend the
        # bare name on the record type.
        if self.kind is not None:
            data["cell_kind"] = self.kind
        for key in ("trace_name", "trace_sha", "backend", "bandwidth"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignCell":
        return cls(
            cell_id=data["cell_id"],
            mechanism=data["mechanism"],
            num_cores=data["num_cores"],
            benchmark=data.get("benchmark"),
            mix_index=data.get("mix_index"),
            mix_name=data.get("mix_name"),
            kind=data.get("cell_kind"),
            trace_name=data.get("trace_name"),
            trace_sha=data.get("trace_sha"),
            backend=data.get("backend"),
            bandwidth=data.get("bandwidth"),
        )

    @property
    def category(self) -> str:
        """The cell family, with legacy cells classified by shape."""
        if self.kind is not None:
            return self.kind
        return "bench" if self.num_cores == 1 else "mix"

    @property
    def workload(self) -> str:
        if self.category == "trace":
            return self.trace_name or "?"
        if self.category == "mix":
            return self.mix_name or "?"
        return self.benchmark or "?"


def plan_cells(
    scale: ScaleProfile,
    benchmarks: Sequence[str],
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    core_counts: Sequence[int] = (1,),
    full_width: bool = False,
    ingested: Sequence[Tuple[str, str]] = (),
    sensitivity: Sequence[int] = (),
    sensitivity_benchmarks: Sequence[str] = (),
) -> List[CampaignCell]:
    """The campaign grid, in deterministic dispatch order.

    Single-core cells cover ``benchmarks`` × ``mechanisms``; each
    multi-core count covers the scale profile's category-balanced mixes ×
    ``mechanisms`` — the paper's complete 102/259/120 tables when
    ``full_width`` is set. Workload-major order keeps all mechanisms of one
    workload adjacent, so fork-from-warm campaigns build each group's warm
    image once and reuse it immediately.

    Full-width plans also schedule one ``alone`` normalizer per distinct
    benchmark per multi-core count (the weighted-speedup denominator);
    ``ingested`` (name, sha256) pairs add externally captured traces as
    single-core cells; ``sensitivity`` bandwidth divisors add the stacked
    DRAM-cache sweep over ``sensitivity_benchmarks`` × both dirty backends.
    """
    cells: List[CampaignCell] = []
    for cores in core_counts:
        if cores == 1:
            for benchmark in benchmarks:
                for mechanism in mechanisms:
                    cells.append(
                        CampaignCell(
                            cell_id=f"1c/{benchmark}/{mechanism}",
                            mechanism=mechanism,
                            num_cores=1,
                            benchmark=benchmark,
                        )
                    )
            continue
        count = paper_mix_count(cores) if full_width else None
        specs = scale.mix_specs(cores, count)
        if full_width:
            for benchmark in sorted(
                {name for spec in specs for name in spec.benchmark_names}
            ):
                cells.append(
                    CampaignCell(
                        cell_id=f"alone/{cores}c/{benchmark}",
                        mechanism="baseline",
                        num_cores=cores,
                        benchmark=benchmark,
                        kind="alone",
                    )
                )
        for index, spec in enumerate(specs):
            for mechanism in mechanisms:
                cells.append(
                    CampaignCell(
                        cell_id=f"{cores}c/{spec.name}/{mechanism}",
                        mechanism=mechanism,
                        num_cores=cores,
                        mix_index=index,
                        mix_name=spec.name,
                    )
                )
    for name, sha in ingested:
        for mechanism in mechanisms:
            cells.append(
                CampaignCell(
                    cell_id=f"trace/{name}/{mechanism}",
                    mechanism=mechanism,
                    num_cores=1,
                    kind="trace",
                    trace_name=name,
                    trace_sha=sha,
                )
            )
    if sensitivity and not sensitivity_benchmarks:
        raise ValueError(
            "sensitivity sweep requested without sensitivity_benchmarks"
        )
    for benchmark in sensitivity_benchmarks:
        for backend in SENSITIVITY_BACKENDS:
            for divisor in sensitivity:
                cells.append(
                    CampaignCell(
                        cell_id=f"sens/{benchmark}/{backend}/bw{divisor}",
                        mechanism="baseline",
                        num_cores=1,
                        benchmark=benchmark,
                        kind="sens",
                        backend=backend,
                        bandwidth=divisor,
                    )
                )
    seen = set()
    for cell in cells:
        if cell.cell_id in seen:
            raise ValueError(f"duplicate cell id {cell.cell_id!r} in plan")
        seen.add(cell.cell_id)
    return cells


def trace_identity(
    scale: ScaleProfile,
    cell: CampaignCell,
    refs: Optional[int] = None,
    full_width: bool = False,
) -> Tuple:
    """Everything that determines the cell's traces at this scale.

    Two cells with equal identities replay identical traces, so a caller
    may build them once (:meth:`Campaign._cell_traces` reuses the previous
    cell's). Benchmark, alone and sensitivity cells of one benchmark share
    an identity whenever their effective trace lengths agree.
    """
    category = cell.category
    if category == "trace":
        return ("trace", cell.trace_name, cell.trace_sha)
    if category == "mix":
        return ("mix", cell.num_cores, full_width, cell.mix_index,
                cell.mix_name, refs)
    if category == "alone":
        length = refs or scale.refs_per_core_multi
    elif category == "sens" and refs is not None:
        length = max(refs, SENSITIVITY_REFS_FLOOR)
    else:
        length = refs or scale.refs_single_core
    return ("benchmark", cell.benchmark, length)


def cell_traces(
    scale: ScaleProfile,
    cell: CampaignCell,
    refs: Optional[int] = None,
    full_width: bool = False,
    ingest_dir: Optional[str] = None,
) -> List[Trace]:
    """Reconstruct the cell's workload traces (deterministic generators).

    ``refs`` caps the single-core trace length and the per-core length of
    mix and alone cells; sensitivity cells are floored at
    ``SENSITIVITY_REFS_FLOOR`` (see its rationale). Ingested traces load
    from ``ingest_dir``'s registry and are verified against the sha
    pinned at plan time. :func:`trace_identity` names what the result
    depends on.

    Raises:
        ValueError: the recorded mix name no longer matches what the
            generator produces at the recorded index, or an ingested
            trace's bytes drifted — resuming would simulate the wrong
            workload.
    """
    category = cell.category
    if category == "trace":
        if cell.trace_name is None:
            raise ValueError(f"cell {cell.cell_id!r} has no trace name")
        if ingest_dir is None:
            raise ValueError(
                f"cell {cell.cell_id!r} needs an ingested trace but the "
                "campaign has no ingest directory (pass --ingest-dir)"
            )
        from repro.sim.ingest import registered_trace

        return [registered_trace(ingest_dir, cell.trace_name,
                                 expect_sha=cell.trace_sha)]
    if category in ("bench", "sens", "alone"):
        if cell.benchmark is None:
            raise ValueError(f"cell {cell.cell_id!r} has no benchmark")
        _, benchmark, length = trace_identity(scale, cell, refs, full_width)
        return [scale.benchmark_trace(benchmark, refs=length)]
    if cell.mix_index is None:
        raise ValueError(f"cell {cell.cell_id!r} has no mix index")
    count = paper_mix_count(cell.num_cores) if full_width else None
    specs = scale.mix_specs(cell.num_cores, count)
    if not 0 <= cell.mix_index < len(specs):
        raise ValueError(
            f"cell {cell.cell_id!r}: mix index {cell.mix_index} out of "
            f"range ({len(specs)} mixes at {cell.num_cores} cores)"
        )
    spec = specs[cell.mix_index]
    if cell.mix_name is not None and spec.name != cell.mix_name:
        raise ValueError(
            f"cell {cell.cell_id!r}: mix generator drift — planned "
            f"{cell.mix_name!r}, generator now yields {spec.name!r}"
        )
    mix = scale.mix_for(spec, refs_per_core=refs)
    return list(mix.traces)


def sensitivity_cache_config(
    scale: ScaleProfile, backend: str, bandwidth_divisor: int
):
    """The stacked level for one bandwidth point of the sensitivity sweep.

    Starts from the trade-off study's shrunken level (÷8 on top of the
    profile divisor, so short traces actually pressure it) and stretches
    the stacked channel's burst occupancy by ``bandwidth_divisor`` — half
    the pin bandwidth doubles ``t_burst``, which is exactly how the
    TDRAM/Gemini hit-latency-vs-bandwidth curves are swept.
    """
    if bandwidth_divisor is None or bandwidth_divisor < 1:
        raise ValueError(
            f"bandwidth divisor must be >= 1, got {bandwidth_divisor!r}"
        )
    config = scale.dram_cache_config(dirty_backend=backend)
    config = dataclasses.replace(
        config, num_blocks=max(256, (1 << 17) // (scale.divisor * 8))
    )
    stacked = dataclasses.replace(
        config.stacked, t_burst=config.stacked.t_burst * bandwidth_divisor
    )
    return dataclasses.replace(config, stacked=stacked)


def cell_config(scale: ScaleProfile, cell: CampaignCell) -> SystemConfig:
    """The cell's system configuration at this scale."""
    category = cell.category
    if category == "alone":
        # One core owning the whole context-sized shared LLC: the paper's
        # alone-run normalizer for weighted speedup.
        return scale.system_config(
            "baseline", num_cores=1, mb_per_core=2 * cell.num_cores
        )
    if category == "sens":
        return scale.system_config(
            cell.mechanism,
            num_cores=1,
            dram_cache=sensitivity_cache_config(
                scale, cell.backend, cell.bandwidth
            ),
        )
    return scale.system_config(cell.mechanism, num_cores=cell.num_cores)


def plan_fingerprint(plan_identity: Dict, cells: Sequence[CampaignCell]) -> str:
    """Content hash binding a journal to the plan that wrote it.

    Covers everything that determines *what gets simulated and how it is
    keyed*: the plan-relevant configuration fields plus every cell. Runtime
    knobs (worker count, progress) are deliberately excluded — a resume may
    change them freely.
    """
    payload = {
        "identity": plan_identity,
        "cells": [cell.to_dict() for cell in cells],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
