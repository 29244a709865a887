"""The benchmark's workloads, its cell runner and its correctness checks.

A *cell* is one simulation: a system configuration and its traces. Every
cell runs under an event budget proportional to its instruction count, so a
cell that stops making progress ends as a counted failure instead of
spinning (see :func:`run_cell`). The workload seed generates every trace
of the simulation workloads, and the simulator receives only the generated
traces.
"""

from __future__ import annotations

import functools
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.scaling import FULL_SCALE, QUICK_SCALE
from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    result_digest,
    results_path,
)
from repro.campaign.plan import cell_config, cell_traces
from repro.sim.system import System, SystemConfig
from repro.sim.trace import Trace
from repro.workloads.spec import profile_names

#: Event budget per instruction of work. The heaviest cell measured while
#: sizing the benchmark (full-geometry lbm under DAWB) fires about 3 events
#: per instruction; the budget leaves three times that headroom.
EVENTS_PER_INSTRUCTION_BUDGET = 10

#: Campaign job timeout, seconds; each campaign-grid cell takes well under
#: one second.
CAMPAIGN_JOB_TIMEOUT_S = 60.0

#: Worker processes of the campaign-grid workload.
CAMPAIGN_WORKERS = 2

#: Trace length of each campaign-grid cell (references).
CAMPAIGN_REFS = 1000

#: wb-fullgeo trace length. At 80k references, evictions from the 2 MB LLC
#: (32768 blocks) outnumber its cold fills about ten to one in the measured
#: 60% of the run.
WB_FULLGEO_REFS = 80_000

SIM_WORKLOADS = ("wb-fullgeo", "cache-resident", "mix4-stacked")
WORKLOADS = SIM_WORKLOADS + ("campaign-grid",)


@dataclass(frozen=True)
class CellSpec:
    """One simulation of a workload: how to make its config, which inputs
    it reads. The config is made during set-up, which is timed."""

    name: str
    make_config: Callable[[], SystemConfig]
    inputs: str


@dataclass(frozen=True)
class SimWorkload:
    """Cells plus the generators of the traces they read."""

    name: str
    cells: Tuple[CellSpec, ...]
    inputs: Dict[str, Callable[[], List[Trace]]]


def sim_workload(name: str, seed: int) -> SimWorkload:
    """The cells of simulation workload ``name`` for workload seed ``seed``."""
    if name == "wb-fullgeo":
        inputs = {
            "lbm": lambda: [
                FULL_SCALE.benchmark_trace("lbm", seed=seed,
                                           refs=WB_FULLGEO_REFS)
            ]
        }
        cells = [
            CellSpec(f"lbm/{mechanism}",
                     functools.partial(FULL_SCALE.system_config, mechanism),
                     "lbm")
            for mechanism in ("tadip", "dawb", "dbi+awb")
        ]
    elif name == "cache-resident":
        inputs = {
            bench: (lambda bench=bench: [
                QUICK_SCALE.benchmark_trace(bench, seed=seed)
            ])
            for bench in ("bzip2", "astar")
        }
        cells = [
            CellSpec(f"{bench}/{mechanism}",
                     functools.partial(QUICK_SCALE.system_config, mechanism),
                     bench)
            for bench in ("bzip2", "astar")
            for mechanism in ("tadip", "dbi+awb+clb")
        ]
    elif name == "mix4-stacked":
        # The write-heavy categories of the 9-mix table. Their benchmarks
        # are the table's; the seed generates every core's trace.
        specs = {spec.name: spec for spec in QUICK_SCALE.mix_specs(4, 9)}
        mixes = ("4c_rM_wH_005", "4c_rH_wH_008")
        inputs = {
            mix: (lambda mix=mix: list(
                QUICK_SCALE.mix_for(specs[mix], seed=seed).traces
            ))
            for mix in mixes
        }
        variants = (("tadip", False), ("dbi+awb", False), ("dbi+awb", True))
        cells = [
            CellSpec(
                f"{mix}/{mechanism}{'/stacked-dbi' if stacked else ''}",
                functools.partial(_mix4_config, mechanism, stacked),
                mix,
            )
            for mix in mixes
            for mechanism, stacked in variants
        ]
    else:
        raise ValueError(
            f"unknown simulation workload {name!r}; choose from "
            f"{', '.join(SIM_WORKLOADS)}"
        )
    return SimWorkload(name, tuple(cells), inputs)


def _mix4_config(mechanism: str, stacked: bool) -> SystemConfig:
    """A 4-core quick-scale config, over the stacked DRAM cache (with the
    ``dbi`` dirty backend) when ``stacked``."""
    level = (
        QUICK_SCALE.dram_cache_config(dirty_backend="dbi") if stacked else None
    )
    return QUICK_SCALE.system_config(mechanism, num_cores=4, dram_cache=level)


# ------------------------------------------------------------- cell runner


@dataclass
class CellOutcome:
    """What one run of one cell produced."""

    name: str
    instructions: int
    budget: int
    run_s: float = 0.0
    events: int = 0
    result: Optional[Dict] = None
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def digest(self) -> Optional[str]:
        return None if self.result is None else result_digest(self.result)


def cell_budget(system: System) -> int:
    """The cell's event budget: proportional to its instruction work."""
    return EVENTS_PER_INSTRUCTION_BUDGET * cell_instructions(system)


def cell_instructions(system: System) -> int:
    """The cell's fixed trace work: every core's instruction limit."""
    return sum(core.instruction_limit for core in system.cores)


def run_cell(name: str, system: System, around=None) -> CellOutcome:
    """Run one built system under its event budget.

    A cell fails if it exhausts its budget or raises; either way it
    returns. ``around(fn)`` (the tracer's cell span) calls the run when set.
    """
    outcome = CellOutcome(name, cell_instructions(system), cell_budget(system))

    def simulate():
        return system.run(max_events=outcome.budget)

    start = time.perf_counter()
    try:
        result = simulate() if around is None else around(simulate)
    except Exception as exc:  # a failed cell is counted, never fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    else:
        outcome.result = result.to_dict()
    outcome.run_s = time.perf_counter() - start
    outcome.events = system.queue.events_processed
    return outcome


@dataclass
class Setup:
    """Built systems for one pass over a workload's cells."""

    systems: List[Tuple[str, System]]
    setup_s: float
    trace_gen_s: float


def build(workload: SimWorkload) -> Setup:
    """Generate the inputs, then make every cell's config and system."""
    start = time.perf_counter()
    traces = {key: make() for key, make in workload.inputs.items()}
    generated = time.perf_counter()
    systems = [
        (cell.name, System(cell.make_config(), traces[cell.inputs]))
        for cell in workload.cells
    ]
    end = time.perf_counter()
    return Setup(systems, end - start, generated - start)


@dataclass
class PassResult:
    """One pass over every cell of a workload."""

    outcomes: List[CellOutcome]

    @property
    def run_s(self) -> float:
        return sum(outcome.run_s for outcome in self.outcomes)

    @property
    def instructions(self) -> int:
        return sum(outcome.instructions for outcome in self.outcomes)

    @property
    def events(self) -> int:
        return sum(outcome.events for outcome in self.outcomes)

    @property
    def kips(self) -> float:
        return self.instructions / 1000.0 / self.run_s

    @property
    def cells_per_hour(self) -> float:
        return 3600.0 * len(self.outcomes) / self.run_s


def run_pass(setup: Setup, tracer=None) -> PassResult:
    """Run every built system once, releasing each after it ran.

    With a ``tracer``, each cell runs inside its cell span with the tracer
    as its event queue's profiler.
    """
    outcomes = []
    for index, (name, system) in enumerate(setup.systems):
        around = None
        if tracer is not None:
            system.queue.profiler = tracer.event
            around = functools.partial(tracer.cell_span, index)
        outcomes.append(run_cell(name, system, around))
        setup.systems[index] = (name, None)
    return PassResult(outcomes)


# ---------------------------------------------------- failure accounting


@dataclass
class Ledger:
    """Cell attempts, failures and the reference digest of every cell.

    The first successful run of a cell fixes its digest; any later run
    (another repetition, or the traced run) with a different digest is a
    failure, as is an exhausted budget or an exception.
    """

    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def record(self, name: str, digest: Optional[str],
               error: Optional[str] = None) -> bool:
        self.attempted += 1
        if error is None and digest is not None:
            reference = self.digests.setdefault(name, digest)
            if reference == digest:
                return True
            error = f"digest {digest[:12]} differs from {reference[:12]}"
        self.failed += 1
        self.errors.append(f"{name}: {error}")
        return False

    def record_pass(self, result: PassResult) -> None:
        for outcome in result.outcomes:
            self.record(outcome.name, outcome.digest, outcome.error)

    def workload_digest(self) -> str:
        """sha256 over every cell's result digest, keyed by cell."""
        return result_digest(dict(sorted(self.digests.items())))


# ------------------------------------------------------- campaign-grid


def campaign_config(seed: int) -> CampaignConfig:
    """All 14 benchmarks x {baseline, dawb, dbi+awb}, quick scale.

    The campaign generates its traces itself from the program's default
    trace seed and takes no seed of its own, so the workload seed orders
    the plan: which benchmarks and mechanisms are dispatched first.
    """
    order = random.Random(seed)
    benchmarks = profile_names()
    order.shuffle(benchmarks)
    mechanisms = ["baseline", "dawb", "dbi+awb"]
    order.shuffle(mechanisms)
    return CampaignConfig(
        scale="quick",
        benchmarks=tuple(benchmarks),
        mechanisms=tuple(mechanisms),
        core_counts=(1,),
        refs=CAMPAIGN_REFS,
    )


@dataclass
class CampaignRun:
    """One ``Campaign.create(...).run()`` into a fresh directory."""

    wall_s: float
    cells: int
    results: Dict[str, Dict]

    @property
    def cells_per_hour(self) -> float:
        return 3600.0 * len(self.results) / self.wall_s


def run_campaign(config: CampaignConfig, directory: str) -> CampaignRun:
    """Plan and run one campaign; read its results back.

    A cell missing from ``results.json`` (the campaign failed it, or
    failed as a whole) is a failed cell.
    """
    if os.path.exists(directory):
        shutil.rmtree(directory)
    start = time.perf_counter()
    campaign = Campaign.create(directory, config)
    try:
        outcome = campaign.run(
            workers=CAMPAIGN_WORKERS,
            progress=None,
            max_attempts=1,
            job_timeout=CAMPAIGN_JOB_TIMEOUT_S,
        )
    finally:
        campaign.close()
    end = time.perf_counter()
    results: Dict[str, Dict] = {}
    if outcome.status == "complete":
        with open(results_path(directory)) as handle:
            results = {
                cell_id: entry["result"]
                for cell_id, entry in json.load(handle)["cells"].items()
            }
    shutil.rmtree(directory, ignore_errors=True)
    return CampaignRun(end - start, outcome.cells_total, results)


def plan_campaign(config: CampaignConfig, directory: str) -> float:
    """Seconds to plan a campaign (``Campaign.create``) without running it."""
    if os.path.exists(directory):
        shutil.rmtree(directory)
    start = time.perf_counter()
    campaign = Campaign.create(directory, config)
    end = time.perf_counter()
    campaign.close()
    shutil.rmtree(directory, ignore_errors=True)
    return end - start


def campaign_setup(config: CampaignConfig) -> Setup:
    """Build every campaign cell as a plain System, as the campaign would."""
    start = time.perf_counter()
    cells = [
        (cell, cell_traces(QUICK_SCALE, cell, refs=config.refs))
        for cell in config.plan()
    ]
    generated = time.perf_counter()
    systems = [
        (cell.cell_id, System(cell_config(QUICK_SCALE, cell), traces))
        for cell, traces in cells
    ]
    end = time.perf_counter()
    return Setup(systems, end - start, generated - start)
