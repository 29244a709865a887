"""Experiment runners — one per table/figure of the paper's Section 6.

Every runner returns :class:`ExperimentResult` objects whose rows mirror the
paper's artifact (same series, same comparisons); ``to_text()`` renders them
for EXPERIMENTS.md. Runners accept a :class:`ScaleProfile` so the same code
drives quick benchmark-harness runs and the longer default runs.

Execution goes through a :class:`~repro.analysis.runner.SweepRunner`: each
runner first *submits* every independent simulation it needs, then collects
the futures and assembles rows. With a parallel runner the submissions fan
out over worker processes; with the default serial runner (``runner=None``)
jobs execute inline at submission, reproducing the historical behaviour
exactly. Duplicate submissions — the shared baselines of Figure 7/8/Table 3,
or the alone-mode normalization runs — coalesce onto one future, and a
disk-cached runner skips anything a previous sweep already finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.analysis.runner import SweepFuture, SweepJobError, SweepRunner
from repro.analysis.scaling import DEFAULT_SCALE, ScaleProfile
from repro.sim.metrics import (
    geometric_mean,
    harmonic_speedup,
    instruction_throughput,
    maximum_slowdown,
    weighted_speedup,
)
from repro.sim.system import SimulationResult
from repro.sim.trace import Trace
from repro.workloads.mix import WorkloadMix
from repro.workloads.spec import profile_names

#: Mechanisms plotted in Figure 6 (paper omits Baseline-LRU there).
FIGURE6_MECHANISMS = (
    "tadip", "dawb", "vwq", "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
)
#: Mechanisms plotted in Figure 7.
FIGURE7_MECHANISMS = (
    "baseline", "tadip", "dawb", "dbi", "dbi+awb", "dbi+clb", "dbi+awb+clb",
)
#: Figure 6 panels: (id, title, metric extractor), shared with the
#: campaign surfaces.
FIG6_PANELS = (
    ("fig6a", "Instructions per cycle", lambda r: r.ipc[0]),
    ("fig6b", "Write row hit rate", lambda r: r.write_row_hit_rate),
    ("fig6c", "LLC tag lookups per kilo-instruction",
     lambda r: r.tag_lookups_pki),
    ("fig6d", "Memory writes per kilo-instruction",
     lambda r: r.memory_wpki),
    ("fig6e", "Read row hit rate", lambda r: r.read_row_hit_rate),
)


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: str = ""
    raw: Dict = field(default_factory=dict)

    def to_text(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def to_json(self) -> str:
        """Serializable form (``raw`` is omitted: it holds live objects)."""
        import json

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
        )


# --------------------------------------------------------------- utilities


def _serial_runner() -> SweepRunner:
    """Inline, uncached runner: the behaviour runners default to."""
    return SweepRunner(workers=0, cache_dir=None)


def _collect(runner: SweepRunner, future: SweepFuture):
    """Resolve a future, tolerating exhausted jobs in ``--keep-going`` mode.

    Returns None for a job whose retries were exhausted when the runner was
    built with ``keep_going=True`` — the runner's failure list already holds
    the traceback, and :func:`_failure_note` surfaces the count. Any failure
    on a strict runner propagates unchanged.
    """
    try:
        return future.result()
    except SweepJobError:
        if runner.keep_going:
            return None
        raise


def _failure_note(runner: SweepRunner) -> str:
    """The "N/M jobs failed" annotation appended to partial artifacts."""
    if not runner.failures:
        return ""
    return (
        f"PARTIAL RESULTS: {runner.jobs_failed}/{runner.jobs_submitted} "
        f"jobs failed after retries; missing cells render as n/a "
        f"(see the sweep failure manifest for tracebacks)."
    )


def _with_note(notes: str, extra: str) -> str:
    if not extra:
        return notes
    return f"{notes}\n{extra}" if notes else extra


def _mean(values: Sequence[float]) -> Optional[float]:
    """Arithmetic mean, or None when every contributing job failed."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def _submit(
    runner: SweepRunner,
    scale: ScaleProfile,
    mechanism: str,
    traces: Sequence[Trace],
    num_cores: int = 1,
    **config_overrides,
) -> SweepFuture:
    config = scale.system_config(mechanism, num_cores=num_cores, **config_overrides)
    return runner.submit(config, traces)


def _run(
    scale: ScaleProfile,
    mechanism: str,
    traces: Sequence[Trace],
    num_cores: int = 1,
    runner: Optional[SweepRunner] = None,
    **config_overrides,
) -> SimulationResult:
    """Synchronous one-shot (kept for scripts that want a single result)."""
    return _submit(
        runner or _serial_runner(), scale, mechanism, traces,
        num_cores=num_cores, **config_overrides,
    ).result()


class AloneIpcCache:
    """IPC of each benchmark running alone on a given machine shape.

    Weighted speedup normalizes shared-mode IPCs against alone-mode IPCs on
    the same machine (full LLC to itself); the alone runs use the Baseline
    mechanism so the normalization is identical across mechanisms. A mix
    trace is identified by its benchmark name and length only: the alone
    run replays :meth:`ScaleProfile.alone_trace`, the same trace the
    campaign's alone cells use, so every copy of a benchmark shares one
    normalizer whatever its position in the mix. Each distinct
    (benchmark, length, shape) is submitted to the sweep runner once;
    repeated requests share the future.
    """

    def __init__(self, scale: ScaleProfile,
                 runner: Optional[SweepRunner] = None) -> None:
        self.scale = scale
        self.runner = runner or _serial_runner()
        self._cache: Dict[Tuple, SweepFuture] = {}

    def submit(self, trace: Trace, num_cores: int, mb_per_core: int = 2,
               llc_replacement: Optional[str] = None) -> SweepFuture:
        key = (trace.name, len(trace), num_cores, mb_per_core, llc_replacement)
        if key not in self._cache:
            config = self.scale.system_config(
                "baseline",
                num_cores=1,
                mb_per_core=mb_per_core * num_cores,  # the whole shared LLC
                llc_replacement=llc_replacement,
            )
            self._cache[key] = self.runner.submit(
                config, [self.scale.alone_trace(trace.name, refs=len(trace))]
            )
        return self._cache[key]

    def ipc(self, trace: Trace, num_cores: int, mb_per_core: int = 2,
            llc_replacement: Optional[str] = None) -> float:
        return self.submit(
            trace, num_cores, mb_per_core, llc_replacement
        ).result().ipc[0]


@dataclass
class _MixFutures:
    """In-flight simulations backing one (mix, mechanism) data point."""

    shared: SweepFuture
    alone: List[SweepFuture]

    def metrics(self) -> Dict[str, float]:
        """Resolve the futures into the Section 5 metrics."""
        result = self.shared.result()
        alone_ipcs = [future.result().ipc[0] for future in self.alone]
        return {
            "weighted_speedup": weighted_speedup(result.ipc, alone_ipcs),
            "instruction_throughput": instruction_throughput(result.ipc),
            "harmonic_speedup": harmonic_speedup(result.ipc, alone_ipcs),
            "maximum_slowdown": maximum_slowdown(result.ipc, alone_ipcs),
        }

    def try_metrics(self, runner: SweepRunner) -> Optional[Dict[str, float]]:
        """Like :meth:`metrics`, but None when any constituent job failed
        and the runner is in ``--keep-going`` mode — a data point missing
        either its shared run or an alone-mode normalizer cannot be plotted."""
        try:
            return self.metrics()
        except SweepJobError:
            if runner.keep_going:
                return None
            raise


def _submit_mix(
    runner: SweepRunner,
    scale: ScaleProfile,
    mechanism: str,
    mix: WorkloadMix,
    alone: AloneIpcCache,
    mb_per_core: int = 2,
    llc_replacement: Optional[str] = None,
) -> _MixFutures:
    """Schedule one mix under one mechanism plus its alone-mode normalizers."""
    shared = _submit(
        runner,
        scale,
        mechanism,
        mix.traces,
        num_cores=mix.num_cores,
        mb_per_core=mb_per_core,
        llc_replacement=llc_replacement,
    )
    alone_futures = [
        alone.submit(trace, mix.num_cores, mb_per_core, llc_replacement)
        for trace in mix.traces
    ]
    return _MixFutures(shared=shared, alone=alone_futures)


def _mix_speedups(
    scale: ScaleProfile,
    mechanism: str,
    mix: WorkloadMix,
    alone: AloneIpcCache,
    mb_per_core: int = 2,
    llc_replacement: Optional[str] = None,
) -> Dict[str, float]:
    """Run one mix under one mechanism; return the Section 5 metrics."""
    return _submit_mix(
        alone.runner, scale, mechanism, mix, alone, mb_per_core, llc_replacement
    ).metrics()


# ------------------------------------------------------------- Figure 6


def run_figure6(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    mechanisms: Sequence[str] = FIGURE6_MECHANISMS,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, ExperimentResult]:
    """Figure 6a-e: single-core IPC, write RHR, tag lookups PKI, WPKI, read RHR."""
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or profile_names())
    futures: Dict[str, Dict[str, SweepFuture]] = {}
    for bench in benchmarks:
        trace = scale.benchmark_trace(bench)
        futures[bench] = {
            mech: _submit(runner, scale, mech, [trace]) for mech in mechanisms
        }
    results: Dict[str, Dict[str, Optional[SimulationResult]]] = {
        bench: {
            mech: _collect(runner, future)
            for mech, future in per_bench.items()
        }
        for bench, per_bench in futures.items()
    }
    note = _failure_note(runner)

    out: Dict[str, ExperimentResult] = {}
    for exp_id, title, extract in FIG6_PANELS:
        headers = ["benchmark"] + list(mechanisms)
        rows = [
            [bench]
            + [
                extract(results[bench][mech])
                if results[bench][mech] is not None
                else None
                for mech in mechanisms
            ]
            for bench in benchmarks
        ]
        # Figure 6a carries a gmean column in the paper. In keep-going mode
        # the gmean spans only the benchmarks that finished for a mechanism.
        if exp_id == "fig6a":
            gmeans = []
            for mech in mechanisms:
                values = [
                    extract(results[b][mech]) for b in benchmarks
                    if results[b][mech] is not None
                ]
                gmeans.append(geometric_mean(values) if values else None)
            rows.append(["gmean"] + gmeans)
        out[exp_id] = ExperimentResult(
            experiment_id=exp_id,
            title=f"Figure 6{exp_id[-1]}: {title} (scale={scale.name})",
            headers=headers,
            rows=rows,
            notes=note,
            raw={"results": results},
        )
    return out


# ------------------------------------------- Figure 7 / Figure 8 / Table 3

#: Per-mix metrics of a multi-core sweep: cores -> mix name -> mechanism ->
#: Section 5 metrics (None where a job failed in ``--keep-going`` mode).
MixMetrics = Dict[int, Dict[str, Dict[str, Optional[Dict[str, float]]]]]


def _multicore_metrics(
    runner: SweepRunner,
    scale: ScaleProfile,
    core_counts: Sequence[int],
    mechanisms: Sequence[str],
    mixes_per_system: Optional[int],
) -> MixMetrics:
    """Submit every (mix, mechanism) run plus its normalizers, then collect."""
    alone = AloneIpcCache(scale, runner)
    pending = {
        cores: {
            mix.name: {
                mech: _submit_mix(runner, scale, mech, mix, alone)
                for mech in mechanisms
            }
            for mix in scale.mixes(cores, count=mixes_per_system)
        }
        for cores in core_counts
    }
    return {
        cores: {
            mix_name: {
                mech: futures.try_metrics(runner)
                for mech, futures in per_mix.items()
            }
            for mix_name, per_mix in per_cores.items()
        }
        for cores, per_cores in pending.items()
    }


def _figure7(
    scale: ScaleProfile,
    mechanisms: Sequence[str],
    metrics: MixMetrics,
    note: str,
) -> ExperimentResult:
    """Average weighted speedup per system per mechanism."""
    rows = []
    raw: Dict = {}
    for cores, per_mix in metrics.items():
        averages = []
        for mech in mechanisms:
            speedups = [
                m[mech]["weighted_speedup"]
                for m in per_mix.values()
                if m[mech] is not None
            ]
            averages.append(_mean(speedups))
            raw[(cores, mech)] = speedups
        rows.append([f"{cores}-core"] + averages)
    return ExperimentResult(
        experiment_id="fig7",
        title=f"Figure 7: Multi-core weighted speedup (scale={scale.name})",
        headers=["system"] + list(mechanisms),
        rows=rows,
        notes=note,
        raw=raw,
    )


def _figure8(
    scale: ScaleProfile,
    cores: int,
    mechanisms: Sequence[str],
    metrics: MixMetrics,
    note: str,
) -> ExperimentResult:
    """Per-workload weighted speedup over Baseline, as an S-curve."""
    names = list(metrics[cores])
    normalized: Dict[str, List[Optional[float]]] = {
        mech: [] for mech in mechanisms
    }
    for per_mech in metrics[cores].values():
        base = per_mech["baseline"]
        for mech in mechanisms:
            ours = per_mech[mech]
            if base is None or ours is None:
                normalized[mech].append(None)
            else:
                normalized[mech].append(
                    ours["weighted_speedup"] / base["weighted_speedup"]
                )
    # Mixes missing their reference series sort to the front, labelled n/a.
    order = sorted(
        range(len(names)),
        key=lambda i: (
            normalized[mechanisms[-1]][i] is not None,
            normalized[mechanisms[-1]][i] or 0.0,
        ),
    )
    rows = [
        [names[i], *(normalized[mech][i] for mech in mechanisms)]
        for i in order
    ]
    plotted = [v for v in normalized[mechanisms[-1]] if v is not None]
    degradations = sum(1 for v in plotted if v < 1.0)
    return ExperimentResult(
        experiment_id="fig8",
        title=(
            f"Figure 8: {cores}-core normalized weighted speedup "
            f"(scale={scale.name})"
        ),
        headers=["workload"] + [f"{m}/baseline" for m in mechanisms],
        rows=rows,
        notes=_with_note(
            f"{degradations}/{len(plotted)} workloads degrade under "
            f"{mechanisms[-1]} (paper: 7/259).",
            note,
        ),
        raw=normalized,
    )


def _pct(value: Optional[float], negate: bool = False) -> Optional[str]:
    if value is None:
        return None
    return f"{-value:+.1%}" if negate else f"{value:+.1%}"


def _table3(
    scale: ScaleProfile,
    mechanism: str,
    metrics: MixMetrics,
    note: str,
) -> ExperimentResult:
    """Mean improvements of ``mechanism`` over Baseline per system."""
    rows = []
    raw = {}
    for cores, per_mix in metrics.items():
        improvements = {key: [] for key in (
            "weighted_speedup", "instruction_throughput",
            "harmonic_speedup", "maximum_slowdown",
        )}
        usable = 0
        for per_mech in per_mix.values():
            base, ours = per_mech["baseline"], per_mech[mechanism]
            if base is None or ours is None:
                continue
            usable += 1
            for key in improvements:
                improvements[key].append(ours[key] / base[key] - 1.0)
        mean = {k: _mean(v) for k, v in improvements.items()}
        rows.append([
            f"{cores}-core",
            usable,
            _pct(mean["weighted_speedup"]),
            _pct(mean["instruction_throughput"]),
            _pct(mean["harmonic_speedup"]),
            _pct(mean["maximum_slowdown"], negate=True),  # reduction is good
        ])
        raw[cores] = improvements
    return ExperimentResult(
        experiment_id="table3",
        title=f"Table 3: {mechanism} vs Baseline (scale={scale.name})",
        headers=[
            "system", "workloads", "weighted speedup", "instr throughput",
            "harmonic speedup", "max slowdown reduction",
        ],
        rows=rows,
        notes=note,
        raw=raw,
    )


def run_figure7(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanisms: Sequence[str] = FIGURE7_MECHANISMS,
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Figure 7: average weighted speedup for 2/4/8-core systems."""
    runner = runner or _serial_runner()
    metrics = _multicore_metrics(
        runner, scale, core_counts, mechanisms, mixes_per_system
    )
    return _figure7(scale, mechanisms, metrics, _failure_note(runner))


def run_figure8(
    scale: ScaleProfile = DEFAULT_SCALE,
    mechanisms: Sequence[str] = ("dawb", "dbi+awb+clb"),
    num_mixes: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Figure 8: per-workload normalized weighted speedup, 4-core S-curve."""
    runner = runner or _serial_runner()
    metrics = _multicore_metrics(
        runner, scale, (4,), ("baseline", *mechanisms), num_mixes
    )
    return _figure8(scale, 4, mechanisms, metrics, _failure_note(runner))


def run_multicore_suite(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanisms: Sequence[str] = FIGURE7_MECHANISMS,
    mixes_per_system: Optional[int] = None,
    figure8_mechanisms: Sequence[str] = ("dawb", "dbi+awb+clb"),
    runner: Optional[SweepRunner] = None,
) -> Dict[str, ExperimentResult]:
    """Figure 7 + Figure 8 + Table 3 from one shared set of runs.

    The three artifacts all consume the same (mix × mechanism) weighted
    speedups; running them through one pass costs a third of the separate
    runners (which matters: simulations dominate wall-clock).
    """
    runner = runner or _serial_runner()
    metrics = _multicore_metrics(
        runner, scale, core_counts, mechanisms, mixes_per_system
    )
    note = _failure_note(runner)
    fig7 = _figure7(scale, mechanisms, metrics, note)
    # The suite's Figure 7 carries the shared per-mix metrics as its raw data.
    fig7.raw = metrics
    s_cores = 4 if 4 in core_counts else core_counts[-1]
    best = "dbi+awb+clb" if "dbi+awb+clb" in mechanisms else mechanisms[-1]
    return {
        "fig7": fig7,
        "fig8": _figure8(
            scale, s_cores, figure8_mechanisms, metrics, note
        ),
        "table3": _table3(scale, best, metrics, note),
    }


def run_table3(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mechanism: str = "dbi+awb+clb",
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 3: performance/fairness of DBI+AWB+CLB vs the Baseline."""
    runner = runner or _serial_runner()
    metrics = _multicore_metrics(
        runner, scale, core_counts, ("baseline", mechanism), mixes_per_system
    )
    return _table3(scale, mechanism, metrics, _failure_note(runner))


# -------------------------------------------------------------- Table 6


def run_table6(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    alphas: Sequence[Fraction] = (Fraction(1, 4), Fraction(1, 2)),
    granularities: Optional[Sequence[int]] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 6: AWB's IPC gain vs DBI size (α) and granularity.

    Granularities sweep the scaled equivalents of the paper's 16/32/64/128
    (the machine, and with it the DRAM row, is shrunk by ``scale.divisor``).
    """
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or ("lbm", "GemsFDTD", "cactusADM", "stream"))
    if granularities is None:
        granularities = sorted(
            {max(2, g // scale.divisor) for g in (16, 32, 64, 128)}
        )
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    baseline_pending = {
        bench: _submit(runner, scale, "baseline", [traces[bench]])
        for bench in benchmarks
    }
    sweep_pending = {
        (alpha, granularity, bench): _submit(
            runner, scale, "dbi+awb", [traces[bench]],
            dbi_alpha=alpha, dbi_granularity=granularity,
        )
        for alpha in alphas
        for granularity in granularities
        for bench in benchmarks
    }
    baseline_ipc = {
        bench: (lambda r: r.ipc[0] if r is not None else None)(
            _collect(runner, future)
        )
        for bench, future in baseline_pending.items()
    }
    rows = []
    raw = {}
    for alpha in alphas:
        row = [f"alpha={alpha}"]
        for granularity in granularities:
            gains = []
            for bench in benchmarks:
                result = _collect(
                    runner, sweep_pending[(alpha, granularity, bench)]
                )
                if result is None or baseline_ipc[bench] is None:
                    continue
                gains.append(result.ipc[0] / baseline_ipc[bench] - 1.0)
            mean_gain = _mean(gains)
            raw[(alpha, granularity)] = gains
            row.append(f"{mean_gain:+.1%}" if mean_gain is not None else None)
        rows.append(row)
    return ExperimentResult(
        experiment_id="table6",
        title=f"Table 6: DBI+AWB IPC gain vs size x granularity (scale={scale.name})",
        headers=["DBI size"] + [f"g={g}" for g in granularities],
        rows=rows,
        notes=_with_note(
            "Granularities are the scaled equivalents of the paper's "
            "16/32/64/128 (divide by the scale divisor).",
            _failure_note(runner),
        ),
        raw=raw,
    )


# -------------------------------------------------------------- Table 7


def run_table7(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_counts: Sequence[int] = (2, 4, 8),
    mb_per_core_options: Sequence[int] = (2, 4),
    mechanism: str = "dbi+awb+clb",
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Table 7: weighted-speedup gain vs LLC capacity (2 vs 4 MB/core)."""
    runner = runner or _serial_runner()
    alone = AloneIpcCache(scale, runner)
    pending = {}
    for mb in mb_per_core_options:
        for cores in core_counts:
            mixes = scale.mixes(cores, count=mixes_per_system)
            pending[(mb, cores)] = [
                (
                    _submit_mix(runner, scale, "baseline", mix, alone,
                                mb_per_core=mb),
                    _submit_mix(runner, scale, mechanism, mix, alone,
                                mb_per_core=mb),
                )
                for mix in mixes
            ]
    rows = []
    raw = {}
    for mb in mb_per_core_options:
        row = [f"{mb}MB/core"]
        for cores in core_counts:
            gains = []
            for base_futures, ours_futures in pending[(mb, cores)]:
                base = base_futures.try_metrics(runner)
                ours = ours_futures.try_metrics(runner)
                if base is None or ours is None:
                    continue
                gains.append(ours["weighted_speedup"] / base["weighted_speedup"] - 1)
            mean_gain = _mean(gains)
            raw[(mb, cores)] = gains
            row.append(f"{mean_gain:+.1%}" if mean_gain is not None else None)
        rows.append(row)
    return ExperimentResult(
        experiment_id="table7",
        title=f"Table 7: {mechanism} gain vs LLC capacity (scale={scale.name})",
        headers=["LLC size"] + [f"{c}-core" for c in core_counts],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


# ------------------------------------------------- Section 6.4/6.5 studies


def run_dbi_replacement_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    policies: Sequence[str] = ("lrw", "lrw-bip", "rwip", "max-dirty", "min-dirty"),
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 4.3/6.4: LRW is comparable-or-best among DBI policies."""
    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or ("lbm", "GemsFDTD", "mcf", "cactusADM"))
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    pending = {
        policy: [
            _submit(runner, scale, "dbi+awb", [traces[b]],
                    dbi_replacement=policy)
            for b in benchmarks
        ]
        for policy in policies
    }
    rows = []
    raw = {}
    for policy in policies:
        results = [_collect(runner, future) for future in pending[policy]]
        ipcs = [r.ipc[0] for r in results if r is not None]
        raw[policy] = {
            bench: (r.ipc[0] if r is not None else None)
            for bench, r in zip(benchmarks, results)
        }
        rows.append([policy, geometric_mean(ipcs) if ipcs else None])
    return ExperimentResult(
        experiment_id="dbi-replacement",
        title=f"DBI replacement policy study (scale={scale.name})",
        headers=["policy", "gmean IPC"],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


def run_drrip_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    core_count: int = 4,
    mixes_per_system: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 6.5: DBI's gain survives a better replacement policy (DRRIP)."""
    runner = runner or _serial_runner()
    alone = AloneIpcCache(scale, runner)
    mixes = scale.mixes(core_count, count=mixes_per_system)
    pending = {
        mech: [
            _submit_mix(runner, scale, mech, mix, alone,
                        llc_replacement="drrip")
            for mix in mixes
        ]
        for mech in ("dawb", "dbi+awb+clb")
    }
    rows = []
    raw = {}
    for mech, futures_list in pending.items():
        metrics_list = [f.try_metrics(runner) for f in futures_list]
        speedups = [
            m["weighted_speedup"] for m in metrics_list if m is not None
        ]
        raw[mech] = speedups
        rows.append([f"{mech} (DRRIP LLC)", _mean(speedups)])
    if rows[0][1] is not None and rows[1][1] is not None:
        gain_note = (
            f"dbi+awb+clb over dawb under DRRIP: "
            f"{rows[1][1] / rows[0][1] - 1.0:+.1%} (paper: +7%)."
        )
    else:
        gain_note = "dbi+awb+clb over dawb under DRRIP: n/a (jobs failed)."
    return ExperimentResult(
        experiment_id="drrip",
        title=f"DRRIP interaction study, {core_count}-core (scale={scale.name})",
        headers=["mechanism", "avg weighted speedup"],
        rows=rows,
        notes=_with_note(gain_note, _failure_note(runner)),
        raw=raw,
    )


def run_case_study(
    scale: ScaleProfile = DEFAULT_SCALE,
    mechanisms: Sequence[str] = (
        "baseline", "dawb", "dbi", "dbi+awb", "dbi+awb+clb"
    ),
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Section 6.2 case study: 2-core GemsFDTD + libquantum.

    The paper: DAWB +40% over baseline; plain DBI +83% (DBI evictions give
    row-batched writebacks without DAWB's tag-lookup storm); CLB adds more.
    """
    from repro.workloads.mix import make_mix
    from repro.workloads.spec import SPEC_PROFILES

    runner = runner or _serial_runner()
    mix = make_mix(
        "case_study",
        [SPEC_PROFILES["GemsFDTD"], SPEC_PROFILES["libquantum"]],
        refs_per_core=scale.refs_per_core_multi,
        footprint_divisor=scale.divisor,
    )
    alone = AloneIpcCache(scale, runner)
    pending = [
        (mech, _submit_mix(runner, scale, mech, mix, alone))
        for mech in mechanisms
    ]
    rows = []
    raw = {}
    baseline_ws = None
    for mech, futures in pending:
        metrics = futures.try_metrics(runner)
        ws = metrics["weighted_speedup"] if metrics is not None else None
        raw[mech] = ws
        if baseline_ws is None and ws is not None and mech == mechanisms[0]:
            baseline_ws = ws
        if ws is None or baseline_ws is None:
            rows.append([mech, ws, None])
        else:
            rows.append([mech, ws, f"{ws / baseline_ws - 1.0:+.1%}"])
    return ExperimentResult(
        experiment_id="case-study",
        title=f"Case study: GemsFDTD + libquantum, 2-core (scale={scale.name})",
        headers=["mechanism", "weighted speedup", "vs baseline"],
        rows=rows,
        notes=_failure_note(runner),
        raw=raw,
    )


# ------------------------------------------- Section 3.3 reliability study


#: Write-heavy benchmarks where the dirty-tracking trade-off is visible.
DRAMCACHE_TRADEOFF_BENCHMARKS = ("lbm", "milc", "mcf")


def _dramcache_level_config(scale: ScaleProfile, backend: str):
    """The level shape the trade-off study runs at one scale profile.

    The level shrinks further than the capacity-ratio alone (÷8 on top of
    the profile divisor) so quick traces actually pressure it: without
    evictions neither backend ever writes off-chip and the study measures
    nothing.
    """
    import dataclasses as _dataclasses

    config = scale.dram_cache_config(dirty_backend=backend)
    return _dataclasses.replace(
        config, num_blocks=max(256, (1 << 17) // (scale.divisor * 8))
    )


def run_dramcache(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmarks: Optional[Iterable[str]] = None,
    mechanism: str = "baseline",
    runner: Optional[SweepRunner] = None,
) -> ExperimentResult:
    """Die-stacked DRAM-cache dirty-tracking trade-off study.

    Runs each benchmark twice behind the same LLC mechanism — once with the
    level's per-line tag dirty bits, once with the DBI backend whose
    aggressive writeback drains whole dirty rows. The DBI side must raise
    the off-chip writeback row-hit rate and lower the write-stream cost in
    DRAM cycles (row misses pay t_RP+t_RCD) without hurting IPC — the
    trade-off DRAM-cache proposals (TicToc, Banshee) navigate.
    """
    from repro.dramcache.config import DIRTY_BACKENDS

    runner = runner or _serial_runner()
    benchmarks = list(benchmarks or DRAMCACHE_TRADEOFF_BENCHMARKS)
    traces = {b: scale.benchmark_trace(b) for b in benchmarks}
    pending = {
        (bench, backend): _submit(
            runner, scale, mechanism, [traces[bench]],
            dram_cache=_dramcache_level_config(scale, backend),
        )
        for bench in benchmarks
        for backend in DIRTY_BACKENDS
    }
    dram = scale.dram_config()
    miss_penalty = dram.t_rp + dram.t_rcd
    rows: List[List] = []
    raw: Dict = {}
    for bench in benchmarks:
        cells: Dict[str, Optional[Dict[str, float]]] = {}
        for backend in DIRTY_BACKENDS:
            result = _collect(runner, pending[(bench, backend)])
            if result is None:
                cells[backend] = None
                continue
            stats = result.stats
            writes = stats.get("dram.dram_writes_performed", 0)
            row_misses = stats.get(
                "dram.write_row_hit_rate.total", 0
            ) - stats.get("dram.write_row_hit_rate.hits", 0)
            cells[backend] = {
                "ipc": result.ipc[0],
                "write_row_hit_rate": result.write_row_hit_rate,
                "offchip_writes": stats.get("dramcache.offchip_writes", 0),
                "write_cost_cycles": writes * dram.t_burst
                + row_misses * miss_penalty,
            }
        raw[bench] = cells
        tag, dbi = cells.get("tag"), cells.get("dbi")
        rows.append([
            bench,
            tag["write_row_hit_rate"] if tag else None,
            dbi["write_row_hit_rate"] if dbi else None,
            tag["write_cost_cycles"] if tag else None,
            dbi["write_cost_cycles"] if dbi else None,
            tag["ipc"] if tag else None,
            dbi["ipc"] if dbi else None,
        ])
    complete = [
        c for c in raw.values() if c.get("tag") and c.get("dbi")
    ]
    if complete:
        hit_wins = sum(
            1 for c in complete
            if c["dbi"]["write_row_hit_rate"] > c["tag"]["write_row_hit_rate"]
        )
        cost_wins = sum(
            1 for c in complete
            if c["dbi"]["write_cost_cycles"] < c["tag"]["write_cost_cycles"]
        )
        note = (
            f"DBI-backed aggressive writeback raises the off-chip writeback "
            f"row-hit rate on {hit_wins}/{len(complete)} benchmarks and "
            f"lowers the write-stream cost on {cost_wins}/{len(complete)} "
            f"(write cost = performed writes x t_burst + row misses x "
            f"(t_RP+t_RCD) = {dram.t_burst} / {miss_penalty} cycles)."
        )
    else:
        note = "dirty-backend comparison: n/a (jobs failed)."
    return ExperimentResult(
        experiment_id="dramcache",
        title=(
            f"DRAM-cache dirty-tracking trade-off, mechanism={mechanism} "
            f"(scale={scale.name})"
        ),
        headers=[
            "benchmark",
            "tag wb row-hit", "dbi wb row-hit",
            "tag write cost", "dbi write cost",
            "tag IPC", "dbi IPC",
        ],
        rows=rows,
        notes=_with_note(note, _failure_note(runner)),
        raw=raw,
    )


def run_reliability(
    scale: ScaleProfile = DEFAULT_SCALE,
    benchmark: str = "lbm",
    mechanisms: Sequence[str] = ("baseline", "dbi", "dbi+awb+clb"),
    alphas: Sequence[Fraction] = (Fraction(1, 4), Fraction(1, 2)),
    faults: int = 200,
    interval: int = 500,
    seed: int = 0x5EED,
    double_bit_fraction: float = 0.0,
    refs: Optional[int] = None,
) -> ExperimentResult:
    """Section 3.3 heterogeneous-ECC soft-error study.

    Runs each mechanism with a :class:`~repro.core.ecc.SoftErrorInjector`
    attached and tallies fault outcomes per (mechanism, α). Mechanisms that
    keep dirty bits in a DBI get ECC aimed at exactly the dirty blocks
    (:class:`~repro.core.ecc.EccDomain`); conventional mechanisms get the
    same α budget spread blind over the cache
    (:class:`~repro.core.ecc.UntrackedEccDomain`). The paper's argument is
    the contrast in the data-loss column: DBI-tracked domains never lose a
    single-bit upset, the budget-matched untracked ones do.

    Injection is observational (audit events), so the simulation statistics
    of these runs are byte-identical to uninstrumented ones; the campaign is
    driven inline rather than through a SweepRunner because its product —
    injector tallies — is not part of :class:`SimulationResult`.
    """
    from repro.core.ecc import SoftErrorConfig
    from repro.sim.system import System

    trace = scale.benchmark_trace(benchmark, refs=refs)
    rows = []
    raw: Dict = {}
    tracked_loss = 0
    untracked_loss = 0
    for mechanism in mechanisms:
        for alpha in alphas:
            config = scale.system_config(mechanism, dbi_alpha=alpha)
            soft = SoftErrorConfig(
                faults=faults, interval=interval, seed=seed,
                double_bit_fraction=double_bit_fraction,
            )
            system = System(config, [trace], soft_errors=soft)
            system.run()
            injector = system.soft_errors
            counts = dict(injector.counts)
            raw[(mechanism, str(alpha))] = counts
            if injector.tracked:
                domain = "DBI-tracked"
                tracked_loss += counts["data_loss"]
            else:
                domain = f"untracked (coverage={alpha})"
                untracked_loss += counts["data_loss"]
            rows.append([
                mechanism,
                f"alpha={alpha}",
                domain,
                counts["injected"],
                counts["detected"],
                counts["corrected"],
                counts["refetched"],
                counts["data_loss"],
            ])
    notes = (
        f"Single-bit upsets on DBI-tracked domains lost {tracked_loss} "
        f"blocks (paper Section 3.3 predicts 0: every dirty block is "
        f"SECDED-protected by construction); budget-matched untracked "
        f"domains lost {untracked_loss}."
    )
    if double_bit_fraction:
        notes += (
            f" {double_bit_fraction:.0%} of upsets were double-bit, which "
            f"SECDED detects but cannot correct."
        )
    return ExperimentResult(
        experiment_id="reliability",
        title=(
            f"Heterogeneous ECC soft-error study, {benchmark} "
            f"(scale={scale.name}, {faults} faults)"
        ),
        headers=[
            "mechanism", "DBI size", "protection domain", "injected",
            "detected", "corrected", "refetched", "data loss",
        ],
        rows=rows,
        notes=notes,
        raw=raw,
    )
