#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It measures for about ``--seconds``
seconds (never less than one pass over the workload's cells), checks the
simulated outputs, prints every metric by name with its unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics from an untraced process.
``--trace 1`` runs the cells once untraced and once under the layer tracer
(see ``perfbench/tracer.py``) and reports the per-layer metrics. See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

#: A seed kept out of every tuning run, for re-checking a later claim.
HELD_OUT_SEED = 20261017

#: Setups timed per run at least; setup_s is their median.
MIN_SETUPS = 9

#: Campaigns per campaign-grid run at least.
MIN_CAMPAIGNS = 3

END_TO_END = {
    "sim_kips": "kinstr/s",
    "cells_per_hour": "cells/h",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "kernel.self_s": "s",
    "kernel.events": "count",
    "kernel.schedule_calls": "count",
    "kernel.fired_per_schedule": "ratio",
    "kernel.host_us_per_event": "us",
    "core.self_s": "s",
    "core.calls": "count",
    "hierarchy.self_s": "s",
    "hierarchy.calls": "count",
    "cache.l1l2.self_s": "s",
    "cache.l1l2.calls": "count",
    "cache.llc.self_s": "s",
    "cache.llc.calls": "count",
    "llc_port.self_s": "s",
    "llc_port.requests": "count",
    "mechanism.self_s": "s",
    "mechanism.tag_lookups": "count",
    "mechanism.probe_useful_ratio": "ratio",
    "dbi.self_s": "s",
    "dbi.calls": "count",
    "dram.self_s": "s",
    "dram.requests": "count",
    "dram.wakes_fired_per_scheduled": "ratio",
    "dramcache.self_s": "s",
    "dramcache.calls": "count",
    "workloads.trace_gen_s": "s",
    "campaign.journal_appends": "count",
    "campaign.journal_append_s": "s",
    "runner.cell_s_p50": "s",
    "campaign.finalize_s": "s",
    "trace.overhead": "ratio",
    "cells_attempted": "count",
    "cells_failed": "count",
}

#: The paper's figures beside which the model's indicators are printed.
PAPER = {
    "model.ipc_gain.dbi_awb_vs_tadip": 0.13,
    "model.write_rhr.tadip": 0.35,
    "model.write_rhr.dawb": 0.88,
    "model.write_rhr.dbi_awb": 0.81,
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no simulator source at {src}/repro; run from the "
            "root of a full checkout"
        )
    sys.path[:0] = [src, ROOT]


def peak_rss_mib(children: bool = False) -> float:
    """Peak resident memory of this process (and its reaped children)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is KiB on Linux


def say(line: str) -> None:
    print(line, flush=True)


# ------------------------------------------------------- untraced runs


def measure_sim(name: str, seed: int, seconds: float):
    """Passes over the workload's cells until ``seconds`` would be exceeded."""
    from perfbench import cells

    workload = cells.sim_workload(name, seed)
    ledger = cells.Ledger()
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setup = cells.build(workload)
        setups.append(setup.setup_s)
        result = cells.run_pass(setup)
        ledger.record_pass(result)
        passes.append(result)
        spent = time.perf_counter() - start
        if spent + setup.setup_s + result.run_s > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(cells.build(workload).setup_s)
    for outcome in passes[0].outcomes:
        say(f"cell {outcome.name:<32} {outcome.run_s:8.3f} s "
            f"{outcome.instructions:>9} instr {outcome.events:>9} events "
            f"{'FAILED ' + outcome.error if outcome.failed else ''}")
    say(f"passes {len(passes)}, setups {len(setups)}")
    metrics = {
        "sim_kips": statistics.median([p.kips for p in passes]),
        "cells_per_hour": statistics.median([p.cells_per_hour for p in passes]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    if name == "wb-fullgeo":
        report_model(passes[0])
    return metrics, ledger


def measure_campaign(seed: int, seconds: float):
    """Whole campaigns into fresh directories, then the direct cross-check."""
    from perfbench import cells

    config = cells.campaign_config(seed)
    directory = os.path.join(WORK_DIR, "campaign")
    ledger = cells.Ledger()
    runs = []
    start = time.perf_counter()
    while True:
        run = cells.run_campaign(config, directory)
        runs.append(run)
        record_campaign(ledger, config, run)
        spent = time.perf_counter() - start
        if len(runs) >= MIN_CAMPAIGNS and spent + run.wall_s > seconds:
            break
    # Set-up is planning the campaign plus making each cell's inputs and
    # system, which the campaign does cell by cell as it dispatches.
    setups = [
        cells.plan_campaign(config, directory)
        + cells.campaign_setup(config).setup_s
        for _ in range(MIN_SETUPS)
    ]
    direct = cells.run_pass(cells.campaign_setup(config))
    ledger.record_pass(direct)
    work = direct.instructions
    say(f"campaigns {len(runs)}, {runs[0].cells} cells each; direct "
        f"cross-check of every cell in {direct.run_s:.3f} s")
    metrics = {
        "sim_kips": statistics.median([work / 1000.0 / r.wall_s for r in runs]),
        "cells_per_hour": statistics.median([r.cells_per_hour for r in runs]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(children=True),
    }
    return metrics, ledger


def record_campaign(ledger, config, run) -> None:
    """Every planned cell either matches its reference digest or failed."""
    from repro.campaign.orchestrator import result_digest

    for cell in config.plan():
        result = run.results.get(cell.cell_id)
        ledger.record(
            cell.cell_id,
            None if result is None else result_digest(result),
            None if result is not None else "missing from results.json",
        )


def report_model(first_pass) -> None:
    """The model's headline indicators beside the paper's figures."""
    results = {o.name: o.result for o in first_pass.outcomes if o.result}
    if len(results) < len(first_pass.outcomes):
        return
    ipc = {name: r["ipc"][0] for name, r in results.items()}
    rhr = {name: r["stats"].get("dram.write_row_hit_rate", 0.0)
           for name, r in results.items()}
    values = {
        "model.ipc_gain.dbi_awb_vs_tadip":
            ipc["lbm/dbi+awb"] / ipc["lbm/tadip"] - 1.0,
        "model.write_rhr.tadip": rhr["lbm/tadip"],
        "model.write_rhr.dawb": rhr["lbm/dawb"],
        "model.write_rhr.dbi_awb": rhr["lbm/dbi+awb"],
    }
    say("model indicators (synthetic traces; the model is unvalidated "
        "against real SPEC runs; reported, not gated):")
    for name, value in values.items():
        say(f"  {name:<34} {value:+.4f}   paper {PAPER[name]:+.2f}")


# ---------------------------------------------------------- traced runs


def traced_sim(name: str, seed: int):
    """One untraced pass, then the same cells under the tracer."""
    from perfbench import cells
    from perfbench.tracer import Tracer

    workload = cells.sim_workload(name, seed)
    ledger = cells.Ledger()
    setup = cells.build(workload)
    untraced = cells.run_pass(setup)
    ledger.record_pass(untraced)
    tracer = Tracer()
    traced_setup = cells.build(workload)
    with tracer.installed():
        traced = cells.run_pass(traced_setup, tracer)
    ledger.record_pass(traced)
    tracer.write(os.path.join(WORK_DIR, f"spans-{name}"),
                 [cell.name for cell in workload.cells])
    metrics = layer_metrics(tracer, untraced, traced)
    metrics["workloads.trace_gen_s"] = setup.trace_gen_s
    metrics["trace.overhead"] = traced.run_s / untraced.run_s
    return metrics, ledger


def traced_campaign(seed: int):
    """Untraced campaign and cross-check, then both again under the tracer.

    The campaign's simulations run in its worker processes, which are not
    traced; the simulation layers are measured on the serial cross-check
    of the same cells.
    """
    from perfbench import cells
    from perfbench.tracer import Tracer

    config = cells.campaign_config(seed)
    ledger = cells.Ledger()
    directory = os.path.join(WORK_DIR, "campaign")
    run = cells.run_campaign(config, directory)
    record_campaign(ledger, config, run)
    setup = cells.campaign_setup(config)
    untraced = cells.run_pass(setup)
    ledger.record_pass(untraced)

    tracer = Tracer()
    with tracer.installed(campaign=True):
        traced_run = cells.run_campaign(config, directory)
    record_campaign(ledger, config, traced_run)
    traced_setup = cells.campaign_setup(config)
    with tracer.installed():
        traced = cells.run_pass(traced_setup, tracer)
    ledger.record_pass(traced)
    tracer.write(os.path.join(WORK_DIR, "spans-campaign-grid"),
                 [name for name, _ in setup.systems])

    metrics = layer_metrics(tracer, untraced, traced)
    metrics["workloads.trace_gen_s"] = setup.trace_gen_s
    metrics["campaign.journal_appends"] = tracer.journal_appends
    metrics["campaign.journal_append_s"] = tracer.journal_append_s
    metrics["runner.cell_s_p50"] = (
        statistics.median(tracer.cell_seconds) if tracer.cell_seconds else 0.0
    )
    metrics["campaign.finalize_s"] = tracer.campaign_runs[-1][1]
    metrics["trace.overhead"] = (traced_run.wall_s + traced.run_s) / (
        run.wall_s + untraced.run_s
    )
    return metrics, ledger


def layer_metrics(tracer, untraced, traced) -> dict:
    """Per-layer metrics of a traced pass (campaign metrics zeroed)."""
    self_s = tracer.layer_self_s(untraced.run_s)
    calls = tracer.layer_calls()
    stats = [o.result["stats"] for o in traced.outcomes if o.result]
    probes = sum(s.get("mech.row_probes", 0) for s in stats)
    wasted = sum(s.get("mech.wasted_probes", 0) for s in stats)
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer in ("kernel", "core", "hierarchy", "cache.l1l2", "cache.llc",
                  "llc_port", "mechanism", "dbi", "dram", "dramcache"):
        metrics[f"{layer}.self_s"] = self_s[layer]
    for layer in ("core", "hierarchy", "cache.l1l2", "cache.llc", "dbi",
                  "dramcache"):
        metrics[f"{layer}.calls"] = calls[layer]
    metrics.update({
        "kernel.events": tracer.events,
        "kernel.schedule_calls": tracer.schedule_calls,
        "kernel.fired_per_schedule":
            tracer.events / max(1, tracer.schedule_calls),
        "kernel.host_us_per_event":
            1e6 * untraced.run_s / max(1, untraced.events),
        "llc_port.requests": tracer.port_requests,
        "mechanism.tag_lookups": sum(s.get("mech.tag_lookups", 0)
                                     for s in stats),
        "mechanism.probe_useful_ratio":
            (probes - wasted) / probes if probes else 0.0,
        "dram.requests": tracer.dram_requests,
        "dram.wakes_fired_per_scheduled":
            tracer.wakes_fired / max(1, tracer.wakes_scheduled),
    })
    say(f"traced {tracer.events} events; self time by layer "
        f"(other: {self_s['other']:.3f} s, spans kept "
        f"{tracer.spans_kept}, dropped {tracer.spans_dropped}):")
    total = sum(self_s.values()) or 1.0
    for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        say(f"  {layer:<11} {seconds:8.3f} s  {seconds / total:6.1%}  "
            f"{calls[layer]:>10} spans")
    return metrics


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed (held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from perfbench import cells

    if args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(cells.WORKLOADS)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    say(f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{'traced' if args.trace else 'untraced'}")
    campaign = args.workload == "campaign-grid"
    if args.trace:
        metrics, ledger = (
            traced_campaign(args.seed) if campaign
            else traced_sim(args.workload, args.seed)
        )
        metrics["cells_attempted"] = ledger.attempted
        metrics["cells_failed"] = ledger.failed
        units = PER_LAYER
    else:
        metrics, ledger = (
            measure_campaign(args.seed, args.seconds) if campaign
            else measure_sim(args.workload, args.seed, args.seconds)
        )
        units = END_TO_END
    for error in ledger.errors:
        say(f"FAILED {error}")
    say(f"result_digest {ledger.workload_digest()}")
    say(f"cells_attempted {ledger.attempted}")
    say(f"cells_failed {ledger.failed}")
    for name, unit in units.items():
        say(f"{name} {metrics[name]:.6g} {unit}")
    say(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
