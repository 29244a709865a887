"""Self-checks of the layer tracer."""

import cProfile
import os
import pstats

from perfbench import cells
from perfbench.tracer import LAYERS, Tracer, layer_of_module
from repro.analysis.scaling import QUICK_SCALE
from repro.cache.cache import Cache
from repro.campaign.orchestrator import CampaignConfig
from repro.sim.system import System
from repro.utils.events import EventQueue

#: Largest difference, in percentage points of the run's self time, allowed
#: between the tracer's and cProfile's share of any layer.
SHARE_TOLERANCE = 0.06


def _setup(mechanism="dbi+awb", refs=6000, **overrides):
    trace = QUICK_SCALE.benchmark_trace("mcf", refs=refs)
    config = QUICK_SCALE.system_config(mechanism, **overrides)
    return cells.Setup([("mcf", System(config, [trace]))], 0.0, 0.0)


def _merged(shares):
    """Both cache layers as one: cProfile cannot split them by module."""
    shares = dict(shares)
    shares["cache"] = shares.pop("cache.l1l2") + shares.pop("cache.llc")
    total = sum(shares.values())
    return {layer: value / total for layer, value in shares.items()}


def _cprofile_layer(func):
    """The layer of a profiled function; None for code outside a layer."""
    filename = func[0].replace(os.sep, "/")
    if "/src/repro/" not in filename:
        return None
    module = "repro." + filename.split("/src/repro/", 1)[1][:-3].replace(
        "/", ".")
    if module.startswith(("repro.utils.stats", "repro.utils.rng")):
        return None
    return layer_of_module(module)


def cprofile_shares(setup):
    """cProfile self time grouped by module into layers.

    Builtins and shared utilities belong to no layer; their self time is
    credited to the layer of each caller, in proportion to its calls.
    """
    profile = cProfile.Profile()
    profile.enable()
    cells.run_pass(setup)
    profile.disable()
    shares = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, callers) in pstats.Stats(
            profile).stats.items():
        layer = _cprofile_layer(func)
        if layer is not None:
            shares[layer] += tottime
            continue
        for caller, (_, _, caller_tottime, _) in callers.items():
            shares[_cprofile_layer(caller) or "other"] += caller_tottime
    return _merged(shares)


def test_layer_shares_agree_with_cprofile():
    untraced = cells.run_pass(_setup())
    tracer = Tracer()
    with tracer.installed():
        cells.run_pass(_setup(), tracer)
    traced = _merged(tracer.layer_self_s(untraced.run_s))
    profiled = cprofile_shares(_setup())
    for layer, share in profiled.items():
        assert abs(traced[layer] - share) <= SHARE_TOLERANCE, (
            layer, traced, profiled)


def test_traced_run_leaves_results_unchanged():
    level = QUICK_SCALE.dram_cache_config(dirty_backend="dbi")
    untraced = cells.run_pass(_setup(refs=3000, dram_cache=level))
    tracer = Tracer()
    original = Cache.lookup
    with tracer.installed():
        traced = cells.run_pass(_setup(refs=3000, dram_cache=level), tracer)
    assert Cache.lookup is original
    assert untraced.outcomes[0].digest == traced.outcomes[0].digest
    assert tracer.events == traced.events
    assert tracer.schedule_calls >= tracer.events
    for layer in ("kernel", "core", "hierarchy", "cache.l1l2", "cache.llc",
                  "llc_port", "mechanism", "dbi", "dram", "dramcache"):
        assert tracer.self_s[LAYERS.index(layer)] > 0, layer


def test_spans_nest_inside_their_cell(tmp_path):
    tracer = Tracer()
    with tracer.installed():
        queue = EventQueue()
        queue.profiler = tracer.event
        queue.schedule(3, lambda: queue.schedule(5, lambda: None))
        tracer.cell_span(7, queue.run)
    assert tracer.events == 2 and tracer.schedule_calls == 2
    path = str(tmp_path / "spans")
    tracer.write(path, ["cell"])
    assert os.path.getsize(path + ".bin") == tracer.spans_kept * (
        4 + 1 + 2 + 8 + 8)
    # The cell span closes last, outermost, around every span of the cell.
    assert tracer._depths[-1] == 0 and tracer._cells[-1] == 7
    inside = [i for i, cell in enumerate(tracer._cells) if cell == 7]
    assert len(inside) == 4  # cell, two events, the schedule in the first
    assert all(tracer._starts[-1] <= tracer._starts[i] <= tracer._ends[i]
               <= tracer._ends[-1] for i in inside)


def test_campaign_trace_times_each_cell_once(tmp_path):
    # The campaign resubmits every cell when it finalizes and gets the
    # memoized future back; that must not add a second sample per cell.
    config = CampaignConfig(scale="quick", benchmarks=("mcf", "bzip2"),
                            mechanisms=("baseline", "dawb"), core_counts=(1,),
                            refs=500)
    tracer = Tracer()
    with tracer.installed(campaign=True):
        run = cells.run_campaign(config, str(tmp_path / "campaign"))
    assert len(run.results) == run.cells == 4
    assert len(tracer.cell_seconds) == run.cells
    assert all(seconds > 0 for seconds in tracer.cell_seconds)
    assert len(tracer.campaign_runs) == 1
    assert tracer.journal_appends > 0
