"""Tests for the experiment runners (tiny scale, structure-focused)."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    AloneIpcCache,
    ExperimentResult,
    run_case_study,
    run_dbi_replacement_study,
    run_figure6,
    run_figure7,
    run_table6,
)
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import QUICK_SCALE
from repro.campaign.plan import CampaignCell, cell_config, cell_traces

#: An even-smaller profile so these tests stay fast.
TINY = dataclasses.replace(
    QUICK_SCALE,
    name="tiny",
    refs_single_core=4_000,
    refs_per_core_multi=2_500,
    mixes_per_system=2,
)


class TestExperimentResult:
    def test_to_text_renders(self):
        result = ExperimentResult(
            experiment_id="x", title="T", headers=["a"], rows=[[1]],
            notes="note",
        )
        text = result.to_text()
        assert "T" in text and "note" in text


class TestFigure6:
    def test_produces_five_subfigures(self):
        results = run_figure6(TINY, benchmarks=("bzip2",),
                              mechanisms=("tadip", "dbi"))
        assert sorted(results) == ["fig6a", "fig6b", "fig6c", "fig6d", "fig6e"]

    def test_rows_cover_benchmarks_plus_gmean(self):
        results = run_figure6(TINY, benchmarks=("bzip2", "astar"),
                              mechanisms=("tadip",))
        fig6a = results["fig6a"]
        names = [row[0] for row in fig6a.rows]
        assert names == ["bzip2", "astar", "gmean"]
        # Other subfigures omit the gmean row.
        assert [row[0] for row in results["fig6b"].rows] == ["bzip2", "astar"]

    def test_values_are_numeric(self):
        results = run_figure6(TINY, benchmarks=("bzip2",), mechanisms=("tadip",))
        for result in results.values():
            for row in result.rows:
                assert all(isinstance(v, (int, float)) for v in row[1:])


class TestAloneCache:
    def test_caches_by_trace_and_shape(self):
        alone = AloneIpcCache(TINY)
        trace = TINY.benchmark_trace("bzip2", refs=2000)
        first = alone.ipc(trace, num_cores=2)
        second = alone.ipc(trace, num_cores=2)
        assert first == second
        assert len(alone._cache) == 1
        alone.ipc(trace, num_cores=4)
        assert len(alone._cache) == 2

    def test_later_copies_use_the_campaign_alone_cell(self):
        mix = TINY.mixes(2, count=1)[0]
        cell = CampaignCell(
            cell_id=f"alone/2c/{mix.benchmark_names[1]}",
            mechanism="baseline",
            num_cores=2,
            benchmark=mix.benchmark_names[1],
            kind="alone",
        )
        campaign = SweepRunner(workers=0, cache_dir=None).run(
            cell_config(TINY, cell), cell_traces(TINY, cell)
        )
        # Core 1's trace has its own seed and base address; its normalizer
        # must still be the benchmark's canonical alone run.
        assert AloneIpcCache(TINY).ipc(mix.traces[1], num_cores=2) == (
            campaign.ipc[0]
        )


class TestFigure7:
    def test_structure(self):
        result = run_figure7(TINY, core_counts=(2,), mechanisms=("baseline", "dbi"),
                             mixes_per_system=2)
        assert result.headers == ["system", "baseline", "dbi"]
        assert result.rows[0][0] == "2-core"
        assert all(isinstance(v, float) for v in result.rows[0][1:])
        assert (2, "baseline") in result.raw


class TestTable6:
    def test_granularity_scaling_labels(self):
        result = run_table6(TINY, benchmarks=("lbm",))
        # Scaled equivalents of 16/32/64/128 with divisor 16: {2, 4, 8}
        # (deduplicated after the floor of 2).
        assert result.headers[0] == "DBI size"
        assert len(result.rows) == 2  # two alphas


class TestStudies:
    def test_replacement_study_covers_policies(self):
        result = run_dbi_replacement_study(TINY, benchmarks=("lbm",),
                                           policies=("lrw", "max-dirty"))
        assert [row[0] for row in result.rows] == ["lrw", "max-dirty"]
        assert all(row[1] > 0 for row in result.rows)

    def test_case_study_runs(self):
        result = run_case_study(TINY, mechanisms=("baseline", "dbi"))
        assert len(result.rows) == 2
        assert result.raw["baseline"] > 0
