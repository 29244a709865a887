"""Tests for the shared multi-core suite runner."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    run_figure7,
    run_multicore_suite,
    run_table3,
)
from repro.analysis.runner import SweepRunner
from repro.analysis.scaling import QUICK_SCALE

TINY = dataclasses.replace(
    QUICK_SCALE, name="tiny", refs_per_core_multi=2_500, mixes_per_system=2
)


class TestSuiteStructure:
    def setup_method(self):
        self.suite = run_multicore_suite(
            TINY,
            core_counts=(2,),
            mechanisms=("baseline", "dbi"),
            mixes_per_system=2,
            figure8_mechanisms=("dbi",),
        )

    def test_produces_three_artifacts(self):
        assert sorted(self.suite) == ["fig7", "fig8", "table3"]

    def test_fig7_rows(self):
        fig7 = self.suite["fig7"]
        assert fig7.headers == ["system", "baseline", "dbi"]
        assert fig7.rows[0][0] == "2-core"
        assert all(isinstance(v, float) for v in fig7.rows[0][1:])

    def test_fig8_normalized_to_baseline(self):
        fig8 = self.suite["fig8"]
        assert fig8.headers == ["workload", "dbi/baseline"]
        assert len(fig8.rows) == 2
        # S-curve is sorted ascending by the last mechanism's ratio.
        values = [row[1] for row in fig8.rows]
        assert values == sorted(values)

    def test_table3_improvement_percentages(self):
        table3 = self.suite["table3"]
        assert table3.rows[0][0] == "2-core"
        assert table3.rows[0][1] == 2  # workload count
        assert table3.rows[0][2].endswith("%")

    def test_raw_metrics_shared(self):
        raw = self.suite["fig7"].raw
        assert 2 in raw
        for mix_metrics in raw[2].values():
            assert set(mix_metrics) == {"baseline", "dbi"}
            for metrics in mix_metrics.values():
                assert set(metrics) == {
                    "weighted_speedup", "instruction_throughput",
                    "harmonic_speedup", "maximum_slowdown",
                }


@pytest.mark.parametrize(
    "exp_id, standalone",
    [
        ("fig7", lambda runner: run_figure7(
            TINY, core_counts=(2,), mechanisms=("baseline", "dbi"),
            mixes_per_system=2, runner=runner,
        )),
        ("table3", lambda runner: run_table3(
            TINY, core_counts=(2,), mechanism="dbi", mixes_per_system=2,
            runner=runner,
        )),
    ],
)
def test_standalone_runner_matches_suite(exp_id, standalone):
    runner = SweepRunner(workers=0, cache_dir=None)
    suite = run_multicore_suite(
        TINY,
        core_counts=(2,),
        mechanisms=("baseline", "dbi"),
        mixes_per_system=2,
        figure8_mechanisms=("dbi",),
        runner=runner,
    )
    assert standalone(runner).to_text() == suite[exp_id].to_text()
