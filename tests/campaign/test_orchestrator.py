"""Campaign orchestrator: completion, recovery, and signal drain.

These tests run real (tiny) campaigns inline — quick scale, one
benchmark, two mechanisms, ``workers=0`` — so journal offsets are
deterministic. SIGKILL-grade chaos (which would take pytest down with
it) lives in the subprocess-based ``test_chaos_proof.py``.
"""

import filecmp
import glob
import json
import os
import signal

import pytest

from repro.analysis import runner as runner_module
from repro.analysis.chaos import CampaignChaosConfig, CampaignFaultInjector
from repro.analysis.scaling import QUICK_SCALE
from repro.campaign import orchestrator as orchestrator_module
from repro.campaign.journal import (
    CampaignJournal,
    encode_record,
    scan_journal,
)
from repro.campaign.orchestrator import (
    Campaign,
    CampaignConfig,
    CampaignError,
    campaign_status,
    manifest_path,
    render_status,
    report_path,
    results_path,
)
from repro.campaign.plan import (
    CampaignCell,
    cell_config,
    cell_traces,
    plan_fingerprint,
)
from repro.workloads.spec import profile_names

REFS = 300


def make_config(**overrides):
    base = dict(
        scale="quick",
        benchmarks=("lbm",),
        mechanisms=("baseline", "dbi"),
        core_counts=(1,),
        refs=REFS,
        workers=0,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def run_campaign(directory, config=None, chaos=None):
    if os.path.exists(os.path.join(directory, "journal.jsonl")):
        campaign = Campaign.open(directory)
    else:
        campaign = Campaign.create(directory, config or make_config())
    with campaign:
        return campaign.run(progress=None, chaos=chaos)


def assert_no_litter(directory):
    """No atomic-write staging or partial files survive a finished run."""
    litter = [
        path
        for pattern in ("**/*.partial", "**/*.tmp.*")
        for path in glob.glob(
            os.path.join(directory, pattern), recursive=True
        )
    ]
    assert litter == [], f"staging litter left behind: {litter}"


class TestCompletion:
    def test_run_to_complete(self, tmp_path):
        directory = str(tmp_path / "camp")
        outcome = run_campaign(directory)
        assert outcome.status == "complete"
        assert outcome.exit_code == 0
        assert outcome.cells_done == outcome.cells_total == 2
        assert os.path.exists(results_path(directory))
        assert os.path.exists(report_path(directory))
        manifest = json.load(open(manifest_path(directory)))
        assert manifest["status"] == "complete"
        scan = scan_journal(os.path.join(directory, "journal.jsonl"))
        assert scan.records[-1]["kind"] == "complete"
        assert_no_litter(directory)

    def test_rerun_is_idempotent(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        results_before = open(results_path(directory), "rb").read()
        report_before = open(report_path(directory), "rb").read()
        outcome = run_campaign(directory)  # opens the completed campaign
        assert outcome.status == "complete"
        assert open(results_path(directory), "rb").read() == results_before
        assert open(report_path(directory), "rb").read() == report_before

    def test_results_payload_shape(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        payload = json.load(open(results_path(directory)))
        assert set(payload["cells"]) == {
            "1c/lbm/baseline", "1c/lbm/dbi",
        }
        for entry in payload["cells"].values():
            assert entry["key"]
            assert "ipc" in entry["result"]

    def test_live_lock_refuses_second_orchestrator(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        try:
            with pytest.raises(CampaignError, match="another orchestrator"):
                Campaign.open(directory)
        finally:
            campaign.close()

    def test_create_refuses_existing_journal(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        with pytest.raises(CampaignError, match="already exists"):
            Campaign.create(directory, make_config())


class TestRecovery:
    def test_resume_after_torn_tail_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "torn")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        with open(journal, "ab") as handle:
            handle.write(b'{"kind": "dispatch", "cell": "1c/lbm/ba')
        campaign = Campaign.open(directory)
        assert campaign.recovered_torn == journal + ".torn"
        with campaign:
            outcome = campaign.run(progress=None)
        assert outcome.status == "complete"
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )
        assert filecmp.cmp(
            report_path(reference), report_path(directory), shallow=False
        )
        assert_no_litter(directory)

    def test_mid_plan_journal_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        lines = open(journal, "rb").read().splitlines(keepends=True)
        # Drop the trailing "planned" commit record: died mid-plan.
        with open(journal, "wb") as handle:
            handle.writelines(lines[:-1])
        with pytest.raises(CampaignError, match="mid-plan"):
            Campaign.open(directory)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        scan = scan_journal(journal)
        header = dict(scan.records[0])
        header.pop("sum")
        header["config"] = dict(header["config"], refs=REFS + 1)
        rewritten = [encode_record(header) + "\n"]
        for record in scan.records[1:]:
            body = dict(record)
            body.pop("sum")
            rewritten.append(encode_record(body) + "\n")
        with open(journal, "w") as handle:
            handle.writelines(rewritten)
        with pytest.raises(CampaignError, match="fingerprint"):
            Campaign.open(directory)

    def test_retired_option_journal_refused(self, tmp_path):
        # A journal planned under a config option this version no longer
        # reads (from_dict drops it) must not resume: its cells were keyed
        # and simulated differently. The header below is what such a plan
        # wrote — the extra field plus the fingerprint it produced.
        directory = str(tmp_path / "camp")
        Campaign.create(directory, make_config()).close()
        journal = os.path.join(directory, "journal.jsonl")
        scan = scan_journal(journal)
        header = dict(scan.records[0])
        header.pop("sum")
        cells = [
            CampaignCell.from_dict(record)
            for record in scan.records[1:]
            if record["kind"] == "cell"
        ]
        identity = dict(header["config"])
        identity.pop("workers")
        assert plan_fingerprint(identity, cells) == header["fingerprint"]
        header["config"] = dict(header["config"], retired_option=4)
        header["fingerprint"] = plan_fingerprint(
            dict(identity, retired_option=4), cells
        )
        rewritten = [encode_record(header) + "\n"]
        for record in scan.records[1:]:
            body = dict(record)
            body.pop("sum")
            rewritten.append(encode_record(body) + "\n")
        with open(journal, "w") as handle:
            handle.writelines(rewritten)
        with pytest.raises(CampaignError, match="fingerprint"):
            Campaign.open(directory)


class TestCellFailure:
    """A cell that fails terminally is journaled, manifested and counted."""

    FAILING = "1c/lbm/dbi"

    def test_failed_cell_recorded_and_resume_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "camp")
        real_execute = runner_module._execute

        def failing_execute(job):
            if job.config.mechanism == "dbi":
                raise RuntimeError("injected simulation fault")
            return real_execute(job)

        monkeypatch.setattr(runner_module, "_execute", failing_execute)
        with Campaign.create(directory, make_config()) as campaign:
            outcome = campaign.run(progress=None, max_attempts=1)
        assert outcome.status == "failed"
        assert outcome.exit_code == 1
        assert outcome.cells_failed == 1
        scan = scan_journal(os.path.join(directory, "journal.jsonl"))
        failed = [r for r in scan.records if r["kind"] == "failed"]
        assert [r["cell"] for r in failed] == [self.FAILING]
        assert failed[0]["failure_kind"] == "fatal"
        manifest = json.load(open(manifest_path(directory)))
        assert manifest["status"] == "failed"
        assert list(manifest["failed"]) == [self.FAILING]
        status = campaign_status(directory)
        assert status["cells_failed"] == 1
        assert status["pending"] == [self.FAILING]
        assert not os.path.exists(results_path(directory))

        monkeypatch.setattr(runner_module, "_execute", real_execute)
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert resumed.cells_done == 2
        assert campaign_status(directory)["cells_failed"] == 0
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )


class TestSignalDrain:
    """Satellite: SIGTERM/SIGINT during an active sweep drain cleanly."""

    def _assert_drained(self, directory, outcome, signum):
        assert outcome.status == "drained"
        assert outcome.exit_code == 128 + signum
        assert outcome.signal == signum
        manifest = json.load(open(manifest_path(directory)))
        assert manifest["status"] == "drained"
        scan = scan_journal(os.path.join(directory, "journal.jsonl"))
        assert scan.records[-1]["kind"] == "drain"
        # In-flight work was collected, not abandoned: the drain must not
        # strand partial artifacts anywhere under the campaign.
        assert_no_litter(directory)

    def test_sigterm_drains_and_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_campaign(reference)
        directory = str(tmp_path / "drained")
        # Deterministic delivery: SIGTERM right after the first dispatch
        # record (seq 4) becomes durable, while that cell is in flight.
        chaos = CampaignFaultInjector(
            CampaignChaosConfig(kill_seq=4, mode="term")
        )
        outcome = run_campaign(directory, chaos=chaos)
        self._assert_drained(directory, outcome, signal.SIGTERM)
        assert outcome.cells_done == 1  # the in-flight cell was drained
        assert outcome.pending == ["1c/lbm/dbi"]
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )
        assert filecmp.cmp(
            report_path(reference), report_path(directory), shallow=False
        )

    def test_sigint_drains_and_resume_completes(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        fired = []

        def interrupt_on_first_done(line):
            if " done " in line and not fired:
                fired.append(line)
                os.kill(os.getpid(), signal.SIGINT)

        with campaign:
            outcome = campaign.run(progress=interrupt_on_first_done)
        assert fired, "progress callback never saw a completed cell"
        self._assert_drained(directory, outcome, signal.SIGINT)
        resumed = run_campaign(directory)
        assert resumed.status == "complete"
        assert resumed.cells_done == 2


class _Killed(Exception):
    """Stands in for the orchestrator dying between two journal records."""


class TestTraceReuse:
    """Each distinct trace is built once per run, and finalize reads the
    cells this process completed from their futures."""

    def _spy(self, monkeypatch):
        built, submitted = [], []
        real_traces = orchestrator_module.cell_traces
        real_submit = Campaign._submit_cell

        def counting_traces(scale, cell, **kwargs):
            built.append(cell.cell_id)
            return real_traces(scale, cell, **kwargs)

        def recording_submit(campaign, runner, scale, cell):
            submitted.append(cell.cell_id)
            return real_submit(campaign, runner, scale, cell)

        monkeypatch.setattr(orchestrator_module, "cell_traces",
                            counting_traces)
        monkeypatch.setattr(Campaign, "_submit_cell", recording_submit)
        return built, submitted

    def test_fresh_campaign_builds_each_benchmark_trace_once(
        self, tmp_path, monkeypatch
    ):
        built, submitted = self._spy(monkeypatch)
        config = make_config(
            benchmarks=tuple(profile_names()),
            mechanisms=("baseline", "dawb", "dbi+awb"),
            refs=200,
        )
        outcome = run_campaign(str(tmp_path / "camp"), config)
        assert outcome.status == "complete"
        assert outcome.cells_done == 42
        assert len(built) == 14
        assert [cell_id.split("/")[1] for cell_id in built] == list(
            profile_names()
        )
        # Finalize took every cell from its future: no second submission.
        assert len(submitted) == 42

    def test_resume_after_kill_rekeys_cells_done_before_it(
        self, tmp_path, monkeypatch
    ):
        config = make_config(benchmarks=("lbm", "mcf"))
        reference = str(tmp_path / "reference")
        run_campaign(reference, config)

        directory = str(tmp_path / "killed")
        done_lines = []

        def die_after_two(line):
            if " done " in line:
                done_lines.append(line)
                if len(done_lines) == 2:
                    raise _Killed()

        with Campaign.create(directory, config) as campaign:
            with pytest.raises(_Killed):
                campaign.run(progress=die_after_two)
        status = campaign_status(directory)
        earlier = ["1c/lbm/baseline", "1c/lbm/dbi"]
        assert status["pending"] == ["1c/mcf/baseline", "1c/mcf/dbi"]

        built, submitted = self._spy(monkeypatch)
        outcome = run_campaign(directory)
        assert outcome.status == "complete"
        # Dispatch runs the pending cells; finalize resubmits the earlier
        # ones, rebuilding their (shared) trace once.
        assert submitted == status["pending"] + earlier
        assert built == ["1c/mcf/baseline", "1c/lbm/baseline"]
        payload = json.load(open(results_path(directory)))
        for cell in config.plan():
            expected = runner_module.job_key(
                cell_config(QUICK_SCALE, cell),
                cell_traces(QUICK_SCALE, cell, refs=config.refs),
            )
            assert payload["cells"][cell.cell_id]["key"] == expected
        assert filecmp.cmp(
            results_path(reference), results_path(directory), shallow=False
        )
        assert filecmp.cmp(
            report_path(reference), report_path(directory), shallow=False
        )


class TestStatus:
    def test_status_reads_without_lock(self, tmp_path):
        directory = str(tmp_path / "camp")
        campaign = Campaign.create(directory, make_config())
        try:
            status = campaign_status(directory)
            assert status["cells_total"] == 2
            assert status["cells_done"] == 0
            assert render_status(status)
        finally:
            campaign.close()

    def test_status_after_completion(self, tmp_path):
        directory = str(tmp_path / "camp")
        run_campaign(directory)
        status = campaign_status(directory)
        assert status["cells_done"] == 2
        assert status["completed"] is True
