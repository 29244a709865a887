"""The cell runner's failure accounting."""

import threading

from perfbench.cells import Ledger, cell_budget, run_cell
from repro.analysis.scaling import QUICK_SCALE
from repro.sim.system import System


def _run_in_thread(fn, timeout):
    """Run ``fn`` on a daemon thread; fail instead of hanging the suite."""
    box = {}
    thread = threading.Thread(target=lambda: box.update(value=fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"cell still running after {timeout} s"
    return box["value"]


def test_stalling_mix_cell_returns_within_its_budget():
    # At quick scale with 2000 refs/core, dbi never finishes this mix: core
    # 1 stops short of its instruction limit while the others keep cycling.
    spec = QUICK_SCALE.mix_specs(4)[1]
    assert spec.name == "4c_rL_wM_001"
    traces = list(QUICK_SCALE.mix_for(spec, refs_per_core=2000).traces)
    system = System(QUICK_SCALE.system_config("dbi", num_cores=4), traces)
    budget = cell_budget(system)

    outcome = _run_in_thread(
        lambda: run_cell(f"{spec.name}/dbi", system), timeout=300)

    assert outcome.budget == budget
    assert outcome.events <= budget
    ledger = Ledger()
    passed = ledger.record(outcome.name, outcome.digest, outcome.error)
    assert ledger.attempted == 1
    if outcome.failed:
        assert not passed and ledger.failed == 1
        assert outcome.result is None
    else:
        assert passed and ledger.failed == 0
        assert outcome.result is not None


def test_ledger_counts_a_changed_digest_as_a_failure():
    ledger = Ledger()
    assert ledger.record("cell", "a" * 64)
    assert ledger.record("cell", "a" * 64)
    assert not ledger.record("cell", "b" * 64)
    assert not ledger.record("other", None, "RuntimeError: budget")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.digests == {"cell": "a" * 64}
