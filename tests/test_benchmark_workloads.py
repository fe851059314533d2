"""The benchmark's workloads still run against the package without a failed op.

``perfbench/run.py`` drives ``driver.solve`` and, in ``learn-loop``,
``cli.main``, whose exit codes and ``v`` lines it parses.  A change to either
surface that the benchmark does not expect shows up as failed ops.  This test
loads ``run.py`` (without changing it), cuts each workload down to a few ops
and runs one pass of each.  Its traced run wraps reducto's layers by name
through ``spans.py``; a cut-down traced ``certify`` pass checks that the lifts
are still seen there, and that only ``no_solution`` answers check their path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("resolution-search", "certify", "learn-loop")


@pytest.fixture
def run(monkeypatch, tmp_path):
    # syspath_prepend also restores the sys.path entry run.py adds for src/.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # run.py imports spans by name; both are dropped from sys.modules afterwards.
    for name in ("spans", "run"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    run = sys.modules["run"]
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    return run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_cut_down_pass_has_no_failed_op(run, monkeypatch, workload):
    assert run.WORKLOADS == WORKLOADS
    ops = 6
    monkeypatch.setattr(run, "LEARN_HISTORY", ops)
    monkeypatch.setattr(run, "HELDOUT_OPS", 0)
    work = run.Workload(workload, 1, run.import_reducto())
    if workload != "learn-loop":
        work.ops, work.formulas = work.ops[:ops], work.formulas[:ops]
    tally = run.Tally()
    times = work.run_pass(tally, run.Speed())
    assert tally.ops == len(work.ops) == len(times)
    assert (tally.failed, tally.wrong, tally.reasons) == (0, [], {})


def test_traced_certify_pass_records_path_checks_and_lifts(run):
    ops = 12
    work = run.Workload("certify", 1, run.import_reducto())
    work.ops, work.formulas = work.ops[:ops], work.formulas[:ops]
    tally, rec = run.Tally(), run.Recorder()
    spans = sys.modules["spans"]
    with spans.instrument(rec):
        work.run_pass(tally, run.Speed(), rec)
    assert tally.ops == ops
    assert (tally.failed, tally.wrong, tally.reasons) == (0, [], {})
    totals = spans.aggregate(rec)
    # Solutions lift through the witnesses their moves carried; a refutation
    # rests on its path, which is checked once per no_solution answer.
    assert tally.sat >= 1 and tally.unsat >= 1, (tally.sat, tally.unsat)
    assert totals["core.verify_path"].calls == tally.unsat
    for span in ("core.lift_solution", "sat.lift"):
        assert totals[span].calls >= 1, span
