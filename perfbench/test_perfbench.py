"""Tests of the benchmark itself: inputs, answer gate, span aggregation, wrappers.

    python3 -m pytest perfbench -q
"""

import json
import os
from array import array

import pytest

import run
import spans

REDUCTO = run.import_reducto()


def small(workload, seed, monkeypatch, ops=12):
    """A workload cut down to a few ops, so a pass takes well under a second."""
    monkeypatch.setattr(run, "LEARN_HISTORY", ops)
    monkeypatch.setattr(run, "HELDOUT_OPS", 6)
    work = run.Workload(workload, seed, REDUCTO)
    if workload != "learn-loop":
        work.ops, work.formulas = work.ops[:ops], work.formulas[:ops]
    return work


def test_generator_is_deterministic_per_seed():
    for workload in ("resolution-search", "certify"):
        assert run.search_ops(workload, 3) == run.search_ops(workload, 3)
        assert run.search_ops(workload, 3) != run.search_ops(workload, 4)
    assert run.learn_ops(3) == run.learn_ops(3)
    assert run.learn_ops(3) != run.learn_ops(4)


def test_generator_shape():
    ops = run.search_ops("resolution-search", 1)
    assert len(ops) >= 100
    for setup in ("resolution", "resolution-ext"):
        sizes = [o.n for o in ops if o.setup == setup]
        assert {n: sizes.count(n) for n in set(sizes)} == {n: len(sizes) // 6 for n in range(3, 9)}
    for op in ops:
        assert len(op.clauses) == (8 if op.n == 3 else round(3.0 * op.n))
        assert len(set(op.clauses)) == len(op.clauses)
        assert all(len(c) == 3 and 1 <= max(map(abs, c)) <= op.n for c in op.clauses)
    loops, heldout = run.learn_ops(1)
    assert len(loops) == run.LEARN_LOOPS and loops[0] != loops[1]
    for train in loops:
        assert [o.n for o in train] == [4 + 7 * i // run.LEARN_HISTORY for i in range(run.LEARN_HISTORY)]
    assert {o.n for o in heldout} == set(range(6, 15))


def counts(work):
    tally, rec = run.Tally(), spans.Recorder()
    with spans.instrument(rec):
        work.run_pass(tally, run.Speed(), rec)
    work.run_heldout()
    assert sorted(set(rec.op)) == list(range(len(work.ops)))
    metrics = run.layer_metrics(rec, 1.0, 0.0, work)
    keep = ("search.nodes", "search.visited_frac", "search.children", "learner.heldout_sat_frac",
            "core.moves_generated", "learner.train.records")
    return (tally.sat, tally.unsat, tally.unknown, tally.failed), {k: metrics[k][0] for k in keep}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_count_metrics_repeat_exactly(workload, monkeypatch):
    first = counts(small(workload, 5, monkeypatch))
    second = counts(small(workload, 5, monkeypatch))
    assert first == second
    assert first[0][3] == 0
    assert first[1]["search.nodes"] > 0


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has a same-name child b [6, 8], which must not count twice.
    rec = spans.Recorder(("root", "a", "b", "c"))
    rec.name = array("H", [0, 1, 3, 2, 2])
    rec.parent = array("i", [-1, 0, 1, 0, 3])
    rec.op = array("i", [0] * 5)
    rec.nested = array("b", [0, 0, 0, 0, 1])
    rec.start = array("d", [0.0, 1.0, 2.0, 5.0, 6.0])
    rec.end = array("d", [10.0, 4.0, 3.0, 9.0, 8.0])
    totals = spans.aggregate(rec)
    assert totals["root"].self_s == pytest.approx(10 - 3 - 4)
    assert totals["a"].self_s == pytest.approx(3 - 1)
    assert totals["c"].self_s == pytest.approx(1)
    assert totals["b"].self_s == pytest.approx((4 - 2) + 2)
    assert (totals["b"].calls, totals["b"].s) == (1, pytest.approx(4))
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10)


def test_recorder_nesting_and_file_round_trip(tmp_path):
    rec = spans.Recorder(("outer", "inner"))
    rec.op_id = 7
    i = rec.open(0)
    j = rec.open(1)
    assert rec.parent_is("inner") and rec.inside("outer")
    rec.close(j)
    rec.close(i)
    path = str(tmp_path / "x.spans")
    rec.write(path)
    back = spans.read_spans(path)
    assert list(back.parent) == [-1, 0] and list(back.op) == [7, 7]
    assert list(back.end) == list(rec.end)
    assert spans.aggregate(back)["outer"].calls == 1


def test_wrappers_are_restored_and_missing_targets_are_absent(monkeypatch):
    driver, core = REDUCTO.driver, REDUCTO.core
    before = (driver.solve, driver.RESOLUTION, REDUCTO.sat.Formula.__init__, REDUCTO.search.enumerate_moves)
    monkeypatch.setitem(spans.FUNCTION_TARGETS, "core.verify_path", ("reducto.core:no_such_function",))
    rec = spans.Recorder()
    with spans.instrument(rec) as absent:
        assert driver.solve is not before[0]
        assert driver.verify_path is core.verify_path
        REDUCTO.driver.solve(REDUCTO.sat.Formula([(1, 2), (-1, 2)]), "resolution",
                             REDUCTO.learner.init_params(),
                             REDUCTO.search.SearchConfig(horizon=4, budget=4), train_after=False)
    assert absent == ["core.verify_path"]
    assert (driver.solve, driver.RESOLUTION, REDUCTO.sat.Formula.__init__,
            REDUCTO.search.enumerate_moves) == before
    totals = spans.aggregate(rec)
    assert totals["driver.solve"].calls == 1
    assert totals["search.ams_search"].calls == 1
    assert totals["sat.moves.resolution"].calls >= 1
    assert totals["core.verify_path"].calls == 0


def test_gate_catches_wrong_answers():
    gate = run.Gate(REDUCTO.sat)
    sat_op = run.Op("resolution", 2, ((1, 2), (-1, 2)))
    unsat_op = run.Op("flip", 1, ((1,), (-1,)))
    tally = run.Tally()
    gate.check(tally, sat_op, "solution", [2])
    gate.check(tally, sat_op, "solution", [-2])
    gate.check(tally, sat_op, "no_solution", None)
    gate.check(tally, unsat_op, "no_solution", None)
    gate.check(tally, sat_op, "dont_know", None, ("path does not verify",))
    gate.check(tally, sat_op, "failed", None)
    assert (tally.ops, tally.sat, tally.unsat, tally.failed) == (6, 1, 0, 5)
    assert len(tally.wrong) == 2
    assert tally.wrong[0].startswith("p cnf 2 2\n")
    assert tally.reasons["flip claimed unsatisfiable"] == 1
    resolution_unsat = run.Op("resolution", 1, ((1,), (-1,)))
    gate.check(tally, resolution_unsat, "no_solution", None)
    assert tally.unsat == 1


def test_planted_wrong_answer_fails_the_run(monkeypatch):
    work = small("certify", 2, monkeypatch, ops=4)
    real = REDUCTO.driver.solve

    def lying_solve(*args, **kwargs):
        answer, theta, report = real(*args, **kwargs)
        return REDUCTO.core.SolveAnswer.no_solution(), theta, report

    monkeypatch.setattr(REDUCTO.driver, "solve", lying_solve)
    tally = run.Tally()
    work.run_pass(tally, run.Speed())
    # Every satisfiable input now gets a wrong "unsatisfiable" answer.
    satisfiable = sum(1 for op in work.ops if not work.gate.oracle_unsat(op.clauses))
    assert satisfiable and len(tally.wrong) == satisfiable


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
