import copy
import hashlib
import random
from itertools import islice

import pytest

from reducto import driver
from reducto.core import Path, SelfReduction, Setup, one_move, verify_path
from reducto.driver import (
    BENCH_HEADER,
    CHECK_CONFIG,
    SETUP_NAMES,
    _check_instances,
    bench_row_text,
    check_quality_data,
    derive_answer,
    make_setup,
    random_ksat,
    run_bench,
    run_selfcheck,
    solve,
)
from reducto.learner import (
    DeltaStore,
    DistRecord,
    ParamStore,
    ValueRecord,
    init_params,
    merge_window,
    params_text,
    store_loss,
)
from reducto.sat import (
    ELIMINATION,
    FLIP,
    RESOLUTION,
    TOP,
    Formula,
    easy_trivial,
    flip_variable,
    oracle_solve,
    satisfies,
    unit_propagate_fixpoint,
)
from reducto.search import QualityData, SearchConfig, SearchResult, SearchStats, ams_search
from reducto.core import SolveAnswer

from helpers import random_formula, step_witness

CFG = SearchConfig(horizon=6, budget=12)

# A formula whose resolvents on 1 and on 2 are (2 3) and (1 4).
CHAIN = Formula([[1, 2], [-1, 3], [-2, 4]])
# A formula whose flippable variables are 1 and 3, not 2.
NEGATIVE = Formula([[-1, 2], [-1, -3]])
NON_MOVES = [
    ("resolution", CHAIN, Formula(CHAIN.clauses + ((2, -3),))),
    ("resolution", CHAIN, Formula(CHAIN.clauses + ((2, 3), (1, 4)))),
    # Variable 1 eliminated, then variable 2.
    ("elimination", CHAIN, Formula([[3, 4]])),
    ("flip", NEGATIVE, flip_variable(NEGATIVE, 2)),
]
# Eliminating 1 gives 2·3 = 6 resolvents for these 5 clauses; 2..6 qualify.
GROWING = Formula([[1, 2], [1, 3], [-1, 4], [-1, 5], [-1, 6]])


class TestSetupRegistry:
    def test_known_names(self):
        for name in SETUP_NAMES:
            setup = make_setup(name)
            assert setup.reductions

    def test_reduction_lists(self):
        assert [r.id for r in make_setup("resolution").reductions] == [
            "resolution",
            "elimination",
        ]
        assert [r.id for r in make_setup("resolution-ext").reductions] == [
            "resolution",
            "elimination",
            "extension",
        ]
        assert [r.id for r in make_setup("flip").reductions] == ["flip"]
        assert [r.id for r in make_setup("portfolio").reductions] == [
            "unit-propagation",
            "elimination",
        ]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_setup("cdcl")


class TestSolve:
    def test_empty_formula_is_immediately_solved(self):
        answer, theta2, report = solve(TOP, "resolution", init_params(), CFG)
        assert answer.kind == "solution" and answer.value == frozenset()
        assert report.path_length == 0

    def test_unit_conflict_is_refuted(self):
        phi = Formula([[1], [-1]])
        answer, _, report = solve(phi, "resolution", init_params(), CFG)
        assert answer.kind == "no_solution"
        assert not oracle_solve(phi).satisfiable

    def test_flip_setup_answers_dont_know_on_unsat(self):
        # The flip easy set holds only satisfiable formulas, so no path exists.
        phi = Formula([[1], [-1]])
        assert not oracle_solve(phi).satisfiable
        answer, _, _ = solve(phi, "flip", init_params(), CFG)
        assert answer.kind == "dont_know"

    def test_solutions_are_always_verified(self):
        rng = random.Random(61)
        for _ in range(20):
            phi = random_formula(rng, 5, 7)
            answer, _, _ = solve(phi, "flip", init_params(), CFG, train_after=False)
            if answer.kind == "solution":
                assert satisfies(answer.value, phi)

    def test_training_updates_params(self):
        phi = Formula([[1], [-1]])
        answer, theta2, report = solve(phi, "resolution", init_params(), CFG)
        assert params_text(theta2) != params_text(init_params())

    def test_no_train_keeps_params(self):
        phi = Formula([[1], [-1]])
        theta = init_params()
        _, theta2, report = solve(phi, "resolution", theta, CFG, train_after=False)
        assert theta2 is theta
        assert params_text(theta2) == params_text(theta)

    def test_history_store_grows(self):
        history = DeltaStore()
        theta = init_params()
        _, theta, report = solve(Formula([[1], [-1]]), "resolution", theta, CFG, history=history)
        first = history.record_count
        # The report carries the run's records, which is what was merged.
        assert len(report.records) == first
        assert check_quality_data(report.quality, make_setup("resolution")) == []
        _, theta, _ = solve(Formula([[-1], [1]]), "resolution", theta, CFG, history=history)
        assert history.record_count >= first > 0

    def test_report_carries_the_window_losses(self):
        rng = random.Random(71)
        history = DeltaStore()
        theta = init_params()
        for _ in range(6):
            phi = random_ksat(rng, 5, 18)
            before = copy.deepcopy(history)
            _, theta_after, report = solve(phi, "flip", theta, CFG, history=history, epochs=2)
            window = merge_window(before, report.records)
            assert report.loss_before == store_loss(theta, window)
            assert report.loss_after == store_loss(theta_after, window)
            theta = theta_after
        assert report.loss_after < report.loss_before
        _, _, report = solve(phi, "flip", theta, CFG, train_after=False)
        assert report.loss_before is None and report.loss_after is None


class TestTrainingRecords:
    def test_a_pathless_search_trains_no_prior_head(self):
        # Unsatisfiable, so no flip path reaches an easy instance, but the
        # search explores flip moves.
        phi = Formula([[-1, -2], [1], [2]])
        answer, _, report = solve(phi, "flip", init_params(), CFG)
        assert answer.kind == "dont_know" and report.path_length == 0
        assert report.quality.distributions
        assert report.records
        assert all(isinstance(rec, ValueRecord) for rec in report.records)
        assert {rec.digest for rec in report.records} == {f.digest for f in report.quality.values}

    def test_a_won_search_trains_one_distribution_per_path_step(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(30):
            phi = random_ksat(rng, 5, 15)
            theta = init_params()
            result = ams_search(phi, make_setup("resolution"), _uniform_evaluator(), CFG)
            _, _, report = solve(phi, "resolution", theta, CFG)
            dists = [rec for rec in report.records if isinstance(rec, DistRecord)]
            assert len(dists) == len(result.path)
            prev = result.path.start
            for rec, (rid, inst, _) in zip(dists, result.path.steps):
                assert (rec.digest, rec.reduction) == (prev.digest, rid)
                siblings = result.quality.distributions[(prev, rid)]
                assert {d: m.count for d, m in rec.moves.items()} == {
                    m.digest: int(m == inst) for m in siblings
                }
                prev = inst
            checked += len(dists)
        assert checked > 30


class TestDeriveAnswer:
    def test_corrupt_lift_yields_dont_know_with_diagnostic(self):
        lying = SelfReduction(
            "lying",
            moves=lambda phi: [(TOP, True)],
            lift=lambda x, w, y: frozenset([99]),
        )
        setup = Setup(easy=easy_trivial, reductions=(lying,))
        phi = Formula([[1], [2]])
        result = ams_search(phi, setup, _uniform_evaluator(), SearchConfig(horizon=2, budget=2))
        assert result.terminal.kind == "solution"
        answer, diagnostics = derive_answer(setup, phi, result)
        assert answer.kind == "dont_know"
        assert diagnostics

    def test_unverifiable_path_yields_dont_know(self):
        # A refutation rests on its path alone, so a non-move step ends in
        # don't-know: the empty clause is no resolvent of phi.
        setup = make_setup("resolution")
        phi = Formula([[1, 2], [-1, 2]])
        target = Formula([[], [1, 2], [-1, 2]])
        assert setup.easy(target).kind == "no_solution"
        fake = SearchResult(
            path=Path(phi, (("resolution", target, True),)),
            terminal=setup.easy(target),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        answer, diagnostics = derive_answer(setup, phi, fake)
        assert answer.kind == "dont_know"
        assert diagnostics == ["search returned a path that does not verify"]

    @pytest.mark.parametrize(
        "rid, phi, target, y, wrong",
        [
            # Flipping 1 turns {-1}, {2} into {1}, {2}; the path claims 2.
            ("flip", Formula([[-1], [2]]), Formula([[1], [2]]), [1, 2], 2),
            # Eliminating 1 from {1}, {2} leaves {2}; the path claims 2.
            ("elimination", Formula([[1], [2]]), Formula([[2]]), [2], 2),
        ],
    )
    def test_a_wrong_witness_on_a_solution_path_yields_dont_know(self, rid, phi, target, y, wrong):
        # Solution paths are not verified again: the lift's checks catch a
        # witness that is not the step's.
        setup = make_setup("portfolio" if rid == "elimination" else "flip")
        right = step_witness(setup.reduction(rid), phi, target)
        assert right is not None and right != wrong

        def answer(witness):
            result = SearchResult(
                path=Path(phi, ((rid, target, witness),)),
                terminal=SolveAnswer.solution(frozenset(y)),
                quality=QualityData(),
                stats=SearchStats(0, 0, 0.0),
            )
            return derive_answer(setup, phi, result)

        solved, diagnostics = answer(right)
        assert solved.kind == "solution" and satisfies(solved.value, phi) and not diagnostics
        forged, diagnostics = answer(wrong)
        assert forged.kind == "dont_know"
        assert len(diagnostics) == 1
        assert diagnostics[0].startswith("lift integrity failure") or (
            diagnostics[0] == "lifted solution failed the final check"
        )

    def test_a_non_move_solution_step_is_judged_by_its_lift(self):
        # Flipping 1 does not turn {-1} into {1}, {2}, but the answer its
        # witness lifts satisfies {-1}: it is checked, so it stands.
        setup = make_setup("flip")
        phi = Formula([[-1]])
        target = Formula([[1], [2]])
        path = Path(phi, (("flip", target, 1),))
        assert not verify_path(setup, path)
        result = SearchResult(
            path=path,
            terminal=SolveAnswer.solution(frozenset([1, 2])),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        assert derive_answer(setup, phi, result) == (SolveAnswer.solution(frozenset([-1, 2])), [])

    def test_a_growing_elimination_step_yields_dont_know(self):
        # Eliminating 1 turns GROWING's 5 clauses into 6, while eliminating
        # 2..6 qualifies, so that step is no move, though it keeps
        # satisfiability.  A refutation through it (its target is easy under
        # the portfolio, and satisfiable: this one is forged) does not verify.
        setup = make_setup("portfolio")
        grown = Formula([[2, 4], [2, 5], [2, 6], [3, 4], [3, 5], [3, 6]])
        assert grown not in [m for m, _ in ELIMINATION.moves(GROWING)]
        forged = Path(GROWING, (("elimination", grown, 1),))
        assert not verify_path(setup, forged)
        assert setup.easy(grown).kind == "solution"
        result = SearchResult(
            path=forged,
            terminal=SolveAnswer.no_solution(),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        answer, diagnostics = derive_answer(setup, GROWING, result)
        assert answer.kind == "dont_know"
        assert diagnostics == ["search returned a path that does not verify"]

    def test_each_step_is_identified_once(self):
        # The search runs the step when it expands phi, and the move carries
        # its witness to the lift, so answering runs no step again.
        calls = []

        def step(phi):
            calls.append(phi)
            return unit_propagate_fixpoint(phi)

        rule = one_move("counted", step, lambda x, forced, y: frozenset(y | set(forced)))
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        phi = Formula([[1], [-1, 2]])
        result = ams_search(phi, setup, _uniform_evaluator(), SearchConfig(horizon=2, budget=2))
        assert result.path.steps == (("counted", TOP, (1, 2)),)
        answer, diagnostics = derive_answer(setup, phi, result)
        assert (answer, diagnostics) == (SolveAnswer.solution(frozenset([1, 2])), [])
        assert calls == [phi]

    def test_a_portfolio_refutation_is_checked_from_the_listings_its_search_made(
        self, monkeypatch
    ):
        # Instance 8 of the criterion-5 stream is refuted through five
        # eliminations and a unit propagation.  Checking the path lists each
        # step's source again, and each list is still in the rule's memo.
        phi = next(islice(_check_instances(500, 8, 424242, 3.0), 8, None))
        setup = make_setup("portfolio")
        result = ams_search(phi, setup, _uniform_evaluator(), CHECK_CONFIG)
        assert [rid for rid, _, _ in result.path.steps] == ["elimination"] * 5 + ["unit-propagation"]
        checked = []

        def counted(setup, path):
            checked.append(path)
            return verify_path(setup, path)

        monkeypatch.setattr(driver, "verify_path", counted)
        before = ELIMINATION.moves.cache_info()
        assert derive_answer(setup, phi, result) == (SolveAnswer.no_solution(), [])
        after = ELIMINATION.moves.cache_info()
        assert checked == [result.path]
        assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)


class TestPinnedAnswers:
    # sha256 of the answers that lifting each path's witnesses gives, through
    # the driver's own solve, on larger and denser instances than those of
    # TestPinnedOutput in test_search.py.
    DIGEST = "083ebdb3ceffcfe201ffeab5dfb1f7911c2fae6b6612af3bbd50f147a0098777"

    def test_lifted_answers_are_unchanged(self):
        h = hashlib.sha256()
        for name in ("resolution", "portfolio", "flip"):
            lifted = 0
            for phi in _check_instances(30, 8, 7919, 4.0):
                answer, _, run = solve(phi, name, ParamStore(), CHECK_CONFIG, train_after=False)
                sol = sorted(answer.value) if answer.value is not None else None
                h.update(f"{name} {answer.kind} {sol}\n".encode())
                if answer.kind == "solution":
                    assert satisfies(answer.value, phi)
                    lifted += run.path_length > 0
            assert lifted, name
        assert h.hexdigest() == self.DIGEST


class TestEliminationFallback:
    @pytest.mark.parametrize("name", ["resolution", "resolution-ext"])
    def test_the_criterion_5_stream_instance_17_is_decided(self, name):
        # Instance 17 of the stream (8 variables, 24 clauses) is decided once
        # the elimination fallback picks the variable of least exact growth;
        # ranking the fallback by |pos|·|neg| − |pos| − |neg| left it don't-know.
        phi = next(islice(_check_instances(500, 8, 424242, 3.0), 17, None))
        answer, _, _ = solve(phi, name, ParamStore(), CHECK_CONFIG, train_after=False)
        verdict = oracle_solve(phi)
        assert answer.is_easy
        assert (answer.kind == "solution") == verdict.satisfiable
        if answer.kind == "solution":
            assert satisfies(answer.value, phi)


def _uniform_evaluator():
    from reducto.learner import LinearEvaluator, ParamStore

    return LinearEvaluator(ParamStore())


class TestGenerators:
    def test_ksat_width_and_count(self):
        rng = random.Random(67)
        phi = random_ksat(rng, 6, 12)
        assert len(phi.clauses) == 12
        assert all(len(c) == 3 for c in phi.clauses)
        assert max(phi.variables) <= 6

    def test_ksat_width_clamped_to_variables(self):
        rng = random.Random(71)
        phi = random_ksat(rng, 2, 3)
        assert all(len(c) == 2 for c in phi.clauses)

    def test_generators_are_seed_deterministic(self):
        a = random_ksat(random.Random(5), 5, 10)
        b = random_ksat(random.Random(5), 5, 10)
        assert a == b
        c = random_formula(random.Random(9), 4, 6)
        d = random_formula(random.Random(9), 4, 6)
        assert c == d


class TestSelfcheckEngine:
    def test_no_contradictions_on_small_runs(self):
        for setup_name in ("resolution", "flip"):
            report = run_selfcheck(30, 5, 73, setup_name, cfg=CFG)
            assert report.passed, (setup_name, report.contradictions)
            assert report.instances == 30
            assert report.solutions + report.no_solutions + report.dont_know == 30

    def test_flip_setup_never_claims_unsat(self):
        report = run_selfcheck(30, 5, 79, "flip", cfg=CFG)
        assert report.no_solutions == 0

    def test_portfolio_decides_every_instance(self):
        report = run_selfcheck(500, 8, 424242, "portfolio")
        assert report.passed, (report.contradictions, report.quality_violations)
        assert report.solutions + report.no_solutions == 500, (
            report.solutions, report.no_solutions, report.dont_know
        )

    def test_zero_instances_trivially_pass(self):
        report = run_selfcheck(0, 5, 83, "resolution", cfg=CFG)
        assert report.passed and report.instances == 0

    def test_quality_violation_detection_is_wired(self):
        # Fabricated quality data with a counted non-move must be flagged.
        setup = make_setup("flip")
        phi = Formula([[-1]])
        bogus = QualityData(
            values={phi: (1.0, 3)},
            distributions={(phi, "flip"): {Formula([[1], [5]]): 3}},
        )
        violations = check_quality_data(bogus, setup)
        assert any("non-move" in v for v in violations)

    @pytest.mark.parametrize("rid, x, non_move", NON_MOVES, ids=[c[0] for c in NON_MOVES])
    def test_non_moves_of_each_fast_rule_are_caught(self, rid, x, non_move):
        setup = Setup(easy=easy_trivial, reductions=(RESOLUTION, ELIMINATION, FLIP))
        moves = setup.reduction(rid).moves(x)
        assert non_move not in [m for m, _ in moves]
        for witness in {True, *(w for _, w in moves)}:
            assert not verify_path(setup, Path(x, ((rid, non_move, witness),)))
        bogus = QualityData(values={x: (1.0, 2)}, distributions={(x, rid): {non_move: 2}})
        assert f"counted non-move for {rid} at {x.digest}" in check_quality_data(bogus, setup)

    def test_count_sum_mismatch_detected(self):
        setup = make_setup("flip")
        phi = Formula([[-1]])
        bogus = QualityData(
            values={phi: (1.0, 5)},
            distributions={(phi, "flip"): {Formula([[1]]): 3}},
        )
        violations = check_quality_data(bogus, setup)
        assert any("sum" in v for v in violations)


class TestBenchEngine:
    def test_rows_shape_and_rates(self):
        rows = run_bench(["resolution", "flip"], 6, 5, 89, cfg=CFG)
        assert [r.setup for r in rows] == ["resolution", "flip"]
        for row in rows:
            assert row.instances == 6
            assert 0.0 <= row.solve_rate <= 1.0
            text = bench_row_text(row)
            assert text.startswith(f"{row.setup},6,")
            assert len(text.split(",")) == len(BENCH_HEADER.split(","))

    def test_rows_deterministic_apart_from_wall_time(self):
        rows_a = run_bench(["flip"], 6, 5, 97, cfg=CFG)
        rows_b = run_bench(["flip"], 6, 5, 97, cfg=CFG)
        strip = lambda row: bench_row_text(row).rsplit(",", 1)[0]
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_unknown_setup_rejected(self):
        with pytest.raises(ValueError):
            run_bench(["bogus"], 2, 4, 3, cfg=CFG)
