import copy
import random

import pytest

from reducto.core import Path, SelfReduction, Setup, one_move, verify_path
from reducto.driver import (
    BENCH_HEADER,
    SETUP_NAMES,
    bench_row_text,
    check_quality_data,
    derive_answer,
    make_setup,
    random_formula,
    random_ksat,
    run_bench,
    run_selfcheck,
    solve,
)
from reducto.learner import (
    DeltaStore,
    DistRecord,
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
            for rec, (rid, inst) in zip(dists, result.path.steps):
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
            moves=lambda phi: [TOP],
            lift=lambda x, w, y: frozenset([99]),
            identify=lambda x, x2: True if x2 == TOP else None,
        )
        setup = Setup(easy=easy_trivial, reductions=(lying,))
        phi = Formula([[1], [2]])
        result = ams_search(phi, setup, _uniform_evaluator(), SearchConfig(horizon=2, budget=2))
        assert result.terminal.kind == "solution"
        answer, diagnostics = derive_answer(setup, phi, result)
        assert answer.kind == "dont_know"
        assert diagnostics

    def test_unverifiable_path_yields_dont_know(self):
        setup = make_setup("flip")
        phi = Formula([[-1]])
        fake = SearchResult(
            path=Path(phi, (("flip", Formula([[1], [2]])),)),
            terminal=SolveAnswer.solution(frozenset([1, 2])),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        answer, diagnostics = derive_answer(setup, phi, fake)
        assert answer.kind == "dont_know"
        assert diagnostics

    def test_a_growing_elimination_step_yields_dont_know(self):
        # Eliminating 1 turns GROWING's 5 clauses into 6, while eliminating
        # 2..6 qualifies, so that step is no move, though it keeps
        # satisfiability and its target is easy under the portfolio.
        setup = make_setup("portfolio")
        grown = Formula([[2, 4], [2, 5], [2, 6], [3, 4], [3, 5], [3, 6]])
        assert ELIMINATION.identify(GROWING, grown) is None
        forged = Path(GROWING, (("elimination", grown),))
        assert verify_path(setup, forged) is None
        result = SearchResult(
            path=forged,
            terminal=setup.easy(grown),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        assert result.terminal.kind == "solution"
        answer, diagnostics = derive_answer(setup, GROWING, result)
        assert answer.kind == "dont_know"
        assert diagnostics

    def test_each_step_is_identified_once(self):
        # The path check identifies the step, and the lift consumes its
        # witness instead of running the step again.
        calls = []

        def step(phi):
            calls.append(phi)
            return unit_propagate_fixpoint(phi)

        rule = one_move("counted", step, lambda x, forced, y: frozenset(y | set(forced)))
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        phi = Formula([[1], [-1, 2]])
        result = SearchResult(
            path=Path(phi, (("counted", TOP),)),
            terminal=SolveAnswer.solution(frozenset()),
            quality=QualityData(),
            stats=SearchStats(0, 0, 0.0),
        )
        answer, diagnostics = derive_answer(setup, phi, result)
        assert (answer, diagnostics) == (SolveAnswer.solution(frozenset([1, 2])), [])
        assert calls == [phi]


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
        assert non_move not in setup.reduction(rid).moves(x)
        assert verify_path(setup, Path(x, ((rid, non_move),))) is None
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
