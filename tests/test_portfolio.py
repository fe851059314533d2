import itertools
import random
import sys
import warnings

import pytest

from reducto.core import Path, enumerate_moves, lift_solution, verify_path
from reducto.dimacs import emit_dimacs
from reducto.driver import derive_answer
from reducto.learner import LinearEvaluator, init_params
from reducto.portfolio import ExternalMember, MemberFailure, portfolio_setup
from reducto.sat import (
    BOTTOM,
    ELIMINATION,
    Formula,
    TOP,
    UNIT_PROPAGATION,
    easy_combined,
    satisfies,
    unit_propagate_fixpoint,
)
from reducto.search import SearchConfig, ams_search

from helpers import random_formula, step_witness


def brute_force(phi):
    vs = phi.variables
    for signs in itertools.product((1, -1), repeat=len(vs)):
        alpha = frozenset(s * v for s, v in zip(signs, vs))
        if satisfies(alpha, phi):
            return alpha
    return None


class TestUnitPropagation:
    def test_fixpoint_and_forced_literals(self):
        fix, forced = unit_propagate_fixpoint(Formula([[1], [-1, 2]]))
        assert fix == TOP
        assert forced == (1, 2)

    def test_lift_readds_propagated_literals(self):
        phi = Formula([[1], [-1, 2]])
        assert UNIT_PROPAGATION.moves(phi) == [(TOP, (1, 2))]
        assert step_witness(UNIT_PROPAGATION, phi, TOP) == (1, 2)
        lifted = UNIT_PROPAGATION.lift(phi, (1, 2), frozenset())
        assert lifted == frozenset([1, 2])
        assert satisfies(lifted, phi)

    def test_lift_rejects_a_target_that_is_not_the_fixpoint(self):
        # A lift takes the step's own literals, so the step does not verify.
        assert step_witness(UNIT_PROPAGATION, Formula([[1], [-1, 2]]), Formula([[2]])) is None

    def test_conflicting_units_leave_empty_clause(self):
        fix, _ = unit_propagate_fixpoint(Formula([[1], [-1]]))
        assert fix.has_empty_clause
        # Of two complementary units, the positive one propagates.
        phi = Formula([[5], [-5], [-5, 2]])
        assert unit_propagate_fixpoint(phi) == (Formula([[], [2]]), (5,))

    def test_no_units_no_move(self):
        assert UNIT_PROPAGATION.moves(Formula([[1, 2], [-1, -2]])) == []


FAKE_SAT = (
    "import sys; sys.stdin.read(); print('s SATISFIABLE'); print('v 1 0')"
)
FAKE_UNSAT = "import sys; sys.stdin.read(); print('s UNSATISFIABLE')"
FAKE_TRANSFORM = (
    "import sys; sys.stdin.read(); print('p cnf 2 1'); print('1 2 0')"
)
FAKE_TRUNCATED = (
    "import sys; sys.stdin.read(); print('p cnf 3 3'); print('1 2 0'); print('-3 0')"
)
FAKE_GARBAGE = "import sys; sys.stdin.read(); print('hello world')"
FAKE_CRASH = "import sys; sys.exit(3)"
FAKE_SLEEP = "import sys, time; time.sleep(30)"
FAKE_LYING_SAT = (
    "import sys; sys.stdin.read(); print('s SATISFIABLE'); print('v -1 0')"
)


def external(code, timeout=20.0, member_id="ext"):
    return ExternalMember(member_id, (sys.executable, "-c", code), timeout=timeout)


class TestExternalMembers:
    def test_sat_answer_becomes_move_to_top(self):
        phi = Formula([[1]])
        # The witness is the member's verified solution.
        assert external(FAKE_SAT).transform(phi) == (TOP, frozenset([1]))

    def test_witness_is_verified_before_trusting(self):
        phi = Formula([[1]])
        with pytest.raises(MemberFailure):
            external(FAKE_LYING_SAT).transform(phi)

    def test_unsat_answer_becomes_move_to_bottom(self):
        assert external(FAKE_UNSAT).transform(Formula([[1], [-1]])) == (BOTTOM, True)

    def test_dimacs_output_becomes_identity_lift_transform(self):
        phi = Formula([[1]])
        member = external(FAKE_TRANSFORM)
        assert member.transform(phi) == (Formula([[1, 2]]), True)
        alpha = frozenset([1])
        assert portfolio_setup((member,)).reduction("ext").lift(phi, True, alpha) == alpha

    def test_garbage_output_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_GARBAGE).transform(Formula([[1]]))

    def test_truncated_formula_is_a_failure_and_no_move(self):
        member = external(FAKE_TRUNCATED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moves = enumerate_moves(portfolio_setup((member,)), Formula([[1, 2], [-1, 3]]))
        assert "ext" not in {rid for rid, _, _ in moves}
        assert member.failures == ["ext: unparseable output"]

    def test_crash_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_CRASH).transform(Formula([[1]]))

    def test_timeout_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_SLEEP, timeout=0.5).transform(Formula([[1]]))

    def test_failing_member_never_aborts_portfolio_moves(self):
        phi = Formula([[1], [-1, 2]])
        crasher = external(FAKE_CRASH, member_id="crasher")
        mumbler = external(FAKE_GARBAGE, member_id="mumbler")
        moves = enumerate_moves(portfolio_setup((crasher, mumbler)), phi)
        assert ("unit-propagation", TOP, (1, 2)) in moves
        assert {rid for rid, _, _ in moves} <= {"unit-propagation", "elimination"}
        assert len(crasher.failures) == 1 and crasher.failures[0].startswith("crasher:")
        assert len(mumbler.failures) == 1 and mumbler.failures[0].startswith("mumbler:")

    def test_external_member_round_trip_through_dimacs(self):
        phi = Formula([[1, -2], [2]])
        echo = (
            "import sys; text = sys.stdin.read(); sys.stdout.write(text)"
        )
        # Echoing the instance back is a self-move: no move results.
        member = external(echo, member_id="echo")
        assert portfolio_setup((member,)).reduction("echo").moves(phi) == []
        assert emit_dimacs(phi) == emit_dimacs(Formula(phi.clauses))

    def test_lift_reruns_the_member_and_checks_its_output(self):
        phi = Formula([[1]])
        rule = portfolio_setup((external(FAKE_SAT),)).reduction("ext")
        # The move carries the member's kept solution, the witness the step verifies to.
        assert rule.moves(phi) == [(TOP, frozenset([1]))]
        assert step_witness(rule, phi, TOP) == frozenset([1])
        assert rule.lift(phi, frozenset([1]), frozenset()) == frozenset([1])
        # Another target is not the member's output, so it does not verify.
        assert step_witness(rule, phi, BOTTOM) is None

    def test_member_output_is_kept_per_formula(self, tmp_path):
        # SAT with a genuine witness on the first run, a crash on every later
        # run.  Verification and lifting read the kept output of the first
        # run, so the answer is a verified, lifted solution, and the member
        # runs once per distinct formula it is given.
        runs = tmp_path / "runs"
        flaky = (
            "import sys; sys.stdin.read(); m = sys.argv[1]\n"
            "with open(m, 'a') as f: f.write('x')\n"
            "if open(m).read() != 'x': sys.exit(3)\n"
            "print('s SATISFIABLE'); print('v -1 -2 -3 0')"
        )
        member = ExternalMember("flaky", (sys.executable, "-c", flaky, str(runs)), timeout=20.0)
        setup = portfolio_setup((member,))
        # The witness satisfies phi, and no builtin move reaches an easy
        # instance, so only the flaky member can win the search.
        phi = Formula([[1, -3], [-1, 2], [-1, -2], [-2, 3]])
        builtin_moves = enumerate_moves(portfolio_setup(), phi)
        assert builtin_moves and not any(easy_combined(m).is_easy for _, m, _ in builtin_moves)
        evaluator = LinearEvaluator(init_params())
        result = ams_search(phi, setup, evaluator, SearchConfig(horizon=4, budget=8))
        flaky = setup.reduction("flaky")
        kept = step_witness(flaky, phi, TOP)
        # The re-listed move carries the kept solution the path step carries.
        assert kept == frozenset([-1, -2, -3])
        assert result.path.steps == (("flaky", TOP, kept),) and verify_path(setup, result.path)
        answer, diagnostics = derive_answer(setup, phi, result)
        assert answer.kind == "solution" and diagnostics == []
        assert satisfies(answer.value, phi)
        assert flaky.lift(phi, kept, frozenset()) == frozenset([-1, -2, -3])
        assert runs.read_text() == "x"
        assert member.failures == []
        # A second formula is a second run, which crashes: no move.
        assert setup.reduction("flaky").moves(Formula([[1, 2]])) == []
        assert runs.read_text() == "xx"
        assert len(member.failures) == 1 and member.failures[0].startswith("flaky:")

    def test_path_step_names_the_external_member(self):
        phi = Formula([[1, 2], [1, -2], [1, 3]])
        setup = portfolio_setup((external(FAKE_SAT, member_id="oracle"),))
        step = next(move for move in enumerate_moves(setup, phi) if move[0] == "oracle")
        path = Path(phi, (step,))
        assert path.end == TOP and verify_path(setup, path)
        lifted = lift_solution(setup, path, frozenset())
        assert satisfies(lifted, phi)


class TestPortfolioMoves:
    def test_unit_propagation_reaches_empty_clause(self):
        moves = enumerate_moves(portfolio_setup(), Formula([[1], [-1]]))
        assert moves and all(m.has_empty_clause for _, m, _ in moves)

    def test_empty_when_no_member_changes_the_instance(self):
        # Elimination has a move at every formula with a variable, so only ⊤
        # and ⊥ have no move.
        setup = portfolio_setup()
        assert enumerate_moves(setup, TOP) == [] and enumerate_moves(setup, BOTTOM) == []
        rng = random.Random(61)
        for _ in range(30):
            phi = random_formula(rng, 4, 6)
            assert enumerate_moves(setup, phi), phi

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            portfolio_setup((external(FAKE_SAT, member_id="elimination"),))

    def test_lift_dispatches_to_the_producing_member(self):
        phi = Formula([[1], [-1, 2], [3, 4]])
        setup = portfolio_setup()
        moves = enumerate_moves(setup, phi)
        # Eliminating 3 or 4 gives the same formula, which is one move.
        assert [rid for rid, _, _ in moves] == [
            "unit-propagation", "elimination", "elimination", "elimination"
        ]
        for rid, target, carried in moves:
            path = Path(phi, ((rid, target, carried),))
            assert verify_path(setup, path)
            witness = brute_force(target)
            assert witness is not None
            assert satisfies(lift_solution(setup, path, witness), phi), rid


class TestPortfolioContract:
    def test_members_preserve_satisfiability_and_lift_correctly(self):
        rng = random.Random(59)
        setup = portfolio_setup()
        for _ in range(60):
            phi = random_formula(rng, 4, 6)
            sat = brute_force(phi) is not None
            for member in setup.reductions:
                for transformed, step in member.moves(phi):
                    witness = brute_force(transformed)
                    assert (witness is not None) == sat, (member.id, phi)
                    if witness is not None:
                        assert step_witness(member, phi, transformed) == step, (member.id, phi)
                        assert satisfies(member.lift(phi, step, witness), phi), (member.id, phi)


class TestPortfolioSetup:
    def test_setup_shape(self):
        setup = portfolio_setup()
        assert [r.id for r in setup.reductions] == ["unit-propagation", "elimination"]
        # The same rule objects as the resolution setup runs.
        assert setup.reductions == (UNIT_PROPAGATION, ELIMINATION)
        setup = portfolio_setup((external(FAKE_SAT, member_id="a"), external(FAKE_UNSAT, member_id="b")))
        assert [r.id for r in setup.reductions][2:] == ["a", "b"]

    def test_solves_through_driver(self):
        from reducto.driver import solve
        from reducto.learner import init_params
        from reducto.search import SearchConfig

        phi = Formula([[1], [-1, 2], [2, 3]])
        answer, _, report = solve(
            phi, "portfolio", init_params(), SearchConfig(horizon=4, budget=8)
        )
        assert answer.kind == "solution"
        assert satisfies(answer.value, phi)

    def test_certifies_unsat_through_driver(self):
        from reducto.driver import solve
        from reducto.learner import init_params
        from reducto.search import SearchConfig

        phi = Formula([[1], [-1]])
        answer, _, report = solve(
            phi, "portfolio", init_params(), SearchConfig(horizon=4, budget=8)
        )
        assert answer.kind == "no_solution"
