import itertools
import random
import sys

import pytest

from reducto.core import Path, verify_path, lift_solution
from reducto.dimacs import emit_dimacs
from reducto.driver import random_formula
from reducto.portfolio import (
    BuiltinMember,
    ExternalMember,
    MemberFailure,
    Portfolio,
    builtin_members,
    portfolio_setup,
    unit_propagate_fixpoint,
)
from reducto.sat import BOTTOM, Formula, TOP, satisfies


def brute_force(phi):
    vs = phi.variables
    for signs in itertools.product((1, -1), repeat=len(vs)):
        alpha = frozenset(s * v for s, v in zip(signs, vs))
        if satisfies(alpha, phi):
            return alpha
    return None


def member_by_id(portfolio, member_id):
    return next(m for m in portfolio.members if m.id == member_id)


class TestUnitPropagation:
    def test_fixpoint_and_forced_literals(self):
        fix, forced = unit_propagate_fixpoint(Formula([[1], [-1, 2]]))
        assert fix == TOP
        assert forced == (1, 2)

    def test_lift_readds_propagated_literals(self):
        phi = Formula([[1], [-1, 2]])
        member = member_by_id(builtin_members(), "unit-propagation")
        fix, lift = member.transform(phi)
        assert fix == TOP
        lifted = lift(frozenset())
        assert lifted == frozenset([1, 2])
        assert satisfies(lifted, phi)

    def test_conflicting_units_leave_empty_clause(self):
        fix, _ = unit_propagate_fixpoint(Formula([[1], [-1]]))
        assert fix.has_empty_clause
        # Of two complementary units, the positive one propagates.
        phi = Formula([[5], [-5], [-5, 2]])
        assert unit_propagate_fixpoint(phi) == (Formula([[], [2]]), (5,))

    def test_no_units_no_move(self):
        phi = Formula([[1, 2], [-1, -2]])
        member = member_by_id(builtin_members(), "unit-propagation")
        assert member.transform(phi) is None


class TestPureLiteralMember:
    def test_no_pure_literal_contributes_no_move(self):
        member = member_by_id(builtin_members(), "pure-literal")
        assert member.transform(Formula([[1], [-1]])) is None

    def test_simplifies_and_lifts(self):
        phi = Formula([[1, 2], [-2]])
        member = member_by_id(builtin_members(), "pure-literal")
        fix, lift = member.transform(phi)
        assert fix == TOP
        assert satisfies(lift(frozenset()), phi)


class TestBoundedResolution:
    def test_single_iteration_derives_empty_clause(self):
        phi = Formula([[1], [-1]])
        member = member_by_id(builtin_members(resolution_iterations=1), "bounded-resolution")
        transformed, lift = member.transform(phi)
        assert transformed.has_empty_clause
        assert lift(frozenset([5])) == frozenset([5])

    def test_subsumption_prunes_added_resolvents(self):
        phi = Formula([[1], [-1]])
        member = member_by_id(builtin_members(), "bounded-resolution")
        transformed, _ = member.transform(phi)
        assert transformed == BOTTOM

    def test_no_change_no_move(self):
        member = member_by_id(builtin_members(), "bounded-resolution")
        assert member.transform(Formula([[1, 2]])) is None


class TestPortfolioMoves:
    def test_members_deduplicate(self):
        # Both unit propagation and pure-literal elimination fully simplify.
        full = builtin_members()
        p = Portfolio(
            (member_by_id(full, "pure-literal"), member_by_id(full, "unit-propagation"))
        )
        assert p.moves(Formula([[1], [1, 2]])) == [TOP]

    def test_unit_propagation_reaches_empty_clause(self):
        p = builtin_members()
        moves = p.moves(Formula([[1], [-1]]))
        assert moves and all(m.has_empty_clause for m in moves)

    def test_empty_when_no_member_changes_the_instance(self):
        p = builtin_members()
        assert p.moves(Formula([[1, 2], [-1, -2]])) == []

    def test_requires_members(self):
        with pytest.raises(ValueError):
            Portfolio(())

    def test_duplicate_ids_rejected(self):
        m = BuiltinMember("dup", lambda phi: None)
        with pytest.raises(ValueError):
            Portfolio((m, BuiltinMember("dup", lambda phi: None)))

    def test_lift_dispatches_to_the_producing_member(self):
        p = builtin_members()
        phi = Formula([[1], [-1, 2], [3, 4]])
        setup = portfolio_setup(p)
        moves = p.moves(phi)
        assert moves
        target = moves[0]
        path = Path(phi, (("portfolio", target),))
        assert verify_path(setup, path)
        witness = brute_force(target)
        assert witness is not None
        lifted = lift_solution(setup, path, witness)
        assert satisfies(lifted, phi)


class TestPortfolioContract:
    def test_members_preserve_satisfiability_and_lift_correctly(self):
        rng = random.Random(59)
        p = builtin_members()
        for _ in range(60):
            phi = random_formula(rng, 4, 6)
            sat = brute_force(phi) is not None
            for member in p.members:
                result = member.transform(phi)
                if result is None:
                    continue
                transformed, lift = result
                assert (brute_force(transformed) is not None) == sat, (member.id, phi)
                witness = brute_force(transformed)
                if witness is not None:
                    assert satisfies(lift(witness), phi), (member.id, phi)


FAKE_SAT = (
    "import sys; sys.stdin.read(); print('s SATISFIABLE'); print('v 1 0')"
)
FAKE_UNSAT = "import sys; sys.stdin.read(); print('s UNSATISFIABLE')"
FAKE_TRANSFORM = (
    "import sys; sys.stdin.read(); print('p cnf 2 1'); print('1 2 0')"
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
        transformed, lift = external(FAKE_SAT).transform(phi)
        assert transformed == TOP
        assert lift(frozenset()) == frozenset([1])

    def test_witness_is_verified_before_trusting(self):
        phi = Formula([[1]])
        with pytest.raises(MemberFailure):
            external(FAKE_LYING_SAT).transform(phi)

    def test_unsat_answer_becomes_move_to_bottom(self):
        transformed, _ = external(FAKE_UNSAT).transform(Formula([[1], [-1]]))
        assert transformed == BOTTOM

    def test_dimacs_output_becomes_identity_lift_transform(self):
        transformed, lift = external(FAKE_TRANSFORM).transform(Formula([[1]]))
        assert transformed == Formula([[1, 2]])
        alpha = frozenset([1])
        assert lift(alpha) == alpha

    def test_garbage_output_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_GARBAGE).transform(Formula([[1]]))

    def test_crash_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_CRASH).transform(Formula([[1]]))

    def test_timeout_is_a_failure(self):
        with pytest.raises(MemberFailure):
            external(FAKE_SLEEP, timeout=0.5).transform(Formula([[1]]))

    def test_failing_member_never_aborts_portfolio_moves(self):
        phi = Formula([[1], [-1, 2]])
        p = Portfolio(
            (
                external(FAKE_CRASH, member_id="crasher"),
                external(FAKE_GARBAGE, member_id="mumbler"),
                member_by_id(builtin_members(), "unit-propagation"),
            )
        )
        moves = p.moves(phi)
        assert moves == [TOP]
        assert {mid for mid, _ in p.failures} == {"crasher", "mumbler"}

    def test_external_member_round_trip_through_dimacs(self):
        phi = Formula([[1, -2], [2]])
        echo = (
            "import sys; text = sys.stdin.read(); sys.stdout.write(text)"
        )
        # Echoing the instance back is a self-move: no move results.
        p = Portfolio((external(echo, member_id="echo"),))
        assert p.moves(phi) == []
        assert emit_dimacs(phi) == emit_dimacs(Formula(phi.clauses))


class TestPortfolioSetup:
    def test_setup_shape(self):
        setup = portfolio_setup()
        assert [r.id for r in setup.reductions] == ["portfolio"]

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
