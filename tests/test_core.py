import random

import pytest

from reducto.core import (
    DONT_KNOW,
    NO_SOLUTION,
    LiftIntegrityError,
    Path,
    SelfReduction,
    Setup,
    SolveAnswer,
    UnknownReductionError,
    enumerate_moves,
    lift_solution,
    verify_path,
)
from reducto.driver import make_setup
from reducto.sat import (
    FLIP,
    Formula,
    RESOLUTION,
    TOP,
    easy_trivial,
    oracle_solve,
    satisfies,
)

from helpers import random_formula

FLIP_SETUP = make_setup("flip")
RES_SETUP = make_setup("resolution")
RES_ONLY = Setup(easy=easy_trivial, reductions=(RESOLUTION,))


def sat_check(inst, sol):
    return satisfies(sol, inst)


class TestOutcomeTypes:
    def test_variants_are_exclusive(self):
        assert DONT_KNOW == SolveAnswer.dont_know() and not DONT_KNOW.is_easy
        assert NO_SOLUTION == SolveAnswer.no_solution() and NO_SOLUTION.is_easy
        assert SolveAnswer.solution(frozenset()).is_easy
        with pytest.raises(ValueError):
            SolveAnswer("bogus")
        with pytest.raises(ValueError):
            SolveAnswer("dont_know", frozenset())
        with pytest.raises(ValueError):
            SolveAnswer.solution(None)

    def test_answer_variants(self):
        assert SolveAnswer.dont_know().kind == "dont_know"
        with pytest.raises(ValueError):
            SolveAnswer("no_solution", frozenset([1]))


class TestSetup:
    def test_requires_reductions(self):
        with pytest.raises(ValueError):
            Setup(easy=easy_trivial, reductions=())

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Setup(easy=easy_trivial, reductions=(FLIP, FLIP))

    def test_reduction_lookup(self):
        assert RES_SETUP.reduction("resolution") is RESOLUTION
        with pytest.raises(UnknownReductionError):
            RES_SETUP.reduction("nope")


class TestPath:
    def test_a_step_that_is_not_a_triple_raises_when_the_path_is_built(self):
        # A step is a move: (reduction id, instance, witness), nothing less or more.
        with pytest.raises(ValueError):
            Path(Formula([[-1]]), (("flip", Formula([[1]])),))
        with pytest.raises(ValueError):
            Path(Formula([[-1]]), (("flip", Formula([[1]]), 1, "extra"),))


class TestVerifyPath:
    def test_zero_length_path_verifies(self):
        assert verify_path(RES_SETUP, Path(Formula([[1]]))) is True

    def test_genuine_flip_move_verifies(self):
        path = Path(Formula([[-1]]), (("flip", Formula([[1]]), 1),))
        assert verify_path(FLIP_SETUP, path) is True

    def test_non_move_fails(self):
        path = Path(Formula([[-1]]), (("flip", Formula([[-1], [2]]), 1),))
        assert verify_path(FLIP_SETUP, path) is False

    def test_a_listed_successor_with_the_wrong_witness_fails(self):
        # Flipping 1 reaches {1}; the step claims variable 2 did.
        path = Path(Formula([[-1]]), (("flip", Formula([[1]]), 2),))
        assert verify_path(FLIP_SETUP, path) is False

    def test_unknown_reduction_id_raises(self):
        path = Path(Formula([[-1]]), (("teleport", Formula([[1]]), 1),))
        with pytest.raises(UnknownReductionError):
            verify_path(FLIP_SETUP, path)

    def test_looks_each_step_up_among_its_rules_moves(self):
        listed = []

        def moves(x):
            listed.append(x)
            return [(x + 1, f"{x}+1"), (x + 2, f"{x}+2")]

        rule = SelfReduction("up", moves, lambda x, w, y: y)
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        # Each step's (instance, witness) pair is one its source's listing holds.
        assert verify_path(setup, Path(1, (("up", 2, "1+1"), ("up", 4, "2+2")))) is True
        assert listed == [1, 2]
        assert verify_path(setup, Path(1, (("up", 2, "1+1"), ("up", 5, "2+3")))) is False
        assert verify_path(setup, Path(1, (("up", 2, "1+1"), ("up", 4, "2+1")))) is False


class TestIdentify:
    def test_lift_consumes_the_identified_witness(self):
        # Each step's lift gets its own step's witness, last step first.
        rule = SelfReduction(
            "r",
            lambda x: [(x + 1, f"{x}->{x + 1}")],
            lambda x, w, y: y + ((x, w),),
        )
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        path = Path(1, (("r", 2, "1->2"), ("r", 3, "2->3")))
        assert verify_path(setup, path)
        assert lift_solution(setup, path, ()) == ((2, "2->3"), (1, "1->2"))


class TestLiftSolution:
    def test_zero_length_path_is_identity(self):
        assert lift_solution(RES_SETUP, Path(TOP), frozenset()) == frozenset()

    def test_flip_lift_negates_the_flipped_literal(self):
        path = Path(Formula([[-1]]), (("flip", Formula([[1]]), 1),))
        lifted = lift_solution(FLIP_SETUP, path, frozenset([1]), check=sat_check)
        assert lifted == frozenset([-1])

    def test_resolution_lift_is_identity(self):
        phi = Formula([[1, 2], [-1, 2]])
        move = Formula([[1, 2], [-1, 2], [2]])
        path = Path(phi, (("resolution", move, True),))
        assert verify_path(RES_SETUP, path)
        alpha = frozenset([2])
        assert lift_solution(RES_SETUP, path, alpha, check=sat_check) == alpha

    def test_a_path_of_listed_moves_verifies_and_lifts_without_listing_again(self):
        listed = []

        def moves(x):
            listed.append(x)
            return FLIP.moves(x)

        counted = SelfReduction("flip", moves, FLIP.lift)
        setup = Setup(easy=easy_trivial, reductions=(counted,))
        phi = Formula([[-1, -2], [-2, 3], [-3]])
        steps, cur = [], phi
        for _ in range(3):
            step = enumerate_moves(setup, cur)[0]
            steps.append(step)
            cur = step[1]
        path = Path(phi, steps)
        assert len(listed) == 3
        y = oracle_solve(path.end).witness
        assert satisfies(lift_solution(setup, path, y, check=sat_check), phi)
        assert len(listed) == 3  # the lift reads each step's own witness
        assert verify_path(setup, path) and listed[3:] == [phi, *(inst for _, inst, _ in steps[:-1])]

    def test_integrity_error_identifies_the_offending_step(self):
        bad = SelfReduction(
            "bad",
            moves=lambda phi: [(TOP, True)],
            lift=lambda x, w, y: frozenset([99]),
        )
        setup = Setup(easy=easy_trivial, reductions=(bad,))
        path = Path(Formula([[1], [2]]), (("bad", TOP, True),))
        with pytest.raises(LiftIntegrityError) as err:
            lift_solution(setup, path, frozenset(), check=sat_check)
        assert err.value.step == 1
        assert err.value.reduction_id == "bad"

    def test_exception_inside_a_lift_becomes_integrity_error(self):
        def broken(x, w, y):
            raise RuntimeError("boom")

        bad = SelfReduction(
            "bad",
            moves=lambda phi: [(TOP, True)],
            lift=broken,
        )
        setup = Setup(easy=easy_trivial, reductions=(bad,))
        path = Path(Formula([[1]]), (("bad", TOP, True),))
        with pytest.raises(LiftIntegrityError):
            lift_solution(setup, path, frozenset())

    def test_composed_path_equals_composing_halves(self):
        rng = random.Random(29)
        for _ in range(20):
            phi = random_formula(rng, 4, 5)
            first = enumerate_moves(RES_SETUP, phi)
            if not first:
                continue
            x1 = first[0][1]
            second = enumerate_moves(RES_SETUP, x1)
            if not second:
                continue
            verdict = oracle_solve(second[0][1])
            if not verdict.satisfiable:
                continue
            y = verdict.witness
            whole = Path(phi, (first[0], second[0]))
            front = Path(phi, (first[0],))
            back = Path(x1, (second[0],))
            composed = lift_solution(RES_SETUP, front, lift_solution(RES_SETUP, back, y))
            assert lift_solution(RES_SETUP, whole, y) == composed


class TestEnumerateMoves:
    def test_flip_rule_inapplicable(self):
        assert enumerate_moves(FLIP_SETUP, Formula([[1]])) == []

    def test_flip_two_moves(self):
        phi = Formula([[-1, -2], [1]])
        moves = enumerate_moves(FLIP_SETUP, phi)
        expected = {
            ("flip", Formula([[1, -2], [-1]]), 1),
            ("flip", Formula([[-1, 2], [1]]), 2),
        }
        assert set(moves) == expected
        assert len(moves) == 2

    def test_resolution_only_blocked(self):
        assert enumerate_moves(RES_ONLY, Formula([[1, 2], [-1, -2]])) == []

    def test_setup_order_and_block_order_are_deterministic(self):
        phi = Formula([[1], [-1]])
        moves = enumerate_moves(RES_SETUP, phi)
        assert [rid for rid, _, _ in moves] == ["resolution", "elimination"]
        assert moves == enumerate_moves(RES_SETUP, phi)

    def test_cap_truncates_to_lexicographically_first(self):
        phi = Formula([[-1, -2], [1]])
        capped = enumerate_moves(FLIP_SETUP, phi, move_cap=1)
        full = enumerate_moves(FLIP_SETUP, phi)
        assert capped == full[:1]

    def test_self_moves_removed(self):
        phi = Formula([[1], [-1]])
        moves = enumerate_moves(FLIP_SETUP, phi)
        assert moves == []


class TestContractProperties:
    """The self-reduction contract, probed on small random formulas."""

    def test_lifting_soundness(self):
        rng = random.Random(31)
        for _ in range(40):
            phi = random_formula(rng, 4, 5)
            for rid, move, w in enumerate_moves(RES_SETUP, phi, move_cap=32):
                verdict = oracle_solve(move)
                if not verdict.satisfiable:
                    continue
                path = Path(phi, ((rid, move, w),))
                assert verify_path(RES_SETUP, path)
                assert satisfies(lift_solution(RES_SETUP, path, verdict.witness), phi)

    def test_forward_solvability(self):
        rng = random.Random(37)
        for _ in range(40):
            phi = random_formula(rng, 4, 5)
            if not oracle_solve(phi).satisfiable:
                continue
            for _, move, _ in enumerate_moves(RES_SETUP, phi, move_cap=32):
                assert oracle_solve(move).satisfiable

    def test_assembled_paths_verify(self):
        rng = random.Random(41)
        for _ in range(20):
            phi = random_formula(rng, 4, 5)
            steps = []
            cur = phi
            for _ in range(3):
                moves = enumerate_moves(RES_SETUP, cur, move_cap=16)
                if not moves:
                    break
                steps.append(moves[0])
                cur = moves[0][1]
            path = Path(phi, tuple(steps))
            assert verify_path(RES_SETUP, path)
            if steps:
                rid, _, w = steps[-1]
                corrupted = Path(phi, tuple(steps[:-1]) + ((rid, Formula([[7], [-7]]), w),))
                assert not verify_path(RES_SETUP, corrupted)
