import dataclasses
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
from reducto.driver import make_setup, random_formula
from reducto.sat import (
    FLIP,
    Formula,
    RESOLUTION,
    TOP,
    easy_trivial,
    oracle_solve,
    satisfies,
)

FLIP_SETUP = make_setup("flip")
RES_SETUP = make_setup("resolution")
RES_ONLY = Setup(easy=easy_trivial, reductions=(RESOLUTION,))


def sat_check(inst, sol):
    return satisfies(sol, inst)


def lift_path(setup, path, y, check=None):
    """Lift ``y`` through the witnesses ``verify_path`` identifies on ``path``."""
    witnesses = verify_path(setup, path)
    assert witnesses is not None
    return lift_solution(setup, path, witnesses, y, check=check)


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


class TestVerifyPath:
    def test_zero_length_path_verifies(self):
        # No step, no witness: [] is falsy, so callers test `is None`.
        assert verify_path(RES_SETUP, Path(Formula([[1]]))) == []

    def test_genuine_flip_move_verifies(self):
        path = Path(Formula([[-1]]), ((("flip"), Formula([[1]])),))
        assert verify_path(FLIP_SETUP, path) == [1]

    def test_non_move_fails(self):
        path = Path(Formula([[-1]]), (("flip", Formula([[-1], [2]])),))
        assert verify_path(FLIP_SETUP, path) is None

    def test_unknown_reduction_id_raises(self):
        path = Path(Formula([[-1]]), (("teleport", Formula([[1]])),))
        with pytest.raises(UnknownReductionError):
            verify_path(FLIP_SETUP, path)

    def test_asks_identify_and_never_lists_moves(self):
        def no_listing(x):
            raise AssertionError("verify_path listed moves")

        rule = SelfReduction(
            "plus-one",
            no_listing,
            lambda x, w, y: y,
            identify=lambda x, x2: x if x2 == x + 1 else None,
        )
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        assert verify_path(setup, Path(1, (("plus-one", 2), ("plus-one", 3)))) == [1, 2]
        assert verify_path(setup, Path(1, (("plus-one", 3),))) is None


class TestIdentify:
    def test_replace_keeps_the_rules_own_identify(self):
        # perfbench wraps rules with dataclasses.replace(rule, moves=...).
        moves = lambda x: [x + 1]
        given = SelfReduction("r", moves, lambda x, w, y: y, identify=lambda x, x2: "given")
        assert dataclasses.replace(given, moves=lambda x: []).identify(1, 5) == "given"

    def test_lift_consumes_the_identified_witness(self):
        # Each step's lift gets its own step's witness, last step first.
        rule = SelfReduction(
            "r",
            lambda x: [x + 1],
            lambda x, w, y: y + ((x, w),),
            identify=lambda x, x2: f"{x}->{x2}" if x2 == x + 1 else None,
        )
        setup = Setup(easy=easy_trivial, reductions=(rule,))
        lifted = lift_path(setup, Path(1, (("r", 2), ("r", 3))), ())
        assert lifted == ((2, "2->3"), (1, "1->2"))


class TestLiftSolution:
    def test_zero_length_path_is_identity(self):
        assert lift_solution(RES_SETUP, Path(TOP), [], frozenset()) == frozenset()

    def test_flip_lift_negates_the_flipped_literal(self):
        path = Path(Formula([[-1]]), (("flip", Formula([[1]])),))
        lifted = lift_path(FLIP_SETUP, path, frozenset([1]), check=sat_check)
        assert lifted == frozenset([-1])

    def test_resolution_lift_is_identity(self):
        phi = Formula([[1, 2], [-1, 2]])
        move = Formula([[1, 2], [-1, 2], [2]])
        path = Path(phi, (("resolution", move),))
        alpha = frozenset([2])
        assert lift_path(RES_SETUP, path, alpha, check=sat_check) == alpha

    def test_integrity_error_identifies_the_offending_step(self):
        bad = SelfReduction(
            "bad",
            moves=lambda phi: [TOP],
            lift=lambda x, w, y: frozenset([99]),
            identify=lambda x, x2: True if x2 == TOP else None,
        )
        setup = Setup(easy=easy_trivial, reductions=(bad,))
        path = Path(Formula([[1], [2]]), (("bad", TOP),))
        with pytest.raises(LiftIntegrityError) as err:
            lift_path(setup, path, frozenset(), check=sat_check)
        assert err.value.step == 1
        assert err.value.reduction_id == "bad"

    def test_exception_inside_a_lift_becomes_integrity_error(self):
        def broken(x, w, y):
            raise RuntimeError("boom")

        bad = SelfReduction(
            "bad",
            moves=lambda phi: [TOP],
            lift=broken,
            identify=lambda x, x2: True if x2 == TOP else None,
        )
        setup = Setup(easy=easy_trivial, reductions=(bad,))
        path = Path(Formula([[1]]), (("bad", TOP),))
        with pytest.raises(LiftIntegrityError):
            lift_path(setup, path, frozenset())

    def test_composed_path_equals_composing_halves(self):
        rng = random.Random(29)
        for _ in range(20):
            phi = random_formula(rng, 4, 5)
            first = enumerate_moves(RES_SETUP, phi)
            if not first:
                continue
            rid1, x1 = first[0]
            second = enumerate_moves(RES_SETUP, x1)
            if not second:
                continue
            rid2, x2 = second[0]
            verdict = oracle_solve(x2)
            if not verdict.satisfiable:
                continue
            y = verdict.witness
            whole = Path(phi, ((rid1, x1), (rid2, x2)))
            front = Path(phi, ((rid1, x1),))
            back = Path(x1, ((rid2, x2),))
            composed = lift_path(RES_SETUP, front, lift_path(RES_SETUP, back, y))
            assert lift_path(RES_SETUP, whole, y) == composed


class TestEnumerateMoves:
    def test_flip_rule_inapplicable(self):
        assert enumerate_moves(FLIP_SETUP, Formula([[1]])) == []

    def test_flip_two_moves(self):
        phi = Formula([[-1, -2], [1]])
        moves = enumerate_moves(FLIP_SETUP, phi)
        expected = {
            ("flip", Formula([[1, -2], [-1]])),
            ("flip", Formula([[-1, 2], [1]])),
        }
        assert set(moves) == expected
        assert len(moves) == 2

    def test_resolution_only_blocked(self):
        assert enumerate_moves(RES_ONLY, Formula([[1, 2], [-1, -2]])) == []

    def test_setup_order_and_block_order_are_deterministic(self):
        phi = Formula([[1], [-1]])
        moves = enumerate_moves(RES_SETUP, phi)
        assert [rid for rid, _ in moves] == ["resolution", "elimination"]
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
            for rid, move in enumerate_moves(RES_SETUP, phi, move_cap=32):
                verdict = oracle_solve(move)
                if not verdict.satisfiable:
                    continue
                lifted = lift_path(RES_SETUP, Path(phi, ((rid, move),)), verdict.witness)
                assert satisfies(lifted, phi)

    def test_forward_solvability(self):
        rng = random.Random(37)
        for _ in range(40):
            phi = random_formula(rng, 4, 5)
            if not oracle_solve(phi).satisfiable:
                continue
            for _, move in enumerate_moves(RES_SETUP, phi, move_cap=32):
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
            assert verify_path(RES_SETUP, path) is not None
            if steps:
                corrupted = Path(phi, tuple(steps[:-1]) + ((steps[-1][0], Formula([[7], [-7]])),))
                assert verify_path(RES_SETUP, corrupted) is None
