import hashlib
import itertools
import os
import random
import subprocess
import sys
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from reducto import sat
from reducto.sat import (
    BOTTOM,
    ELIMINATION,
    EXTENSION,
    FLIP,
    Formula,
    LISTING_MEMO,
    OracleLimitError,
    PAIR_CAP,
    RESOLUTION,
    TOP,
    UNIT_PROPAGATION,
    assignment,
    clause,
    condition,
    easy_all_positive,
    easy_combined,
    easy_trivial,
    elimination_moves,
    extension_moves,
    flip_moves,
    flip_variable,
    flippable_variables,
    oracle_solve,
    resolution_moves,
    satisfies,
    unit_propagate_fixpoint,
)
from reducto.core import enumerate_moves
from reducto.driver import make_setup

from helpers import new_resolvents, random_formula, step_witness


def lift_move(rule, phi, move, y):
    """Lift ``y`` through the witness the one-step check finds for the move."""
    witness = step_witness(rule, phi, move)
    assert witness is not None, (rule.id, phi, move)
    return rule.lift(phi, witness, y)


def successors(moves):
    """The successors of a rule's ``(successor, witness)`` move list."""
    return [m for m, _ in moves]


def solutions(phi):
    """Every total assignment over the occurring variables that satisfies ``phi``."""
    vs = phi.variables
    for signs in itertools.product((1, -1), repeat=len(vs)):
        alpha = frozenset(s * v for s, v in zip(signs, vs))
        if satisfies(alpha, phi):
            yield alpha


def brute_force(phi):
    """Independent oracle: try all sign patterns over the occurring variables."""
    return next(solutions(phi), None)


# Variable ids for sparse formulas: small ones, ids above 64 (past one machine
# word of two bits per id), and ids near 10**6.
SPARSE_IDS = st.one_of(
    st.integers(1, 8), st.integers(60, 130), st.integers(10**6 - 40, 10**6 + 40)
)


@st.composite
def clause_lists(draw, max_vars=4, max_clauses=5, sparse=False):
    """Raw clause lists, empty and unit clauses included; ``sparse`` draws the
    variable ids from ``SPARSE_IDS`` instead of 1..n."""
    n = draw(st.integers(1, max_vars))
    ids = list(range(1, n + 1))
    if sparse:
        ids = draw(st.lists(SPARSE_IDS, min_size=n, max_size=n, unique=True))
    out = []
    for _ in range(draw(st.integers(0, max_clauses))):
        width = draw(st.integers(0, min(3, n)))
        vs = draw(st.lists(st.sampled_from(ids), min_size=width, max_size=width, unique=True))
        out.append([v if draw(st.booleans()) else -v for v in vs])
    return out


@st.composite
def formulas(draw, max_vars=4, max_clauses=5, sparse=False):
    return Formula(draw(clause_lists(max_vars, max_clauses, sparse)))


class TestDataModel:
    def test_clause_canonical_order_and_dedup(self):
        assert clause([2, -3, 2, 1]) == (1, 2, -3)

    def test_clause_rejects_complementary_pair(self):
        with pytest.raises(ValueError):
            clause([1, -1])

    def test_clause_rejects_zero(self):
        with pytest.raises(ValueError):
            clause([0])

    def test_assignment_rejects_complements(self):
        with pytest.raises(ValueError):
            assignment([1, -1])

    def test_formula_set_semantics(self):
        a = Formula([[1, 2], [2, 1], [-3]])
        b = Formula([[-3], [1, 2]])
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest == b.digest

    def test_top_and_bottom(self):
        assert TOP.is_empty
        assert not TOP.has_empty_clause
        assert BOTTOM.has_empty_clause
        assert BOTTOM.clauses == ((),)

    def test_variables(self):
        assert Formula([[1, -4], [2]]).variables == (1, 2, 4)

    def test_digest_uses_hashlibs_blake2b(self):
        # The builtin module's function is hashlib's own, so digests are as before.
        assert sat.blake2b is hashlib.blake2b


def test_import_leaves_openssl_hashlib_unloaded():
    src = os.path.dirname(os.path.dirname(sat.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reducto; print('_hashlib' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.strip() == "False"


class TestSatisfies:
    def test_empty_formula_satisfied_by_empty_assignment(self):
        assert satisfies(frozenset(), TOP)

    def test_nothing_satisfies_the_empty_clause(self):
        assert not satisfies(frozenset(), BOTTOM)
        assert not satisfies(frozenset([1, 2, -3]), BOTTOM)

    def test_direct_intersection(self):
        assert satisfies(frozenset([1]), Formula([[1, -2]]))
        assert not satisfies(frozenset([2]), Formula([[1, -2]]))

    def test_agrees_with_clause_by_clause_membership(self):
        rng = random.Random(29)
        for _ in range(400):
            phi = random_formula(rng, 6, 14)
            alpha = [v if rng.random() < 0.5 else -v for v in range(1, 7) if rng.random() < 0.8]
            expected = all(any(l in alpha for l in c) for c in phi.clauses)
            assert satisfies(alpha, phi) is expected
            assert satisfies(frozenset(alpha), phi) is expected


class TestResolvent:
    def test_plain_resolvent(self):
        assert new_resolvents(Formula([[1, 2], [-1, 3]])) == [(2, 3)]

    def test_empty_resolvent(self):
        assert new_resolvents(Formula([[1], [-1]])) == [()]

    def test_tautological_resolvent_is_none(self):
        # The only resolvent would hold both 2 and -2.
        assert new_resolvents(Formula([[1, 2], [-1, -2]])) == []


class TestResolutionMoves:
    def test_unit_conflict_derives_empty_clause(self):
        phi = Formula([[1], [-1]])
        assert resolution_moves(phi) == [(Formula([[], [1], [-1]]), True)]

    def test_single_useful_resolvent(self):
        phi = Formula([[1, 2], [-1, 2]])
        assert resolution_moves(phi) == [(Formula([[1, 2], [-1, 2], [2]]), True)]

    def test_all_resolvents_blocked(self):
        assert resolution_moves(Formula([[1, 2], [-1, -2]])) == []

    def test_existing_resolvent_not_offered(self):
        phi = Formula([[1, 2], [-1, 2], [2]])
        assert resolution_moves(phi) == []


class TestBlockedClause:
    """The equivalence core {1, 4}, {-1, -4}: every clause is blocked, and
    elimination empties it, so no dedicated blocked-clause rule is needed."""

    PHI = Formula([[1, 4], [-1, -4]])

    def test_equivalence_core_moves_to_the_empty_formula(self):
        # Resolution yields only tautologies here and no literal is pure, yet
        # eliminating either variable empties the formula: the resolution
        # setup offers that one move.
        phi = self.PHI
        occurring = {l for c in phi.clauses for l in c}
        assert resolution_moves(phi) == []
        assert all(-l in occurring for l in occurring)
        # Both variables give it; the move carries the lower one.
        assert ELIMINATION.moves(phi) == [(TOP, 1)]
        assert enumerate_moves(make_setup("resolution"), phi) == [("elimination", TOP, 1)]

    def test_lift_of_the_empty_assignment_is_total_and_satisfies(self):
        phi = self.PHI
        lifted = lift_move(ELIMINATION, phi, TOP, frozenset())
        assert {abs(l) for l in lifted} == set(phi.variables)
        assert satisfies(lifted, phi)

    def test_lift_rejects_a_target_that_is_not_the_fixpoint(self):
        # A lift takes the step's own witness, so a target that is no move
        # does not verify: dropping one clause is not an elimination.
        assert step_witness(ELIMINATION, self.PHI, Formula([[1, 4]])) is None


class TestElimination:
    def test_one_clause_eliminates_to_top_for_both_variables(self):
        # Both variables give the same formula, which is one move, and it
        # carries the lower variable, the one the step verifies to.
        assert elimination_moves(Formula([[1, 2]])) == [(TOP, 1)]
        assert step_witness(ELIMINATION, Formula([[1, 2]]), TOP) == 1

    def test_unit_conflict_eliminates_to_bottom(self):
        assert elimination_moves(Formula([[1], [-1]])) == [(BOTTOM, 1)]

    def test_move_drops_the_clauses_and_adds_the_non_tautological_resolvents(self):
        phi = Formula([[1, 2], [-1, 3], [-1, -2], [2, 4]])
        # On 1: (2 3) from the first two clauses; (1 2), (-1 -2) is tautological.
        assert (Formula([[2, 3], [2, 4]]), 1) in elimination_moves(phi)

    def test_eliminating_every_variable_reaches_the_oracle_verdict(self):
        rng = random.Random(23)
        for _ in range(200):
            phi = random_formula(rng, 6, 14)
            cur, steps = phi, 0
            while moves := elimination_moves(cur):
                cur, _ = rng.choice(moves)
                steps += 1
            assert cur in (TOP, BOTTOM), (phi, cur)
            assert (cur == TOP) == oracle_solve(phi).satisfiable, phi
            assert steps <= len(phi.variables)

    def test_each_moves_lift_satisfies_the_source(self):
        rng = random.Random(29)
        lifted_moves = 0
        for _ in range(200):
            phi = random_formula(rng, 6, 14)
            for move, _ in elimination_moves(phi):
                verdict = oracle_solve(move)
                if not verdict.satisfiable:
                    continue
                lifted_moves += 1
                # A solution of the target may also set the eliminated
                # variable, say after a later extension step reused it.
                gone = set(phi.variables) - set(move.variables)
                for extra in ((), tuple(gone), tuple(-v for v in gone)):
                    y = assignment(verdict.witness | set(extra))
                    assert satisfies(lift_move(ELIMINATION, phi, move, y), phi), (phi, move, y)
        assert lifted_moves > 100

    def test_lift_to_a_non_move_target_raises(self):
        phi = Formula([[1, 2], [-1, 3], [-2, -3]])
        assert Formula([[2, 3]]) not in successors(elimination_moves(phi))
        # A lift takes the step's own variable, so no such target verifies.
        for target in (Formula([[2, 3]]), phi, TOP, BOTTOM, Formula([[2, 3], [-2, -3], [4]])):
            assert step_witness(ELIMINATION, phi, target) is None, target

    def test_without_a_qualifying_variable_the_one_move_is_the_fallback(self):
        # Eliminating any variable of NO_BOUNDED grows it, each to 14 clauses;
        # on that tie the lowest variable is the fallback.
        assert [len(ref_eliminate(NO_BOUNDED, v)) for v in NO_BOUNDED.variables] == [14] * 5
        assert ref_fallback(NO_BOUNDED) == 1
        grown = ref_eliminate(NO_BOUNDED, 1)
        assert elimination_moves(NO_BOUNDED) == [(grown, 1)]
        assert step_witness(ELIMINATION, NO_BOUNDED, grown) == 1
        # Growing eliminations of the other variables are no moves.
        for v in (2, 3, 4, 5):
            assert step_witness(ELIMINATION, NO_BOUNDED, ref_eliminate(NO_BOUNDED, v)) is None, v

    def test_the_fallback_is_the_least_growth_not_the_least_bound_on_it(self):
        # Each variable's elimination leaves more than FALLBACK_BY_GROWTH's 16
        # clauses.  Variable 2 has the least |pos|·|neg| − |pos| − |neg|, 3
        # against variable 1's 5, but leaves 18 clauses; variable 1 leaves 17.
        sizes = [len(ref_eliminate(FALLBACK_BY_GROWTH, v)) for v in FALLBACK_BY_GROWTH.variables]
        assert sizes == [17, 18, 17, 19, 18, 19]
        assert elimination_moves(FALLBACK_BY_GROWTH) == [
            (ref_eliminate(FALLBACK_BY_GROWTH, 1), 1)
        ]

    def test_a_growing_elimination_is_no_move_while_another_variable_qualifies(self):
        grown = ref_eliminate(GROWING, 1)
        assert len(grown) == 6 > len(GROWING)
        assert grown not in successors(elimination_moves(GROWING))
        assert step_witness(ELIMINATION, GROWING, grown) is None
        # Variable 2 occurs only positively, so eliminating it qualifies.
        assert step_witness(ELIMINATION, GROWING, ref_eliminate(GROWING, 2)) == 2

    def test_a_formula_without_variables_has_no_move(self):
        for phi in (TOP, BOTTOM):
            assert elimination_moves(phi) == []
            assert step_witness(ELIMINATION, phi, Formula([[1]])) is None


# No elimination of a variable of NO_BOUNDED leaves at most 13 clauses.
NO_BOUNDED = Formula(
    [[1, -2, 4], [1, -2, -4], [1, -2, -5], [1, 3, 5], [1, -3, -4], [1, 5], [-1, -2, 3],
     [-1, -4], [2, -3], [2, -5], [-2, -3], [3, 4, -5], [-3, 4, 5]]
)
FALLBACK_BY_GROWTH = Formula(
    [[1, -2, 4], [1, 3, -6], [1, 4, 6], [1, -5, -6], [-1, -2, -5], [-1, -3, 4], [-1, -3, 6],
     [2, 4, -5], [2, 5, 6], [2, -5, -6], [-2, 3, 4], [3, -4, 5], [3, -5, 6], [-3, 4, -6],
     [-3, -4, 5], [-4, -5, 6]]
)
# Eliminating 1 from GROWING gives 2·3 = 6 resolvents for its 5 clauses.
GROWING = Formula([[1, 2], [1, 3], [-1, 4], [-1, 5], [-1, 6]])


def ref_eliminate(phi, v):
    """Davis–Putnam elimination of ``v``, spelled out over literal sets."""
    rest = [c for c in phi.clauses if v not in c and -v not in c]
    resolvents = [
        (set(p) - {v}) | (set(n) - {-v})
        for p in phi.clauses if v in p
        for n in phi.clauses if -v in n
    ]
    return Formula(rest + [r for r in resolvents if not any(-l in r for l in r)])


def ref_fallback(phi):
    """The variable whose elimination leaves the fewest clauses, the lowest on a tie."""
    return min(phi.variables, key=lambda v: (len(ref_eliminate(phi, v)), v))


# Random formulas have a qualifying variable almost always; joined with
# NO_BOUNDED, more than half have none.
ELIMINATION_INPUTS = st.one_of(
    formulas(5, 8),
    formulas(6, 12, sparse=True),
    formulas(5, 8).map(lambda phi: Formula(phi.clauses + NO_BOUNDED.clauses)),
)


@settings(max_examples=300, deadline=None)
@given(ELIMINATION_INPUTS)
def test_elimination_moves_are_bounded(phi):
    pairs = elimination_moves(phi)
    moves = successors(pairs)
    for move in moves:
        assert set(move.variables) < set(phi.variables), (phi, move)
    bounded = {f for v in phi.variables if len(f := ref_eliminate(phi, v)) <= len(phi)}
    if bounded or not phi.variables:
        assert set(moves) == bounded
    else:
        # Only when no variable qualifies is there one, larger, move: the
        # fallback's elimination.
        fallback = ref_fallback(phi)
        assert pairs == [(ref_eliminate(phi, fallback), fallback)]
        assert step_witness(ELIMINATION, phi, moves[0]) == fallback


def ref_elimination_moves(phi):
    """The qualifying eliminations, or the fallback's, sorted by clause tuple."""
    bounded = {f for v in phi.variables if len(f := ref_eliminate(phi, v)) <= len(phi)}
    if not bounded and phi.variables:
        bounded = {ref_eliminate(phi, ref_fallback(phi))}
    return sorted(bounded, key=lambda f: f.clauses)


# Gapped ids: a clause on several variables can sort by a literal whose
# rank differs from its id, and negative literals sort after positive ones.
@settings(max_examples=200, deadline=None)
@given(st.one_of(formulas(), ELIMINATION_INPUTS, formulas(6, 10, sparse=True)))
def test_elimination_moves_are_canonical_and_distinct(phi):
    moves = successors(elimination_moves(phi))
    for move in moves:
        assert Formula(move.clauses).clauses == move.clauses
    assert all(a.clauses < b.clauses for a, b in zip(moves, moves[1:]))
    assert [m.clauses for m in moves] == [f.clauses for f in ref_elimination_moves(phi)]
    assert phi not in moves
    assert len(moves) <= len(phi.variables)


class TestResolventTable:
    """Both rules read one memoised resolvent table per formula."""

    def test_the_memo_keeps_one_table(self):
        assert sat._resolvent_table.cache_info().maxsize == 1

    @settings(max_examples=100, deadline=None)
    @given(ELIMINATION_INPUTS, ELIMINATION_INPUTS)
    def test_moves_do_not_depend_on_what_was_asked_before(self, phi, other):
        sat._resolvent_table.cache_clear()
        alone = elimination_moves(phi)
        witnesses = [step_witness(ELIMINATION, phi, move) for move, _ in alone]
        assert witnesses == [v for _, v in alone]
        resolvents = new_resolvents(phi)
        # phi plus one clause: each new resolvent, and near misses that are
        # not one (a clause of other, a unit, a literal phi lacks).
        fresh = max(phi.variables, default=0) + 1
        added = set(resolvents) | set(other.clauses) | {(fresh,)}
        added |= {(l,) for v in phi.variables for l in (v, -v)}
        added = sorted(added - set(phi.clauses))
        grown = [Formula(phi.clauses + (c,)) for c in added]
        sat._resolvent_table.cache_clear()
        verdicts = [step_witness(RESOLUTION, phi, g) for g in grown]
        assert verdicts == [True if c in resolvents else None for c in added]

        def same(x):
            assert elimination_moves(x) == alone
            assert [step_witness(ELIMINATION, x, move) for move, _ in alone] == witnesses
            assert new_resolvents(x) == resolvents
            assert [step_witness(RESOLUTION, x, g) for g in grown] == verdicts

        resolution_moves(phi)
        same(phi)
        sat._resolvent_table.cache_clear()
        resolution_moves(other)
        same(phi)
        # An equal formula that is another object reads the same table.
        sat._resolvent_table.cache_clear()
        resolution_moves(phi)
        same(Formula(phi.clauses))


class TestListingMemo:
    """Elimination and unit propagation list through a memo of the last ``LISTING_MEMO`` formulas."""

    # Twice as many distinct formulas as the memo holds, each with a unit clause.
    CROWD = [Formula([[v], [-v, v + 1]]) for v in range(1, 2 * LISTING_MEMO + 1)]

    @staticmethod
    def plain(x):
        """Both rules' listings, worked out by the plain functions."""
        fixpoint, forced = unit_propagate_fixpoint(x)
        return elimination_moves(x), [] if fixpoint == x else [(fixpoint, forced)]

    @staticmethod
    def listed(x):
        return ELIMINATION.moves(x), UNIT_PROPAGATION.moves(x)

    def test_the_memo_is_bounded(self):
        assert ELIMINATION.moves.cache_info().maxsize == LISTING_MEMO

    @settings(max_examples=100, deadline=None)
    @given(
        ELIMINATION_INPUTS,
        st.lists(ELIMINATION_INPUTS, max_size=4),
        st.integers(0, 2 * LISTING_MEMO),
    )
    def test_listings_do_not_depend_on_what_was_listed_before(self, phi, others, crowd):
        expected = self.plain(phi)
        assert self.listed(phi) == expected
        # From crowd = LISTING_MEMO on, phi's entries have been evicted.
        for x in others + self.CROWD[:crowd]:
            assert self.listed(x) == self.plain(x)
        assert self.listed(phi) == expected
        assert self.listed(Formula(phi.clauses)) == expected

    def test_an_evicted_listing_is_worked_out_again(self):
        phi = Formula([[1, 2], [-1, 3], [-2, -3]])
        expected = self.plain(phi)
        self.listed(phi)
        before = ELIMINATION.moves.cache_info()
        assert self.listed(phi) == expected
        hit = ELIMINATION.moves.cache_info()
        assert (hit.hits, hit.misses) == (before.hits + 1, before.misses)
        for x in self.CROWD[:LISTING_MEMO]:
            self.listed(x)
        before = ELIMINATION.moves.cache_info()
        assert self.listed(phi) == expected
        missed = ELIMINATION.moves.cache_info()
        assert (missed.hits, missed.misses) == (before.hits, before.misses + 1)


@settings(max_examples=200, deadline=None)
@given(ELIMINATION_INPUTS)
def test_elimination_identify_accepts_exactly_the_moves(phi):
    pairs = elimination_moves(phi)
    moves = successors(pairs)
    fresh = max(phi.variables, default=0) + 1
    targets = list(moves)
    for v in phi.variables:
        # Every elimination, growing ones and the fallback's included; and
        # phi without v's clauses, the resolvents on v left out.
        targets.append(ref_eliminate(phi, v))
        targets.append(Formula([c for c in phi.clauses if v not in c and -v not in c]))
    # A target with a literal phi lacks.
    targets += [Formula(t.clauses + ((fresh,),)) for t in list(targets)]
    for x2 in targets:
        witness = step_witness(ELIMINATION, phi, x2)
        assert (witness is not None) == (x2 in moves), (phi, x2)
        if witness is not None:
            assert ref_eliminate(phi, witness) == x2, (phi, x2, witness)
            assert (x2, witness) in pairs, (phi, x2, witness)


class TestExtension:
    def test_no_variables_no_moves(self):
        assert extension_moves(TOP) == []
        assert extension_moves(BOTTOM) == []

    def test_clause_template_with_fresh_variable(self):
        phi = Formula([[1, 2]])
        moves = extension_moves(phi)
        expected = Formula([[1, 2], [1, -3], [2, -3], [-1, -2, 3]])
        assert (expected, True) in moves

    def test_pair_cap_truncates(self):
        # 6 literals over 3 variables: 12 cross-variable unordered pairs.
        assert len(extension_moves(Formula([[1, 2], [3]]))) == 12
        # 8 literals over 4 variables: 24 pairs, cut to the first PAIR_CAP.
        assert len(extension_moves(Formula([[1, 2], [3, 4]]))) == PAIR_CAP

    def test_moves_preserve_satisfiability(self):
        rng = random.Random(11)
        for _ in range(10):
            phi = random_formula(rng, 3, 4)
            for move, _ in extension_moves(phi):
                assert (brute_force(phi) is not None) == (brute_force(move) is not None)


class TestFlip:
    def test_single_flip_and_lift(self):
        phi = Formula([[-1]])
        assert flip_moves(phi) == [(Formula([[1]]), 1)]
        assert step_witness(FLIP, phi, Formula([[1]])) == 1
        lifted = FLIP.lift(phi, 1, frozenset([1]))
        assert lifted == frozenset([-1])
        assert satisfies(lifted, phi)

    def test_no_all_negative_clause_no_moves(self):
        assert flip_moves(Formula([[1]])) == []
        assert flip_moves(TOP) == []

    def test_flip_is_an_involution(self):
        phi = Formula([[-1, -2], [1, 3], [-3, 2]])
        assert flip_variable(flip_variable(phi, 2), 2) == phi

    def test_self_move_excluded(self):
        # Swapping the only variable of {{v},{-v}} reproduces the formula.
        assert flip_moves(Formula([[1], [-1]])) == []

    def test_flips_giving_the_same_formula_are_one_move(self):
        # Flipping 1 and flipping 2 both give {{1,-2},{-1,2}}; the move
        # carries 1, the variable the step verifies to.
        phi = Formula([[-1, -2], [1, 2]])
        moves = FLIP.moves(phi)
        assert moves == [(Formula([[1, -2], [-1, 2]]), 1)]
        assert step_witness(FLIP, phi, moves[0][0]) == 1
        lifted = lift_move(FLIP, phi, moves[0][0], brute_force(moves[0][0]))
        assert satisfies(lifted, phi)

    def test_full_polarity_swap_both_directions(self):
        phi = Formula([[-1, 2], [1, -2], [-1, -2]])
        swapped = flip_variable(phi, 1)
        assert swapped == Formula([[1, 2], [-1, -2], [1, -2]])


class TestEasySolvers:
    def test_trivial_top(self):
        out = easy_trivial(TOP)
        assert out.kind == "solution" and out.value == frozenset()

    def test_trivial_bottom_and_any_empty_clause(self):
        assert easy_trivial(BOTTOM).kind == "no_solution"
        assert easy_trivial(Formula([[], [1]])).kind == "no_solution"

    def test_trivial_not_easy(self):
        assert easy_trivial(Formula([[1]])).kind == "dont_know"

    def test_all_positive_solution(self):
        out = easy_all_positive(Formula([[1, -2], [2]]))
        assert out.kind == "solution"
        assert out.value == frozenset([1, 2])
        assert satisfies(out.value, Formula([[1, -2], [2]]))

    def test_all_positive_not_easy(self):
        assert easy_all_positive(Formula([[-1]])).kind == "dont_know"

    def test_all_positive_vacuous_top(self):
        out = easy_all_positive(TOP)
        assert out.kind == "solution" and out.value == frozenset()

    def test_all_positive_never_certifies_unsat(self):
        assert easy_all_positive(BOTTOM).kind == "dont_know"

    def test_combined_prefers_trivial_verdicts(self):
        assert easy_combined(BOTTOM).kind == "no_solution"
        assert easy_combined(Formula([[1, -2], [2]])).kind == "solution"
        assert easy_combined(Formula([[-1]])).kind == "dont_know"


class TestOracle:
    def test_unit_conflict_unsat(self):
        assert not oracle_solve(Formula([[1], [-1]])).satisfiable

    def test_empty_formula_sat_with_empty_witness(self):
        verdict = oracle_solve(TOP)
        assert verdict.satisfiable and verdict.witness == frozenset()

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(5)
        for _ in range(100):
            phi = random_formula(rng, 3, 5)
            verdict = oracle_solve(phi)
            expected = brute_force(phi)
            assert verdict.satisfiable == (expected is not None)
            if verdict.satisfiable:
                assert satisfies(verdict.witness, phi)

    def test_variable_limit(self):
        big = Formula([[v] for v in range(1, 26)])
        with pytest.raises(OracleLimitError):
            oracle_solve(big)


ALL_RULES = (
    RESOLUTION, ELIMINATION, EXTENSION, FLIP, UNIT_PROPAGATION,
)


class TestRuleContracts:
    def test_equisatisfiability_of_every_rule(self):
        rng = random.Random(13)
        for _ in range(60):
            phi = random_formula(rng, 4, 6)
            sat = brute_force(phi) is not None
            for rule in ALL_RULES:
                for move, _ in rule.moves(phi):
                    assert (brute_force(move) is not None) == sat, (rule.id, phi, move)

    def test_lifted_solutions_satisfy_the_source(self):
        rng = random.Random(17)
        for _ in range(60):
            phi = random_formula(rng, 4, 6)
            for rule in ALL_RULES:
                for move, _ in rule.moves(phi):
                    witness = brute_force(move)
                    if witness is None:
                        continue
                    lifted = lift_move(rule, phi, move, witness)
                    assert satisfies(lifted, phi), (rule.id, phi, move)


# No rule's move from a formula over small variable ids reaches this one.
UNRELATED = Formula([[10**7, -(10**7 + 1)]])


@settings(max_examples=100, deadline=None)
@given(st.one_of(formulas(5, 7), formulas(5, 7, sparse=True)))
def test_identify_accepts_exactly_the_moves(phi):
    # ALL_RULES holds every builtin rule, UNIT_PROPAGATION included.
    move_lists = {rule.id: successors(rule.moves(phi)) for rule in ALL_RULES}
    for rule in ALL_RULES:
        moves = move_lists[rule.id]
        for move, carried in rule.moves(phi):
            witness = step_witness(rule, phi, move)
            assert witness is not None, (rule.id, phi, move)
            assert witness == carried, (rule.id, phi, move)
            # The lift needs nothing but the witness to map a solution back.
            for y in itertools.islice(solutions(move), 4):
                assert satisfies(rule.lift(phi, witness, y), phi), (rule.id, phi, move, y)
        others = {m for ms in move_lists.values() for m in ms if m not in moves}
        for non_move in others | {phi, UNRELATED}:
            assert step_witness(rule, phi, non_move) is None, (rule.id, phi, non_move)
        # Two steps of the rule, such as two resolvents added, are a move
        # only when one step reaches the same formula.
        for two_steps in {m2 for m in moves[:3] for m2, _ in rule.moves(m)[:3]}:
            verified = step_witness(rule, phi, two_steps) is not None
            assert verified == (two_steps in moves), (rule.id, phi)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_rule_outputs_are_canonical_formulas(phi):
    for rule in ALL_RULES:
        moves = successors(rule.moves(phi))
        for move in moves:
            rebuilt = Formula(move.clauses)
            assert rebuilt == move
            assert rebuilt.clauses == move.clauses
        # The move-list contract: distinct, in canonical order, no self-move.
        assert all(a.clauses < b.clauses for a, b in zip(moves, moves[1:])), rule.id
        assert phi not in moves, rule.id


@settings(max_examples=60, deadline=None)
@given(formulas(), st.integers(1, 4))
def test_flip_involution_property(phi, v):
    assert flip_variable(flip_variable(phi, v), v) == phi


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_flippable_variables_come_from_all_negative_clauses(phi):
    vs = flippable_variables(phi)
    for v in vs:
        assert any(c and all(l < 0 for l in c) and -v in c for c in phi.clauses)


# ---------------------------------------------------------------------------
# Reference implementations: the key-function move generators that the integer
# clause codes and bitmask resolvents replaced, and the other rewritten rule
# functions, kept to pin their output.
# ---------------------------------------------------------------------------


def _lit_key(lit: int) -> tuple[int, int]:
    return (abs(lit), 0 if lit > 0 else 1)


def _clause_key(c) -> tuple:
    return tuple(_lit_key(l) for l in c)


def ref_new_resolvents(phi: Formula) -> list:
    """All resolvents of clause pairs of ``phi`` that are not already clauses of it."""
    cls = phi.clauses
    existing = set(cls)
    csets = {c: set(c) for c in cls}
    pos: dict[int, list] = {}
    neg: dict[int, list] = {}
    for c in cls:
        for l in c:
            (pos if l > 0 else neg).setdefault(abs(l), []).append(c)
    out = set()
    for v, with_pos in pos.items():
        with_neg = neg.get(v)
        if not with_neg:
            continue
        for c1 in with_pos:
            s1 = csets[c1]
            for c2 in with_neg:
                merged = (s1 | csets[c2]) - {v, -v}
                if any(-l in merged for l in merged):
                    continue
                rc = tuple(sorted(merged, key=_lit_key))
                if rc not in existing:
                    out.add(rc)
    return sorted(out, key=_clause_key)


def ref_resolution_moves(phi: Formula) -> list[Formula]:
    """Each move adds one new resolvent to ``phi``."""
    moves = []
    for rc in ref_new_resolvents(phi):
        cls = list(phi.clauses)
        insort(cls, rc, key=_clause_key)
        moves.append(Formula._make(tuple(cls)))
    moves.sort(key=lambda f: f.clauses)
    return moves


def ref_extension_moves(phi: Formula, pair_cap: int = 16) -> list[Formula]:
    vars_ = phi.variables
    if not vars_:
        return []
    var_set = set(vars_)
    fresh = 1
    while fresh in var_set:
        fresh += 1
    lits = [s * v for v in vars_ for s in (1, -1)]
    moves = []
    taken = 0
    for i in range(len(lits)):
        if taken >= pair_cap:
            break
        for j in range(i + 1, len(lits)):
            a, b = lits[i], lits[j]
            if abs(a) == abs(b):
                continue
            cls = list(phi.clauses)
            for c in (clause((a, -fresh)), clause((b, -fresh)), clause((-a, -b, fresh))):
                if c not in cls:
                    insort(cls, c, key=_clause_key)
            moves.append(Formula._make(tuple(cls)))
            taken += 1
            if taken >= pair_cap:
                break
    moves.sort(key=lambda f: f.clauses)
    return moves


def ref_flip_variable(phi: Formula, v: int) -> Formula:
    """Swap the polarity of variable ``v`` everywhere in ``phi``."""
    return Formula(tuple(-l if abs(l) == v else l for l in c) for c in phi.clauses)


def ref_flip_lift(x: Formula, x2: Formula, y) -> frozenset:
    """Lift through the first flippable variable whose flip gives ``x2``."""
    for v in flippable_variables(x):
        if flip_variable(x, v) == x2:
            return assignment(-l if abs(l) == v else l for l in y)
    raise ValueError("target is not a flip move of the source")


def ref_unit_propagate_fixpoint(phi: Formula) -> tuple[Formula, tuple[int, ...]]:
    """Propagate unit clauses to a fixpoint; returns the result and the forced literals."""
    cur = list(phi.clauses)
    forced: list[int] = []
    while True:
        if any(c == () for c in cur):
            break
        units = {c[0] for c in cur if len(c) == 1}
        if not units:
            break
        # Smallest variable first; when both of its literals are units, the
        # positive one.
        lit = min(units, key=lambda l: (abs(l), l < 0))
        forced.append(lit)
        cur = condition(cur, lit)
    return Formula(cur), tuple(forced)


# Inputs of the simplifier references: dense and sparse formulas, the same
# with the empty clause, and a formula plus all its new resolvents: the wide
# clauses that resolution steps add.
SIMPLIFIER_INPUTS = st.one_of(
    formulas(6, 9),
    formulas(6, 9, sparse=True),
    st.one_of(formulas(6, 9), formulas(6, 9, sparse=True)).map(
        lambda phi: Formula(list(phi.clauses) + [()])
    ),
    st.one_of(formulas(6, 9), formulas(6, 9, sparse=True)).map(
        lambda phi: Formula(list(phi.clauses) + new_resolvents(phi))
    ),
)


# Certify's instance size: 8 variables and up to 24 clauses, so that long
# runs of clauses share a prefix and differ at one variable's literal.
DENSE_INPUTS = st.one_of(formulas(8, 24), formulas(8, 24, sparse=True))


def ref_easy_all_positive(phi: Formula) -> tuple:
    """Kind and value of the all-positive check, by its generator definition."""
    if all(any(l > 0 for l in c) for c in phi.clauses):
        return "solution", frozenset(l for c in phi.clauses for l in c if l > 0)
    return "dont_know", None


def ref_flippable_variables(phi: Formula) -> list[int]:
    return sorted({-l for c in phi.clauses if c and all(l < 0 for l in c) for l in c})


def _exact(moves: list[Formula]) -> list[tuple]:
    # Formula equality is clause-tuple equality; compare the tuples themselves
    # so a failure shows them.
    return [m.clauses for m in moves]


class TestReferenceEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formulas(6, 9), formulas(6, 9, sparse=True)))
    def test_new_resolvents_match_reference(self, phi):
        assert new_resolvents(phi) == ref_new_resolvents(phi)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(formulas(6, 9), formulas(6, 9, sparse=True)))
    def test_resolution_moves_match_reference(self, phi):
        assert _exact(successors(resolution_moves(phi))) == _exact(ref_resolution_moves(phi))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(formulas(5, 7), formulas(5, 7, sparse=True)))
    def test_extension_moves_match_reference(self, phi):
        moves = successors(extension_moves(phi))
        assert _exact(moves) == _exact(ref_extension_moves(phi, PAIR_CAP))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(clause_lists(6, 9), clause_lists(6, 9, sparse=True)))
    def test_clause_and_formula_order_match_reference(self, raw):
        for lits in raw:
            shuffled = list(reversed(lits)) + lits
            assert clause(shuffled) == tuple(sorted(set(lits), key=_lit_key))
        expected = tuple(sorted({clause(c) for c in raw}, key=_clause_key))
        assert Formula(raw).clauses == expected
        assert Formula(reversed(raw)).clauses == expected

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(SIMPLIFIER_INPUTS, DENSE_INPUTS), st.data())
    def test_flip_variable_matches_reference(self, phi, data):
        v = data.draw(st.sampled_from(phi.variables + (1, 10**6 + 50)))
        assert flip_variable(phi, v).clauses == ref_flip_variable(phi, v).clauses

    @pytest.mark.parametrize(
        "clauses, v, expected",
        [
            # v in the middle of the run's clauses: the -2 half moves first.
            (
                [[1, 2, 3], [1, 2, -3], [1, -2, 3], [2, 3]],
                2,
                [(1, 2, 3), (1, -2, 3), (1, -2, -3), (-2, 3)],
            ),
            # v first: every clause on v is in the run of the empty prefix.
            (
                [[1, 2], [1, -3], [-1, 2], [-1, 3], [2, 3]],
                1,
                [(1, 2), (1, 3), (-1, 2), (-1, -3), (2, 3)],
            ),
            # v last, in two runs, one of them with a single half.
            (
                [[1, 2, 3], [1, 2, -3], [1, -2, -3], [2, 3], [2, -3]],
                3,
                [(1, 2, 3), (1, 2, -3), (1, -2, 3), (2, 3), (2, -3)],
            ),
            # v absent, and the empty clause.
            ([[], [1, 2], [-1]], 3, [(), (1, 2), (-1,)]),
        ],
    )
    def test_flip_swaps_the_halves_of_each_run(self, clauses, v, expected):
        phi = Formula(clauses)
        assert flip_variable(phi, v).clauses == tuple(expected)
        assert ref_flip_variable(phi, v).clauses == tuple(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(SIMPLIFIER_INPUTS, DENSE_INPUTS))
    def test_all_positive_and_flippable_match_reference(self, phi):
        for f in (phi, TOP, BOTTOM, Formula(list(phi.clauses) + [()])):
            out = easy_all_positive(f)
            assert (out.kind, out.value) == ref_easy_all_positive(f)
            assert flippable_variables(f) == ref_flippable_variables(f)

    @settings(max_examples=300, deadline=None)
    @given(SIMPLIFIER_INPUTS)
    def test_unit_propagate_fixpoint_matches_reference(self, phi):
        out, forced = unit_propagate_fixpoint(phi)
        ref, ref_forced = ref_unit_propagate_fixpoint(phi)
        assert out.clauses == ref.clauses
        assert forced == ref_forced

    def test_flip_lift_matches_reference(self):
        rng = random.Random(61)
        lifts = 0
        for _ in range(400):
            phi = random_formula(rng, 8, 20)
            y = assignment(v if rng.random() < 0.5 else -v for v in phi.variables)
            moves = successors(flip_moves(phi))
            for move in moves:
                assert lift_move(FLIP, phi, move, y) == ref_flip_lift(phi, move, y)
                lifts += 1
            # Non-moves: the formula itself, and a resolution move.
            for other in [phi] + successors(resolution_moves(phi))[:1]:
                if other not in moves:
                    assert step_witness(FLIP, phi, other) is None
        assert lifts > 500

    def test_sparse_ids(self):
        phi = Formula([[1, 10**6], [-(10**6), 70], [-1, -70]])
        assert new_resolvents(phi) == [(1, 70), (-1, -(10**6)), (-70, 10**6)]


# ---------------------------------------------------------------------------
# Pending successors: resolution and extension moves build their clause tuple
# on first read.
# ---------------------------------------------------------------------------


def is_built(f: Formula) -> bool:
    """Whether ``f``'s clause tuple exists yet; a pending successor leaves it unset."""
    try:
        Formula.clauses.__get__(f)
    except AttributeError:
        return False
    return True


PENDING_RULES = (RESOLUTION, EXTENSION)
# Sparse ids put extension's fresh variable below or between existing ones.
PENDING_INPUTS = st.one_of(
    formulas(6, 9),
    formulas(6, 9, sparse=True),
    st.one_of(formulas(6, 9), formulas(6, 9, sparse=True)).map(
        lambda phi: Formula(list(phi.clauses) + [()])
    ),
)
# The first read of each of these builds a pending successor.
READS = {
    "clauses": lambda f: f.clauses,
    "==": lambda f: Formula(f.clauses) == f,
    "hash": hash,
    "digest": lambda f: f.digest,
    "variables": lambda f: f.variables,
    "len": len,
    "repr": repr,
}


class TestPendingSuccessors:
    @settings(max_examples=150, deadline=None)
    @given(PENDING_INPUTS)
    def test_a_pending_successor_reads_as_its_built_formula(self, phi):
        for rule in PENDING_RULES:
            built = [Formula(m.clauses) for m, _ in rule.moves(phi)]
            for k, move in enumerate(successors(rule.moves(phi))):
                assert not is_built(move)
                # The easy check answers from the parts and builds nothing.
                assert move.is_empty == built[k].is_empty
                assert move.has_empty_clause == built[k].has_empty_clause
                assert easy_trivial(move) == easy_trivial(built[k])
                assert not is_built(move)
            for name, read in READS.items():
                moves = successors(rule.moves(phi))
                assert [read(m) for m in moves] == [read(b) for b in built], (rule.id, name)
                assert all(is_built(m) for m in moves)
            for move, b in zip(successors(rule.moves(phi)), built):
                assert move == b and b == move and hash(move) == hash(b)
                assert (move.is_empty, move.has_empty_clause) == (b.is_empty, b.has_empty_clause)

    def test_empty_resolvent_is_seen_unbuilt(self):
        ((move, _),) = resolution_moves(Formula([[1], [-1]]))
        assert move.has_empty_clause and not move.is_empty
        assert easy_trivial(move).kind == "no_solution"
        assert not is_built(move)

    @settings(max_examples=150, deadline=None)
    @given(PENDING_INPUTS)
    def test_moves_come_in_the_order_of_their_built_clause_tuples(self, phi):
        for rule in PENDING_RULES:
            built = [Formula(m.clauses) for m, _ in rule.moves(phi)]
            assert _exact(built) == _exact(sorted(built, key=lambda f: f.clauses)), rule.id

    def test_order_on_random_formulas(self):
        # random_formula draws, and the same with every id shifted up, so the
        # fresh variable of an extension sits below every existing one.
        rng = random.Random(23)
        for _ in range(300):
            phi = random_formula(rng, 6, 12)
            shifted = Formula([[l + 5 if l > 0 else l - 5 for l in c] for c in phi.clauses])
            for f in (phi, shifted):
                for rule in PENDING_RULES:
                    moves = [m.clauses for m, _ in rule.moves(f)]
                    assert moves == sorted(moves), (rule.id, f)


@settings(max_examples=150, deadline=None)
@given(PENDING_INPUTS)
def test_extension_identify_agrees_with_membership(phi):
    moves = successors(extension_moves(phi))
    for move in moves:
        assert step_witness(EXTENSION, phi, move) is True
    lits = [s * v for v in phi.variables for s in (1, -1)]
    pairs = [(a, b) for a, b in itertools.combinations(lits, 2) if abs(a) != abs(b)]
    if not pairs:
        assert moves == []
        return
    fresh = next(v for v in itertools.count(1) if v not in phi.variables)

    def extended(a, b, f, last=None):
        return Formula(list(phi.clauses) + [[a, -f], [b, -f], last or [-a, -b, f]])

    wrong_fresh = next(v for v in itertools.count(fresh + 1) if v not in phi.variables)
    a, b = pairs[0]
    near_misses = [extended(a, b, wrong_fresh), extended(a, b, fresh, [a, -b, fresh])]
    # Pairs past the cap make the same kind of formula, but are not moves.
    near_misses += [extended(a, b, fresh) for a, b in pairs[PAIR_CAP:PAIR_CAP + 4]]
    near_misses += [Formula(list(m.clauses)[1:]) for m in moves[:2]]
    near_misses += successors(resolution_moves(phi))[:3] + [phi]
    for other in near_misses:
        assert (step_witness(EXTENSION, phi, other) is not None) == (other in moves), other
