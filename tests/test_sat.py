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
    new_resolvents,
    oracle_solve,
    resolution_moves,
    satisfies,
    unit_propagate_fixpoint,
)
from reducto.core import enumerate_moves
from reducto.driver import make_setup, random_formula


def lift_move(rule, phi, move, y):
    """Lift ``y`` through the witness ``rule.identify`` returns for the move."""
    witness = rule.identify(phi, move)
    assert witness is not None, (rule.id, phi, move)
    return rule.lift(phi, witness, y)


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
        assert resolution_moves(phi) == [Formula([[], [1], [-1]])]

    def test_single_useful_resolvent(self):
        phi = Formula([[1, 2], [-1, 2]])
        assert resolution_moves(phi) == [Formula([[1, 2], [-1, 2], [2]])]

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
        assert ELIMINATION.moves(phi) == [TOP]
        assert enumerate_moves(make_setup("resolution"), phi) == [("elimination", TOP)]

    def test_lift_of_the_empty_assignment_is_total_and_satisfies(self):
        phi = self.PHI
        lifted = lift_move(ELIMINATION, phi, TOP, frozenset())
        assert {abs(l) for l in lifted} == set(phi.variables)
        assert satisfies(lifted, phi)

    def test_lift_rejects_a_target_that_is_not_the_fixpoint(self):
        # A lift takes the identified witness, so identify rejects a target
        # that is no move: dropping one clause is not an elimination.
        assert ELIMINATION.identify(self.PHI, Formula([[1, 4]])) is None


class TestElimination:
    def test_one_clause_eliminates_to_top_for_both_variables(self):
        # Both variables give the same formula, which is one move.
        assert elimination_moves(Formula([[1, 2]])) == [TOP]

    def test_unit_conflict_eliminates_to_bottom(self):
        assert elimination_moves(Formula([[1], [-1]])) == [BOTTOM]

    def test_move_drops_the_clauses_and_adds_the_non_tautological_resolvents(self):
        phi = Formula([[1, 2], [-1, 3], [-1, -2], [2, 4]])
        # On 1: (2 3) from the first two clauses; (1 2), (-1 -2) is tautological.
        assert Formula([[2, 3], [2, 4]]) in elimination_moves(phi)

    def test_eliminating_every_variable_reaches_the_oracle_verdict(self):
        rng = random.Random(23)
        for _ in range(200):
            phi = random_formula(rng, 6, 14)
            cur, steps = phi, 0
            while moves := elimination_moves(cur):
                cur = rng.choice(moves)
                steps += 1
            assert cur in (TOP, BOTTOM), (phi, cur)
            assert (cur == TOP) == oracle_solve(phi).satisfiable, phi
            assert steps <= len(phi.variables)

    def test_each_moves_lift_satisfies_the_source(self):
        rng = random.Random(29)
        lifted_moves = 0
        for _ in range(200):
            phi = random_formula(rng, 6, 14)
            for move in elimination_moves(phi):
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
        assert Formula([[2, 3]]) not in elimination_moves(phi)
        # A lift takes the identified variable, so identify rejects the target.
        for target in (Formula([[2, 3]]), phi, TOP, BOTTOM, Formula([[2, 3], [-2, -3], [4]])):
            assert ELIMINATION.identify(phi, target) is None, target

    def test_without_a_qualifying_variable_the_one_move_is_the_fallback(self):
        # Eliminating any variable of NO_BOUNDED grows it.  Variables 2, 4 and
        # 5 tie at the smallest |pos|·|neg| − |pos| − |neg|, 3, and the lowest
        # of them is the fallback.
        assert all(len(ref_eliminate(NO_BOUNDED, v)) > 13 for v in NO_BOUNDED.variables)
        assert ref_fallback(NO_BOUNDED) == 2
        grown = ref_eliminate(NO_BOUNDED, 2)
        assert elimination_moves(NO_BOUNDED) == [grown]
        assert ELIMINATION.identify(NO_BOUNDED, grown) == 2
        # Growing eliminations of the other variables are no moves.
        for v in (1, 3, 4, 5):
            assert ELIMINATION.identify(NO_BOUNDED, ref_eliminate(NO_BOUNDED, v)) is None, v

    def test_a_growing_elimination_is_no_move_while_another_variable_qualifies(self):
        grown = ref_eliminate(GROWING, 1)
        assert len(grown) == 6 > len(GROWING)
        assert grown not in elimination_moves(GROWING)
        assert ELIMINATION.identify(GROWING, grown) is None
        # Variable 2 occurs only positively, so eliminating it qualifies.
        assert ELIMINATION.identify(GROWING, ref_eliminate(GROWING, 2)) == 2

    def test_a_formula_without_variables_has_no_move(self):
        for phi in (TOP, BOTTOM):
            assert elimination_moves(phi) == []
            assert ELIMINATION.identify(phi, Formula([[1]])) is None


# No elimination of a variable of NO_BOUNDED leaves at most 13 clauses.
NO_BOUNDED = Formula(
    [[1, -2, 4], [1, -2, -4], [1, -2, -5], [1, 3, 5], [1, -3, -4], [1, 5], [-1, -2, 3],
     [-1, -4], [2, -3], [2, -5], [-2, -3], [3, 4, -5], [-3, 4, 5]]
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
    """The variable with the smallest |pos|·|neg| − |pos| − |neg|, the lowest on a tie."""

    def growth(v):
        p = sum(v in c for c in phi.clauses)
        n = sum(-v in c for c in phi.clauses)
        return p * n - p - n, v

    return min(phi.variables, key=growth)


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
    moves = elimination_moves(phi)
    for move in moves:
        assert set(move.variables) < set(phi.variables), (phi, move)
    bounded = {f for v in phi.variables if len(f := ref_eliminate(phi, v)) <= len(phi)}
    if bounded or not phi.variables:
        assert set(moves) == bounded
    else:
        # Only when no variable qualifies is there one, larger, move: the
        # fallback's elimination.
        fallback = ref_fallback(phi)
        assert moves == [ref_eliminate(phi, fallback)]
        assert ELIMINATION.identify(phi, moves[0]) == fallback


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_elimination_moves_are_canonical_and_distinct(phi):
    moves = elimination_moves(phi)
    for move in moves:
        assert Formula(move.clauses).clauses == move.clauses
    assert all(a.clauses < b.clauses for a, b in zip(moves, moves[1:]))
    assert phi not in moves
    assert len(moves) <= len(phi.variables)


class TestExtension:
    def test_no_variables_no_moves(self):
        assert extension_moves(TOP) == []
        assert extension_moves(BOTTOM) == []

    def test_clause_template_with_fresh_variable(self):
        phi = Formula([[1, 2]])
        moves = extension_moves(phi)
        expected = Formula([[1, 2], [1, -3], [2, -3], [-1, -2, 3]])
        assert expected in moves

    def test_pair_cap_truncates(self):
        # 6 literals over 3 variables: 12 cross-variable unordered pairs.
        assert len(extension_moves(Formula([[1, 2], [3]]))) == 12
        # 8 literals over 4 variables: 24 pairs, cut to the first PAIR_CAP.
        assert len(extension_moves(Formula([[1, 2], [3, 4]]))) == PAIR_CAP

    def test_moves_preserve_satisfiability(self):
        rng = random.Random(11)
        for _ in range(10):
            phi = random_formula(rng, 3, 4)
            for move in extension_moves(phi):
                assert (brute_force(phi) is not None) == (brute_force(move) is not None)


class TestFlip:
    def test_single_flip_and_lift(self):
        phi = Formula([[-1]])
        assert flip_moves(phi) == [Formula([[1]])]
        assert FLIP.identify(phi, Formula([[1]])) == 1
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
        # Flipping 1 and flipping 2 both give {{1,-2},{-1,2}}.
        phi = Formula([[-1, -2], [1, 2]])
        moves = FLIP.moves(phi)
        assert moves == [Formula([[1, -2], [-1, 2]])]
        lifted = lift_move(FLIP, phi, moves[0], brute_force(moves[0]))
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
                for move in rule.moves(phi):
                    assert (brute_force(move) is not None) == sat, (rule.id, phi, move)

    def test_lifted_solutions_satisfy_the_source(self):
        rng = random.Random(17)
        for _ in range(60):
            phi = random_formula(rng, 4, 6)
            for rule in ALL_RULES:
                for move in rule.moves(phi):
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
    move_lists = {rule.id: rule.moves(phi) for rule in ALL_RULES}
    for rule in ALL_RULES:
        moves = move_lists[rule.id]
        for move in moves:
            witness = rule.identify(phi, move)
            assert witness is not None, (rule.id, phi, move)
            # The lift needs nothing but the witness to map a solution back.
            for y in itertools.islice(solutions(move), 4):
                assert satisfies(rule.lift(phi, witness, y), phi), (rule.id, phi, move, y)
        others = {m for ms in move_lists.values() for m in ms if m not in moves}
        for non_move in others | {phi, UNRELATED}:
            assert rule.identify(phi, non_move) is None, (rule.id, phi, non_move)
        # Two steps of the rule, such as two resolvents added, are a move
        # only when one step reaches the same formula.
        for two_steps in {m2 for m in moves[:3] for m2 in rule.moves(m)[:3]}:
            identified = rule.identify(phi, two_steps) is not None
            assert identified == (two_steps in moves), (rule.id, phi)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_rule_outputs_are_canonical_formulas(phi):
    for rule in ALL_RULES:
        moves = rule.moves(phi)
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
        assert _exact(resolution_moves(phi)) == _exact(ref_resolution_moves(phi))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(formulas(5, 7), formulas(5, 7, sparse=True)))
    def test_extension_moves_match_reference(self, phi):
        assert _exact(extension_moves(phi)) == _exact(ref_extension_moves(phi, PAIR_CAP))

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
    @given(SIMPLIFIER_INPUTS, st.data())
    def test_flip_variable_matches_reference(self, phi, data):
        v = data.draw(st.sampled_from(phi.variables + (1, 10**6 + 50)))
        assert flip_variable(phi, v).clauses == ref_flip_variable(phi, v).clauses

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
            moves = flip_moves(phi)
            for move in moves:
                assert lift_move(FLIP, phi, move, y) == ref_flip_lift(phi, move, y)
                lifts += 1
            # Non-moves: the formula itself, and a resolution move.
            for other in [phi] + resolution_moves(phi)[:1]:
                if other not in moves:
                    assert FLIP.identify(phi, other) is None
        assert lifts > 500

    def test_sparse_ids(self):
        phi = Formula([[1, 10**6], [-(10**6), 70], [-1, -70]])
        assert new_resolvents(phi) == [(1, 70), (-1, -(10**6)), (-70, 10**6)]
