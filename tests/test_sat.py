import itertools
import random
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from reducto.sat import (
    BLOCKED_CLAUSE,
    BOTTOM,
    BOUNDED_RESOLUTION,
    EXTENSION,
    FLIP,
    Formula,
    OracleLimitError,
    PURE_LITERAL,
    RESOLUTION,
    SUBSUMPTION,
    TOP,
    UNIT_PROPAGATION,
    add_clauses,
    assignment,
    blocked_clause_fixpoint,
    clause,
    easy_all_positive,
    easy_combined,
    easy_trivial,
    extension_moves,
    flip_moves,
    flip_variable,
    flippable_variables,
    new_resolvents,
    oracle_solve,
    pure_literal_fixpoint,
    resolution_moves,
    satisfies,
)
from reducto.driver import random_formula


def brute_force(phi):
    """Independent oracle: try all sign patterns over the occurring variables."""
    vs = phi.variables
    for signs in itertools.product((1, -1), repeat=len(vs)):
        alpha = frozenset(s * v for s, v in zip(signs, vs))
        if satisfies(alpha, phi):
            return alpha
    return None


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


class TestSubsumption:
    def test_removes_proper_superset(self):
        assert SUBSUMPTION.moves(Formula([[2], [1, 2]])) == [Formula([[2]])]

    def test_empty_clause_subsumes_everything(self):
        assert SUBSUMPTION.moves(Formula([[], [1]])) == [BOTTOM]

    def test_no_subset_relation_is_a_noop(self):
        assert SUBSUMPTION.moves(Formula([[1], [2]])) == []

    def test_equal_clauses_are_not_proper_subsets(self):
        assert SUBSUMPTION.moves(Formula([[1, 2], [2, 1]])) == []


class TestPureLiteral:
    def test_no_pure_literal(self):
        assert PURE_LITERAL.moves(Formula([[1], [-1]])) == []

    def test_one_round_elimination(self):
        phi = Formula([[1, 2], [-1, 3]])
        fix, pures = pure_literal_fixpoint(phi)
        assert fix == TOP
        assert {2, 3}.issubset(set(pures))
        assert PURE_LITERAL.moves(phi) == [TOP]

    def test_cascading_elimination_order_and_lift(self):
        phi = Formula([[1, 2], [-2]])
        fix, pures = pure_literal_fixpoint(phi)
        assert fix == TOP
        assert pures == (1, -2)
        lifted = PURE_LITERAL.lift(phi, TOP, frozenset())
        assert lifted == frozenset([1, -2])
        assert satisfies(lifted, phi)

    def test_fixpoint_has_no_pure_literal(self):
        rng = random.Random(7)
        for _ in range(50):
            phi = random_formula(rng, 4, 6)
            fix, _ = pure_literal_fixpoint(phi)
            occurring = {l for c in fix.clauses for l in c}
            assert all(-l in occurring for l in occurring)


class TestBlockedClause:
    def test_equivalence_core_moves_to_the_empty_formula(self):
        # Resolution yields only tautologies here and no literal is pure.
        phi = Formula([[1, 4], [-1, -4]])
        assert resolution_moves(phi) == [] and PURE_LITERAL.moves(phi) == []
        assert BLOCKED_CLAUSE.moves(phi) == [TOP]

    def test_lift_of_the_empty_assignment_is_total_and_satisfies(self):
        phi = Formula([[1, 4], [-1, -4]])
        lifted = BLOCKED_CLAUSE.lift(phi, TOP, frozenset())
        assert {abs(l) for l in lifted} == set(phi.variables)
        assert satisfies(lifted, phi)

    def test_unit_conflict_has_no_move(self):
        assert BLOCKED_CLAUSE.moves(Formula([[1], [-1]])) == []

    def test_lift_rejects_a_target_that_is_not_the_fixpoint(self):
        phi = Formula([[1, 4], [-1, -4]])
        with pytest.raises(ValueError):
            BLOCKED_CLAUSE.lift(phi, Formula([[1, 4]]), frozenset([1]))

    def test_fixpoint_has_no_blocked_clause_and_no_pure_literal(self):
        rng = random.Random(23)
        for _ in range(50):
            phi = random_formula(rng, 4, 6)
            fix, eliminated = blocked_clause_fixpoint(phi)
            assert len(fix) + len(eliminated) == len(phi)
            assert BLOCKED_CLAUSE.moves(fix) == []
            assert PURE_LITERAL.moves(fix) == []
            for c, l in eliminated:
                assert l in c


@settings(max_examples=200, deadline=None)
@given(formulas(5, 8))
def test_blocked_clause_fixpoint_keeps_no_clause_the_pure_literal_fixpoint_drops(phi):
    # Every clause with a pure literal is blocked by it, so blocked-clause
    # elimination subsumes pure-literal elimination.
    assert set(blocked_clause_fixpoint(phi)[0]) <= set(pure_literal_fixpoint(phi)[0])


class TestExtension:
    def test_no_variables_no_moves(self):
        assert extension_moves(TOP) == []
        assert extension_moves(BOTTOM) == []

    def test_clause_template_with_fresh_variable(self):
        phi = Formula([[1, 2]])
        moves = extension_moves(phi, pair_cap=16)
        expected = Formula([[1, 2], [1, -3], [2, -3], [-1, -2, 3]])
        assert expected in moves

    def test_pair_cap_truncates(self):
        phi = Formula([[1, 2], [3]])
        # 6 literals over 3 variables: 12 cross-variable unordered pairs.
        assert len(extension_moves(phi, pair_cap=5)) == 5
        assert len(extension_moves(phi, pair_cap=100)) == 12

    def test_moves_preserve_satisfiability(self):
        rng = random.Random(11)
        for _ in range(10):
            phi = random_formula(rng, 3, 4)
            for move in extension_moves(phi, pair_cap=4):
                assert (brute_force(phi) is not None) == (brute_force(move) is not None)


class TestFlip:
    def test_single_flip_and_lift(self):
        phi = Formula([[-1]])
        assert flip_moves(phi) == [Formula([[1]])]
        lifted = FLIP.lift(phi, Formula([[1]]), frozenset([1]))
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
        assert easy_trivial(Formula([[1]])).kind == "not_easy"

    def test_all_positive_solution(self):
        out = easy_all_positive(Formula([[1, -2], [2]]))
        assert out.kind == "solution"
        assert out.value == frozenset([1, 2])
        assert satisfies(out.value, Formula([[1, -2], [2]]))

    def test_all_positive_not_easy(self):
        assert easy_all_positive(Formula([[-1]])).kind == "not_easy"

    def test_all_positive_vacuous_top(self):
        out = easy_all_positive(TOP)
        assert out.kind == "solution" and out.value == frozenset()

    def test_all_positive_never_certifies_unsat(self):
        assert easy_all_positive(BOTTOM).kind == "not_easy"

    def test_combined_prefers_trivial_verdicts(self):
        assert easy_combined(BOTTOM).kind == "no_solution"
        assert easy_combined(Formula([[1, -2], [2]])).kind == "solution"
        assert easy_combined(Formula([[-1]])).kind == "not_easy"


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
        assert oracle_solve(big, var_limit=25).satisfiable


ALL_RULES = (
    RESOLUTION, SUBSUMPTION, PURE_LITERAL, BLOCKED_CLAUSE, EXTENSION, FLIP,
    UNIT_PROPAGATION, BOUNDED_RESOLUTION,
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
                    lifted = rule.lift(phi, move, witness)
                    assert satisfies(lifted, phi), (rule.id, phi, move)

    def test_subsumption_output_has_no_proper_superset_pair(self):
        rng = random.Random(19)
        for _ in range(50):
            phi = random_formula(rng, 4, 6)
            for move in SUBSUMPTION.moves(phi):
                sets = [frozenset(c) for c in move.clauses]
                assert not any(
                    i != j and sets[i] < sets[j]
                    for i in range(len(sets))
                    for j in range(len(sets))
                )


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
# clause codes and bitmask resolvents replaced, kept to pin their output.
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
    @given(st.one_of(formulas(5, 7), formulas(5, 7, sparse=True)), st.integers(0, 40))
    def test_extension_moves_match_reference(self, phi, cap):
        assert _exact(extension_moves(phi, cap)) == _exact(ref_extension_moves(phi, cap))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(clause_lists(6, 9), clause_lists(6, 9, sparse=True)))
    def test_clause_and_formula_order_match_reference(self, raw):
        for lits in raw:
            shuffled = list(reversed(lits)) + lits
            assert clause(shuffled) == tuple(sorted(set(lits), key=_lit_key))
        expected = tuple(sorted({clause(c) for c in raw}, key=_clause_key))
        assert Formula(raw).clauses == expected
        assert Formula(reversed(raw)).clauses == expected

    @settings(max_examples=200, deadline=None)
    @given(formulas(6, 6, sparse=True), clause_lists(6, 6, sparse=True))
    def test_add_clauses_matches_the_constructor(self, phi, raw):
        new = [clause(c) for c in raw]
        assert add_clauses(phi, new).clauses == Formula(list(phi.clauses) + new).clauses

    def test_sparse_ids(self):
        phi = Formula([[1, 10**6], [-(10**6), 70], [-1, -70]])
        assert new_resolvents(phi) == [(1, 70), (-1, -(10**6)), (-70, 10**6)]
