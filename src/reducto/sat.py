"""CNF SAT domain: formulas, move rules, easy-instance solvers, and an oracle.

Literals are non-zero integers (DIMACS convention): ``v`` is the positive
literal of variable ``v >= 1`` and ``-v`` its complement.  A clause is a
complement-free tuple of literals, a formula a set of clauses, and an
assignment a complement-free frozenset of literals.  Everything is kept in a
canonical sorted form so formulas compare, hash, and serialize stably.

Canonical order sorts literals by variable, the positive literal first, and
clauses lexicographically by their literals.  Internally a literal ``v`` is
coded as ``2v`` and ``-v`` as ``2v+1``; plain tuple order of the coded clauses
is then the canonical clause order, so ordering and insertion compare ints
(``_clause_code``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from hashlib import blake2b
from typing import Iterable, Iterator

from .core import EasyOutcome, NO_SOLUTION, NOT_EASY, SelfReduction, identity_lift, one_move

Literal = int
Clause = tuple  # tuple[int, ...] in canonical order
Assignment = frozenset  # frozenset[int] without complementary pairs

ORACLE_VAR_LIMIT = 24
DEFAULT_PAIR_CAP = 16
BOUNDED_RESOLVENT_CAP = 64


class OracleLimitError(RuntimeError):
    """The brute-force oracle refused an instance above its variable limit."""


def _clause_code(c: Clause) -> tuple[int, ...]:
    """Sort key of a canonical clause: each literal ``v`` as ``2v``, ``-v`` as ``2v+1``."""
    return tuple([l << 1 if l > 0 else 1 - (l << 1) for l in c])


def clause(literals: Iterable[int]) -> Clause:
    """Canonical clause: unique literals sorted by variable, no complements."""
    # In a complement-free clause each variable occurs once, so ordering by
    # abs is the canonical order; a complementary pair is rejected below.
    lits = sorted(set(literals), key=abs)
    s = set()
    for l in lits:
        if not isinstance(l, int) or l == 0:
            raise ValueError(f"literal must be a non-zero integer, got {l!r}")
        if -l in s:
            raise ValueError(f"clause contains complementary pair on variable {abs(l)}")
        s.add(l)
    return tuple(lits)


def assignment(literals: Iterable[int] = ()) -> Assignment:
    """Canonical assignment: a complement-free frozenset of literals."""
    lits = frozenset(literals)
    for l in lits:
        if not isinstance(l, int) or l == 0:
            raise ValueError(f"literal must be a non-zero integer, got {l!r}")
        if -l in lits:
            raise ValueError(f"assignment contains complementary pair on variable {abs(l)}")
    return lits


class Formula:
    """An immutable CNF formula held in canonical form.

    ``clauses`` is a tuple of clause tuples, each clause sorted by variable
    index (positive polarity first) and the clauses sorted lexicographically
    by that key.  Equality, hashing, and ordering all follow this form.
    """

    __slots__ = ("clauses", "_hash", "_vars", "_digest")

    def __init__(self, clauses: Iterable[Iterable[int]] = ()):
        canon = tuple(sorted({clause(c) for c in clauses}, key=_clause_code))
        object.__setattr__(self, "clauses", canon)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_vars", None)
        object.__setattr__(self, "_digest", None)

    @classmethod
    def _make(cls, canonical_clauses: tuple[Clause, ...]) -> "Formula":
        # Trusted fast path for rule engines: caller guarantees canonical form.
        self = object.__new__(cls)
        object.__setattr__(self, "clauses", canonical_clauses)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_vars", None)
        object.__setattr__(self, "_digest", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Formula is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Formula) and self.clauses == other.clauses

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.clauses)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Formula({list(map(list, self.clauses))!r})"

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    @property
    def variables(self) -> tuple[int, ...]:
        v = self._vars
        if v is None:
            v = tuple(sorted({abs(l) for c in self.clauses for l in c}))
            object.__setattr__(self, "_vars", v)
        return v

    @property
    def is_empty(self) -> bool:
        return not self.clauses

    @property
    def has_empty_clause(self) -> bool:
        return bool(self.clauses) and self.clauses[0] == ()

    @property
    def digest(self) -> str:
        d = self._digest
        if d is None:
            d = blake2b(repr(self.clauses).encode(), digest_size=16).hexdigest()
            object.__setattr__(self, "_digest", d)
        return d


TOP = Formula()
BOTTOM = Formula(((),))


def satisfies(alpha: Iterable[int], phi: Formula) -> bool:
    """True iff every clause of ``phi`` intersects ``alpha``."""
    a = alpha if isinstance(alpha, frozenset) else frozenset(alpha)
    return all(any(l in a for l in c) for c in phi.clauses)


# ---------------------------------------------------------------------------
# Move rules
# ---------------------------------------------------------------------------


def new_resolvents(phi: Formula) -> list[Clause]:
    """All resolvents of clause pairs of ``phi`` that are not already clauses of it.

    The result is in canonical order.
    """
    # Each clause is a bitmask over the dense ranks of phi's variables: bit 2r
    # for the positive literal of the r-th variable, bit 2r+1 for the negative
    # one.  Masks stay short whatever the variable ids, a resolvent is one OR,
    # and it is tautological iff some variable has both of its bits set.
    lits: list[int] = []
    bits: dict[int, int] = {}
    for v in phi.variables:
        bits[v] = 1 << len(lits)
        bits[-v] = 2 << len(lits)
        lits += (v, -v)
    even = ((1 << len(lits)) - 1) // 3  # bit 2r for every rank r
    masks = []
    occ: dict[int, list[int]] = {}
    for c in phi.clauses:
        m = 0
        for l in c:
            m |= bits[l]
        masks.append(m)
        for l in c:
            occ.setdefault(l, []).append(m)
    out: set[int] = set()
    for v in phi.variables:
        with_neg = occ.get(-v)
        if not with_neg or v not in occ:
            continue
        rest = ~(bits[v] | bits[-v])
        negs = [m & rest for m in with_neg]
        for m1 in occ[v]:
            m1 &= rest
            out.update([m for m2 in negs if not (m := m1 | m2) & (m >> 1) & even])
    out.difference_update(masks)
    # Ascending bit positions are the canonical literal order, so sorting the
    # position tuples sorts the resolvents canonically.
    ranked = []
    for m in out:
        pos = []
        while m:
            low = m & -m
            pos.append(low.bit_length() - 1)
            m ^= low
        ranked.append(pos)
    ranked.sort()
    return [tuple([lits[i] for i in pos]) for pos in ranked]


def _insert_clause(
    cls: tuple[Clause, ...], codes: list[tuple[int, ...]], c: Clause, code: tuple[int, ...]
) -> tuple[Clause, ...]:
    """``cls`` with the clause ``c``, which it lacks, at its canonical place.

    ``codes`` holds the ``_clause_code`` of each clause of ``cls`` and ``code``
    that of ``c``.
    """
    i = bisect_left(codes, code)
    return cls[:i] + (c,) + cls[i:]


def _insert_clauses(
    cls: tuple[Clause, ...], codes: list[tuple[int, ...]], new: Iterable[Clause]
) -> tuple[Clause, ...]:
    """``cls`` with the distinct canonical clauses ``new``, none of which it holds."""
    # Last first: each insertion point, found in the codes of cls, then still
    # indexes the partly extended tuple correctly.
    for code, c in sorted([(_clause_code(c), c) for c in new], reverse=True):
        cls = _insert_clause(cls, codes, c, code)
    return cls


def add_clauses(phi: Formula, new: Iterable[Clause]) -> Formula:
    """``phi`` plus those canonical clauses of ``new`` that it lacks."""
    codes = [_clause_code(c) for c in phi.clauses]
    return Formula._make(_insert_clauses(phi.clauses, codes, set(new).difference(phi.clauses)))


def resolution_moves(phi: Formula) -> list[Formula]:
    """Each move adds one new resolvent to ``phi``."""
    cls = phi.clauses
    codes = [_clause_code(c) for c in cls]
    moves = [
        Formula._make(_insert_clause(cls, codes, rc, _clause_code(rc)))
        for rc in new_resolvents(phi)
    ]
    moves.sort(key=lambda f: f.clauses)
    return moves


def subsume(phi: Formula) -> Formula:
    """``phi`` without every clause that properly contains another of its clauses."""
    cls = phi.clauses
    sets = [frozenset(c) for c in cls]
    keep = tuple(
        c for i, c in enumerate(cls)
        if not any(j != i and sets[j] < sets[i] for j in range(len(cls)))
    )
    return phi if keep == cls else Formula._make(keep)


def pure_literal_fixpoint(phi: Formula) -> tuple[Formula, tuple[int, ...]]:
    """Iterate pure-literal clause deletion to a fixpoint.

    Returns the fixpoint formula and the pure literals eliminated, in
    elimination order; the lift extends a fixpoint solution with exactly
    these literals.
    """
    cur = list(phi.clauses)
    eliminated: list[int] = []
    while True:
        occurring = set(itertools.chain.from_iterable(cur))
        pures = sorted((l for l in occurring if -l not in occurring), key=abs)
        if not pures:
            break
        eliminated.extend(pures)
        pure_set = set(pures)
        cur = [c for c in cur if not pure_set.intersection(c)]
    return Formula._make(tuple(cur)), tuple(eliminated)


def _add_literals(x: Formula, literals: tuple[int, ...], y: Assignment) -> Assignment:
    """Lift of a fixpoint that sets ``literals`` true: add them to ``y``."""
    # Eliminated pure literals and propagated units have no variable left in
    # the fixpoint, so a fixpoint solution over its own variables never
    # clashes with them; assignment() still asserts it.
    return assignment(set(y) | set(literals))


def _blocking_literal(c: Clause, occ: dict[int, set[Clause]]) -> int | None:
    """First literal ``l`` of ``c`` on which every resolvent with ``occ[-l]`` is tautological."""
    # One set of the clause's negations serves every candidate: while ``l`` is
    # tried it lacks ``-l``, so it holds the negations of the other literals.
    negations = {-m for m in c}
    for l in c:
        negations.discard(-l)
        for d in occ.get(-l, ()):
            if negations.isdisjoint(d):
                break
        else:
            return l
        negations.add(-l)
    return None


def blocked_clause_fixpoint(phi: Formula) -> tuple[Formula, tuple[tuple[Clause, int], ...]]:
    """Iterate blocked-clause deletion to a fixpoint.

    A clause is blocked by one of its literals ``l`` when every resolvent on
    ``l`` with the other clauses is tautological (Järvisalo, Biere and Heule,
    TACAS 2010); deleting it preserves satisfiability in both directions.
    Blocked-clause elimination is confluent, so the fixpoint is unique.
    Returns it together with the deleted (clause, blocking literal) pairs, in
    deletion order; the lift replays them backwards.
    """
    occ: dict[int, set[Clause]] = {}
    for c in phi.clauses:
        for l in c:
            occ.setdefault(l, set()).add(c)
    alive = set(phi.clauses)
    eliminated: list[tuple[Clause, int]] = []
    # Only a clause that lost a resolution partner can become blocked, so
    # each pass rechecks just those, in canonical order.
    pending: set[Clause] = set(phi.clauses)
    while pending:
        touched: set[Clause] = set()
        for c in phi.clauses:
            if c not in pending or c not in alive:
                continue
            l = _blocking_literal(c, occ)
            if l is None:
                continue
            alive.discard(c)
            eliminated.append((c, l))
            for m in c:
                occ[m].discard(c)
                touched.update(occ.get(-m, ()))
        pending = touched
    return Formula._make(tuple(c for c in phi.clauses if c in alive)), tuple(eliminated)


def _restore_blocked_clauses(
    x: Formula, eliminated: tuple[tuple[Clause, int], ...], y: Assignment
) -> Assignment:
    """Lift of blocked-clause elimination: satisfy the deleted clauses, last first."""
    # Solutions are partial: complete y over the source's variables first, so
    # that making a blocking literal true cannot falsify a clause that relied
    # on an unassigned variable.
    alpha = set(y)
    alpha.update(-v for v in x.variables if v not in alpha and -v not in alpha)
    for c, l in reversed(eliminated):
        if not alpha.intersection(c):
            alpha.discard(-l)
            alpha.add(l)
    return assignment(alpha)


def unit_propagate_fixpoint(phi: Formula) -> tuple[Formula, tuple[int, ...]]:
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


def bounded_resolution(phi: Formula) -> Formula:
    """``phi`` plus its first ``BOUNDED_RESOLVENT_CAP`` new resolvents, then subsumed."""
    return subsume(add_clauses(phi, new_resolvents(phi)[:BOUNDED_RESOLVENT_CAP]))


def extension_moves(phi: Formula, pair_cap: int = DEFAULT_PAIR_CAP) -> list[Formula]:
    """Definitional extension: for literal pairs {a, b} over variables of ``phi``,
    add clauses {a, -v}, {b, -v}, {-a, -b, v} with ``v`` the smallest unused variable.

    Pairs enumerate in canonical order and stop after ``pair_cap`` of them.
    """
    vars_ = phi.variables
    if not vars_:
        return []
    var_set = set(vars_)
    fresh = 1
    while fresh in var_set:
        fresh += 1
    lits = [s * v for v in vars_ for s in (1, -1)]
    codes = [_clause_code(c) for c in phi.clauses]
    moves = []
    taken = 0
    for i in range(len(lits)):
        if taken >= pair_cap:
            break
        for j in range(i + 1, len(lits)):
            a, b = lits[i], lits[j]
            if abs(a) == abs(b):
                continue
            # Every new clause holds the fresh variable, so none is in phi yet.
            new = (clause((a, -fresh)), clause((b, -fresh)), clause((-a, -b, fresh)))
            moves.append(Formula._make(_insert_clauses(phi.clauses, codes, new)))
            taken += 1
            if taken >= pair_cap:
                break
    moves.sort(key=lambda f: f.clauses)
    return moves


def flip_variable(phi: Formula, v: int) -> Formula:
    """Swap the polarity of variable ``v`` everywhere in ``phi``."""
    return Formula(tuple(-l if abs(l) == v else l for l in c) for c in phi.clauses)


def flippable_variables(phi: Formula) -> list[int]:
    """Variables occurring in a non-empty clause whose literals are all negative."""
    vs = set()
    for c in phi.clauses:
        if c and all(l < 0 for l in c):
            vs.update(-l for l in c)
    return sorted(vs)


def flip_moves(phi: Formula) -> list[Formula]:
    """Polarity swaps of variables drawn from all-negative clauses."""
    seen = set()
    moves = []
    for v in flippable_variables(phi):
        f2 = flip_variable(phi, v)
        if f2 != phi and f2 not in seen:
            seen.add(f2)
            moves.append(f2)
    moves.sort(key=lambda f: f.clauses)
    return moves


def _flip_lift(x: Formula, x2: Formula, y: Assignment) -> Assignment:
    for v in flippable_variables(x):
        if flip_variable(x, v) == x2:
            return assignment(-l if abs(l) == v else l for l in y)
    raise ValueError("target is not a flip move of the source")


RESOLUTION = SelfReduction("resolution", resolution_moves, identity_lift)
SUBSUMPTION = one_move("subsumption", lambda phi: (subsume(phi), None))
PURE_LITERAL = one_move("pure-literal", pure_literal_fixpoint, _add_literals)
BLOCKED_CLAUSE = one_move("blocked-clause", blocked_clause_fixpoint, _restore_blocked_clauses)
FLIP = SelfReduction("flip", flip_moves, _flip_lift)
EXTENSION = SelfReduction("extension", extension_moves, identity_lift)
UNIT_PROPAGATION = one_move("unit-propagation", unit_propagate_fixpoint, _add_literals)
BOUNDED_RESOLUTION = one_move("bounded-resolution", lambda phi: (bounded_resolution(phi), None))


# ---------------------------------------------------------------------------
# Easy-instance solvers
# ---------------------------------------------------------------------------


def easy_trivial(phi: Formula) -> EasyOutcome:
    """Easy set: the empty formula (satisfiable) and any formula with the empty clause."""
    if phi.is_empty:
        return EasyOutcome.solution(assignment())
    if phi.has_empty_clause:
        return NO_SOLUTION
    return NOT_EASY


def easy_all_positive(phi: Formula) -> EasyOutcome:
    """Easy set: formulas in which every clause has a positive literal.

    Such formulas are satisfied by the set of all their positive literals, so
    this solver never reports "no solution".
    """
    if all(any(l > 0 for l in c) for c in phi.clauses):
        return EasyOutcome.solution(
            assignment(l for c in phi.clauses for l in c if l > 0)
        )
    return NOT_EASY


def easy_combined(phi: Formula) -> EasyOutcome:
    """Union of the trivial and all-positive easy sets."""
    out = easy_trivial(phi)
    if out.is_easy:
        return out
    return easy_all_positive(phi)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class OracleVerdict:
    """Result of the exhaustive oracle: Sat with a witness, or Unsat."""

    __slots__ = ("satisfiable", "witness")

    def __init__(self, satisfiable: bool, witness: Assignment | None = None):
        if satisfiable and witness is None:
            raise ValueError("sat verdict requires a witness")
        if not satisfiable and witness is not None:
            raise ValueError("unsat verdict carries no witness")
        self.satisfiable = satisfiable
        self.witness = witness

    def __repr__(self) -> str:
        if self.satisfiable:
            return f"Sat({sorted(self.witness, key=abs)})"
        return "Unsat"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OracleVerdict)
            and self.satisfiable == other.satisfiable
            and self.witness == other.witness
        )


def condition(clauses: list[Clause], lit: int) -> list[Clause]:
    """The clauses under ``lit`` made true: satisfied clauses go, ``-lit`` is struck out."""
    out = []
    for c in clauses:
        if lit in c:
            continue
        if -lit in c:
            out.append(tuple(l for l in c if l != -lit))
        else:
            out.append(c)
    return out


def oracle_solve(phi: Formula, var_limit: int = ORACLE_VAR_LIMIT) -> OracleVerdict:
    """Backtracking search over the variables of ``phi``; for verification only.

    Deliberately naive (unit propagation plus first-variable branching) and
    refuses instances with more than ``var_limit`` variables.
    """
    if len(phi.variables) > var_limit:
        raise OracleLimitError(
            f"{len(phi.variables)} variables exceed the oracle limit of {var_limit}"
        )

    def search(clauses: list[Clause], trail: list[int]) -> list[int] | None:
        while True:
            if not clauses:
                return trail
            clauses = sorted(set(clauses), key=_clause_code)
            if clauses[0] == ():
                return None
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            trail = trail + [unit]
            clauses = condition(clauses, unit)
        v = min(abs(l) for c in clauses for l in c)
        for lit in (v, -v):
            found = search(condition(clauses, lit), trail + [lit])
            if found is not None:
                return found
        return None

    found = search(list(phi.clauses), [])
    if found is None:
        return OracleVerdict(False)
    return OracleVerdict(True, assignment(found))
