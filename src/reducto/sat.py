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

# hashlib.blake2b is _blake2.blake2b, and importing hashlib would also load
# OpenSSL's _hashlib, which costs megabytes of memory and nothing here uses.
from _blake2 import blake2b
from bisect import bisect_left
from itertools import combinations, islice
from math import inf
from typing import Iterable, Iterator

from .core import DONT_KNOW, NO_SOLUTION, SelfReduction, SolveAnswer, identity_lift, one_move

Literal = int
Clause = tuple  # tuple[int, ...] in canonical order
Assignment = frozenset  # frozenset[int] without complementary pairs

ORACLE_VAR_LIMIT = 24
PAIR_CAP = 16


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


def _clause_masks(phi: Formula) -> tuple[list[int], dict[int, int], int, list[int]]:
    """``phi``'s clauses as bitmasks over the dense ranks of its variables.

    Bit 2r stands for the positive literal of the r-th variable and bit 2r+1
    for the negative one, so masks stay short whatever the variable ids, a
    resolvent is one OR, and a mask is tautological iff ``m & (m >> 1) & even``
    is non-zero.  Returns the literal of each bit position, the bit of each
    literal, ``even`` (bit 2r for every rank r) and the mask of each clause.
    """
    lits: list[int] = []
    bits: dict[int, int] = {}
    for v in phi.variables:
        bits[v] = 1 << len(lits)
        bits[-v] = 2 << len(lits)
        lits += (v, -v)
    masks = []
    for c in phi.clauses:
        m = 0
        for l in c:
            m |= bits[l]
        masks.append(m)
    return lits, bits, ((1 << len(lits)) - 1) // 3, masks


def _positions(masks: Iterable[int]) -> list[list[int]]:
    """The set bits of each mask, ascending.

    Ascending bit positions are the canonical literal order, so sorting the
    position lists of masks sorts their clauses canonically.
    """
    out = []
    for m in masks:
        pos = []
        while m:
            low = m & -m
            pos.append(low.bit_length() - 1)
            m ^= low
        out.append(pos)
    return out


def new_resolvents(phi: Formula) -> list[Clause]:
    """All resolvents of clause pairs of ``phi`` that are not already clauses of it.

    The result is in canonical order.
    """
    lits, bits, even, masks = _clause_masks(phi)
    occ: dict[int, list[int]] = {}
    for c, m in zip(phi.clauses, masks):
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
    ranked = sorted(_positions(out))
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


def _is_resolution_move(phi: Formula, phi2: Formula) -> bool | None:
    """True when ``phi2`` is ``phi`` plus one resolvent of two clauses of ``phi``, else None."""
    cls, cls2 = phi.clauses, phi2.clauses
    if len(cls2) != len(cls) + 1:
        return None
    i = next((i for i, c in enumerate(cls) if c != cls2[i]), len(cls))
    if cls2[i + 1 :] != cls[i:]:
        return None
    # The new clause r (complement-free, as every clause is) is the
    # resolvent of c and d on v when c holds v, d holds -v, and their other
    # literals, all in r, cover r.  Those literals are kept as bits over r.
    r = cls2[i]
    bit = {l: 1 << k for k, l in enumerate(r)}
    parts: dict[int, set[int]] = {}
    for c in cls:
        out = [l for l in c if l not in bit]
        if len(out) == 1:
            parts.setdefault(out[0], set()).add(sum([bit[l] for l in c if l in bit]))
    full = (1 << len(r)) - 1
    return any(
        p | n == full for v, ps in parts.items() if v > 0 for p in ps for n in parts.get(-v, ())
    ) or None


def _eliminations(
    phi: Formula, vs: Iterable[int], bound: float = inf
) -> Iterator[tuple[int, Formula | None]]:
    """``(v, phi with v eliminated)`` for each variable ``v`` of ``phi`` in ``vs``, in order.

    Eliminating ``v`` (Davis and Putnam, JACM 1960) drops every clause on
    ``v`` and adds all their non-tautological resolvents on ``v``; the result
    is satisfiable exactly when ``phi`` is.  Building a result stops as soon
    as its distinct clauses outnumber ``bound``, and None stands for it.
    """
    lits, bits, even, masks = _clause_masks(phi)
    decoded: dict[int, tuple[list[int], Clause]] = {}
    for v in vs:
        pv, nv = bits[v], bits[-v]
        negs = [m ^ nv for m in masks if m & nv]
        out = {m for m in masks if not m & (pv | nv)}
        for p in masks:
            if p & pv:
                p ^= pv
                out.update([r for n in negs if not (r := p | n) & (r >> 1) & even])
                if len(out) > bound:
                    yield v, None
                    break
        else:
            fresh = [m for m in out if m not in decoded]
            for m, pos in zip(fresh, _positions(fresh)):
                decoded[m] = (pos, tuple([lits[i] for i in pos]))
            ranked = sorted([decoded[m] for m in out])
            yield v, Formula._make(tuple([c for _, c in ranked]))


def _fallback_variable(phi: Formula) -> int:
    """The variable whose elimination can grow ``phi`` the least, the lowest on a tie.

    Eliminating ``v`` removes its ``|pos|`` positive and ``|neg|`` negative
    clauses and adds at most ``|pos|·|neg|`` resolvents, so the growth is at
    most ``|pos|·|neg| − |pos| − |neg|``.
    """
    occ: dict[int, int] = {}
    for c in phi.clauses:
        for l in c:
            occ[l] = occ.get(l, 0) + 1
    return min(
        phi.variables,
        key=lambda v: ((p := occ.get(v, 0)) * (n := occ.get(-v, 0)) - p - n, v),
    )


def elimination_moves(phi: Formula) -> list[Formula]:
    """Bounded variable elimination (Eén and Biere, SAT 2005).

    One move per variable of ``phi`` whose elimination leaves at most
    ``len(phi)`` distinct clauses.  When no variable qualifies, the one move
    eliminates ``_fallback_variable(phi)``, so every formula with a variable
    has a move, and at most ``n`` moves reach ⊤ or ⊥.
    """
    # Two variables can give the same formula: {(1 2)} gives ⊤ for both.
    moves = {f for _, f in _eliminations(phi, phi.variables, len(phi)) if f is not None}
    if not moves and phi.variables:
        moves = {f for _, f in _eliminations(phi, [_fallback_variable(phi)])}
    return sorted(moves, key=lambda f: f.clauses)


def _eliminated_variable(x: Formula, x2: Formula) -> int | None:
    """The variable whose elimination is a move from ``x`` to ``x2``, if there is one.

    A target of at most ``len(x)`` clauses is a move when eliminating one of
    the variables it lacks gives it.  A larger target is a move only when no
    variable of ``x`` qualifies and eliminating the fallback variable gives it.
    """
    if len(x2) > len(x):
        # Only the fallback move is larger than its source, and then it is the only move.
        return _fallback_variable(x) if elimination_moves(x) == [x2] else None
    # It occurs in x and not in x2.
    left = set(x2.variables)
    gone = [u for u in x.variables if u not in left]
    return next((v for v, f in _eliminations(x, gone, len(x2)) if f == x2), None)


def _elimination_lift(x: Formula, v: int, y: Assignment) -> Assignment:
    # Solutions are partial: complete y over x's other variables first.  Then
    # every resolvent on v is satisfied, so one value of v satisfies all the
    # clauses on it.
    alpha = set(y)
    alpha.difference_update((v, -v))
    alpha.update(-u for u in x.variables if u != v and u not in alpha and -u not in alpha)
    needs_v = any(v in c and alpha.isdisjoint(c) for c in x.clauses)
    alpha.add(v if needs_v else -v)
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
    if not forced:
        return phi, ()
    # condition() keeps each clause's literal order, so clauses stay canonical.
    return Formula._make(tuple(sorted(set(cur), key=_clause_code))), tuple(forced)


def _add_literals(x: Formula, literals: tuple[int, ...], y: Assignment) -> Assignment:
    """Lift of a fixpoint that sets ``literals`` true: add them to ``y``."""
    # Propagated units have no variable left in the fixpoint, so a fixpoint
    # solution over its own variables never clashes with them; assignment()
    # still asserts it.
    return assignment(set(y) | set(literals))


def extension_moves(phi: Formula) -> list[Formula]:
    """Definitional extension: for literal pairs {a, b} over variables of ``phi``,
    add clauses {a, -v}, {b, -v}, {-a, -b, v} with ``v`` the smallest unused variable.

    Pairs enumerate in canonical order and stop after ``PAIR_CAP`` of them.
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
    pairs = ((a, b) for a, b in combinations(lits, 2) if abs(a) != abs(b))
    moves = []
    for a, b in islice(pairs, PAIR_CAP):
        # Every new clause holds the fresh variable, so none is in phi yet.
        new = (clause((a, -fresh)), clause((b, -fresh)), clause((-a, -b, fresh)))
        moves.append(Formula._make(_insert_clauses(phi.clauses, codes, new)))
    moves.sort(key=lambda f: f.clauses)
    return moves


def _is_extension_move(x: Formula, x2: Formula) -> bool | None:
    return True if x2 in extension_moves(x) else None


def flip_variable(phi: Formula, v: int) -> Formula:
    """Swap the polarity of variable ``v`` everywhere in ``phi``."""
    # Literals are ordered by variable, so a flipped clause stays canonical;
    # a flip maps distinct clauses to distinct clauses, so none is dropped.
    cls = [tuple([-l if abs(l) == v else l for l in c]) if v in c or -v in c else c for c in phi]
    return Formula._make(tuple(sorted(cls, key=_clause_code)))


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


def _flipped_variable(x: Formula, x2: Formula) -> int | None:
    """The flippable variable whose flip turns ``x`` into ``x2``, if there is one."""
    # Every clause a flip changes holds the flipped variable, so the first
    # clause of x missing from x2 names every candidate, in variable order.
    kept = set(x2.clauses)
    changed = next((c for c in x.clauses if c not in kept), ())
    flippable = set(flippable_variables(x))
    return next(
        (v for v in map(abs, changed) if v in flippable and flip_variable(x, v) == x2), None
    )


def _flip_lift(x: Formula, v: int, y: Assignment) -> Assignment:
    return assignment(-l if abs(l) == v else l for l in y)


RESOLUTION = SelfReduction("resolution", resolution_moves, identity_lift, _is_resolution_move)
ELIMINATION = SelfReduction(
    "elimination", elimination_moves, _elimination_lift, _eliminated_variable
)
FLIP = SelfReduction("flip", flip_moves, _flip_lift, _flipped_variable)
EXTENSION = SelfReduction("extension", extension_moves, identity_lift, _is_extension_move)
UNIT_PROPAGATION = one_move("unit-propagation", unit_propagate_fixpoint, _add_literals)


# ---------------------------------------------------------------------------
# Easy-instance solvers
# ---------------------------------------------------------------------------


def easy_trivial(phi: Formula) -> SolveAnswer:
    """Easy set: the empty formula (satisfiable) and any formula with the empty clause."""
    if phi.is_empty:
        return SolveAnswer.solution(assignment())
    if phi.has_empty_clause:
        return NO_SOLUTION
    return DONT_KNOW


def easy_all_positive(phi: Formula) -> SolveAnswer:
    """Easy set: formulas in which every clause has a positive literal.

    Such formulas are satisfied by the set of all their positive literals, so
    this solver never reports "no solution".
    """
    if all(any(l > 0 for l in c) for c in phi.clauses):
        return SolveAnswer.solution(
            assignment(l for c in phi.clauses for l in c if l > 0)
        )
    return DONT_KNOW


def easy_combined(phi: Formula) -> SolveAnswer:
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


def oracle_solve(phi: Formula) -> OracleVerdict:
    """Backtracking search over the variables of ``phi``; for verification only.

    Deliberately naive (unit propagation plus first-variable branching) and
    refuses instances with more than ``ORACLE_VAR_LIMIT`` variables.
    """
    if len(phi.variables) > ORACLE_VAR_LIMIT:
        raise OracleLimitError(
            f"{len(phi.variables)} variables exceed the oracle limit of {ORACLE_VAR_LIMIT}"
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
