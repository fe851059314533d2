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
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple

from .core import DONT_KNOW, NO_SOLUTION, SelfReduction, SolveAnswer, identity_lift, one_move

Clause = tuple  # tuple[int, ...] in canonical order
Assignment = frozenset  # frozenset[int] without complementary pairs

ORACLE_VAR_LIMIT = 24
PAIR_CAP = 16
# Formulas whose elimination and unit-propagation listings are kept (see
# ELIMINATION below).  At most 8 distinct formulas are listed between a
# refutation's root and its check on the benchmark's inputs.
LISTING_MEMO = 16


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
    return not any(map(a.isdisjoint, phi.clauses))


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


def _resolvents(pos: Iterable[int], negs: list[int], even: int) -> set[int]:
    """The non-tautological resolvents on one variable, as masks.

    ``pos`` and ``negs`` are the masks of the clauses holding the variable's
    positive and negative literal, each without that literal's bit.
    """
    out: set[int] = set()
    for p in pos:
        out.update([r for n in negs if not (r := p | n) & (r >> 1) & even])
    return out


class _Table(NamedTuple):
    """What ``phi``'s resolution and elimination moves share (``_resolvent_table``)."""

    lits: list[int]  # the literal of each bit position (_clause_masks)
    bits: dict[int, int]  # the bit of each literal
    masks: list[int]  # the mask of each clause of phi
    keys: list[list[int]]  # the positions (_positions) of each clause of phi
    new: dict[int, set[int]]  # each variable's resolvents that are not clauses of phi
    growth: dict[int, int]  # how many clauses eliminating each variable adds to phi
    decoded: dict[int, tuple[list[int], Clause]]  # positions and clause of each mask read


@lru_cache(maxsize=1)
def _resolvent_table(phi: Formula) -> _Table:
    """``phi``'s resolvents on each variable, found once for both rules that read them.

    The resolution rule and the elimination rule of a setup are asked about
    the same formula one after the other, so one entry is enough.  ``decoded``
    starts with ``phi``'s own clauses; ``_decode`` adds each resolvent a rule
    reads, once.
    """
    lits, bits, even, masks = _clause_masks(phi)
    occ: dict[int, list[int]] = {}
    for c, m in zip(phi.clauses, masks):
        for l in c:
            occ.setdefault(l, []).append(m ^ bits[l])
    known = set(masks)
    new, growth = {}, {}
    for v in phi.variables:
        ps, ns = occ.get(v, ()), occ.get(-v, [])
        new[v] = r = _resolvents(ps, ns, even) - known
        growth[v] = len(r) - len(ps) - len(ns)
    at = {l: i for i, l in enumerate(lits)}
    keys = [[at[l] for l in c] for c in phi.clauses]
    return _Table(lits, bits, masks, keys, new, growth, dict(zip(masks, zip(keys, phi.clauses))))


def _decode(t: _Table, ms: Iterable[int]) -> list[tuple[list[int], Clause]]:
    """The positions and clause of each mask in ``ms``; sorting them sorts the clauses."""
    decoded, lits = t.decoded, t.lits
    fresh = [m for m in ms if m not in decoded]
    for m, pos in zip(fresh, _positions(fresh)):
        decoded[m] = (pos, tuple([lits[k] for k in pos]))
    return [decoded[m] for m in ms]


class _Pending(Formula):
    """A move's successor: the clauses of ``base`` plus ``added``, built on first read.

    ``base`` is the source's canonical clause tuple and ``added`` holds
    ``(i, c)`` for each clause ``c`` the move adds, in canonical order, with
    ``i`` its insertion index in ``base``.  ``is_empty`` and
    ``has_empty_clause`` answer from these parts, so an easy check builds
    nothing.  The slots of ``clauses`` and of ``Formula``'s caches stay unset
    until one of them is read; then ``__getattr__`` builds the tuple and sets
    them all, so equality, hashing, ``digest`` and ``variables`` see an
    ordinary formula from then on.
    """

    __slots__ = ("_base", "_added")

    def __init__(self, base: tuple[Clause, ...], added: tuple[tuple[int, Clause], ...]):
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_added", added)

    def __getattr__(self, name: str):
        # Only called when ordinary lookup fails, as it does for an unset slot.
        if name not in Formula.__slots__:
            raise AttributeError(name)
        cls = self._base
        # Last first: each insertion index, found in base, then still indexes
        # the partly extended tuple correctly.
        for i, c in reversed(self._added):
            cls = cls[:i] + (c,) + cls[i:]
        object.__setattr__(self, "clauses", cls)
        for cache in ("_hash", "_vars", "_digest"):
            object.__setattr__(self, cache, None)
        return getattr(self, name)

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def has_empty_clause(self) -> bool:
        base = self._base
        return self._added[0][1] == () or (bool(base) and base[0] == ())


def _order_term(cls: tuple[Clause, ...], i: int, c: Clause) -> tuple[int, Clause]:
    """Where inserting ``c`` at index ``i`` of ``cls`` puts the result in plain tuple order.

    The result first differs from ``cls`` at index ``i``, where it holds
    ``c``: it sorts below every insertion at a later index when ``c`` is
    below ``cls[i]`` (or ``i`` is the end), and above every such insertion
    otherwise.  Sorting successors by the tuple of their terms, one per added
    clause in canonical order, therefore sorts them by their clause tuples.
    """
    m = len(cls)
    return (i if i == m or c < cls[i] else 2 * m - i, c)


def resolution_moves(phi: Formula) -> list[tuple[Formula, bool]]:
    """Each move adds one new resolvent (``_resolvent_table``) to ``phi``; its witness is True."""
    cls = phi.clauses
    m = len(cls)
    t = _resolvent_table(phi)
    keyed = []
    for pos, rc in _decode(t, set().union(*t.new.values())):
        # Position lists sort as their clauses do, so they find insertion indices.
        i = bisect_left(t.keys, pos)
        # _order_term(cls, i, rc), inlined: this loop runs once per resolvent.
        keyed.append(((i if i == m or rc < cls[i] else 2 * m - i, rc), i))
    keyed.sort()
    return [(_Pending(cls, ((i, rc),)), True) for (_, rc), i in keyed]


def elimination_moves(phi: Formula) -> list[tuple[Formula, int]]:
    """Bounded variable elimination (Eén and Biere, SAT 2005).

    Eliminating ``v`` (Davis and Putnam, JACM 1960) drops every clause on
    ``v`` and adds all their non-tautological resolvents on ``v``; the result
    is satisfiable exactly when ``phi`` is.  Its growth, the new resolvents
    (``_resolvent_table``) less the clauses on ``v``, is exactly how many
    clauses the result has more than ``phi``.  One move per variable whose
    growth is at most 0; when there is none, the one move eliminates the
    variable with the least growth, the lowest on a tie.  So every formula
    with a variable has a move, and at most ``n`` moves reach ⊤ or ⊥.  A
    move's witness is its variable.
    """
    t = _resolvent_table(phi)
    growth = t.growth
    vs = [v for v in phi.variables if growth[v] <= 0]
    if not vs and phi.variables:
        vs = [min(phi.variables, key=lambda v: (growth[v], v))]
    # Two variables can give one formula, {(1 2)} gives ⊤ for both: keep the lowest.
    out: dict[tuple[Clause, ...], int] = {}
    for v in vs:
        gone = t.bits[v] | t.bits[-v]
        ms = [m for m in t.masks if not m & gone]
        ms += t.new[v]
        out.setdefault(tuple([c for _, c in sorted(_decode(t, ms))]), v)
    return [(Formula._make(cls), out[cls]) for cls in sorted(out)]


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


def _fresh_variable(phi: Formula) -> int:
    """The smallest variable that does not occur in ``phi``."""
    var_set = set(phi.variables)
    fresh = 1
    while fresh in var_set:
        fresh += 1
    return fresh


def _extension_pairs(phi: Formula) -> list[tuple[int, int]]:
    """The first ``PAIR_CAP`` pairs of literals on two variables of ``phi``, in canonical order."""
    lits = [s * v for v in phi.variables for s in (1, -1)]
    return list(islice(((a, b) for a, b in combinations(lits, 2) if abs(a) != abs(b)), PAIR_CAP))


def extension_moves(phi: Formula) -> list[tuple[Formula, bool]]:
    """Definitional extension: for literal pairs {a, b} over variables of ``phi``,
    add clauses {a, -v}, {b, -v}, {-a, -b, v} with ``v`` the smallest unused variable.

    Pairs enumerate in canonical order and stop after ``PAIR_CAP``; witnesses are True.
    """
    if not phi.variables:
        return []
    fresh = _fresh_variable(phi)
    cls = phi.clauses
    codes = [_clause_code(c) for c in cls]

    def place(lits: tuple[int, ...]) -> tuple:
        # (code, order term, (index, clause)) of the clause on lits.  Its
        # variables are distinct, so sorting them makes it canonical, and it
        # holds the fresh variable, so it is not in phi yet.
        c = tuple(sorted(lits, key=abs))
        code = _clause_code(c)
        i = bisect_left(codes, code)
        return code, _order_term(cls, i, c), (i, c)

    binary: dict[int, tuple] = {}  # {l, -fresh} for each literal l of a pair
    keyed = []
    for a, b in _extension_pairs(phi):
        for l in (a, b):
            if l not in binary:
                binary[l] = place((l, -fresh))
        new = sorted([binary[a], binary[b], place((-a, -b, fresh))])
        keyed.append((tuple([t for _, t, _ in new]), tuple([ic for _, _, ic in new])))
    keyed.sort()
    return [(_Pending(cls, added), True) for _, added in keyed]


def flip_variable(phi: Formula, v: int) -> Formula:
    """Swap the polarity of variable ``v`` everywhere in ``phi``.

    Flipped clauses stay canonical and distinct.  Only the codes of ``v``'s
    literals change (``2v`` and ``2v+1``, ``_clause_code``) and no other
    code lies between them, so two clauses change order only when they first
    differ at ``v``'s literal.  Such clauses form runs, contiguous in
    canonical order: a prefix then ``v``, followed by the same prefix then
    ``-v``.  The flip swaps the two halves of each run, keeping the order
    within each half, and every other clause keeps its place.
    """
    out = list(phi.clauses)
    nv = -v
    runs: dict[Clause, list] = {}  # prefix: [index of its run, the run's flipped clauses]
    for i, c in enumerate(out):
        if v in c:
            k = c.index(v)
        elif nv in c:
            k = c.index(nv)
        else:
            continue
        p = c[:k]
        out[i] = f = p + (-c[k],) + c[k + 1 :]
        run = runs.get(p)
        if run is None:
            runs[p] = [i, f]
        else:
            run.append(f)
    for p, run in runs.items():
        if len(run) > 2:
            # The clauses that held -v now hold v, so they go first.
            i, k, run = run[0], len(p), run[1:]
            out[i : i + len(run)] = [c for c in run if c[k] == v] + [c for c in run if c[k] != v]
    return Formula._make(tuple(out))


def flippable_variables(phi: Formula) -> list[int]:
    """Variables occurring in a non-empty clause whose literals are all negative."""
    vs = set()
    for c in phi.clauses:
        if c and max(c) < 0:
            vs.update(c)
    return sorted([-l for l in vs])


def flip_moves(phi: Formula) -> list[tuple[Formula, int]]:
    """Polarity swaps of variables of all-negative clauses, each with the lowest one giving it."""
    seen = set()
    moves = []
    for v in flippable_variables(phi):
        f2 = flip_variable(phi, v)
        if f2 != phi and f2 not in seen:
            seen.add(f2)
            moves.append((f2, v))
    moves.sort(key=lambda m: m[0].clauses)
    return moves


def _flip_lift(x: Formula, v: int, y: Assignment) -> Assignment:
    return assignment(-l if abs(l) == v else l for l in y)


# Elimination and unit propagation list their moves through a memo of the
# last LISTING_MEMO formulas, so checking a refutation's path (verify_path)
# reads the lists the search made instead of working them out again.  Moves
# are pure, so a listing from the memo is the one a re-run would return.
# Resolution and extension are not memoised: their pending successors would
# be shared across searches, and one search's reads would build another's.
RESOLUTION = SelfReduction("resolution", resolution_moves, identity_lift)
ELIMINATION = SelfReduction(
    "elimination", lru_cache(maxsize=LISTING_MEMO)(elimination_moves), _elimination_lift
)
FLIP = SelfReduction("flip", flip_moves, _flip_lift)
EXTENSION = SelfReduction("extension", extension_moves, identity_lift)
UNIT_PROPAGATION = one_move(
    "unit-propagation", lru_cache(maxsize=LISTING_MEMO)(unit_propagate_fixpoint), _add_literals
)


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
    if all(c and max(c) > 0 for c in phi.clauses):
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
