"""Code that only the tests use: a random formula generator and move lookups."""

import random

from reducto.sat import Clause, Formula, _decode, _resolvent_table, clause


def random_formula(rng: random.Random, max_vars: int, max_clauses: int) -> Formula:
    """Mixed-width random CNF (widths 1 to 3) used for desk-scale probing."""
    n_vars = rng.randint(1, max_vars)
    n_clauses = rng.randint(1, max_clauses)
    clauses: set[tuple[int, ...]] = set()
    attempts = 0
    while len(clauses) < n_clauses and attempts < 50 * (n_clauses + 1):
        attempts += 1
        width = rng.randint(1, min(3, n_vars))
        vs = rng.sample(range(1, n_vars + 1), width)
        clauses.add(clause(v if rng.random() < 0.5 else -v for v in vs))
    return Formula(clauses)


def new_resolvents(phi: Formula) -> list[Clause]:
    """All resolvents of clause pairs of ``phi`` that are not already clauses of it.

    The result is in canonical order.
    """
    t = _resolvent_table(phi)
    return [c for _, c in sorted(_decode(t, set().union(*t.new.values())))]


def step_witness(rule, x, x2):
    """The witness ``rule.moves(x)`` pairs with ``x2``, or None when ``x2`` is no move."""
    return next((w for m, w in rule.moves(x) if m == x2), None)
