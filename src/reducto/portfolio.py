"""A portfolio of instance-transforming solvers, packaged as one self-reduction.

Each member maps a formula to an equisatisfiable formula together with a lift
that maps solutions back.  The portfolio's move function offers the set of
all member outputs; per-instance algorithm selection then falls out of the
ordinary path search.  External members run as child processes speaking
DIMACS on stdin and either a solver result or a transformed DIMACS formula on
stdout; a member that crashes, times out, or talks garbage simply contributes
no move.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Callable

from .core import SelfReduction, Setup
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .sat import (
    Assignment,
    BOTTOM,
    Formula,
    TOP,
    add_clauses,
    assignment,
    condition,
    easy_combined,
    new_resolvents,
    pure_literal_fixpoint,
    satisfies,
    subsumption_move,
)

DEFAULT_EXTERNAL_TIMEOUT = 10.0

Transform = Callable[[Formula], "tuple[Formula, Callable[[Assignment], Assignment]] | None"]


class MemberFailure(Exception):
    """A portfolio member failed (crash, timeout, or unusable output)."""


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


def _unit_propagation_transform(phi: Formula):
    fix, forced = unit_propagate_fixpoint(phi)
    if fix == phi:
        return None
    return fix, lambda y: assignment(set(y) | set(forced))


def _pure_literal_transform(phi: Formula):
    fix, pures = pure_literal_fixpoint(phi)
    if fix == phi:
        return None
    return fix, lambda y: assignment(set(y) | set(pures))


def _bounded_resolution_transform(phi: Formula, iterations: int, resolvent_cap: int):
    cur = phi
    for _ in range(iterations):
        resolvents = new_resolvents(cur)[:resolvent_cap]
        if resolvents:
            cur = add_clauses(cur, resolvents)
        nxt = (subsumption_move(cur) or [cur])[0]
        if nxt == cur and not resolvents:
            break
        cur = nxt
    if cur == phi:
        return None
    return cur, lambda y: y


@dataclass(frozen=True)
class BuiltinMember:
    """An in-process member: a pure transform with its solution lift."""

    id: str
    transform_fn: Transform
    kind: str = "builtin"

    def transform(self, phi: Formula):
        return self.transform_fn(phi)


@dataclass(frozen=True)
class ExternalMember:
    """A child-process member invoked with DIMACS on stdin.

    Accepted outputs: ``s SATISFIABLE`` with ``v`` witness lines (verified
    against the input before being trusted), ``s UNSATISFIABLE``, or a
    complete DIMACS formula, which is taken as an identity-lift transform.
    Anything else is a member failure, never a wrong answer.
    """

    id: str
    command: tuple[str, ...]
    timeout: float = DEFAULT_EXTERNAL_TIMEOUT
    kind: str = "external"

    def transform(self, phi: Formula):
        try:
            proc = subprocess.run(
                list(self.command),
                input=emit_dimacs(phi),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise MemberFailure(f"{self.id}: timed out after {self.timeout}s") from exc
        except OSError as exc:
            raise MemberFailure(f"{self.id}: {exc}") from exc
        return self._interpret(phi, proc.stdout)

    def _interpret(self, phi: Formula, stdout: str):
        status = None
        witness_lits: list[int] = []
        for line in stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                status = line[2:].strip()
            elif line.startswith("v "):
                try:
                    witness_lits.extend(int(tok) for tok in line[2:].split())
                except ValueError as exc:
                    raise MemberFailure(f"{self.id}: bad witness line") from exc
        if status == "SATISFIABLE":
            try:
                witness = assignment(l for l in witness_lits if l != 0)
            except ValueError as exc:
                raise MemberFailure(f"{self.id}: inconsistent witness") from exc
            if not satisfies(witness, phi):
                raise MemberFailure(f"{self.id}: witness does not satisfy the instance")
            return TOP, lambda y, w=witness: w
        if status == "UNSATISFIABLE":
            return BOTTOM, lambda y: y
        try:
            transformed = parse_dimacs(stdout)
        except DimacsError as exc:
            raise MemberFailure(f"{self.id}: unparseable output") from exc
        return transformed, lambda y: y


@dataclass
class Portfolio:
    """An ordered collection of members with unique ids.

    ``failures`` accumulates (member id, reason) pairs from transform calls so
    callers can report them; it never influences results.
    """

    members: tuple = ()
    failures: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.members = tuple(self.members)
        if not self.members:
            raise ValueError("a portfolio needs at least one member")
        ids = [m.id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate member ids: {ids}")

    def moves(self, phi: Formula) -> list[Formula]:
        """Deduplicated member outputs, self-moves removed, canonically ordered."""
        produced: dict[Formula, str] = {}
        for member in self.members:
            try:
                result = member.transform(phi)
            except MemberFailure as exc:
                self.failures.append((member.id, str(exc)))
                continue
            if result is None:
                continue
            transformed, _ = result
            if transformed != phi and transformed not in produced:
                produced[transformed] = member.id
        return sorted(produced, key=lambda f: f.clauses)

    def lift(self, x: Formula, x2: Formula, y: Assignment) -> Assignment:
        """Dispatch to the first member whose transform of ``x`` reproduces ``x2``."""
        for member in self.members:
            try:
                result = member.transform(x)
            except MemberFailure as exc:
                self.failures.append((member.id, str(exc)))
                continue
            if result is not None and result[0] == x2:
                return result[1](y)
        raise ValueError("no portfolio member reproduces the move")

    def as_reduction(self) -> SelfReduction:
        return SelfReduction("portfolio", self.moves, self.lift)


def builtin_members(
    resolution_iterations: int = 1, resolvent_cap: int = 64
) -> Portfolio:
    """The shipped members: unit propagation, pure-literal elimination, and a
    bounded resolution-plus-subsumption simplifier."""
    return Portfolio(
        (
            BuiltinMember("unit-propagation", _unit_propagation_transform),
            BuiltinMember("pure-literal", _pure_literal_transform),
            BuiltinMember(
                "bounded-resolution",
                lambda phi: _bounded_resolution_transform(
                    phi, resolution_iterations, resolvent_cap
                ),
            ),
        )
    )


def portfolio_setup(portfolio: Portfolio | None = None) -> Setup:
    """A setup whose single reduction is the portfolio move function."""
    p = portfolio if portfolio is not None else builtin_members()
    return Setup(easy=easy_combined, reductions=(p.as_reduction(),))
