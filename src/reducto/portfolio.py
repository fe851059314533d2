"""The portfolio setup: simplifier rules and external solvers as self-reductions.

Every member is an ordinary self-reduction, so per-instance algorithm
selection falls out of the ordinary path search, and a path step names the
member that made it.  The builtin members are the ``sat.py`` rules unit
propagation and variable elimination; the latter is the rule object the
``resolution`` setup runs too.  External members run as child
processes speaking DIMACS on stdin and either a solver result or a
transformed DIMACS formula on stdout; a member that crashes, times out, or
talks garbage simply contributes no move.  Each external member is a
``core.one_move`` rule: identifying a step checks that the member's output
is the move, and the lift applies the lift kept with that output.  It keeps
its output per formula, so path verification sees what the search saw and
its child process runs once per formula.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import Setup, one_move
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .sat import (
    Assignment,
    BOTTOM,
    ELIMINATION,
    Formula,
    TOP,
    UNIT_PROPAGATION,
    assignment,
    easy_combined,
    satisfies,
)

DEFAULT_EXTERNAL_TIMEOUT = 10.0

Lift = Callable[[Assignment], Assignment]


class MemberFailure(Exception):
    """A portfolio member failed (crash, timeout, or unusable output)."""


@dataclass(frozen=True)
class ExternalMember:
    """A child-process member invoked with DIMACS on stdin.

    Accepted outputs: ``s SATISFIABLE`` with ``v`` witness lines (verified
    against the input before being trusted), ``s UNSATISFIABLE``, or a
    complete DIMACS formula, which is taken as an identity-lift transform.
    Anything else is a member failure, never a wrong answer.  ``step``
    keeps its result per formula, so move generation and path verification
    see one run of the child process, and output that changes between runs
    cannot fail a good path.  ``failures`` holds the reason of
    each failed run, so callers can report them; it never influences results.
    """

    id: str
    command: tuple[str, ...]
    timeout: float = DEFAULT_EXTERNAL_TIMEOUT
    failures: list[str] = field(default_factory=list, init=False, compare=False, repr=False)
    _steps: dict[Formula, tuple[Formula, Lift | None]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def step(self, phi: Formula) -> tuple[Formula, Lift | None]:
        """The member's output and its lift; on a failure, which ``failures``
        records, ``phi`` itself, which is no move.  The child process runs at
        the first call for ``phi`` only."""
        out = self._steps.get(phi)
        if out is None:
            try:
                out = self.transform(phi)
            except MemberFailure as exc:
                self.failures.append(str(exc))
                out = phi, None
            self._steps[phi] = out
        return out

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
            transformed = parse_dimacs(stdout, strict=True)
        except DimacsError as exc:
            raise MemberFailure(f"{self.id}: unparseable output") from exc
        return transformed, lambda y: y


def portfolio_setup(externals: Sequence[ExternalMember] = ()) -> Setup:
    """The builtin member rules, then ``externals``, under the combined easy solver."""
    members = [one_move(m.id, m.step, lambda x, lift, y: lift(y)) for m in externals]
    return Setup(
        easy=easy_combined,
        reductions=(UNIT_PROPAGATION, ELIMINATION, *members),
    )
