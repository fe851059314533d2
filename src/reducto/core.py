"""Generic machinery for solving search problems as one-player games.

A *setup* pairs an easy-instance solver with a finite list of self-reductions.
Each self-reduction offers moves from an instance to successor instances and
knows how to map a successor's solution back to a solution of the original.
A *path* is a start instance followed by the moves taken, each a (reduction
id, instance, witness) step; if it ends at an easy instance, solutions are
recovered by lifting backwards through the steps' witnesses.

Instances are opaque to this module.  They must be hashable and compare by
canonical form; each move function lists its moves in the canonical order
of its domain, and is the only definition of them: a step is a move when
its reduction lists it.  A successor may defer building its canonical form
until it is first compared or hashed, as the SAT domain's resolution and
extension moves do, so an offered move that is never visited costs little.
The bundled SAT domain satisfies all of this; other domains can plug in the
same way, and ``one_move`` builds a reduction that makes at most one move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

Instance = Any
Solution = Any

DEFAULT_MOVE_CAP = 256


class UnknownReductionError(KeyError):
    """A path or caller referenced a reduction id the setup does not define."""


class LiftIntegrityError(RuntimeError):
    """A backward lift produced a non-solution, breaching the reduction contract."""

    def __init__(self, step: int, reduction_id: str, detail: str = ""):
        msg = f"lift failed at step {step} (reduction {reduction_id!r})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.step = step
        self.reduction_id = reduction_id


class SolveAnswer:
    """Verdict of a solver: a solution, no solution, or don't know.

    An easy-instance solver answers the same way, with ``dont_know`` meaning
    the instance is not easy.  Answers compare and hash by kind and value.
    """

    __slots__ = ("kind", "value")
    _KINDS = ("solution", "no_solution", "dont_know")

    def __init__(self, kind: str, value: Any = None):
        if kind not in self._KINDS:
            raise ValueError(f"unknown answer kind {kind!r}")
        if kind == "solution" and value is None:
            raise ValueError("solution answer requires a value")
        if kind != "solution" and value is not None:
            raise ValueError(f"{kind} answer carries no value")
        self.kind, self.value = kind, value

    def __eq__(self, other: object) -> bool:
        return type(other) is SolveAnswer and (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    @classmethod
    def solution(cls, value: Solution) -> "SolveAnswer":
        return cls("solution", value)

    @classmethod
    def no_solution(cls) -> "SolveAnswer":
        return cls("no_solution")

    @classmethod
    def dont_know(cls) -> "SolveAnswer":
        return cls("dont_know")

    @property
    def is_easy(self) -> bool:
        return self.kind != "dont_know"


# Shared verdicts: easy checks run on every instance the search meets.
DONT_KNOW = SolveAnswer.dont_know()
NO_SOLUTION = SolveAnswer.no_solution()


# The one dataclass: perfbench's traced runs rebuild rules with dataclasses.replace.
@dataclass(frozen=True)
class SelfReduction:
    """A named pair of a move function and a solution (lift) function.

    ``moves(x)`` returns a finite sequence of ``(successor, witness)`` pairs,
    successors distinct, none equal to ``x``, in canonical order.  Every
    successor of a solvable instance must itself be solvable.  ``lift(x,
    witness, y)`` maps a solution ``y`` of that successor back to a solution
    of ``x`` through the move's witness, without working the step out again.
    A witness is anything but None.  ``moves`` is the rule's only definition
    of its moves: a path step is one of its pairs, tagged with the rule's
    id, and ``verify_path`` and the quality-data check test membership in
    the list.  Both must be pure functions of their arguments; the SAT
    domain relies on this to memoise the listings of its elimination and
    unit-propagation rules, so a path check reads the list the search made.
    """

    id: str
    moves: Callable[[Instance], Sequence[tuple[Instance, Any]]]
    lift: Callable[[Instance, Any, Solution], Solution]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("reduction id must be non-empty")


def identity_lift(x: Instance, witness: Any, y: Solution) -> Solution:
    """The lift of a reduction whose successors' solutions solve the source."""
    return y


def one_move(
    reduction_id: str,
    step: Callable[[Instance], tuple[Instance, Any]],
    lift: Callable[[Instance, Any, Solution], Solution],
) -> SelfReduction:
    """A self-reduction whose only move, if any, is the successor ``step`` makes.

    ``step(x)`` returns ``(successor, witness)``; a successor equal to ``x``
    is no move, and a step that moves returns a witness that is not None.
    ``moves(x)`` pairs the successor with that witness.
    """

    def moves(x: Instance) -> list[tuple[Instance, Any]]:
        x2, witness = step(x)
        return [] if x2 == x else [(x2, witness)]

    return SelfReduction(reduction_id, moves, lift)


class Setup:
    """Game rules for a search problem: an easy-instance solver plus reductions."""

    __slots__ = ("easy", "reductions")

    def __init__(
        self, easy: Callable[[Instance], SolveAnswer], reductions: Sequence[SelfReduction]
    ):
        self.easy = easy
        self.reductions = tuple(reductions)
        if not self.reductions:
            raise ValueError("a setup needs at least one self-reduction")
        ids = [r.id for r in self.reductions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate reduction ids: {ids}")

    def reduction(self, reduction_id: str) -> SelfReduction:
        for r in self.reductions:
            if r.id == reduction_id:
                return r
        raise UnknownReductionError(reduction_id)


class Path:
    """A start instance followed by the moves taken: (reduction id, instance, witness) steps."""

    __slots__ = ("start", "steps")

    def __init__(self, start: Instance, steps: Sequence[tuple[str, Instance, Any]] = ()):
        self.start = start
        self.steps = tuple((rid, inst, w) for rid, inst, w in steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> Instance:
        return self.steps[-1][1] if self.steps else self.start


def verify_path(setup: Setup, path: Path) -> bool:
    """Whether every step of ``path`` is a move its reduction lists from the step before.

    A step is a move when its (instance, witness) pair is among the pairs
    ``moves`` returns.  A found path is made of listed moves; this check is
    for a path trusted step by step, such as a refutation.  Referencing a
    reduction id the setup does not define raises UnknownReductionError
    rather than returning False.
    """
    prev = path.start
    for rid, inst, witness in path.steps:
        if (inst, witness) not in setup.reduction(rid).moves(prev):
            return False
        prev = inst
    return True


def lift_solution(
    setup: Setup,
    path: Path,
    y: Solution,
    check: Callable[[Instance, Solution], bool] | None = None,
) -> Solution:
    """Lift a solution of the path's final instance back to the start.

    Applies the step reductions' lift functions right to left, each to its
    step's own witness.  ``check``, if given, is called as ``check(instance,
    candidate)`` after every lift; a failing check (or an exception inside a
    lift) raises LiftIntegrityError identifying the offending step.
    """
    sol = y
    for i in range(len(path.steps) - 1, -1, -1):
        rid, _, witness = path.steps[i]
        prev = path.steps[i - 1][1] if i > 0 else path.start
        lift = setup.reduction(rid).lift
        try:
            sol = lift(prev, witness, sol)
        except Exception as exc:
            raise LiftIntegrityError(i + 1, rid, str(exc)) from exc
        if check is not None and not check(prev, sol):
            raise LiftIntegrityError(i + 1, rid, "lifted value is not a solution")
    return sol


def enumerate_moves(
    setup: Setup,
    x: Instance,
    move_cap: int = DEFAULT_MOVE_CAP,
) -> list[tuple[str, Instance, Any]]:
    """All moves from ``x``, as (reduction id, instance, witness) triples in setup order.

    Each reduction contributes its moves in its own canonical order, cut to
    the first ``move_cap`` of them.
    """
    return [(r.id, m, w) for r in setup.reductions for m, w in r.moves(x)[:move_cap]]
