"""Generic machinery for solving search problems as one-player games.

A *setup* pairs an easy-instance solver with a finite list of self-reductions.
Each self-reduction offers moves from an instance to successor instances and
knows how to map a successor's solution back to a solution of the original.
A *path* is a start instance followed by (reduction id, instance) steps; if it
ends at an easy instance, solutions are recovered by lifting backwards.

Instances are opaque to this module.  They must be hashable and compare by
canonical form; each move function lists its moves in the canonical order
of its domain.  The bundled SAT domain satisfies all of this; other domains
can plug in the same way, and ``one_move`` builds a reduction that makes at
most one move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class SolveAnswer:
    """Verdict of a solver: a solution, no solution, or don't know.

    An easy-instance solver answers the same way, with ``dont_know`` meaning
    the instance is not easy.
    """

    kind: str
    value: Any = None

    _KINDS = ("solution", "no_solution", "dont_know")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown answer kind {self.kind!r}")
        if self.kind == "solution" and self.value is None:
            raise ValueError("solution answer requires a value")
        if self.kind != "solution" and self.value is not None:
            raise ValueError(f"{self.kind} answer carries no value")

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


@dataclass(frozen=True)
class SelfReduction:
    """A named pair of a move function and a solution (lift) function.

    ``moves(x)`` returns a finite sequence of successor instances: distinct,
    none equal to ``x``, in canonical order.  Every successor of a solvable
    instance must itself be solvable.  ``identify(x, x2)`` recognises one
    step: it returns a witness of the move, anything but None, exactly when
    ``x2 in moves(x)``, and None otherwise.  ``lift(x, witness, y)`` maps a
    solution ``y`` of that successor back to a solution of ``x``, using the
    witness ``identify`` returned instead of working the step out again.
    ``verify_path`` and the quality-data check ask ``identify`` and never
    list moves.  All three must be pure functions of their arguments.
    """

    id: str
    moves: Callable[[Instance], Sequence[Instance]]
    lift: Callable[[Instance, Any, Solution], Solution]
    identify: Callable[[Instance, Instance], Any] = field(compare=False, repr=False)

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
    ``identify(x, x2)`` runs ``step(x)`` once and, when it makes ``x2``,
    returns its witness, which ``lift(x, witness, y)`` then consumes.
    """

    def moves(x: Instance) -> list[Instance]:
        x2, _ = step(x)
        return [] if x2 == x else [x2]

    def identify(x: Instance, x2: Instance) -> Any:
        successor, witness = step(x)
        return None if successor != x2 or x2 == x else witness

    return SelfReduction(reduction_id, moves, lift, identify)


@dataclass(frozen=True)
class Setup:
    """Game rules for a search problem: an easy-instance solver plus reductions."""

    easy: Callable[[Instance], SolveAnswer]
    reductions: tuple[SelfReduction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reductions", tuple(self.reductions))
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


@dataclass(frozen=True)
class Path:
    """A start instance followed by (reduction id, instance) steps."""

    start: Instance
    steps: tuple[tuple[str, Instance], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((rid, inst) for rid, inst in self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> Instance:
        return self.steps[-1][1] if self.steps else self.start


def verify_path(setup: Setup, path: Path) -> list[Any] | None:
    """Identify every step of ``path`` with its reduction's ``identify``.

    Returns the witnesses, one per step, or None when a step is not a move.
    A zero-length path verifies to ``[]``, so callers test ``is None``.
    Referencing a reduction id the setup does not define raises
    UnknownReductionError rather than returning None.
    """
    witnesses = []
    prev = path.start
    for rid, inst in path.steps:
        witness = setup.reduction(rid).identify(prev, inst)
        if witness is None:
            return None
        witnesses.append(witness)
        prev = inst
    return witnesses


def lift_solution(
    setup: Setup,
    path: Path,
    witnesses: Sequence[Any],
    y: Solution,
    check: Callable[[Instance, Solution], bool] | None = None,
) -> Solution:
    """Lift a solution of the path's final instance back to the start.

    Applies the step reductions' lift functions right to left, each to the
    witness ``verify_path`` returned for its step.  ``check``, if given, is
    called as ``check(instance, candidate)`` after every lift; a failing
    check (or an exception inside a lift) raises LiftIntegrityError
    identifying the offending step.
    """
    sol = y
    for i in range(len(path.steps) - 1, -1, -1):
        rid = path.steps[i][0]
        prev = path.steps[i - 1][1] if i > 0 else path.start
        reduction = setup.reduction(rid)
        try:
            sol = reduction.lift(prev, witnesses[i], sol)
        except Exception as exc:
            raise LiftIntegrityError(i + 1, rid, str(exc)) from exc
        if check is not None and not check(prev, sol):
            raise LiftIntegrityError(i + 1, rid, "lifted value is not a solution")
    return sol


def enumerate_moves(
    setup: Setup,
    x: Instance,
    move_cap: int = DEFAULT_MOVE_CAP,
) -> list[tuple[str, Instance]]:
    """All moves from ``x``, as (reduction id, instance) pairs in setup order.

    Each reduction contributes its moves in its own canonical order, cut to
    the first ``move_cap`` of them.
    """
    return [(r.id, m) for r in setup.reductions for m in r.moves(x)[:move_cap]]
