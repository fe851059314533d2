"""End-to-end solving: setups registry, answer extraction, training, engines.

A solve run follows the four-step loop: search for a path, turn the terminal
easy outcome into an answer (lifting a solution backwards when one exists),
merge the run's quality data with history, and train updated parameters on
the run's data plus a bounded window of the newest history.
Solution answers are always re-verified before being emitted, and a
"no solution" answer requires a verified path ending at an easy instance
whose solver certified unsatisfiability.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterator

from .core import (
    LiftIntegrityError,
    Setup,
    SolveAnswer,
    lift_solution,
    verify_path,
)
from .dimacs import emit_dimacs
from .learner import (
    DeltaStore,
    DistRecord,
    LinearEvaluator,
    ParamStore,
    ValueRecord,
    merge_window,
    quality_records,
    train,
)
from .portfolio import portfolio_setup
from .sat import (
    BLOCKED_CLAUSE,
    EXTENSION,
    FLIP,
    Formula,
    RESOLUTION,
    SUBSUMPTION,
    clause,
    easy_all_positive,
    easy_trivial,
    oracle_solve,
    satisfies,
)
from .search import QualityData, SearchConfig, SearchResult, ams_search

SETUP_NAMES = ("resolution", "resolution-ext", "flip", "portfolio")

# Search settings of selfcheck and bench: short searches keep runs over many
# instances cheap.
CHECK_CONFIG = SearchConfig(horizon=8, budget=12)


def make_setup(name: str) -> Setup:
    """Named setups: the three rule systems plus the builtin portfolio."""
    if name == "resolution":
        return Setup(
            easy=easy_trivial,
            reductions=(RESOLUTION, SUBSUMPTION, BLOCKED_CLAUSE),
        )
    if name == "resolution-ext":
        return Setup(
            easy=easy_trivial,
            reductions=(RESOLUTION, SUBSUMPTION, BLOCKED_CLAUSE, EXTENSION),
        )
    if name == "flip":
        return Setup(easy=easy_all_positive, reductions=(FLIP,))
    if name == "portfolio":
        return portfolio_setup()
    raise ValueError(f"unknown setup {name!r}; expected one of {', '.join(SETUP_NAMES)}")


@dataclass
class RunReport:
    """Everything observable about one solve run."""

    answer_kind: str
    path_length: int
    terminal_kind: str
    nodes_expanded: int
    evaluator_calls: int
    wall_time_s: float
    quality: QualityData
    diagnostics: tuple[str, ...] = ()
    # The quality data as log records; built only by a run that trains.
    records: tuple[ValueRecord | DistRecord, ...] = ()


def derive_answer(setup: Setup, x: Formula, result: SearchResult) -> tuple[SolveAnswer, list[str]]:
    """Map a search result to an answer, verifying everything that is claimed."""
    terminal = result.terminal
    if terminal.kind == "not_easy":
        return SolveAnswer.dont_know(), []
    if not verify_path(setup, result.path):
        return SolveAnswer.dont_know(), ["search returned a path that does not verify"]
    if terminal.kind == "no_solution":
        return SolveAnswer.no_solution(), []
    try:
        lifted = lift_solution(
            setup,
            result.path,
            terminal.value,
            check=lambda inst, sol: satisfies(sol, inst),
        )
    except LiftIntegrityError as exc:
        return SolveAnswer.dont_know(), [f"lift integrity failure: {exc}"]
    if not satisfies(lifted, x):
        return SolveAnswer.dont_know(), ["lifted solution failed the final check"]
    return SolveAnswer.solution(lifted), []


def solve(
    x: Formula,
    setup_name: str,
    theta: ParamStore,
    cfg: SearchConfig,
    history: DeltaStore | None = None,
    train_after: bool = True,
    epochs: int | None = None,
    learning_rate: float | None = None,
    curriculum: bool = False,
) -> tuple[SolveAnswer, ParamStore, RunReport]:
    """Solve ``x`` with the named setup: search, answer, then merge and train.

    ``history`` is the quality store of previous runs; it is merged with this
    run's quality data in place.  Training fits the run's records plus the
    newest ``learner.REPLAY_WINDOW`` records of history (``merge_window``),
    so its cost does not grow with the history.  With ``train_after`` false
    the parameters are returned unchanged.
    """
    setup = make_setup(setup_name)
    evaluator = LinearEvaluator(theta)
    result = ams_search(x, setup, evaluator, cfg)
    answer, diagnostics = derive_answer(setup, x, result)

    theta_after = theta
    records: list[ValueRecord | DistRecord] = []
    if train_after:
        records = quality_records(result.quality, evaluator.features)
        window = merge_window(history if history is not None else DeltaStore(), records)
        if not window.is_empty:
            kwargs = {}
            if epochs is not None:
                kwargs["epochs"] = epochs
            if learning_rate is not None:
                kwargs["learning_rate"] = learning_rate
            theta_after = train(theta, window, curriculum=curriculum, **kwargs)

    report = RunReport(
        answer_kind=answer.kind,
        path_length=len(result.path),
        terminal_kind=result.terminal.kind,
        nodes_expanded=result.stats.nodes_expanded,
        evaluator_calls=result.stats.evaluator_calls,
        wall_time_s=result.stats.wall_time_s,
        quality=result.quality,
        diagnostics=tuple(diagnostics),
        records=tuple(records),
    )
    return answer, theta_after, report


# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------


def random_ksat(rng: random.Random, n_vars: int, n_clauses: int, k: int = 3) -> Formula:
    """Fixed-width random CNF: ``n_clauses`` distinct clauses of width ``min(k, n_vars)``.

    May return fewer clauses when the requested count exceeds what distinct
    sampling can find within a bounded number of attempts.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    width = min(k, n_vars)
    clauses: set[tuple[int, ...]] = set()
    attempts = 0
    while len(clauses) < n_clauses and attempts < 50 * (n_clauses + 1):
        attempts += 1
        vs = rng.sample(range(1, n_vars + 1), width)
        clauses.add(clause(v if rng.random() < 0.5 else -v for v in vs))
    return Formula(clauses)


def _check_instances(count: int, max_vars: int, seed: int, ratio: float) -> Iterator[Formula]:
    """The seeded random 3-SAT instances of selfcheck and bench."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min(3, max_vars), max_vars)
        yield random_ksat(rng, n, max(1, round(ratio * n)))


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


# ---------------------------------------------------------------------------
# Self-checking and benchmarking engines
# ---------------------------------------------------------------------------


def check_quality_data(quality: QualityData, setup: Setup) -> list[str]:
    """Integrity check of one run's quality data against the move rules.

    Verifies that every positively-counted move is a genuine move of its
    reduction and that per-instance distribution counts sum to the visits
    recorded for that instance.
    """
    violations: list[str] = []
    routed: dict = {}
    for (inst, rid), dist in quality.distributions.items():
        legal = None
        for move, count in dist.items():
            if count < 0:
                violations.append(f"negative count for {rid} at {inst.digest}")
            if count > 0:
                if legal is None:
                    legal = set(setup.reduction(rid).moves(inst))
                if move not in legal:
                    violations.append(f"counted non-move for {rid} at {inst.digest}")
        routed[inst] = routed.get(inst, 0) + sum(dist.values())
    for inst, total in routed.items():
        _, visits = quality.values[inst]
        if total != visits:
            violations.append(
                f"counts at {inst.digest} sum to {total} but {visits} samples were spent"
            )
    return violations


@dataclass
class SelfcheckReport:
    instances: int = 0
    solutions: int = 0
    no_solutions: int = 0
    dont_know: int = 0
    contradictions: list[str] = field(default_factory=list)
    quality_violations: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.contradictions and not self.quality_violations


def run_selfcheck(
    n_instances: int,
    max_vars: int,
    seed: int,
    setup_name: str,
    cfg: SearchConfig = CHECK_CONFIG,
    ratio: float = 3.0,
) -> SelfcheckReport:
    """Solve seeded random instances and cross-check every answer with the oracle.

    Any disagreement is a contradiction and carries the offending instance as
    DIMACS text; every run's quality data is checked against the move rules.
    Runs use fresh parameters and do not train, so long selfchecks stay
    linear in the instance count.
    """
    t0 = time.perf_counter()
    theta = ParamStore()
    setup = make_setup(setup_name)
    report = SelfcheckReport(instances=n_instances)
    for phi in _check_instances(n_instances, max_vars, seed, ratio):
        answer, _, run = solve(phi, setup_name, theta, cfg, train_after=False)
        report.quality_violations.extend(check_quality_data(run.quality, setup))
        verdict = oracle_solve(phi)
        if answer.kind == "solution":
            report.solutions += 1
            if not satisfies(answer.value, phi):
                report.contradictions.append(emit_dimacs(phi))
            elif not verdict.satisfiable:
                report.contradictions.append(emit_dimacs(phi))
        elif answer.kind == "no_solution":
            report.no_solutions += 1
            if verdict.satisfiable:
                report.contradictions.append(emit_dimacs(phi))
        else:
            report.dont_know += 1
    report.wall_time_s = time.perf_counter() - t0
    return report


@dataclass
class BenchRow:
    setup: str
    instances: int
    solved: int
    solve_rate: float
    mean_path_length: float
    mean_evaluator_calls: float
    wall_time_s: float


BENCH_HEADER = "setup,instances,solved,solve_rate,mean_path_length,mean_evaluator_calls,wall_time_s"


def bench_row_text(row: BenchRow) -> str:
    return (
        f"{row.setup},{row.instances},{row.solved},{row.solve_rate:.6f},"
        f"{row.mean_path_length:.3f},{row.mean_evaluator_calls:.3f},{row.wall_time_s:.3f}"
    )


def run_bench(
    setup_names: list[str],
    n_instances: int,
    max_vars: int,
    seed: int,
    cfg: SearchConfig = CHECK_CONFIG,
    ratio: float = 3.0,
    theta: ParamStore | None = None,
) -> list[BenchRow]:
    """Solve the same seeded instance set under each setup; no training."""
    theta = theta if theta is not None else ParamStore()
    for name in setup_names:
        make_setup(name)  # validate early
    rows = []
    for name in setup_names:
        t0 = time.perf_counter()
        solved = 0
        path_lengths = []
        evaluator_calls = []
        for phi in _check_instances(n_instances, max_vars, seed, ratio):
            answer, _, report = solve(phi, name, theta, cfg, train_after=False)
            if answer.kind in ("solution", "no_solution"):
                solved += 1
            path_lengths.append(report.path_length)
            evaluator_calls.append(report.evaluator_calls)
        count = max(n_instances, 1)
        rows.append(
            BenchRow(
                setup=name,
                instances=n_instances,
                solved=solved,
                solve_rate=solved / count,
                mean_path_length=sum(path_lengths) / count,
                mean_evaluator_calls=sum(evaluator_calls) / count,
                wall_time_s=time.perf_counter() - t0,
            )
        )
    return rows
