"""Sampling tree search for a path from an instance to an easy instance.

The search is an adaptation of adaptive multistage sampling to deterministic
move graphs.  Each explored node holds per-move visit counts and accumulated
discounted returns; moves are picked by a UCB score seeded with evaluator
priors as pseudo-counts, with the first visit of every move forced.  Rewards
live in [0, 1]: easy instances are worth 1, dead ends 0, and instances cut
off at the horizon are worth the evaluator's value estimate.

As in a one-player game, the search ends when it is won: sampling stops at
the first pass whose descent reaches an easy instance, and that descent is the
returned path.  When no pass within the root's budget reaches one, the path is
empty.  Alongside the path, a search emits quality data: the visit-count
distribution over each explored (instance, reduction) pair and a value
estimate for every explored instance.  These feed the trainer.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

from .core import DEFAULT_MOVE_CAP, EasyOutcome, Path, Setup, enumerate_moves

PRIOR_WEIGHT = 1.0


class Evaluator(Protocol):
    """Belief source for the search: a value estimate and per-reduction move priors."""

    def value(self, instance: Any) -> float:
        """Estimated reward of ``instance`` in [0, 1]."""
        ...

    def priors(self, instance: Any, reduction_id: str, moves: list[Any]) -> list[float]:
        """Non-negative prior over ``moves``, summing to 1 (empty for no moves)."""
        ...


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for a search run.

    horizon     maximum path length in moves
    budget      sampling count per node
    exploration UCB exploration coefficient
    discount    per-move reward discount in (0, 1]
    move_cap    per-reduction cap passed to move enumeration
    """

    horizon: int = 12
    budget: int = 64
    exploration: float = 1.4
    discount: float = 0.95
    move_cap: int = DEFAULT_MOVE_CAP

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not (0.0 < self.discount <= 1.0):
            raise ValueError("discount must lie in (0, 1]")
        if self.exploration < 0:
            raise ValueError("exploration must be non-negative")
        if self.move_cap < 1:
            raise ValueError("move_cap must be at least 1")


@dataclass
class QualityData:
    """Per-run search statistics used as training targets.

    values maps each explored instance to (value estimate, visit count);
    distributions maps (instance, reduction id) to visit counts over moves.
    """

    values: dict[Any, tuple[float, int]] = field(default_factory=dict)
    distributions: dict[tuple[Any, str], dict[Any, int]] = field(default_factory=dict)

    @property
    def record_count(self) -> int:
        return len(self.values) + len(self.distributions)


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    evaluator_calls: int
    wall_time_s: float


@dataclass
class SearchResult:
    """Path found, the easy outcome at its end, quality data, and stats."""

    path: Path
    terminal: EasyOutcome
    quality: QualityData
    stats: SearchStats

    def canonical_text(self) -> str:
        """Deterministic serialization for comparing runs; excludes wall time."""
        sol = self.terminal.value
        payload = {
            "path": {
                "start": self.path.start.digest,
                "steps": [[rid, inst.digest] for rid, inst in self.path.steps],
            },
            "terminal": {
                "kind": self.terminal.kind,
                "solution": sorted(sol) if sol is not None else None,
            },
            "values": sorted(
                [inst.digest, value, visits]
                for inst, (value, visits) in self.quality.values.items()
            ),
            "distributions": sorted(
                [inst.digest, rid, sorted([m.digest, n] for m, n in dist.items())]
                for (inst, rid), dist in self.quality.distributions.items()
            ),
            "stats": {
                "nodes_expanded": self.stats.nodes_expanded,
                "evaluator_calls": self.stats.evaluator_calls,
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Node:
    __slots__ = ("instance", "easy", "children", "child_easy", "priors", "counts", "totals", "samples")

    def __init__(self, instance: Any, easy: EasyOutcome):
        self.instance = instance
        self.easy = easy
        self.children: list[tuple[str, Any]] | None = None
        self.child_easy: list[bool] = []
        self.priors: list[float] = []
        self.counts: list[int] = []
        self.totals: list[float] = []
        self.samples = 0


def ams_search(x: Any, setup: Setup, evaluator: Evaluator, cfg: SearchConfig) -> SearchResult:
    """Search for a path from ``x`` to an easy instance.

    Runs up to ``cfg.budget`` sampling passes from the root, sharing
    statistics between canonically identical instances, and stops after the
    first pass whose descent reaches an easy instance; that descent, already
    backed up, is the path.  If no pass reaches one, the path is empty and
    the root has spent its whole budget.  Deterministic for fixed inputs in
    this single-threaded implementation.
    """
    t0 = time.perf_counter()
    tt: dict[Any, _Node] = {}
    easy_cache: dict[Any, EasyOutcome] = {}
    value_cache: dict[Any, float] = {}
    calls = [0]

    def easy_of(f: Any) -> EasyOutcome:
        out = easy_cache.get(f)
        if out is None:
            out = setup.easy(f)
            easy_cache[f] = out
        return out

    def eval_value(f: Any) -> float:
        v = value_cache.get(f)
        if v is None:
            v = min(1.0, max(0.0, float(evaluator.value(f))))
            value_cache[f] = v
            calls[0] += 1
        return v

    def ensure_node(f: Any) -> _Node:
        node = tt.get(f)
        if node is None:
            node = _Node(f, easy_of(f))
            tt[f] = node
        return node

    def expand(node: _Node) -> None:
        if node.children is not None:
            return
        moves = enumerate_moves(setup, node.instance, move_cap=cfg.move_cap)
        node.children = moves
        node.child_easy = [easy_of(m).is_easy for _, m in moves]
        k = len(moves)
        node.counts = [0] * k
        node.totals = [0.0] * k
        if not moves:
            return
        blocks: list[tuple[str, list[Any]]] = []
        for rid, m in moves:
            if blocks and blocks[-1][0] == rid:
                blocks[-1][1].append(m)
            else:
                blocks.append((rid, [m]))
        priors: list[float] = []
        for rid, ms in blocks:
            p = evaluator.priors(node.instance, rid, ms)
            calls[0] += 1
            priors.extend(pi / len(blocks) for pi in p)
        node.priors = priors

    def node_value(node: _Node) -> float:
        if node.easy.is_easy:
            return 1.0
        if node.children is not None and not node.children:
            return 0.0
        if node.samples:
            return sum(node.totals) / node.samples
        return eval_value(node.instance)

    def select(node: _Node) -> int:
        unvisited = [i for i, n in enumerate(node.counts) if n == 0]
        if unvisited:
            for i in unvisited:
                if node.child_easy[i]:
                    return i
            return unvisited[0]
        w = PRIOR_WEIGHT
        c = cfg.exploration
        log_t = math.log(node.samples + w * len(node.counts))
        best_i = 0
        best = -math.inf
        for i in range(len(node.counts)):
            n = node.counts[i] + w
            mean = (node.totals[i] + w * node.priors[i]) / n
            score = mean + c * math.sqrt(log_t / n)
            if score > best:
                best = score
                best_i = i
        return best_i

    def sample(f: Any) -> list[tuple[_Node, int]]:
        # One pass descends from ``f`` choosing a move per node, then backs the
        # leaf's reward up the descent, deepest node first.  Returns the
        # descent if its leaf is easy, else an empty list.  A loop rather than
        # recursion: a nested function that calls itself is a reference cycle,
        # which would leave every node table to the cyclic garbage collector.
        descent: list[tuple[_Node, int]] = []
        while True:
            if easy_of(f).is_easy:
                ensure_node(f)
                v = 1.0
                break
            if len(descent) >= cfg.horizon:
                v = eval_value(f)
                break
            node = ensure_node(f)
            expand(node)
            if not node.children:
                v = 0.0
                break
            if node.samples >= cfg.budget:
                v = node_value(node)
                break
            i = select(node)
            descent.append((node, i))
            f = node.children[i][1]
        for node, i in reversed(descent):
            node.counts[i] += 1
            node.totals[i] += cfg.discount * v
            node.samples += 1
            v = node_value(node)
        return descent if easy_of(f).is_easy else []

    # The game is won at the first easy leaf: stop sampling and return that
    # descent.  It never revisits an instance, because no statistics change
    # within a descent, so one that came back would loop to the horizon.
    winning: list[tuple[_Node, int]] = []
    root = ensure_node(x)
    if not root.easy.is_easy:
        expand(root)
        if root.children:
            for _ in range(cfg.budget):
                winning = sample(x)
                if winning:
                    break

    path = Path(x, tuple(node.children[i] for node, i in winning))
    quality = QualityData()
    for f, node in tt.items():
        quality.values[f] = (node_value(node), node.samples if node.samples else 1)
        if node.children:
            for i, (rid, m) in enumerate(node.children):
                quality.distributions.setdefault((f, rid), {})[m] = node.counts[i]

    stats = SearchStats(
        nodes_expanded=len(tt),
        evaluator_calls=calls[0],
        wall_time_s=time.perf_counter() - t0,
    )
    return SearchResult(path=path, terminal=easy_of(path.end), quality=quality, stats=stats)
