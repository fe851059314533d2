import dataclasses
import gc
import random
from collections import deque

import pytest

from reducto.core import NOT_EASY, EasyOutcome, SelfReduction, Setup, enumerate_moves, verify_path
from reducto.driver import check_quality_data, make_setup, random_formula, random_ksat
from reducto.learner import LinearEvaluator, ParamStore
from reducto.sat import Formula, TOP, easy_trivial
from reducto.search import SearchConfig, ams_search

FLIP_SETUP = make_setup("flip")
RES_SETUP = make_setup("resolution")


class StubEvaluator:
    """Fixed value and fixed priors, for steering the search in tests."""

    def __init__(self, value=0.5, priors=None):
        self._value = value
        self._priors = priors or {}

    def value(self, instance):
        return self._value

    def priors(self, instance, reduction_id, moves):
        fixed = self._priors.get((instance, reduction_id))
        if fixed is not None:
            return fixed
        return [1.0 / len(moves)] * len(moves) if moves else []


def fresh_evaluator():
    return LinearEvaluator(ParamStore())


def toy_setup(moves_map, easy_set):
    def easy(x):
        return EasyOutcome.solution(x) if x in easy_set else NOT_EASY

    reduction = SelfReduction("r", lambda x: moves_map.get(x, []), lambda x, x2, y: y)
    return Setup(easy=easy, reductions=(reduction,))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(horizon=0)
        with pytest.raises(ValueError):
            SearchConfig(budget=0)
        with pytest.raises(ValueError):
            SearchConfig(discount=0.0)
        with pytest.raises(ValueError):
            SearchConfig(discount=1.5)
        with pytest.raises(ValueError):
            SearchConfig(exploration=-1.0)


class TestTerminals:
    def test_root_already_easy(self):
        result = ams_search(TOP, RES_SETUP, fresh_evaluator(), SearchConfig())
        assert len(result.path) == 0
        assert result.terminal.kind == "solution"
        assert result.terminal.value == frozenset()
        assert result.quality.values[TOP] == (1.0, 1)

    def test_single_forced_move_to_easy(self):
        phi = Formula([[-1]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(horizon=4, budget=1))
        assert [rid for rid, _ in result.path.steps] == ["flip"]
        assert result.path.end == Formula([[1]])
        assert result.terminal.kind == "solution"
        assert result.terminal.value == frozenset([1])

    def test_dead_end_root(self):
        # The only flip of {{v},{-v}} is a self-move, so the root has no moves.
        phi = Formula([[1], [-1]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(budget=4))
        assert len(result.path) == 0
        assert result.terminal.kind == "not_easy"
        value, visits = result.quality.values[phi]
        assert value == 0.0 and visits == 1

    def test_easy_terminal_values_are_one(self):
        phi = Formula([[-1]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(budget=4))
        value, _ = result.quality.values[Formula([[1]])]
        assert value == 1.0


class TestHorizon:
    def test_path_respects_horizon(self):
        # Needs two resolution steps to certify; horizon 1 cuts it off.
        phi = Formula([[1, 3], [-1, 3], [-3]])
        cfg = SearchConfig(horizon=1, budget=16)
        result = ams_search(phi, RES_SETUP, fresh_evaluator(), cfg)
        assert len(result.path) <= 1
        assert result.terminal.kind == "not_easy"

    def test_deep_enough_horizon_certifies(self):
        phi = Formula([[1, 3], [-1, 3], [-3]])
        cfg = SearchConfig(horizon=4, budget=48)
        result = ams_search(phi, RES_SETUP, fresh_evaluator(), cfg)
        assert result.terminal.kind == "no_solution"
        assert verify_path(RES_SETUP, result.path)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        rng = random.Random(43)
        for _ in range(5):
            phi = random_ksat(rng, rng.randint(3, 5), 9)
            cfg = SearchConfig(horizon=6, budget=12)
            texts = {
                ams_search(phi, RES_SETUP, fresh_evaluator(), cfg).canonical_text()
                for _ in range(3)
            }
            assert len(texts) == 1

    def test_canonical_text_excludes_wall_time(self):
        phi = Formula([[-1]])
        cfg = SearchConfig(budget=2)
        a = ams_search(phi, FLIP_SETUP, fresh_evaluator(), cfg)
        slow = dataclasses.replace(a, stats=dataclasses.replace(a.stats, wall_time_s=123.25))
        assert slow.canonical_text() == a.canonical_text()
        assert "wall_time" not in a.canonical_text()
        assert "123.25" not in slow.canonical_text()


class TestSearchInvariants:
    def test_paths_verify_and_quality_is_consistent(self):
        rng = random.Random(47)
        for _ in range(15):
            phi = random_formula(rng, 4, 6)
            cfg = SearchConfig(horizon=5, budget=10)
            result = ams_search(phi, RES_SETUP, fresh_evaluator(), cfg)
            assert verify_path(RES_SETUP, result.path)
            assert len(result.path) <= cfg.horizon
            assert check_quality_data(result.quality, RES_SETUP) == []
            for value, visits in result.quality.values.values():
                assert 0.0 <= value <= 1.0
                assert visits >= 1

    def test_root_consumes_its_budget(self):
        phi = Formula([[1, 2], [-1, 2], [-2, 1]])
        cfg = SearchConfig(horizon=4, budget=9)
        result = ams_search(phi, RES_SETUP, fresh_evaluator(), cfg)
        _, visits = result.quality.values[phi]
        assert visits == 9

    def test_returned_path_never_revisits(self):
        moves = {0: [1], 1: [0]}
        setup = toy_setup(moves, easy_set=set())
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=6, budget=8))
        insts = list(result.path.instances())
        assert len(insts) == len(set(insts))

    def test_transpositions_share_statistics(self):
        # Two flip orders reach the same easy grandchild; it is explored once.
        phi = Formula([[-1], [-2]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(horizon=4, budget=12))
        assert len(result.quality.values) == 4
        assert result.terminal.kind == "solution"


class TestGuidance:
    def test_priors_steer_selection_after_forced_visits(self):
        moves = {0: [1, 2]}
        setup = toy_setup(moves, easy_set=set())
        evaluator = StubEvaluator(priors={(0, "r"): [0.1, 0.9]})
        result = ams_search(0, setup, evaluator, SearchConfig(horizon=3, budget=6))
        dist = result.quality.distributions[(0, "r")]
        assert dist[1] + dist[2] == 6
        assert dist[2] > dist[1]

    def test_known_easy_children_are_forced_first(self):
        moves = {0: [1, 2, 3]}
        setup = toy_setup(moves, easy_set={3})
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=3, budget=1))
        dist = result.quality.distributions[(0, "r")]
        assert dist[3] == 1 and dist[1] == 0 and dist[2] == 0
        assert result.path.end == 3

    def test_small_instance_optimality_probe(self):
        # Wherever shallow BFS finds an easy instance, a search with budget
        # branching**3 must end its path at an easy instance too.
        rng = random.Random(53)
        probes = 0
        for _ in range(60):
            phi = random_formula(rng, 4, 5)
            if easy_trivial(phi).is_easy:
                continue
            reachable, branching = _bfs_easy(RES_SETUP, phi, depth=3)
            if not reachable or branching > 8:
                continue
            probes += 1
            cfg = SearchConfig(horizon=3, budget=max(branching, 2) ** 3)
            result = ams_search(phi, RES_SETUP, fresh_evaluator(), cfg)
            assert result.terminal.is_easy, phi
        assert probes >= 5

    def test_budget_one_explores_single_branch(self):
        phi = Formula([[-1]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(horizon=2, budget=1))
        assert result.terminal.kind == "solution"


def _bfs_easy(setup, phi, depth):
    """Breadth-first probe of the move graph; returns (easy reachable, max branching)."""
    seen = {phi}
    frontier = deque([(phi, 0)])
    branching = 0
    while frontier:
        cur, d = frontier.popleft()
        if setup.easy(cur).is_easy:
            return True, branching
        if d == depth:
            continue
        moves = enumerate_moves(setup, cur, move_cap=64)
        branching = max(branching, len(moves))
        for _, nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    return False, branching


class TestMemory:
    def test_finished_search_is_freed_by_reference_counting(self):
        # A search leaves no reference cycles, so its node table and every
        # formula it built go as soon as the result is dropped, without
        # waiting for the cyclic garbage collector.
        rng = random.Random(17)
        phis = [random_ksat(rng, n, 3 * n) for n in (4, 6, 8)]
        gc.collect()
        gc.disable()
        try:
            for setup in (RES_SETUP, FLIP_SETUP):
                for phi in phis:
                    ams_search(phi, setup, fresh_evaluator(), SearchConfig(horizon=8, budget=12))
            assert gc.collect() == 0
        finally:
            gc.enable()
