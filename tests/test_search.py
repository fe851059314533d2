import dataclasses
import gc
import hashlib
import json
import random
from collections import deque

import pytest

from reducto.core import DONT_KNOW, SelfReduction, Setup, SolveAnswer, enumerate_moves, verify_path
from reducto.driver import (
    CHECK_CONFIG,
    SETUP_NAMES,
    _check_instances,
    check_quality_data,
    derive_answer,
    make_setup,
    random_ksat,
    solve,
)
from reducto.learner import FEATURE_NAMES, LinearEvaluator, ParamStore
from reducto.sat import Formula, TOP, easy_trivial
from reducto import search
from reducto.search import QualityData, SearchConfig, SearchResult, ams_search

from helpers import random_formula

FLIP_SETUP = make_setup("flip")
RES_SETUP = make_setup("resolution")
# A move graph 0 -> {1, 2} -> 3 -> 4 with one transposition, at node 3.
DIAMOND = {0: [1, 2], 1: [3], 2: [3], 3: [4]}


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
        return SolveAnswer.solution(x) if x in easy_set else DONT_KNOW

    reduction = SelfReduction(
        "r",
        lambda x: [(m, True) for m in moves_map.get(x, [])],
        lambda x, w, y: y,
    )
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
        with pytest.raises(ValueError):
            SearchConfig(exploration=float("nan"))
        with pytest.raises(ValueError):
            SearchConfig(exploration=float("inf"))
        # Counts must be ints: a float move cap used to reach a slice.
        for bad in (2.5, 2.0, True, "3", None):
            for name in ("horizon", "budget", "move_cap"):
                with pytest.raises(ValueError, match=f"{name} must be an int"):
                    SearchConfig(**{name: bad})


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
        assert result.path.steps == (("flip", Formula([[1]]), 1),)
        assert result.path.end == Formula([[1]])
        assert result.terminal.kind == "solution"
        assert result.terminal.value == frozenset([1])

    def test_dead_end_root(self):
        # The only flip of {{v},{-v}} is a self-move, so the root has no moves.
        phi = Formula([[1], [-1]])
        result = ams_search(phi, FLIP_SETUP, fresh_evaluator(), SearchConfig(budget=4))
        assert len(result.path) == 0
        assert result.terminal.kind == "dont_know"
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
        assert result.terminal.kind == "dont_know"

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
        slow = SearchResult(
            a.path,
            a.terminal,
            a.quality,
            a.stats._replace(wall_time_s=123.25),
        )
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
        # The root spends its whole budget unless a sample reaches an easy
        # instance.  Nothing in the diamond is easy.
        setup = toy_setup(DIAMOND, easy_set=set())
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=6, budget=9))
        assert result.quality.values[0][1] == 9
        assert len(result.path) == 0
        # Here the first sample reaches an easy instance, and the search stops.
        phi = Formula([[1, 2], [-1, 2], [-2, 1]])
        result = ams_search(phi, RES_SETUP, fresh_evaluator(), SearchConfig(horizon=4, budget=9))
        assert result.terminal.is_easy
        assert result.quality.values[phi][1] == 1

    def test_a_two_cycle_spends_the_roots_budget_in_fewer_passes(self):
        # 0 -> 1 -> 0: a descent comes back to the root and is backed up there
        # once per visit, so the root's visits reach the budget first.
        setup = toy_setup({0: [1], 1: [0]}, easy_set=set())
        cfg = SearchConfig(horizon=6, budget=9)
        result = ams_search(0, setup, StubEvaluator(), cfg)
        visits = result.quality.values[0][1]
        assert visits >= cfg.budget
        assert result.stats.samples < visits
        assert sum(result.quality.distributions[(0, "r")].values()) == visits
        assert len(result.path) == 0

    def test_transpositions_share_statistics(self):
        # Both branches of the diamond lead to node 3, which is explored once
        # and counts the samples of both.
        setup = toy_setup(DIAMOND, easy_set=set())
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=6, budget=8))
        quality = result.quality
        assert sorted(quality.values) == [0, 1, 2, 3, 4]
        via_1, via_2 = quality.distributions[(1, "r")][3], quality.distributions[(2, "r")][3]
        assert via_1 > 0 and via_2 > 0
        assert quality.values[3][1] == via_1 + via_2 == 8


def is_built(f: Formula) -> bool:
    """Whether ``f``'s clause tuple exists yet; a pending successor leaves it unset."""
    try:
        Formula.clauses.__get__(f)
    except AttributeError:
        return False
    return True


class ValueRecorder:
    """The fresh evaluator, noting every instance whose value it was asked for."""

    def __init__(self):
        self.inner = fresh_evaluator()
        self.valued = []

    def value(self, instance):
        self.valued.append(instance)
        return self.inner.value(instance)

    def priors(self, instance, reduction_id, moves):
        return self.inner.priors(instance, reduction_id, moves)


def quality_text(quality: QualityData) -> str:
    return json.dumps([
        sorted([f.digest, value, visits] for f, (value, visits) in quality.values.items()),
        sorted([f.digest, rid, sorted([m.digest, n] for m, n in dist.items())]
               for (f, rid), dist in quality.distributions.items()),
    ])


class TestBuildOnlyWhatIsRead:
    @pytest.mark.parametrize("setup_name", ["resolution", "resolution-ext"])
    def test_unvisited_children_stay_unbuilt(self, setup_name):
        setup = make_setup(setup_name)
        offered = []

        def recorded(rule):
            def moves(x):
                out = rule.moves(x)
                offered.extend(m for m, _ in out)
                return out

            return dataclasses.replace(rule, moves=moves)

        pending = [r for r in setup.reductions if r.id in ("resolution", "extension")]
        setup = Setup(
            setup.easy, tuple(recorded(r) if r in pending else r for r in setup.reductions)
        )
        unbuilt = total = 0
        for phi in _check_instances(20, 6, 1, 3.0):
            offered.clear()
            evaluator = ValueRecorder()
            result = ams_search(phi, setup, evaluator, CHECK_CONFIG)
            built = [m for m in offered if is_built(m)]
            total += len(offered)
            unbuilt += len(offered) - len(built)
            # Reading quality builds the rest, so look at it only now.
            reached = set(result.quality.values) | set(evaluator.valued)
            assert all(m in reached for m in built), phi
        assert unbuilt > 0.9 * total

    def test_quality_is_built_once_on_first_read(self, monkeypatch):
        made = []

        class CountedQuality(QualityData):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(search, "QualityData", CountedQuality)
        phi = next(_check_instances(1, 6, 1, 3.0))
        _, _, report = solve(phi, "resolution-ext", ParamStore(), CHECK_CONFIG, train_after=False)
        assert made == []
        quality = report.quality
        assert made == [quality]
        assert report.quality is quality and report.search.quality is quality
        assert made == [quality]

    def test_quality_equals_the_eagerly_built_table(self):
        # sha256 of quality_text over these solves, recorded when every search
        # built its quality table before returning.
        h = hashlib.sha256()
        for name in ("resolution", "resolution-ext"):
            for phi in _check_instances(12, 6, 3, 3.0):
                _, _, report = solve(phi, name, ParamStore(), CHECK_CONFIG, train_after=False)
                h.update(quality_text(report.quality).encode())
        assert h.hexdigest() == "97812f8e1413a5294f0e18318124eb20b8d5bd25cef74f8286d0791ced2f403c"


class TestFirstEasyInstance:
    # Instances of the criterion-5 selfcheck stream.  Its instance 117 under
    # ``flip`` is one where a sample reached an easy instance and a search
    # that went on to spend its whole budget returned a path missing it.
    COUNTS = {"resolution": 15, "resolution-ext": 15, "flip": 120, "portfolio": 120}

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_a_sampled_easy_instance_ends_the_path(self, setup_name):
        setup = make_setup(setup_name)
        rng = random.Random(424242)
        cfg = SearchConfig(horizon=8, budget=12)
        won = 0
        for _ in range(self.COUNTS[setup_name]):
            n = rng.randint(3, 8)
            phi = random_ksat(rng, n, 3 * n)
            result = ams_search(phi, setup, fresh_evaluator(), cfg)
            if not any(setup.easy(inst).is_easy for inst in result.quality.values):
                assert len(result.path) == 0
                continue
            won += 1
            assert result.terminal.is_easy, phi
            assert verify_path(setup, result.path)
            insts = [result.path.start] + [inst for _, inst, _ in result.path.steps]
            assert len(insts) == len(set(insts))
        assert won > 0


class TestGuidance:
    def test_puct_visits_the_higher_prior_first(self):
        # No child is visited before a prior decides: with one sample, PUCT
        # takes the child with prior 0.9, not the first in list order.
        setup = toy_setup({0: [1, 2]}, easy_set=set())
        evaluator = StubEvaluator(priors={(0, "r"): [0.1, 0.9]})
        result = ams_search(0, setup, evaluator, SearchConfig(horizon=3, budget=1))
        assert result.quality.distributions[(0, "r")] == {1: 0, 2: 1}

    def test_equal_priors_tie_to_the_lowest_index(self):
        setup = toy_setup({0: [1, 2, 3]}, easy_set=set())
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=3, budget=1))
        assert result.quality.distributions[(0, "r")] == {1: 1, 2: 0, 3: 0}

    def test_a_won_node_takes_its_easy_move(self):
        # The easy child has the lowest prior, and is still the move taken.
        setup = toy_setup({0: [1, 2, 3]}, easy_set={3})
        evaluator = StubEvaluator(priors={(0, "r"): [0.5, 0.45, 0.05]})
        result = ams_search(0, setup, evaluator, SearchConfig(horizon=3, budget=4))
        assert result.quality.distributions[(0, "r")] == {1: 0, 2: 0, 3: 1}
        assert result.path.end == 3
        assert result.stats.samples == 1

    def test_unvisited_children_score_the_parents_mean(self):
        # Child 1 reaches a horizon leaf worth 1 and takes the first sample.
        # The unvisited child 2 then scores the parent's mean 1, not 0, plus
        # its bonus, which beats a second visit of child 1.
        setup = toy_setup({0: [1, 2, 3], 1: [4]}, easy_set=set())
        evaluator = StubEvaluator(value=1.0, priors={(0, "r"): [0.45, 0.45, 0.1]})
        cfg = SearchConfig(horizon=2, budget=2, discount=1.0)
        result = ams_search(0, setup, evaluator, cfg)
        assert result.quality.distributions[(0, "r")] == {1: 1, 2: 1, 3: 0}
        assert result.stats.samples == 2

    def test_expansion_stops_at_the_first_easy_child(self):
        toy = toy_setup({0: [1, 2, 3, 4]}, easy_set={2, 4})
        asked = []

        def easy(x):
            asked.append(x)
            return toy.easy(x)

        setup = Setup(easy=easy, reductions=toy.reductions)
        result = ams_search(0, setup, StubEvaluator(), SearchConfig(horizon=3, budget=4))
        assert set(asked) == {0, 1, 2}
        assert result.path.end == 2
        assert result.quality.values[0][1] == 1

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
        for _, nxt, _ in moves:
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


class TestPinnedOutput:
    # sha256 of the canonical texts and answers below.  A change that alters
    # search output on purpose records the new digest and says why.
    DIGEST = "2944ef2e19a66c868ccd4ad0ae0e6ef658f27701e5c6a5c2082ed9a737df0ea9"
    # Resolution searches at CHECK_CONFIG are the slow ones.
    COUNTS = {"resolution": 40, "resolution-ext": 40, "flip": 40, "portfolio": 40}
    # The same record for the setups that flip, at certify's instance size:
    # 8 variables give flip runs of many clauses.
    DIGEST_8 = "ff88214c7f6bb80d2ad06af220af6b77bfb25efc560709b4e4a342a879b5cccd"
    COUNTS_8 = {"flip": 60, "portfolio": 60}

    @staticmethod
    def fixed_params():
        # Non-zero value and prior heads for every reduction id, so priors
        # and values differ from move to move and steer PUCT.
        width = len(FEATURE_NAMES) + 1
        rids = sorted({r.id for name in SETUP_NAMES for r in make_setup(name).reductions})
        return ParamStore(
            value_weights=[((3 * j) % 7 - 3) / 4 for j in range(width)],
            prior_weights={
                rid: [((5 * j + k) % 9 - 4) / 3 for j in range(width)]
                for k, rid in enumerate(rids)
            },
        )

    def digest(self, counts: dict[str, int], max_vars: int) -> str:
        h = hashlib.sha256()
        for theta in (ParamStore(), self.fixed_params()):
            for name, count in counts.items():
                setup = make_setup(name)
                for phi in _check_instances(count, max_vars, 1, 3.0):
                    result = ams_search(phi, setup, LinearEvaluator(theta), CHECK_CONFIG)
                    answer, diagnostics = derive_answer(setup, phi, result)
                    sol = sorted(answer.value) if answer.value is not None else None
                    h.update(f"{result.canonical_text()}\n{answer.kind} {sol} {diagnostics}\n".encode())
        return h.hexdigest()

    def test_search_output_is_unchanged(self):
        assert self.digest(self.COUNTS, 6) == self.DIGEST

    def test_flip_output_at_eight_variables_is_unchanged(self):
        assert self.digest(self.COUNTS_8, 8) == self.DIGEST_8
