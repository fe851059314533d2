"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
heavyweight oracle-vs-solver sweep (criterion 5) runs once in a module fixture
and also feeds the quality-data integrity check (criterion 9).
"""

import random
import statistics
import time
from collections import deque

import pytest

from reducto.core import Path, Setup, enumerate_moves, verify_path
from reducto.driver import (
    make_setup,
    random_ksat,
    run_selfcheck,
    solve,
)
from reducto.learner import (
    DeltaStore,
    DistRecord,
    FEATURE_NAMES,
    LinearEvaluator,
    MoveStat,
    ParamStore,
    ValueRecord,
    fit,
    init_params,
    loss_gradients,
    params_text,
    parse_params,
    store_loss,
)
from reducto.portfolio import ExternalMember, portfolio_setup
from reducto.sat import (
    ELIMINATION,
    EXTENSION,
    FLIP,
    Formula,
    RESOLUTION,
    assignment,
    easy_all_positive,
    easy_trivial,
    flip_variable,
    flippable_variables,
    oracle_solve,
    satisfies,
)
from reducto.search import SearchConfig, ams_search

from helpers import random_formula, step_witness


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    return passed


# -------------------------------------------------------------------------
# Criterion 1: self-reduction contract suite
# -------------------------------------------------------------------------


RULES = [RESOLUTION, ELIMINATION, EXTENSION, FLIP]


class InProcessMember(ExternalMember):
    """An external member whose child process is the oracle, run in process.

    Its answer goes through the same output parser as a child's stdout, and
    the member keeps it per formula as a real one does, so only the process
    is missing.
    """

    def transform(self, phi):
        verdict = oracle_solve(phi)
        if not verdict.satisfiable:
            return self._interpret(phi, "s UNSATISFIABLE\n")
        lits = " ".join(str(l) for l in sorted(verdict.witness, key=abs))
        return self._interpret(phi, f"s SATISFIABLE\nv {lits} 0\n")


def member_reductions():
    """The portfolio's member rules that are not in ``RULES``, and an external member."""
    setup = portfolio_setup((InProcessMember("oracle", ("in-process",)),))
    return [r for r in setup.reductions if r not in RULES]


def eliminated(phi, v):
    """Davis–Putnam elimination of ``v``, spelled out over literal sets."""
    rest = [c for c in phi.clauses if v not in c and -v not in c]
    resolvents = [
        (set(p) - {v}) | (set(n) - {-v})
        for p in phi.clauses if v in p
        for n in phi.clauses if -v in n
    ]
    return Formula(rest + [r for r in resolvents if not any(-l in r for l in r)])


def givers(rule, phi):
    """Each successor a flip or an elimination of one variable gives, with those variables."""
    out = {}
    if rule is FLIP:
        for v in flippable_variables(phi):
            out.setdefault(flip_variable(phi, v), []).append(v)
    elif rule is ELIMINATION:
        for v in phi.variables:
            out.setdefault(eliminated(phi, v), []).append(v)
    return out


# Two variables give one successor: eliminating 1 or 2, and flipping 1 or 2.
SHARED_SUCCESSORS = [Formula([[1, 2]]), Formula([[-1, -2], [1, 2]])]


def test_criterion_1_self_reduction_contract():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    rules = RULES + member_reductions()
    forward_violations = 0
    lift_violations = 0
    checked_moves = 0
    # Moves are pure: listing phi's moves again must hold m exactly when m is
    # a successor in moves(phi), for phi itself and for every rule's moves,
    # and a one-step path of each move, with the witness it carries, must
    # verify.  Where several variables give one flip or one bounded
    # elimination, the move carries the lowest.
    step_disagreements = 0
    witness_disagreements = 0
    shared = 0
    formulas = SHARED_SUCCESSORS + [random_formula(rng, 8, 20) for _ in range(500)]
    for phi in formulas:
        base_sat = oracle_solve(phi).satisfiable
        move_lists = [rule.moves(phi) for rule in rules]
        candidates = {phi}.union(*({m for m, _ in moves} for moves in move_lists))
        for rule, moves in zip(rules, move_lists):
            alone = Setup(easy_trivial, (rule,))
            successors = {m for m, _ in moves}
            step_disagreements += sum(
                (step_witness(rule, phi, m) is not None) != (m in successors) for m in candidates
            )
            by_successor = givers(rule, phi)
            for move, witness in moves:
                checked_moves += 1
                one_step = Path(phi, ((rule.id, move, witness),))
                witness_disagreements += not verify_path(alone, one_step)
                vs = by_successor.get(move, [])
                if len(vs) > 1 and len(move) <= len(phi):
                    shared += 1
                    witness_disagreements += witness != min(vs)
                verdict = oracle_solve(move)
                if base_sat and not verdict.satisfiable:
                    forward_violations += 1
                    continue
                if verdict.satisfiable:
                    lifted = rule.lift(phi, witness, verdict.witness)
                    if not satisfies(lifted, phi):
                        lift_violations += 1
    elapsed = time.perf_counter() - t0
    ok = (
        forward_violations == 0
        and lift_violations == 0
        and step_disagreements == 0
        and witness_disagreements == 0
        and shared >= len(SHARED_SUCCESSORS)
        and elapsed < 60.0
    )
    assert report(
        1,
        ok,
        f"{len(formulas)} formulas, {checked_moves} moves across {len(rules)} rules/members: "
        f"{forward_violations} forward violations, {lift_violations} lift violations, "
        f"{step_disagreements} step-check disagreements, {witness_disagreements} witness "
        f"disagreements ({shared} moves several variables give), {elapsed:.1f}s (< 60s)",
    )


# -------------------------------------------------------------------------
# Criterion 2: flip-semantics regression
# -------------------------------------------------------------------------


def one_sided_flip(phi, v):
    """The rule text read literally: replace -v by v everywhere, one direction only."""
    return Formula(
        tuple((v if l == -v else l) for l in c) for c in phi.clauses
    )


def test_criterion_2_flip_semantics_regression():
    phi = Formula([[1], [-1]])
    assert not oracle_solve(phi).satisfiable

    # Shipped polarity-swap semantics: no flip path from {{v},{-v}} to an easy
    # instance (the only swap is a self-move, so the closure is the root alone).
    setup = make_setup("flip")
    seen = {phi}
    frontier = deque([phi])
    easy_reachable = False
    while frontier:
        cur = frontier.popleft()
        if easy_all_positive(cur).is_easy:
            easy_reachable = True
            break
        for _, nxt, _ in enumerate_moves(setup, cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    no_path = not easy_reachable and len(seen) == 1

    # One-sided textual variant: {{v},{-v}} becomes the satisfiable {{v}}, and
    # neither candidate solution function produces a solution of the source,
    # breaking criterion 1(b).
    moved = one_sided_flip(phi, 1)
    assert moved == Formula([[1]])
    witness = oracle_solve(moved).witness
    lift_identity = witness
    lift_negated = assignment(-l if abs(l) == 1 else l for l in witness)
    one_sided_breaks = not satisfies(lift_identity, phi) and not satisfies(lift_negated, phi)

    assert report(
        2,
        no_path and one_sided_breaks,
        "polarity swap admits no flip path from {{v},{-v}}; "
        "one-sided text variant turns it satisfiable and both candidate lifts "
        "fail the source formula",
    )


# -------------------------------------------------------------------------
# Criterion 3: completeness probe of the resolution setup
# -------------------------------------------------------------------------


def bfs_to_easy(setup, phi, depth_cap, node_cap, move_cache, easy_cache):
    def easy_of(f):
        e = easy_cache.get(f)
        if e is None:
            e = setup.easy(f)
            easy_cache[f] = e
        return e

    if easy_of(phi).is_easy:
        return easy_of(phi).kind, 0
    seen = {phi}
    frontier = deque([(phi, 0)])
    expanded = 0
    while frontier:
        cur, depth = frontier.popleft()
        expanded += 1
        if expanded > node_cap:
            return "cap-exceeded", expanded
        if depth >= depth_cap:
            continue
        moves = move_cache.get(cur)
        if moves is None:
            moves = enumerate_moves(setup, cur, move_cap=256)
            move_cache[cur] = moves
        for _, nxt, _ in moves:
            if nxt in seen:
                continue
            seen.add(nxt)
            outcome = easy_of(nxt)
            if outcome.is_easy:
                return outcome.kind, expanded
            frontier.append((nxt, depth + 1))
    return "exhausted", expanded


def test_criterion_3_resolution_setup_completeness_probe():
    setup = make_setup("resolution")
    rng = random.Random(2024)
    move_cache, easy_cache = {}, {}
    wrong = 0
    missed = []
    capped = 0
    for _ in range(200):
        phi = random_formula(rng, 4, 6)
        want = "solution" if oracle_solve(phi).satisfiable else "no_solution"
        kind, _ = bfs_to_easy(setup, phi, 8, 50_000, move_cache, easy_cache)
        if kind == "cap-exceeded":
            capped += 1
        elif kind == "exhausted":
            # The depth-8 frontier emptied.  Distinguish a depth artifact
            # (reachable deeper: counts against the cap budget) from a
            # provably unreachable instance (the whole closure has no easy
            # instance: a genuine miss).
            deep_kind, _ = bfs_to_easy(setup, phi, 10**9, 50_000, move_cache, easy_cache)
            if deep_kind in ("cap-exceeded", want):
                capped += 1
            else:
                missed.append(phi)
        elif kind != want:
            wrong += 1
    ok = wrong == 0 and not missed and capped < 10
    detail = (
        f"200 instances: {wrong} wrong verdicts, {len(missed)} provable misses, "
        f"{capped} cap-exceeded (< 5% allowed)"
    )
    if missed:
        # A miss is an instance whose whole move closure holds no easy
        # instance of the expected kind: the rule system has no path for it
        # at any depth.  Misses are reported with their clauses rather than
        # excused as cap overruns.
        detail += "; unreachable instances: " + "; ".join(
            str(list(map(list, p.clauses))) for p in missed
        )
    assert report(3, ok, detail)


# -------------------------------------------------------------------------
# Criterion 4: flip-setup reachability
# -------------------------------------------------------------------------


def test_criterion_4_flip_setup_reachability():
    setup = make_setup("flip")
    rng = random.Random(2024)
    cfg = SearchConfig(horizon=6, budget=8)
    violations = 0
    for _ in range(200):
        phi = random_formula(rng, 4, 6)
        n_vars = len(phi.variables)
        satisfiable = oracle_solve(phi).satisfiable
        seen = {phi}
        frontier = deque([(phi, 0)])
        reached_depth = None
        while frontier:
            cur, depth = frontier.popleft()
            if easy_all_positive(cur).is_easy:
                reached_depth = depth
                break
            for _, nxt, _ in enumerate_moves(setup, cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
        if satisfiable:
            if reached_depth is None or reached_depth > n_vars:
                violations += 1
        else:
            if reached_depth is not None:
                violations += 1
                continue
            answer, _, _ = solve(phi, "flip", init_params(), cfg, train_after=False)
            if answer.kind != "dont_know":
                violations += 1
    assert report(
        4,
        violations == 0,
        f"200 instances: every satisfiable one has a flip path of length <= "
        f"its variable count, every unsatisfiable one reaches nothing and "
        f"answers don't-know ({violations} violations)",
    )


# -------------------------------------------------------------------------
# Criteria 5 and 9: solver soundness at scale + quality-data integrity
# -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def selfcheck_reports():
    cfg = SearchConfig(horizon=8, budget=12)
    reports = {}
    t0 = time.perf_counter()
    for name in ("resolution", "flip"):
        reports[name] = run_selfcheck(500, 8, 424242, name, cfg=cfg)
    reports["elapsed"] = time.perf_counter() - t0
    return reports


def test_criterion_5_solver_soundness_at_scale(selfcheck_reports):
    elapsed = selfcheck_reports["elapsed"]
    contradictions = sum(
        len(selfcheck_reports[name].contradictions) for name in ("resolution", "flip")
    )
    flip_unsat_claims = selfcheck_reports["flip"].no_solutions
    counts = {
        name: (
            selfcheck_reports[name].solutions,
            selfcheck_reports[name].no_solutions,
            selfcheck_reports[name].dont_know,
        )
        for name in ("resolution", "flip")
    }
    resolution_decided = counts["resolution"][0] + counts["resolution"][1]
    ok = (
        contradictions == 0
        and flip_unsat_claims == 0
        and resolution_decided >= 499
        and elapsed < 300.0
    )
    assert report(
        5,
        ok,
        f"500 instances x (resolution, flip) at 8 vars: {contradictions} oracle "
        f"contradictions, flip claimed unsat {flip_unsat_claims} times, "
        f"resolution decided {resolution_decided} (>= 499), "
        f"sol/unsat/dk per setup {counts}, {elapsed:.0f}s (< 300s)",
    )


def test_criterion_9_quality_data_integrity(selfcheck_reports):
    violations = sum(
        len(selfcheck_reports[name].quality_violations) for name in ("resolution", "flip")
    )
    assert report(
        9,
        violations == 0,
        f"every (instance, reduction) distribution in the criterion-5 runs sums "
        f"to its sample count and counts only genuine moves ({violations} violations)",
    )


# -------------------------------------------------------------------------
# Criterion 6: search determinism
# -------------------------------------------------------------------------


def test_criterion_6_search_determinism():
    rng = random.Random(606)
    instances = [random_ksat(rng, rng.randint(3, 6), rng.randint(6, 14)) for _ in range(10)]
    setup = make_setup("resolution")
    cfg = SearchConfig(horizon=6, budget=12)
    mismatches = 0
    for phi in instances:
        texts = {
            ams_search(phi, setup, LinearEvaluator(ParamStore()), cfg).canonical_text()
            for _ in range(20)
        }
        if len(texts) != 1:
            mismatches += 1
    assert report(
        6,
        mismatches == 0,
        f"20 repeated searches on 10 instances: {mismatches} canonical-serialization mismatches",
    )


# -------------------------------------------------------------------------
# Criterion 7: learner numerics
# -------------------------------------------------------------------------


def _random_store(rng):
    store = DeltaStore()
    for i in range(rng.randint(2, 5)):
        store.values[f"v{i}"] = ValueRecord(
            f"v{i}",
            rng.randint(1, 10),
            tuple(rng.random() for _ in FEATURE_NAMES),
            rng.random(),
            rng.randint(1, 5),
        )
    for i in range(rng.randint(1, 3)):
        moves = {
            f"m{i}_{j}": MoveStat(
                f"m{i}_{j}", tuple(rng.random() for _ in FEATURE_NAMES), rng.randint(0, 5)
            )
            for j in range(rng.randint(2, 4))
        }
        rid = rng.choice(["resolution", "flip", "extension"])
        store.dists[(f"d{i}", rid)] = DistRecord(f"d{i}", rid, rng.randint(1, 10), moves)
    return store


def _random_theta(rng):
    theta = ParamStore()
    theta.value_weights = [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)]
    for rid in ("resolution", "flip", "extension"):
        theta.prior_weights[rid] = [rng.uniform(-1, 1) for _ in range(len(FEATURE_NAMES) + 1)]
    return theta


def test_criterion_7_learner_numerics():
    rng = random.Random(707)
    rel_tol, eps = 1e-4, 1e-6
    grad_failures = 0
    train_failures = 0
    roundtrip_failures = 0
    for _ in range(50):
        store = _random_store(rng)
        theta = _random_theta(rng)

        # Analytic gradients against central finite differences.
        _, value_grad, prior_grads = loss_gradients(theta, store)
        def numeric(perturb):
            up, down = theta.copy(), theta.copy()
            perturb(up, +eps)
            perturb(down, -eps)
            return (store_loss(up, store) - store_loss(down, store)) / (2 * eps)

        def close(a, b):
            return abs(a - b) <= max(1e-7, rel_tol * max(abs(a), abs(b)))

        for j in range(len(FEATURE_NAMES) + 1):
            n = numeric(lambda t, e, j=j: t.value_weights.__setitem__(j, t.value_weights[j] + e))
            if not close(value_grad[j], n):
                grad_failures += 1
        for rid, grad in prior_grads.items():
            for j in range(len(FEATURE_NAMES) + 1):
                def bump(t, e, rid=rid, j=j):
                    t.prior_weights[rid][j] += e
                if not close(grad[j], numeric(bump)):
                    grad_failures += 1

        # Training never increases loss on its own store.
        before = store_loss(theta, store)
        after = store_loss(fit(theta, store)[0], store)
        if after > before + 1e-12:
            train_failures += 1

        # Serialization round-trips bit-exactly.
        if parse_params(params_text(theta)) != theta:
            roundtrip_failures += 1

    ok = grad_failures == 0 and train_failures == 0 and roundtrip_failures == 0
    assert report(
        7,
        ok,
        f"50 random stores: {grad_failures} gradient mismatches (rel tol 1e-4), "
        f"{train_failures} loss increases, {roundtrip_failures} round-trip failures",
    )


# -------------------------------------------------------------------------
# Criterion 8: learning signal (soft, reported)
# -------------------------------------------------------------------------


def test_criterion_8_learning_signal_reported():
    cfg = SearchConfig(horizon=12, budget=16)
    rng = random.Random(808)
    theta = init_params()
    history = DeltaStore()
    for i in range(200):
        n = 4 + (i * 7) // 200  # curriculum: sizes 4 -> 10
        phi = random_ksat(rng, n, round(3.0 * n))
        _, theta, _ = solve(
            phi, "flip", theta, cfg, history=history, epochs=2, curriculum=True
        )

    held_rng = random.Random(909)
    held_out = []
    while len(held_out) < 100:
        n = held_rng.randint(4, 10)
        phi = random_ksat(held_rng, n, round(3.0 * n))
        if oracle_solve(phi).satisfiable:
            held_out.append(phi)

    def median_calls(params):
        calls = []
        for phi in held_out:
            answer, _, rep = solve(phi, "flip", params, cfg, train_after=False)
            calls.append(rep.stats.evaluator_calls if answer.kind == "solution" else float("inf"))
        return statistics.median(calls)

    fresh_median = median_calls(init_params())
    trained_median = median_calls(theta)
    improved = trained_median <= fresh_median
    detail = (
        f"median evaluator calls to first solution on 100 held-out satisfiable "
        f"instances: trained={trained_median} fresh={fresh_median}"
    )
    if not improved:
        detail += " (finding: no improvement; reported, not a build failure)"
    report(8, True, detail)
    assert True
