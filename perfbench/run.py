"""reducto benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload is a fixed, seeded pass of ops (one op is one solve).  A run
repeats whole passes while another one still fits in ``--seconds``, so it
always makes at least one.  Every answer is checked; a wrong one prints the
instance as DIMACS on stderr and makes the run exit 1.  With ``--trace 0``
the run reports end-to-end metrics measured without tracing; with
``--trace 1`` it makes one untraced and one traced pass and reports
per-layer metrics.  The last line of stdout is one JSON object; a results
file with the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from spans import SAT_MOVE_IDS, Recorder, aggregate, instrument

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("resolution-search", "certify", "learn-loop")
SETUPS = {
    "resolution-search": ("resolution", "resolution-ext"),
    "certify": ("flip", "portfolio"),
    "learn-loop": ("flip",),
}
# Ops per pass.  Each pass has at least 100 timed ops, so the 90th percentile
# has at least ten samples beyond it.
SEARCH_OPS = {"resolution-search": 144, "certify": 1920}
LEARN_HISTORY = 100  # N, the learn-loop's history length
# Independent curricula per learn-loop pass.  Run time is dominated by the
# last ops of a loop, whose cost follows how much history the seed's
# instances produced; pooling two loops halves that seed-to-seed variance.
LEARN_LOOPS = 2
HELDOUT_OPS = 100
SETUP_PROBES = 9

END_TO_END = (
    ("solves_per_s", "ops/s"),
    ("solve_s.p50", "s"),
    ("solve_s.p90", "s"),
    ("decided_frac", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    spec = []

    def timed(span, extra=()):
        spec.append((f"{span}.calls", "count", "lower"))
        spec.append((f"{span}.s", "s", "lower"))
        for key in extra:
            spec.append((f"{span}.{key}", "s" if key == "self_s" else "count", "lower"))

    for rid in SAT_MOVE_IDS:
        timed(f"sat.moves.{rid}")
    for span in ("sat.easy", "sat.lift", "sat.formula"):
        timed(span)
    timed("core.enumerate_moves", ("self_s",))
    spec.append(("core.moves_generated", "count", "lower"))
    spec.append(("core.moves_truncated", "count", "lower"))
    for span in ("core.verify_path", "core.lift_solution", "driver.derive_answer"):
        timed(span)
    timed("search.ams_search", ("self_s",))
    for key in ("nodes", "evaluator_calls", "children", "children_visited"):
        spec.append((f"search.{key}", "count", "lower"))
    spec.append(("search.visited_frac", "share", "higher"))
    for span in ("value", "priors", "featurize", "merge_quality"):
        timed(f"learner.{span}")
    timed("learner.train", ("records",))
    timed("learner.load_quality_log", ("records", "skipped"))
    timed("learner.append_quality_log", ("records",))
    spec.append(("learner.save_params.s", "s", "lower"))
    spec.append(("learner.load_params.s", "s", "lower"))
    spec.append(("learner.heldout_sat_frac", "share", "higher"))
    for span in ("portfolio.moves", "portfolio.lift", "portfolio.transform"):
        timed(span)
    spec.append(("portfolio.transform.in_lift", "count", "lower"))
    spec.append(("portfolio.failures", "count", "lower"))
    spec.append(("driver.solve.self_s", "s", "lower"))
    spec.append(("cli.main.self_s", "s", "lower"))
    timed("dimacs.parse_dimacs")
    spec.append(("trace.overhead_frac", "share", "lower"))
    return spec


# ---------------------------------------------------------------------------
# Inputs: the benchmark's own seeded generator
# ---------------------------------------------------------------------------


def random_3sat(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """round(3.0 * n) distinct clauses of width min(3, n) over variables 1..n.

    Returns fewer clauses when distinct sampling runs out of attempts (n = 3
    has only 8 distinct full-width clauses, so it always yields all of them).
    """
    m = round(3.0 * n)
    width = min(3, n)
    clauses: set[tuple[int, ...]] = set()
    attempts = 0
    while len(clauses) < m and attempts < 50 * (m + 1):
        attempts += 1
        lits = (v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width))
        clauses.add(tuple(sorted(lits, key=abs)))
    return sorted(clauses)


@dataclass(frozen=True)
class Op:
    setup: str
    n: int
    clauses: tuple[tuple[int, ...], ...]


def random_op(rng: random.Random, setup: str, n: int) -> Op:
    return Op(setup, n, tuple(random_3sat(rng, n)))


def search_ops(workload: str, seed: int) -> list[Op]:
    """n cycles through 3..8 in pairs of ops, and each pair alternates the
    workload's two setups, so both setups see every size equally often."""
    rng = random.Random(f"{workload}:{seed}")
    setups = SETUPS[workload]
    return [random_op(rng, setups[i % 2], 3 + (i // 2) % 6) for i in range(SEARCH_OPS[workload])]


def learn_ops(seed: int) -> tuple[list[list[Op]], list[Op]]:
    """LEARN_LOOPS criterion-8 curricula n = 4 + floor(7i/N), then held-out n in 6..14."""
    rng = random.Random(f"learn-loop:{seed}")
    loops = [[random_op(rng, "flip", 4 + 7 * i // LEARN_HISTORY) for i in range(LEARN_HISTORY)]
             for _ in range(LEARN_LOOPS)]
    heldout = [random_op(rng, "flip", 6 + i % 9) for i in range(HELDOUT_OPS)]
    return loops, heldout


def dimacs_text(clauses) -> str:
    nvars = max((abs(l) for c in clauses for l in c), default=0)
    return "".join([f"p cnf {nvars} {len(clauses)}\n"] + [" ".join(map(str, c)) + " 0\n" for c in clauses])


# ---------------------------------------------------------------------------
# Answer gate
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Outcomes of gated solves.  ``wrong`` holds the DIMACS of wrong answers."""

    ops: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    reasons: dict[str, int] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


class Gate:
    """Checks every answer against the original input and the oracle."""

    def __init__(self, sat_module):
        self.sat = sat_module
        self.oracle_cache: dict = {}

    def oracle_unsat(self, clauses) -> bool:
        verdict = self.oracle_cache.get(clauses)
        if verdict is None:
            verdict = not self.sat.oracle_solve(self.sat.Formula(clauses)).satisfiable
            self.oracle_cache[clauses] = verdict
        return verdict

    def check(self, tally: Tally, op: Op, kind: str, value, diagnostics=()) -> None:
        """``kind`` is solution, no_solution, dont_know or failed."""
        tally.ops += 1
        if kind == "failed":
            tally.fail("exception or error exit")
            return
        if diagnostics:
            tally.fail("diagnostics")
            return
        if kind == "solution":
            alpha = frozenset(value)
            if all(any(l in alpha for l in c) for c in op.clauses):
                tally.sat += 1
            else:
                self._wrong(tally, op, "solution does not satisfy the input")
        elif kind == "no_solution":
            if not self.oracle_unsat(op.clauses):
                self._wrong(tally, op, "unsatisfiable claim on a satisfiable input")
            elif op.setup == "flip":
                tally.fail("flip claimed unsatisfiable")
            else:
                tally.unsat += 1
        elif kind == "dont_know":
            tally.unknown += 1
        else:
            tally.fail(f"unknown answer kind {kind!r}")

    def _wrong(self, tally: Tally, op: Op, reason: str) -> None:
        tally.fail(reason)
        dump = dimacs_text(op.clauses)
        tally.wrong.append(dump)
        print(f"c WRONG ANSWER ({reason}) setup={op.setup} on:", file=sys.stderr)
        sys.stderr.write(dump)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# On a VM with 2 shared vCPUs (Intel Xeon, Python 3.11) wall-clock speed
# drifted by up to a third within minutes, and repeated runs of one seed
# drifted with it.  Every run therefore also times a fixed pure-Python kernel
# that uses no reducto code, interleaved with its ops, and reports times scaled
# to the speed at which the kernel takes CAL_REFERENCE_S:
# t * CAL_REFERENCE_S / median(kernel times near t).  The raw wall-clock
# figures are printed and kept in the results file as ``wall.*``.
CAL_REFERENCE_S = 0.0100  # about the kernel's median on that VM
CAL_EVERY_S = 0.2
CAL_WINDOW_S = 1.5
_CAL_CLAUSES = [tuple(sorted(random.Random(i).sample(range(1, 41), 3))) for i in range(3000)]


def calibration_kernel() -> float:
    """Seconds for a fixed round of resolvent-style tuple, set and dict churn.

    It resembles reducto's own inner loops, so machine-speed changes hit both
    alike, but it calls no reducto code, so program changes leave it alone.
    """
    t0 = perf_counter()
    occurs: dict[int, list] = {}
    for c in _CAL_CLAUSES:
        for lit in c:
            occurs.setdefault(lit, []).append(c)
    out = set()
    for v, cs in occurs.items():
        for c in cs[:8]:
            for d in cs[-8:]:
                merged = (set(c) | set(d)) - {v}
                out.add(tuple(sorted(merged, key=lambda l: (abs(l), l < 0))))
    sorted(out)
    return perf_counter() - t0


class Speed:
    """Calibration samples taken between ops, at most one per CAL_EVERY_S."""

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []

    def tick(self) -> None:
        now = perf_counter()
        if not self.at or now - self.at[-1] >= CAL_EVERY_S:
            self.samples.append(calibration_kernel())
            self.at.append(now)

    @property
    def factor(self) -> float:
        """Multiplier from wall seconds to reference seconds over the whole run."""
        return CAL_REFERENCE_S / statistics.median(self.samples)

    def scale(self, timed: list[tuple[float, float]]) -> list[float]:
        """Reference seconds of (wall seconds, end time) pairs.

        Each op is scaled by the samples taken within CAL_WINDOW_S of its end,
        which follows speed changes inside a run too.
        """
        out = []
        for dt, end in timed:
            lo = bisect.bisect_left(self.at, end - CAL_WINDOW_S)
            hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S)
            near = self.samples[lo:hi] or self.samples
            out.append(dt * CAL_REFERENCE_S / statistics.median(near))
        return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One seeded pass of ops; ``run_pass`` returns (wall seconds, end time) of completed ops."""

    def __init__(self, name: str, seed: int, reducto):
        self.name = name
        self.reducto = reducto
        self.gate = Gate(reducto.sat)
        if name == "learn-loop":
            self.loops, self.heldout = learn_ops(seed)
            self.ops = [op for loop in self.loops for op in loop]
        else:
            self.ops, self.heldout = search_ops(name, seed), []
        self.formulas = [reducto.sat.Formula(o.clauses) for o in self.ops + self.heldout]
        self.theta = reducto.learner.init_params()
        self.cfg = reducto.search.SearchConfig(horizon=8, budget=12)
        self.heldout_cfg = reducto.search.SearchConfig(horizon=12, budget=4)
        self.heldout_tally = Tally()
        self.trained: list[str] = []  # the parameter files the last learn-loop pass wrote
        os.makedirs(RESULTS, exist_ok=True)

    def solve(self, tally: Tally, op: Op, phi, theta, cfg) -> float | None:
        try:
            t0 = perf_counter()
            answer, _, report = self.reducto.driver.solve(phi, op.setup, theta, cfg, train_after=False)
            dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.gate.check(tally, op, "failed", None)
            return None
        self.gate.check(tally, op, answer.kind, answer.value, report.diagnostics)
        return dt

    def cli_solve(self, tally: Tally, op: Op, path: str, params: str) -> float | None:
        argv = ["solve", path, "--setup", "flip", "--params", params,
                "--budget", "16", "--horizon", "12", "--epochs", "2"]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                code = self.reducto.cli.main(argv)
                dt = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.gate.check(tally, op, "failed", None)
            return None
        diagnostics = [l for l in err.getvalue().splitlines() if l.startswith("c diagnostic")]
        kind, value = {10: "solution", 20: "no_solution", 0: "dont_know"}.get(code, "failed"), None
        if kind == "solution":
            vline = next((l for l in out.getvalue().splitlines() if l.startswith("v ")), "v 0")
            value = [int(t) for t in vline[2:].split() if t != "0"]
        if kind == "failed":
            sys.stderr.write(err.getvalue())
        self.gate.check(tally, op, kind, value, diagnostics)
        return dt

    def warm_up(self) -> None:
        """Untimed solves that load lazily imported modules and fill caches."""
        scratch = Tally()
        if self.name == "learn-loop":
            with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
                path = os.path.join(tmp, "warm.cnf")
                with open(path, "w") as handle:
                    handle.write(dimacs_text(self.ops[0].clauses))
                self.cli_solve(scratch, self.ops[0], path, os.path.join(tmp, "params.json"))
        else:
            for op, phi in list(zip(self.ops, self.formulas))[:2]:
                self.solve(scratch, op, phi, self.theta, self.cfg)

    def run_pass(self, tally: Tally, speed: Speed, rec=None) -> list[tuple[float, float]]:
        """The timed ops of one pass; ``rec`` gets each op's index as its op id."""
        times = []

        def record(solve, *args):
            if rec is not None:
                rec.op_id += 1
            dt = solve(tally, *args)
            if dt is not None:
                times.append((dt, perf_counter()))
            speed.tick()

        if self.name != "learn-loop":
            for op, phi in zip(self.ops, self.formulas):
                record(self.solve, op, phi, self.theta, self.cfg)
            return times
        self.trained = []
        for loop in self.loops:
            with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
                params = os.path.join(tmp, "params.json")
                paths = []
                for op in loop:
                    paths.append(os.path.join(tmp, f"{len(paths):04d}.cnf"))
                    with open(paths[-1], "w") as handle:
                        handle.write(dimacs_text(op.clauses))
                for op, path in zip(loop, paths):
                    record(self.cli_solve, op, path, params)
                with open(params) as handle:
                    self.trained.append(handle.read())
        return times

    def run_heldout(self) -> None:
        """Untimed: solve the held-out instances with each loop's trained parameters."""
        for text in self.trained:
            theta = self.reducto.learner.parse_params(text)
            for op, phi in zip(self.heldout, self.formulas[len(self.ops):]):
                self.solve(self.heldout_tally, op, phi, theta, self.heldout_cfg)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(set-up wall seconds, kernel seconds) of fresh processes: one unmeasured
    probe, then SETUP_PROBES."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, probe, workload, *SETUPS[workload]], capture_output=True, text=True,
                              cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if i:
            setup, kernel = proc.stdout.split()
            samples.append((float(setup), float(kernel)))
    return samples


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[-1]


def timing_metrics(times: list[float]) -> dict:
    return {
        "solves_per_s": (len(times) / sum(times), "ops/s"),
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.p90": (p90(times), "s"),
    }


def environment(load_start) -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            commit = handle.read().strip()
        if commit.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", commit[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    commit = handle.read().strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "load_avg_start": load_start,
        "load_avg_end": list(os.getloadavg()),
        "git_commit": commit,
    }


def import_reducto():
    if not os.path.isfile(os.path.join(SRC, "reducto", "__init__.py")):
        raise SystemExit(f"error: no reducto package under {SRC}; run from a reducto checkout")
    sys.path.insert(0, SRC)
    import reducto
    import reducto.cli
    import reducto.driver
    import reducto.learner
    import reducto.sat
    import reducto.search

    if not os.path.abspath(reducto.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: reducto imported from {reducto.__file__}, not from {SRC}")
    return reducto


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = list(os.getloadavg())
    reducto = import_reducto()
    setup_samples = [] if args.trace else measure_setup(args.workload)

    work = Workload(args.workload, args.seed, reducto)
    work.warm_up()
    tally = Tally()
    speed = Speed()
    timed: list[tuple[float, float]] = []
    layers: dict = {}
    spans_path = None
    absent: list[str] = []
    if not args.trace:
        started = perf_counter()
        passes = 0
        while True:
            p0 = perf_counter()
            timed += work.run_pass(tally, speed)
            work.run_heldout()
            passes += 1
            now = perf_counter()
            if now - started + (now - p0) > args.seconds:
                break
    else:
        timed = work.run_pass(tally, speed)
        work.run_heldout()
        rec, traced_speed = Recorder(), Speed()
        with instrument(rec) as absent:
            traced = work.run_pass(tally, traced_speed, rec)
        work.run_heldout()
        passes = 2
        spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans")
        rec.write(spans_path)
        overhead = sum(traced_speed.scale(traced)) / sum(speed.scale(timed)) - 1.0
        layers = layer_metrics(rec, traced_speed.factor, overhead, work)

    held = work.heldout_tally
    attempted, failed = tally.ops + held.ops, tally.failed + held.failed
    failures = {k: tally.reasons.get(k, 0) + held.reasons.get(k, 0) for k in {**tally.reasons, **held.reasons}}
    times, wall_times = speed.scale(timed), [dt for dt, _ in timed]
    timed_ops = len(times)
    metrics = {
        **timing_metrics(times),
        "sat_frac": (tally.sat / tally.ops, "share"),
        "unsat_frac": (tally.unsat / tally.ops, "share"),
        "decided_frac": ((tally.sat + tally.unsat) / tally.ops, "share"),
        "error_frac": (failed / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = {f"wall.{k}": v for k, v in timing_metrics(wall_times).items()}
    if setup_samples:
        metrics["setup_s"] = (statistics.median(t * CAL_REFERENCE_S / k for t, k in setup_samples), "s")
        wall["wall.setup_s"] = (statistics.median(t for t, _ in setup_samples), "s")
    if held.ops:
        metrics["heldout_sat_frac"] = (held.sat / held.ops, "share")
    beyond = sum(1 for t in times if t > metrics["solve_s.p90"][0])

    print(f"# reducto benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} timed_ops={timed_ops} gated_solves={attempted} speed_factor={speed.factor:.4f}")
    for name, (value, unit) in {**metrics, **wall}.items():
        note = f"  ({timed_ops} samples, {beyond} beyond)" if name == "solve_s.p90" else ""
        print(f"{name:<34} {value:.6g} {unit}{note}")
    for name in absent:
        print(f"{name:<34} absent")
    for name, (value, unit) in layers.items():
        print(f"{name:<34} {value:.6g} {unit}")
    if failures:
        print(f"# failures: {failures}")

    if args.trace:
        reported = {name: layers[name] for name, _, _ in per_layer_spec()}
    else:
        reported = {name: metrics[name] for name, _ in END_TO_END}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(work.ops),
        "heldout_ops": len(work.heldout),
        "timed_ops": timed_ops,
        "p90_samples_beyond": beyond,
        "gated_solves": attempted,
        "failures": failures,
        "setup_samples_wall_and_kernel_s": setup_samples,
        "speed_factor": speed.factor,
        "calibration_samples_s": speed.samples,
        "absent_layers": absent,
        "spans_file": spans_path and os.path.relpath(spans_path, ROOT),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **wall, **layers}.items()},
        "environment": environment(load_start),
    }
    out_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"# results: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": not (tally.wrong or held.wrong),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if tally.wrong or held.wrong else 0


def layer_metrics(rec, factor: float, overhead: float, work: Workload) -> dict:
    """Per-layer metrics of one traced pass, keyed as in ``per_layer_spec``.

    Seconds are scaled to reference speed by ``factor``, like the end-to-end times.
    """
    totals = aggregate(rec)
    out = {}
    for name, unit, _ in per_layer_spec():
        span, _, key = name.rpartition(".")
        if span in totals and key in ("calls", "s", "self_s"):
            value = getattr(totals[span], key)
            out[name] = (value if key == "calls" else value * factor, unit)
        elif name in rec.counters:
            out[name] = (rec.counters[name], unit)
    children = rec.counters["search.children"]
    out["search.visited_frac"] = (rec.counters["search.children_visited"] / children if children else 0.0, "share")
    held = work.heldout_tally
    out["learner.heldout_sat_frac"] = (held.sat / held.ops if held.ops else 0.0, "share")
    out["trace.overhead_frac"] = (overhead, "share")
    return out


if __name__ == "__main__":
    sys.exit(main())
