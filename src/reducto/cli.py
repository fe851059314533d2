"""Command-line surface: solve, train, selfcheck, and bench subcommands.

Solve prints SAT-competition style output (``s ...`` / ``v ...``) and uses
the matching exit codes: 10 satisfiable, 20 unsatisfiable, 0 unknown.  Exit
code 1 means any error, never a traceback: a usage error prints argparse's
usage message, and every other error (input, files, parameters, training)
prints one ``error: <message>`` line on stderr.  Parameters live in a JSON
file (default from the REDUCTO_PARAMS environment variable) updated
atomically under an advisory lock; each run appends its quality data to a
sibling record log and trains on the end of that log (see
``learner.REPLAY_WINDOW``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .dimacs import parse_dimacs
from .driver import (
    BENCH_HEADER,
    CHECK_CONFIG,
    SETUP_NAMES,
    bench_row_text,
    run_bench,
    run_selfcheck,
    solve,
)
from .learner import (
    DEFAULT_EPOCHS,
    DEFAULT_LEARNING_RATE,
    REPLAY_WINDOW,
    DeltaStore,
    TrainDivergedError,
    append_quality_log,
    fit,
    init_params,
    load_params,
    load_quality_log,
    save_params,
)
from .search import SearchConfig

PARAMS_ENV = "REDUCTO_PARAMS"
DEFAULT_PARAMS_PATH = "reducto-params.json"

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


@contextlib.contextmanager
def _advisory_lock(path: str):
    # Single-writer discipline for the parameter file; advisory only.
    lock_path = path + ".lock"
    handle = open(lock_path, "w")
    try:
        try:
            import fcntl

            fcntl.flock(handle, fcntl.LOCK_EX)
        except ImportError:
            pass
        yield
    finally:
        handle.close()


def _default_params_path(args) -> str:
    if args.params:
        return args.params
    return os.environ.get(PARAMS_ENV, DEFAULT_PARAMS_PATH)


def _delta_log_path(args, params_path: str) -> str:
    if args.delta_log:
        return args.delta_log
    base = params_path[:-5] if params_path.endswith(".json") else params_path
    return base + ".delta.jsonl"


def _load_or_init_params(path: str):
    if os.path.exists(path):
        return load_params(path)
    return init_params()


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        horizon=args.horizon,
        budget=args.budget,
        exploration=args.exploration,
        discount=args.discount,
        move_cap=args.move_cap,
    )


def _add_search_flags(p: argparse.ArgumentParser, defaults: SearchConfig) -> None:
    p.add_argument("--budget", type=int, default=defaults.budget, help="sampling budget per node")
    p.add_argument("--horizon", type=int, default=defaults.horizon, help="maximum path length")
    p.add_argument(
        "--exploration",
        type=float,
        default=defaults.exploration,
        help="PUCT exploration coefficient (weight of the prior bonus)",
    )
    p.add_argument("--discount", type=float, default=defaults.discount)
    p.add_argument("--move-cap", type=int, default=defaults.move_cap)


def _cmd_solve(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as handle:
            text = handle.read()
    phi = parse_dimacs(text)

    params_path = _default_params_path(args)
    delta_path = _delta_log_path(args, params_path)
    cfg = _search_config(args)

    # A no-train solve writes nothing, and save_params replaces the file
    # atomically, so its read needs no lock.
    lock = contextlib.nullcontext() if args.no_train else _advisory_lock(params_path)
    with lock:
        theta = _load_or_init_params(params_path)
        history = DeltaStore()
        if not args.no_train:
            # Creating the log here makes an unwritable path fail before the
            # search.  Training replays at most the newest REPLAY_WINDOW
            # records, so only the end of the log is read.
            with open(delta_path, "a"):
                pass
            history, skipped = load_quality_log(delta_path, last_lines=REPLAY_WINDOW)
            if skipped:
                print(f"c skipped {skipped} corrupt quality records", file=sys.stderr)
        answer, theta_after, report = solve(
            phi,
            args.setup,
            theta,
            cfg,
            history=history,
            train_after=not args.no_train,
            epochs=args.epochs,
            learning_rate=args.lr,
        )
        if not args.no_train:
            append_quality_log(delta_path, report.records)
            save_params(theta_after, params_path)

    print("c reducto solve")
    print(f"c setup {args.setup}")
    print(f"c path-length {report.path_length}")
    print(f"c nodes-expanded {report.stats.nodes_expanded}")
    print(f"c evaluator-calls {report.stats.evaluator_calls}")
    print(f"c samples {report.stats.samples}")
    if report.loss_before is not None:
        print(f"c train-loss {report.loss_before:.6f} {report.loss_after:.6f}")
    for diag in report.diagnostics:
        print(f"c diagnostic {diag}", file=sys.stderr)
    if answer.kind == "solution":
        print("s SATISFIABLE")
        lits = " ".join(str(l) for l in sorted(answer.value, key=abs))
        print(f"v {lits} 0" if lits else "v 0")
        return EXIT_SAT
    if answer.kind == "no_solution":
        print("s UNSATISFIABLE")
        return EXIT_UNSAT
    print("s UNKNOWN")
    return EXIT_UNKNOWN


def _cmd_train(args) -> int:
    params_path = _default_params_path(args)
    store, skipped = load_quality_log(args.delta_log)
    if skipped:
        print(f"c skipped {skipped} corrupt quality records", file=sys.stderr)
    if store.is_empty:
        raise ValueError("quality log holds no usable records")
    with _advisory_lock(params_path):
        theta = _load_or_init_params(params_path)
        theta_after, first_loss, last_loss = fit(
            theta,
            store,
            epochs=args.epochs,
            learning_rate=args.lr,
            curriculum=args.curriculum,
        )
        save_params(theta_after, params_path)
    print(f"c records {store.record_count}")
    print(f"c first-loss {first_loss:.6f}")
    print(f"c last-loss {last_loss:.6f}")
    return 0


def _cmd_selfcheck(args) -> int:
    cfg = _search_config(args)
    report = run_selfcheck(
        args.instances,
        args.max_vars,
        args.seed,
        args.setup,
        cfg=cfg,
        ratio=args.ratio,
    )
    print(f"c selfcheck setup={args.setup} instances={report.instances}")
    print(f"c solutions {report.solutions}")
    print(f"c no-solutions {report.no_solutions}")
    print(f"c dont-know {report.dont_know}")
    print(f"c quality-violations {len(report.quality_violations)}")
    print(f"c contradictions {len(report.contradictions)}")
    if report.passed:
        print("s SELFCHECK PASS")
        return 0
    for dump in report.contradictions:
        print("c contradicting instance:", file=sys.stderr)
        sys.stderr.write(dump)
    for violation in report.quality_violations:
        print(f"c quality violation: {violation}", file=sys.stderr)
    print("s SELFCHECK FAIL")
    return EXIT_CHECK_FAILED


def _cmd_bench(args) -> int:
    names = [s.strip() for s in args.setups.split(",") if s.strip()]
    if not names:
        raise ValueError("no setups given")
    theta = load_params(args.params) if args.params else None
    cfg = _search_config(args)
    rows = run_bench(
        names,
        args.instances,
        args.max_vars,
        args.seed,
        cfg=cfg,
        ratio=args.ratio,
        theta=theta,
    )
    print(BENCH_HEADER)
    for row in rows:
        print(bench_row_text(row))
    return 0


# Built once per process: parse_args leaves the parser as it was, and a
# trained solve is one main call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reducto", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS instance")
    p_solve.add_argument("input", help="path to a DIMACS CNF file, or - for stdin")
    p_solve.add_argument("--setup", choices=SETUP_NAMES, default="resolution")
    p_solve.add_argument("--params", default=None, help=f"parameter file (default ${PARAMS_ENV})")
    p_solve.add_argument("--delta-log", default=None, help="quality record log path")
    p_solve.add_argument("--no-train", action="store_true", help="skip the training step")
    p_solve.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p_solve.add_argument("--lr", type=float, default=DEFAULT_LEARNING_RATE)
    _add_search_flags(p_solve, SearchConfig())
    p_solve.set_defaults(func=_cmd_solve)

    p_train = sub.add_parser("train", help="train parameters from a quality log")
    p_train.add_argument("--delta-log", required=True)
    p_train.add_argument("--params", default=None)
    p_train.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p_train.add_argument("--lr", type=float, default=DEFAULT_LEARNING_RATE)
    p_train.add_argument("--curriculum", action="store_true")
    p_train.set_defaults(func=_cmd_train)

    p_check = sub.add_parser("selfcheck", help="cross-check answers against the oracle")
    p_check.add_argument("--instances", type=int, default=100)
    p_check.add_argument("--max-vars", type=int, default=6)
    p_check.add_argument("--setup", choices=SETUP_NAMES, default="resolution")
    p_check.add_argument("--ratio", type=float, default=3.0)
    p_check.add_argument("--seed", type=int, default=0, help="instance generator seed")
    _add_search_flags(p_check, CHECK_CONFIG)
    p_check.set_defaults(func=_cmd_selfcheck)

    p_bench = sub.add_parser("bench", help="compare setups on a seeded instance set")
    p_bench.add_argument("--setups", default="resolution,flip")
    p_bench.add_argument("--instances", type=int, default=20)
    p_bench.add_argument("--max-vars", type=int, default=6)
    p_bench.add_argument("--params", default=None)
    p_bench.add_argument("--ratio", type=float, default=3.0)
    p_bench.add_argument("--seed", type=int, default=0, help="instance generator seed")
    _add_search_flags(p_bench, CHECK_CONFIG)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    # The one place a failure becomes an error line; DimacsError and
    # ParamVersionError are ValueErrors.
    try:
        return args.func(args)
    except (ValueError, OSError, TrainDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
