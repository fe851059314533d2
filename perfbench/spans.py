"""Span recording around reducto's layer boundaries, applied from outside.

A traced run replaces module and class attributes of the ``reducto`` package
with wrappers that record one span per call: name, start, end, parent span
and op id.  Spans live in flat arrays while the run goes on and are written
out when it ends.  Nothing under ``src/`` is edited; ``instrument`` restores
every attribute it replaced when its ``with`` block exits.

A layer's self time is its spans' duration minus the part covered by child
spans.  Calls and inclusive seconds count only spans not nested inside a span
of the same name, so a layer that calls itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import sys
from array import array
from time import perf_counter

# Span names, one per wrapped boundary.  The metric names of the traced run
# are built from these.
SAT_MOVE_IDS = ("resolution", "subsumption", "pure-literal", "extension", "flip")
SPAN_NAMES = (
    "cli.main",
    "dimacs.parse_dimacs",
    "driver.solve",
    "driver.derive_answer",
    "search.ams_search",
    "core.enumerate_moves",
    "core.verify_path",
    "core.lift_solution",
    *(f"sat.moves.{rid}" for rid in SAT_MOVE_IDS),
    "sat.lift",
    "sat.easy",
    "sat.formula",
    "learner.featurize",
    "learner.value",
    "learner.priors",
    "learner.merge_quality",
    "learner.train",
    "learner.load_quality_log",
    "learner.append_quality_log",
    "learner.save_params",
    "learner.load_params",
    "portfolio.moves",
    "portfolio.lift",
    "portfolio.transform",
)

# Counters kept next to the spans, at the same boundaries.
COUNTER_NAMES = (
    "core.moves_generated",
    "core.moves_truncated",
    "search.nodes",
    "search.evaluator_calls",
    "search.children",
    "search.children_visited",
    "learner.train.records",
    "learner.load_quality_log.records",
    "learner.load_quality_log.skipped",
    "learner.append_quality_log.records",
    "portfolio.transform.in_lift",
    "portfolio.failures",
)


class Recorder:
    """In-memory span store: one entry per call, in flat typed arrays."""

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth = [0] * len(self.names)
        self.op_id = -1
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.nested.append(self.depth[nid] > 0)
        self.depth[nid] += 1
        self.stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.depth[self.name[i]] -= 1

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def inside(self, name: str) -> bool:
        return self.depth[self.ids[name]] > 0

    def parent_is(self, name: str) -> bool:
        return bool(self.stack) and self.name[self.stack[-1]] == self.ids[name]

    def write(self, path: str) -> None:
        """One JSON header line, then the columns as raw machine arrays."""
        columns = [("name", self.name), ("parent", self.parent), ("op", self.op),
                   ("nested", self.nested), ("start", self.start), ("end", self.end)]
        header = {
            "names": list(self.names),
            "count": len(self.name),
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for _, a in columns:
                a.tofile(handle)


def read_spans(path: str) -> Recorder:
    """Load a span file written by ``Recorder.write``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        rec = Recorder(header["names"])
        for column, typecode, _ in header["columns"]:
            a = array(typecode)
            a.fromfile(handle, header["count"])
            setattr(rec, column, a)
    return rec


@dataclasses.dataclass
class LayerTotals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


def aggregate(rec: Recorder) -> dict[str, LayerTotals]:
    """Calls, inclusive seconds and self seconds per span name."""
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    covered = [0.0] * n
    parent = rec.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += dur[i]
    totals = {name: LayerTotals() for name in rec.names}
    for i in range(n):
        t = totals[rec.names[rec.name[i]]]
        t.self_s += dur[i] - covered[i]
        if not rec.nested[i]:
            t.calls += 1
            t.s += dur[i]
    return totals


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn, after=None):
    nid = rec.ids[name]
    open_, close = rec.open, rec.close

    if after is None:
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
    else:
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            after(args, kwargs, out)
            return out

    wrapper.__wrapped__ = fn
    return wrapper


class _Patcher:
    """Replaces attributes and remembers the originals for restoring."""

    def __init__(self, modules):
        self.modules = modules
        self.saved: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, replacement) -> int:
        """Rebind every module-level name in reducto that holds ``original``."""
        hits = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)
                    hits += 1
        return hits

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _lookup(dotted: str):
    """Resolve ``module:attr.attr``; None when any part no longer exists."""
    mod_name, _, attr_path = dotted.partition(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    for part in attr_path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


# Module-level functions, wrapped wherever reducto binds them.  Each span may
# list several targets; it is absent only when none of them exists.
FUNCTION_TARGETS = {
    "cli.main": ("reducto.cli:main",),
    "dimacs.parse_dimacs": ("reducto.dimacs:parse_dimacs",),
    "driver.solve": ("reducto.driver:solve", "reducto.driver:_solve_full"),
    "driver.derive_answer": ("reducto.driver:derive_answer",),
    "search.ams_search": ("reducto.search:ams_search",),
    "core.enumerate_moves": ("reducto.core:enumerate_moves",),
    "core.verify_path": ("reducto.core:verify_path",),
    "core.lift_solution": ("reducto.core:lift_solution",),
    "sat.easy": ("reducto.sat:easy_trivial", "reducto.sat:easy_all_positive",
                 "reducto.sat:easy_combined"),
    "learner.featurize": ("reducto.learner:featurize",),
    "learner.merge_quality": ("reducto.learner:merge_quality",),
    "learner.train": ("reducto.learner:train",),
    "learner.load_quality_log": ("reducto.learner:load_quality_log",),
    "learner.append_quality_log": ("reducto.learner:append_quality_log",),
    "learner.save_params": ("reducto.learner:save_params",),
    "learner.load_params": ("reducto.learner:load_params",),
}

# Methods, wrapped on their class.
METHOD_TARGETS = {
    "sat.formula": ("reducto.sat:Formula.__init__",),
    "learner.value": ("reducto.learner:LinearEvaluator.value",),
    "learner.priors": ("reducto.learner:LinearEvaluator.priors",),
    "portfolio.moves": ("reducto.portfolio:Portfolio.moves",),
    "portfolio.lift": ("reducto.portfolio:Portfolio.lift",),
    "portfolio.transform": ("reducto.portfolio:BuiltinMember.transform",
                            "reducto.portfolio:ExternalMember.transform"),
}

# SelfReduction constants whose move and lift functions are wrapped.
REDUCTION_TARGETS = tuple(
    f"reducto.sat:{c}" for c in ("RESOLUTION", "SUBSUMPTION", "PURE_LITERAL", "EXTENSION", "FLIP")
)


def _reducto_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "reducto" or name.startswith("reducto."))]


def _counting_hooks(rec: Recorder) -> dict:
    """Post-call hooks that read counts off arguments and results."""

    def moves_made(args, kwargs, out):
        rec.add("core.moves_generated", len(out))

    def search_done(args, kwargs, result):
        rec.add("search.nodes", result.stats.nodes_expanded)
        rec.add("search.evaluator_calls", result.stats.evaluator_calls)
        for dist in result.quality.distributions.values():
            rec.add("search.children", len(dist))
            rec.add("search.children_visited", sum(1 for c in dist.values() if c > 0))

    def trained(args, kwargs, out):
        store = args[1] if len(args) > 1 else kwargs["store"]
        rec.add("learner.train.records", store.record_count)

    def log_loaded(args, kwargs, out):
        store, skipped = out
        rec.add("learner.load_quality_log.records", store.record_count)
        rec.add("learner.load_quality_log.skipped", skipped)

    def log_appended(args, kwargs, out):
        rec.add("learner.append_quality_log.records", out)

    return {
        "core.enumerate_moves": moves_made,
        "search.ams_search": search_done,
        "learner.train": trained,
        "learner.load_quality_log": log_loaded,
        "learner.append_quality_log": log_appended,
    }


def _wrap_reduction(rec: Recorder, red, move_cap: list[int]):
    span = f"sat.moves.{red.id}"
    if span not in rec.ids:
        return None
    moves_nid, lift_nid = rec.ids[span], rec.ids["sat.lift"]
    moves_fn, lift_fn = red.moves, red.lift

    def moves(x):
        i = rec.open(moves_nid)
        try:
            out = moves_fn(x)
        finally:
            rec.close(i)
        if rec.parent_is("core.enumerate_moves"):
            # What enumerate_moves keeps of this reduction's raw output.
            distinct = len({m for m in out if m != x})
            rec.add("core.moves_truncated", max(0, distinct - move_cap[0]))
        return out

    def lift(x, x2, y):
        i = rec.open(lift_nid)
        try:
            return lift_fn(x, x2, y)
        finally:
            rec.close(i)

    return dataclasses.replace(red, moves=moves, lift=lift)


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap reducto's layer boundaries for the duration of the block.

    Yields the sorted list of span names none of whose targets exist; their
    layers are reported as absent.
    """
    functions = [(span, _lookup(t)) for span, ts in FUNCTION_TARGETS.items() for t in ts]
    methods = [(span, t) for span, ts in METHOD_TARGETS.items() for t in ts]
    reductions = [_lookup(t) for t in REDUCTION_TARGETS]
    # Resolving the targets imported every module that binds them.
    patcher = _Patcher(_reducto_modules())
    hooks = _counting_hooks(rec)
    default_cap = _lookup("reducto.core:DEFAULT_MOVE_CAP") or 256
    move_cap = [default_cap]
    found = set()
    try:
        for span, fn in functions:
            if fn is None:
                continue
            inner = fn
            if span == "core.enumerate_moves":
                inner = _remember_cap(fn, move_cap, default_cap)
            if patcher.replace_everywhere(fn, _timed(rec, span, inner, hooks.get(span))):
                found.add(span)
        for span, target in methods:
            owner_path, attr = target.rsplit(".", 1)
            owner, fn = _lookup(owner_path), _lookup(target)
            if fn is not None:
                patcher.set(owner, attr, _method_wrapper(rec, span, fn))
                found.add(span)
        for red in reductions:
            wrapped = None if red is None else _wrap_reduction(rec, red, move_cap)
            if wrapped is not None and patcher.replace_everywhere(red, wrapped):
                found.update((f"sat.moves.{red.id}", "sat.lift"))
        yield sorted(set(rec.names) - found)
    finally:
        patcher.restore()


def _remember_cap(fn, move_cap: list[int], default: int):
    """Note the cap each enumerate_moves call applies, for truncation counts."""

    def enumerate_moves(*args, **kwargs):
        move_cap[0] = kwargs.get("move_cap", args[2] if len(args) > 2 else default)
        return fn(*args, **kwargs)

    return enumerate_moves


def _method_wrapper(rec: Recorder, span: str, fn):
    if span == "portfolio.transform":
        inner = _timed(rec, span, fn)

        def transform(self, phi):
            if rec.inside("portfolio.lift") or rec.inside("core.verify_path"):
                rec.add("portfolio.transform.in_lift", 1)
            return inner(self, phi)

        return transform
    if span in ("portfolio.moves", "portfolio.lift"):
        inner = _timed(rec, span, fn)

        def member_call(self, *args):
            before = len(self.failures)
            try:
                return inner(self, *args)
            finally:
                rec.add("portfolio.failures", len(self.failures) - before)

        return member_call
    return _timed(rec, span, fn)
