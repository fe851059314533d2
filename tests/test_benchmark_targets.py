"""The benchmark's wrap targets still name code that exists.

``perfbench/spans.py`` times each layer by replacing functions and methods
named in its target tables.  A target that no longer resolves makes its
per-layer metric read as absent, with no error.  This test reads the tables
(without changing them) and fails when a rename leaves a target behind.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets of code deleted earlier, still listed in the tables.
KNOWN_STALE = {
    "reducto.driver:_solve_full",
    "reducto.learner:merge_quality",
    "reducto.learner:train",
    "reducto.portfolio:Portfolio.moves",
    "reducto.portfolio:Portfolio.lift",
    "reducto.portfolio:BuiltinMember.transform",
    "reducto.sat:PURE_LITERAL",
    "reducto.sat:SUBSUMPTION",
}


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves_except_the_known_stale_ones(monkeypatch):
    spans = load_spans(monkeypatch)
    targets = [t for table in (spans.FUNCTION_TARGETS, spans.METHOD_TARGETS)
               for ts in table.values() for t in ts]
    targets.extend(spans.REDUCTION_TARGETS)
    assert KNOWN_STALE <= set(targets)
    missing = {t for t in targets if spans._lookup(t) is None}
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
