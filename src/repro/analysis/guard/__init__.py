"""tcqguard: whole-program concurrency & boundary analysis (TCQ7xx).

The guard complements the per-file linter in :mod:`repro.analysis.lint`
with cross-module reasoning: one parse of the whole tree builds a
project model (imports, symbols, a conservative call graph), context
inference marks what runs on the event loop, inside engine quanta, or
across the process boundary, and the TCQ701–705 rules evaluate hazards
against those contexts.  See :mod:`repro.analysis.guard.model` for the
resolution tiers and :mod:`repro.analysis.guard.rules` for precision
choices.

Usage::

    from repro.analysis.guard import guard_paths
    result = guard_paths(["src/repro"])
    for diag in result.diagnostics:
        print(diag.render())
"""

from __future__ import annotations

from .contexts import infer_contexts
from .model import build_model
from .rules import GuardResult, run_rules


def guard_paths(paths) -> GuardResult:
    """Run the full TCQ7xx pass over the given roots (dirs or files)."""
    model = build_model(list(paths))
    ctx = infer_contexts(model)
    return run_rules(model, ctx)
