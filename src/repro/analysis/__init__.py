"""tcqcheck: static analysis for the TelegraphCQ reproduction.

Three targets share one diagnostic vocabulary (:mod:`repro.analysis.report`):

* the **plan verifier** (:mod:`repro.analysis.plan_check`) runs at query
  admission — contradictory predicates, impossible equality chains,
  unpaired joins, dead windows, and shared-dataflow capacity hazards are
  caught *before* a query joins the shared eddy;
* the **invariant linter** (:mod:`repro.analysis.lint`) walks this
  codebase's own sources file-by-file for conventions the machinery
  relies on — batch/per-tuple parity, telemetry naming, clock
  discipline, Schedulable conformance, bounded-buffer discipline;
* the **whole-program guard** (:mod:`repro.analysis.guard`) parses the
  tree once into a project model (imports, symbols, a conservative call
  graph) and checks cross-module concurrency and process-boundary
  hazards — blocking calls on event-loop paths, unpicklable values
  crossing the Flux process boundary, shared mutable globals on engine
  paths (TCQ7xx).

Any finding can be suppressed in place with
``# tcq: allow[TCQ701] reason`` (:mod:`repro.analysis.suppress`); the
reason text is mandatory.  A ``REPRO_SANITIZE=1`` runtime sanitizer
(:mod:`repro.analysis.sanitize`) cross-checks the guard's static claims
dynamically in tier-2.

Command line: ``python -m repro.analysis --self`` (analyze the shipped
tree; the tier-1 gate), ``--json`` (machine-readable findings),
``--rules TCQ7`` (filter by code prefix), ``--codes`` (the diagnostic
table), ``--query 'SELECT ...'`` (plan-check a query against an empty
catalog), or any list of paths.
"""
