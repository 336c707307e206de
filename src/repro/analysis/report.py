"""Diagnostics: the shared currency of the static-analysis subsystem.

Both tcqcheck targets — the plan verifier (:mod:`repro.analysis.plan_check`)
and the codebase invariant linter (:mod:`repro.analysis.lint`) — emit
:class:`Diagnostic` records.  A diagnostic carries a stable code
(``TCQ101``), a severity derived from the code's century, a message, and
a *location*: either a character span back into the query text (plan
checks) or a file:line pair (code lints).

Code families:

* ``TCQ1xx`` — plan **errors**: the query is rejected at admission.
* ``TCQ2xx`` — plan **warnings**: admitted, but surfaced to the client.
* ``TCQ3xx`` — code **lints**: invariants of this codebase itself.
* ``TCQ7xx`` — whole-program **guard** findings: concurrency and
  process-boundary hazards from :mod:`repro.analysis.guard`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple as TypingTuple

#: Severity levels, ordered.
ERROR = "error"
WARNING = "warning"
LINT = "lint"

#: Every diagnostic code tcqcheck can emit, with its one-line meaning.
#: ``python -m repro.analysis --codes`` prints this table; DESIGN.md §9
#: mirrors it.
CODES: Dict[str, str] = {
    "TCQ100": "query failed to parse or compile",
    "TCQ101": "contradictory constraints on a column (conjunction is "
              "unsatisfiable)",
    "TCQ102": "impossible equality chain across joined columns",
    "TCQ103": "join missing a SteM pair: stream has no equijoin path to "
              "the rest of the query",
    "TCQ104": "dataflow operator unreachable from any ingress, or unable "
              "to reach any egress",
    "TCQ105": "window can never fire (loop never entered, or every "
              "instance is empty)",
    "TCQ106": "window loop makes no progress (re-evaluates the same "
              "instant forever)",
    "TCQ201": "duplicate predicate factor (folded into one grouped-filter "
              "entry)",
    "TCQ202": "subsumed predicate factor (implied by a tighter factor on "
              "the same column)",
    "TCQ203": "trivial factor (always true; contributes no filtering)",
    "TCQ205": "lineage/ready-bit capacity nearly exhausted (wide query or "
              "crowded shared engine)",
    "TCQ206": "window slide exceeds range: some tuples fall in gaps no "
              "window ever sees",
    "TCQ301": "EddyOperator subclass overrides handle without handle_batch "
              "(batch/per-tuple parity)",
    "TCQ302": "telemetry series violates tcq_* naming or registers one "
              "name with two kinds",
    "TCQ303": "direct time.* clock call outside monitor/clock.py "
              "(clock discipline)",
    "TCQ304": "class defines run_once without ready/finished "
              "(Schedulable conformance)",
    "TCQ305": "unbounded list append in a class documented as bounded "
              "(bounded-ring discipline)",
    "TCQ401": "direct TelegraphCQServer construction outside "
              "repro.client (the unified connect() API is the only door)",
    "TCQ501": "row-granular batch access (.materialize() / foreign "
              "._rows) in a hot-path module (columnar discipline)",
    "TCQ601": "process primitive (multiprocessing / os.fork / "
              "ProcessPoolExecutor) outside repro/flux/procs.py "
              "(process confinement)",
    "TCQ701": "blocking call (time.sleep / sync IO / subprocess / "
              "Connection.recv) reachable from an async-context function",
    "TCQ702": "unpicklable value (lambda, local class/def, open handle) "
              "reaches a cross-process payload",
    "TCQ703": "module-level mutable container mutated from a run_once/"
              "handler path (shared-state race candidate)",
    "TCQ704": "asyncio primitive used outside repro.net",
    "TCQ705": "telemetry series constructed outside the registry helpers",
}


def severity_of(code: str) -> str:
    """Severity from the code's century: 1xx error, 2xx warning, 3xx lint."""
    if code.startswith("TCQ1"):
        return ERROR
    if code.startswith("TCQ2"):
        return WARNING
    return LINT


class PlanCheckWarning(UserWarning):
    """Category for plan-verifier warnings surfaced at admission time."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a message, and where it points."""

    code: str
    message: str
    #: Character span into :attr:`source` (query text); (-1, -1) if none.
    span: TypingTuple[int, int] = (-1, -1)
    #: The text the span indexes (the query), kept so rendering is
    #: self-contained.
    source: str = ""
    #: For code lints: the offending file and 1-based line.
    file: str = ""
    line: int = 0
    #: Optional remediation hint appended to the rendering.
    hint: str = ""

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    # -- wire serialization ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict that :meth:`from_dict` rebuilds losslessly —
        spans and source text included, so a client-side render of a
        round-tripped diagnostic is byte-identical to the server's."""
        return {"code": self.code, "message": self.message,
                "span": list(self.span), "source": self.source,
                "file": self.file, "line": self.line, "hint": self.hint}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Diagnostic":
        span = payload.get("span") or (-1, -1)
        return cls(code=str(payload.get("code", "TCQ100")),
                   message=str(payload.get("message", "")),
                   span=(int(span[0]), int(span[1])),
                   source=str(payload.get("source", "")),
                   file=str(payload.get("file", "")),
                   line=int(payload.get("line", 0)),
                   hint=str(payload.get("hint", "")))

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self, color: bool = False) -> str:
        """One human-readable block; spans get a caret line under the
        offending slice of the query text."""
        head = f"{self.code} {self.severity}: {self.message}"
        if self.file:
            head = f"{self.file}:{self.line}: {head}"
        lines = [head]
        start, end = self.span
        if 0 <= start < len(self.source):
            line_start = self.source.rfind("\n", 0, start) + 1
            line_end = self.source.find("\n", start)
            if line_end == -1:
                line_end = len(self.source)
            snippet = self.source[line_start:line_end]
            col = start - line_start
            width = max(1, min(end, line_end) - start)
            lines.append(f"  | {snippet}")
            lines.append("  | " + " " * col + "^" + "~" * (width - 1))
        if self.hint:
            lines.append(f"  = hint: {self.hint}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class DiagnosticReport:
    """An ordered collection of diagnostics with severity partitions."""

    def __init__(self, diagnostics: Iterable[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = list(diagnostics)

    # -- partitions --------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def lints(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == LINT]

    @property
    def ok(self) -> bool:
        """True when nothing at all was found."""
        return not self.diagnostics

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def render(self) -> str:
        if self.ok:
            return "ok: no diagnostics"
        blocks = [d.render() for d in self.diagnostics]
        counts = []
        for label, group in (("error", self.errors),
                             ("warning", self.warnings),
                             ("lint", self.lints)):
            if group:
                plural = "s" if len(group) != 1 else ""
                counts.append(f"{len(group)} {label}{plural}")
        blocks.append(", ".join(counts))
        return "\n".join(blocks)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:
        return f"DiagnosticReport({self.codes()})"


def render_codes_table() -> str:
    """The full code table (for ``--codes`` and the docs)."""
    lines = []
    for code in sorted(CODES):
        lines.append(f"{code}  {severity_of(code):7s}  {CODES[code]}")
    return "\n".join(lines)


def make_span(start: int, end: Optional[int] = None) -> TypingTuple[int, int]:
    """Clamp helper so callers never emit inverted spans."""
    if end is None or end < start:
        end = start + 1
    return (start, end)


#: Default field() users can share for span-bearing AST nodes.
NO_SPAN: TypingTuple[int, int] = (-1, -1)


def span_field():
    """A dataclass field for spans that stays out of eq/hash."""
    return field(default=NO_SPAN, compare=False, repr=False)
