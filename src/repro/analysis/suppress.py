"""Inline suppression comments for tcqcheck findings.

One syntax serves every rule family::

    handle.ctrl.poll(0.005)  # tcq: allow[TCQ701] synchronous control RPC

The bracket lists one or more codes (comma separated) and the trailing
free text is a *required* justification — an allow without a reason is
ignored, which keeps "silence the linter" commits honest.  A suppression
binds to the physical line it sits on; for multi-line constructs put it
on the line the diagnostic points at (the ``def``/``class`` line for
function- and class-level findings).

It is the only syntax: the TCQ3xx–6xx linter rules (``lint.py``) and
the whole-program TCQ7xx family read the same comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Suppressions", "parse_suppressions", "ALLOW_RE"]

ALLOW_RE = re.compile(
    r"#\s*tcq:\s*allow\[\s*([A-Z0-9,\s]+?)\s*\]\s*(\S.*)?$"
)


@dataclass
class _Allow:
    codes: frozenset
    reason: str
    used: int = 0


@dataclass
class Suppressions:
    """Per-file index of ``# tcq: allow[...]`` comments.

    ``is_suppressed(line, code)`` marks the allow as used; ``unused()``
    lets callers report stale suppressions if they want to.
    """

    by_line: dict = field(default_factory=dict)

    def is_suppressed(self, line: int, code: str) -> bool:
        allow = self.by_line.get(line)
        if allow is None or code not in allow.codes:
            return False
        allow.used += 1
        return True

    def covers(self, line: int, code: str) -> bool:
        """Like ``is_suppressed`` but without marking usage."""
        allow = self.by_line.get(line)
        return allow is not None and code in allow.codes

    @property
    def used_count(self) -> int:
        return sum(a.used for a in self.by_line.values())

    def unused(self):
        return [(line, sorted(a.codes), a.reason)
                for line, a in sorted(self.by_line.items()) if not a.used]


def parse_suppressions(source: str) -> Suppressions:
    """Scan *source* for allow comments; 1-based line -> allow record.

    Malformed allows (no reason text after the bracket) are dropped on
    purpose: a suppression must say why.
    """
    index: dict = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = ALLOW_RE.search(text)
        if not m:
            continue
        reason = (m.group(2) or "").strip()
        if not reason:
            continue
        codes = frozenset(
            c.strip() for c in m.group(1).split(",") if c.strip()
        )
        if codes:
            index[lineno] = _Allow(codes=codes, reason=reason)
    return Suppressions(by_line=index)
