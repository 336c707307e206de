"""tcqcheck target 2: the codebase invariant linter.

The eddy/SteM/Fjord machinery leans on conventions no type checker can
see: per-tuple and batch code paths must stay behaviourally identical,
telemetry series share one global namespace, virtual time only works if
nobody reads the wall clock directly, and the unified scheduler trusts
every unit to speak the Schedulable protocol.  These are exactly the
invariants that rot silently — a missing ``handle_batch`` falls back to
the per-tuple loop and only shows up as a benchmark regression months
later.

This module walks Python sources with :mod:`ast` (two passes: a
cross-module class map first, then per-file rules) and emits ``TCQ3xx``
:class:`~repro.analysis.report.Diagnostic` records:

* ``TCQ301`` batch parity — an ``EddyOperator`` descendant overriding
  ``handle`` must override ``handle_batch`` too;
* ``TCQ302`` telemetry naming — literal series names must be ``tcq_*``
  and one name must not register under two kinds;
* ``TCQ303`` clock discipline — no ``time.time`` / ``time.monotonic`` /
  ``time.perf_counter`` outside ``monitor/clock.py``;
* ``TCQ304`` Schedulable conformance — a class defining ``run_once``
  must provide ``finished`` (directly or inherited);
* ``TCQ305`` bounded-ring discipline — a class documented as *bounded*
  must not grow a list attribute by append alone;
* ``TCQ401`` one front door — ``TelegraphCQServer`` may only be
  constructed inside :mod:`repro.client` (and the engine module that
  defines it); everyone else goes through ``repro.client.connect()``,
  and only :mod:`repro.client` and ``repro/core`` may touch
  ``<expr>.server._private`` attributes;
* ``TCQ501`` columnar discipline — hot-path modules (``repro/core``,
  ``repro/query``) must not drop a ``TupleBatch`` to row granularity:
  no ``.materialize()`` calls and no foreign ``._rows`` pokes outside
  the batch implementation itself.  Row materialization costs one
  Python object per cell and forfeits every kernel; the handful of
  legitimately row-granular sites (SteM storage, dedupe emission,
  per-element kernel fallback) carry explicit exemptions;
* ``TCQ601`` process confinement — multiprocessing / ``os.fork`` /
  ``ProcessPoolExecutor`` primitives live only in
  ``repro/flux/procs.py``.  Worker lifecycle (spawn, teardown,
  orphan prevention) is centralised there; a stray ``Process`` in
  another module escapes the atexit sweep and leaks interpreters.

A finding is suppressed by an exemption comment on the offending line
(or the ``class``/``def`` line for class-level rules)::

    self.t0 = time.monotonic()   # tcqcheck: allow-clock

Run as ``python -m repro.analysis --self`` (the tier-1 gate) or point it
at any path.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Diagnostic
from repro.analysis.suppress import ALLOW_RE

#: Rule tag -> legacy exemption comment suffix (``# tcqcheck:
#: allow-<tag>``).  The modern form is the code-addressed
#: ``# tcq: allow[TCQ303] reason`` (see :mod:`repro.analysis.suppress`),
#: which works for every rule family; the legacy tags stay recognised so
#: existing annotations keep meaning what they said.
EXEMPT_TAGS = {
    "TCQ301": "allow-no-batch",
    "TCQ302": "allow-metric-name",
    "TCQ303": "allow-clock",
    "TCQ304": "allow-not-schedulable",
    "TCQ305": "allow-unbounded",
    "TCQ401": "allow-direct-server",
    "TCQ501": "allow-row-iteration",
    "TCQ601": "allow-process",
}

#: TCQ501 scope: path fragments whose files are batch hot paths.  The
#: batch implementation itself (tuples.py) carries no special-case list
#: — any row-granular site there is either clean (``self._rows`` is the
#: backing store) or carries an inline allow.
_HOT_PATH_DIRS = ("repro/core/", "repro/query/")

_CLOCK_NAMES = {"time", "monotonic", "perf_counter", "monotonic_ns",
                "time_ns", "perf_counter_ns"}
_METRIC_KINDS = {"counter", "gauge", "histogram"}
_SHRINK_CALLS = {"pop", "popleft", "clear", "remove", "__delitem__"}


def _is_exempt(lines: Sequence[str], lineno: int, code: str) -> bool:
    """True when the offending line carries either suppression form:
    the legacy tag (``# tcqcheck: allow-clock``) or the code-addressed
    ``# tcq: allow[TCQ303] reason``."""
    if not 1 <= lineno <= len(lines):
        return False
    text = lines[lineno - 1]
    tag = EXEMPT_TAGS.get(code)
    if tag and f"tcqcheck: {tag}" in text:
        return True
    m = ALLOW_RE.search(text)
    if m and (m.group(2) or "").strip():
        codes = {c.strip() for c in m.group(1).split(",")}
        return code in codes
    return False


class _ClassInfo:
    """What pass 1 learned about one class definition."""

    __slots__ = ("name", "qualname", "bases", "methods", "attrs", "file",
                 "line", "docstring")

    def __init__(self, name: str, bases: List[str], file: str, line: int,
                 docstring: str):
        self.name = name
        self.bases = bases          # base names as written (last component)
        self.methods: Set[str] = set()
        self.attrs: Set[str] = set()        # self.<attr> assigned anywhere
        self.file = file
        self.line = line
        self.docstring = docstring


def _base_name(expr: ast.expr) -> Optional[str]:
    """The last component of a base-class expression (``eddy.EddyOperator``
    -> ``EddyOperator``); None for calls/subscripts we cannot resolve."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):        # Generic[...] etc.
        return _base_name(expr.value)
    return None


def _collect_classes(tree: ast.Module, file: str) -> List[_ClassInfo]:
    out: List[_ClassInfo] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [b for b in (_base_name(e) for e in node.bases)
                 if b is not None]
        info = _ClassInfo(node.name, bases, file, node.lineno,
                          ast.get_docstring(node) or "")
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods.add(item.name)
                for sub in ast.walk(item):
                    target = None
                    if isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            if isinstance(t, ast.Attribute) and \
                                    isinstance(t.value, ast.Name) and \
                                    t.value.id == "self":
                                info.attrs.add(t.attr)
                    elif isinstance(sub, ast.AnnAssign):
                        target = sub.target
                    elif isinstance(sub, ast.AugAssign):
                        target = sub.target
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        info.attrs.add(target.attr)
            elif isinstance(item, ast.Assign):
                for t in item.targets:
                    if isinstance(t, ast.Name):
                        info.attrs.add(t.id)
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                info.attrs.add(item.target.id)
        out.append(info)
    return out


class _Hierarchy:
    """Name-keyed class map with transitive base/member lookups.

    Cross-module resolution is by *bare class name* — good enough for a
    single codebase with unique class names, and it keeps the linter
    import-free."""

    def __init__(self, classes: Iterable[_ClassInfo]):
        self.by_name: Dict[str, _ClassInfo] = {}
        for c in classes:
            # First definition wins; duplicates are rare and benign here.
            self.by_name.setdefault(c.name, c)

    def ancestors(self, name: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            info = self.by_name.get(frontier.pop())
            if info is None:
                continue
            for b in info.bases:
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return seen

    def is_descendant_of(self, name: str, root: str) -> bool:
        return root in self.ancestors(name)

    def defines_member(self, name: str, member: str,
                       include_bases: bool = True) -> bool:
        names = [name]
        if include_bases:
            names += list(self.ancestors(name))
        for n in names:
            info = self.by_name.get(n)
            if info and (member in info.methods or member in info.attrs):
                return True
        return False


# -- individual rules ----------------------------------------------------------

def _rule_batch_parity(tree: ast.Module, file: str, lines: Sequence[str],
                       hierarchy: _Hierarchy) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name == "EddyOperator" or \
                not hierarchy.is_descendant_of(node.name, "EddyOperator"):
            continue
        names = {i.name for i in node.body
                 if isinstance(i, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if "handle" in names and "handle_batch" not in names:
            if _is_exempt(lines, node.lineno, "TCQ301"):
                continue
            diags.append(Diagnostic(
                "TCQ301",
                f"{node.name} overrides EddyOperator.handle but not "
                f"handle_batch; vectorized routing silently falls back to "
                f"the per-tuple loop",
                file=file, line=node.lineno,
                hint="override handle_batch with equivalent semantics, or "
                     "mark the class '# tcqcheck: allow-no-batch'"))
    return diags


def _rule_telemetry_names(tree: ast.Module, file: str, lines: Sequence[str],
                          registry: Dict[str, Tuple[str, str, int]]
                          ) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_KINDS and node.args):
            continue
        first = node.args[0]
        if not (isinstance(first, ast.Constant)
                and isinstance(first.value, str)):
            continue
        name, kind = first.value, node.func.attr
        if _is_exempt(lines, node.lineno, "TCQ302"):
            continue
        if not name.startswith("tcq_"):
            diags.append(Diagnostic(
                "TCQ302",
                f"telemetry series {name!r} does not carry the tcq_ prefix",
                file=file, line=node.lineno,
                hint="all series share one namespace; prefix with tcq_"))
        prior = registry.get(name)
        if prior is None:
            registry[name] = (kind, file, node.lineno)
        elif prior[0] != kind:
            diags.append(Diagnostic(
                "TCQ302",
                f"telemetry series {name!r} registered as {kind} here but "
                f"as {prior[0]} at {prior[1]}:{prior[2]}",
                file=file, line=node.lineno,
                hint="one series name must keep one kind"))
    return diags


def _rule_clock_discipline(tree: ast.Module, file: str,
                           lines: Sequence[str]) -> List[Diagnostic]:
    norm = file.replace(os.sep, "/")
    if norm.endswith("monitor/clock.py"):
        return []
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        bad: Optional[str] = None
        lineno = 0
        if isinstance(node, ast.Attribute) and node.attr in _CLOCK_NAMES \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "time":
            bad, lineno = f"time.{node.attr}", node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_NAMES:
                    bad, lineno = f"from time import {alias.name}", node.lineno
                    break
        if bad is None or _is_exempt(lines, lineno, "TCQ303"):
            continue
        diags.append(Diagnostic(
            "TCQ303",
            f"direct clock access ({bad}) outside monitor/clock.py breaks "
            f"virtual-time testing and telemetry consistency",
            file=file, line=lineno,
            hint="use repro.monitor.clock (or mark the line "
                 "'# tcqcheck: allow-clock' for benchmark code)"))
    return diags


def _rule_schedulable(tree: ast.Module, file: str, lines: Sequence[str],
                      hierarchy: _Hierarchy) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = {i.name for i in node.body
                 if isinstance(i, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if "run_once" not in names:
            continue
        if hierarchy.defines_member(node.name, "finished"):
            continue
        if _is_exempt(lines, node.lineno, "TCQ304"):
            continue
        diags.append(Diagnostic(
            "TCQ304",
            f"{node.name} defines run_once but not finished; schedulers "
            f"will poll it forever",
            file=file, line=node.lineno,
            hint="satisfy the Schedulable protocol (sched/protocol.py), "
                 "or mark the class '# tcqcheck: allow-not-schedulable'"))
    return diags


def _rule_bounded_rings(tree: ast.Module, file: str,
                        lines: Sequence[str]) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        doc = (ast.get_docstring(node) or "").lower()
        if "bounded" not in doc or "unbounded" in doc:
            continue
        list_attrs: Dict[str, int] = {}
        appended: Dict[str, int] = {}
        shrunk: Set[str] = set()
        reassigned: Set[str] = set()
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            in_init = item.name == "__init__"
            for sub in ast.walk(item):
                if isinstance(sub, ast.Assign):
                    for t in sub.targets:
                        if isinstance(t, ast.Attribute) and \
                                isinstance(t.value, ast.Name) and \
                                t.value.id == "self":
                            if in_init and isinstance(sub.value, ast.List) \
                                    and not sub.value.elts:
                                list_attrs.setdefault(t.attr, sub.lineno)
                            elif not in_init:
                                reassigned.add(t.attr)
                        elif isinstance(t, ast.Subscript) and \
                                isinstance(t.value, ast.Attribute) and \
                                isinstance(t.value.value, ast.Name) and \
                                t.value.value.id == "self":
                            # self.x[...] = — slice trimming counts
                            shrunk.add(t.value.attr)
                elif isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Attribute) and \
                        isinstance(sub.func.value, ast.Attribute) and \
                        isinstance(sub.func.value.value, ast.Name) and \
                        sub.func.value.value.id == "self":
                    attr, meth = sub.func.value.attr, sub.func.attr
                    if meth == "append":
                        appended.setdefault(attr, sub.lineno)
                    elif meth in _SHRINK_CALLS:
                        shrunk.add(attr)
                elif isinstance(sub, ast.Delete):
                    for t in sub.targets:
                        v = t.value if isinstance(t, ast.Subscript) else t
                        if isinstance(v, ast.Attribute) and \
                                isinstance(v.value, ast.Name) and \
                                v.value.id == "self":
                            shrunk.add(v.attr)
        for attr, init_line in sorted(list_attrs.items()):
            if attr not in appended or attr in shrunk or attr in reassigned:
                continue
            lineno = appended[attr]
            if _is_exempt(lines, lineno, "TCQ305") or \
                    _is_exempt(lines, node.lineno, "TCQ305"):
                continue
            diags.append(Diagnostic(
                "TCQ305",
                f"{node.name} is documented as bounded but grows "
                f"self.{attr} by append with no pop/clear/trim anywhere",
                file=file, line=lineno,
                hint="trim the buffer, switch to a ring, or mark the "
                     "append '# tcqcheck: allow-unbounded'"))
    return diags


def _rule_server_door(tree: ast.Module, file: str,
                      lines: Sequence[str]) -> List[Diagnostic]:
    """TCQ401: ``TelegraphCQServer(...)`` construction is confined to
    repro.client (the unified connect() API) and the defining module,
    and ``<expr>.server._private`` reach-ins to repro.client and
    repro.core — a transport calls the server's public methods."""
    norm = file.replace(os.sep, "/")
    if "/client/" in norm or "/tests/" in norm or \
            norm.rsplit("/", 1)[-1].startswith("test_"):
        return []
    may_construct = norm.endswith("core/engine.py")
    may_reach_in = "/core/" in norm
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and not may_construct \
                and _base_name(node.func) == "TelegraphCQServer":
            message = ("direct TelegraphCQServer construction bypasses the "
                       "unified client API; engines reached this way are "
                       "invisible to the service and its admin plane")
            hint = "use repro.client.connect() / LocalConnection"
        elif isinstance(node, ast.Attribute) and not may_reach_in \
                and node.attr.startswith("_") \
                and not node.attr.startswith("__") \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "server":
            message = (f"'.server.{node.attr}' reaches into the engine's "
                       f"private state from outside repro.core and "
                       f"repro.client; a second front end grows this way")
            hint = "call a public TelegraphCQServer / LocalConnection method"
        else:
            continue
        if _is_exempt(lines, node.lineno, "TCQ401"):
            continue
        diags.append(Diagnostic(
            "TCQ401", message, file=file, line=node.lineno,
            hint=hint + ", or mark the line "
                        "'# tcqcheck: allow-direct-server'"))
    return diags


def _rule_columnar_discipline(tree: ast.Module, file: str,
                              lines: Sequence[str]) -> List[Diagnostic]:
    """TCQ501: no row-granular batch access in the hot-path modules."""
    norm = file.replace(os.sep, "/")
    if not any(d in norm for d in _HOT_PATH_DIRS):
        return []
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        bad: Optional[str] = None
        lineno = 0
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "materialize":
            bad = "batch.materialize() drops to one Python object per row"
            lineno = node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "_rows" \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            bad = "foreign ._rows access bypasses the batch's columns"
            lineno = node.lineno
        if bad is None or _is_exempt(lines, lineno, "TCQ501"):
            continue
        diags.append(Diagnostic(
            "TCQ501",
            f"row-granular batch access in a hot-path module: {bad}",
            file=file, line=lineno,
            hint="use column()/partition()/take() kernels, "
                 "or mark a legitimately row-granular site "
                 "'# tcqcheck: allow-row-iteration'"))
    return diags


_FORK_OS_NAMES = {"fork", "forkpty", "posix_spawn", "posix_spawnp"}
_PROCESS_EXECUTORS = {"ProcessPoolExecutor"}


def _rule_process_confinement(tree: ast.Module, file: str,
                              lines: Sequence[str]) -> List[Diagnostic]:
    """TCQ601: process-spawning primitives are confined to
    ``repro/flux/procs.py``, where lifecycle (graceful teardown, the
    atexit sweep, the orphan leak check) is centralised."""
    norm = file.replace(os.sep, "/")
    if "/tests/" in norm or norm.rsplit("/", 1)[-1].startswith("test_"):
        return []
    diags: List[Diagnostic] = []
    for node in ast.walk(tree):
        bad: Optional[str] = None
        lineno = 0
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "multiprocessing":
                    bad, lineno = f"import {alias.name}", node.lineno
                    break
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing":
                bad, lineno = f"from {module} import ...", node.lineno
            elif module.startswith("concurrent.futures"):
                hit = [a.name for a in node.names
                       if a.name in _PROCESS_EXECUTORS]
                if hit:
                    bad = f"from {module} import {hit[0]}"
                    lineno = node.lineno
        elif isinstance(node, ast.Attribute) and \
                node.attr in _FORK_OS_NAMES and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            bad, lineno = f"os.{node.attr}", node.lineno
        elif isinstance(node, ast.Attribute) and \
                node.attr in _PROCESS_EXECUTORS:
            bad, lineno = f"{node.attr}", node.lineno
        if bad is None or _is_exempt(lines, lineno, "TCQ601"):
            continue
        diags.append(Diagnostic(
            "TCQ601",
            f"process primitive ({bad}) outside repro/flux/procs.py; "
            f"workers spawned here escape the centralised teardown and "
            f"orphan sweep",
            file=file, line=lineno,
            hint="route process work through repro.flux.procs "
                 "(MultiprocessBackend), or mark the line "
                 "'# tcqcheck: allow-process'"))
    return diags


# -- drivers -------------------------------------------------------------------

def _parse_file(path: str) -> Optional[Tuple[ast.Module, List[str]]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return ast.parse(text, filename=path), text.splitlines()
    except (OSError, SyntaxError):
        return None


def iter_python_files(paths: Iterable[str]) -> List[str]:
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                out.extend(os.path.join(root, f) for f in sorted(files)
                           if f.endswith(".py"))
        elif p.endswith(".py"):
            out.append(p)
    return out


def lint_paths(paths: Iterable[str]) -> List[Diagnostic]:
    """Lint every ``.py`` under ``paths`` (files or directories)."""
    files = iter_python_files(paths)
    parsed: List[Tuple[str, ast.Module, List[str]]] = []
    classes: List[_ClassInfo] = []
    for f in files:
        result = _parse_file(f)
        if result is None:
            continue
        tree, lines = result
        parsed.append((f, tree, lines))
        classes.extend(_collect_classes(tree, f))
    hierarchy = _Hierarchy(classes)
    registry: Dict[str, Tuple[str, str, int]] = {}
    diags: List[Diagnostic] = []
    for f, tree, lines in parsed:
        diags.extend(_rule_batch_parity(tree, f, lines, hierarchy))
        diags.extend(_rule_telemetry_names(tree, f, lines, registry))
        diags.extend(_rule_clock_discipline(tree, f, lines))
        diags.extend(_rule_schedulable(tree, f, lines, hierarchy))
        diags.extend(_rule_bounded_rings(tree, f, lines))
        diags.extend(_rule_server_door(tree, f, lines))
        diags.extend(_rule_columnar_discipline(tree, f, lines))
        diags.extend(_rule_process_confinement(tree, f, lines))
    return diags


def lint_source(source: str, file: str = "<string>",
                extra_sources: Optional[Dict[str, str]] = None
                ) -> List[Diagnostic]:
    """Lint a source string (tests, tooling).  ``extra_sources`` maps
    file names to source text that contributes classes to the hierarchy
    without being linted itself."""
    tree = ast.parse(source, filename=file)
    lines = source.splitlines()
    classes = _collect_classes(tree, file)
    for name, text in (extra_sources or {}).items():
        classes.extend(_collect_classes(ast.parse(text, filename=name), name))
    hierarchy = _Hierarchy(classes)
    registry: Dict[str, Tuple[str, str, int]] = {}
    diags: List[Diagnostic] = []
    diags.extend(_rule_batch_parity(tree, file, lines, hierarchy))
    diags.extend(_rule_telemetry_names(tree, file, lines, registry))
    diags.extend(_rule_clock_discipline(tree, file, lines))
    diags.extend(_rule_schedulable(tree, file, lines, hierarchy))
    diags.extend(_rule_bounded_rings(tree, file, lines))
    diags.extend(_rule_server_door(tree, file, lines))
    diags.extend(_rule_columnar_discipline(tree, file, lines))
    diags.extend(_rule_process_confinement(tree, file, lines))
    return diags
