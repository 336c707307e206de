"""The TCQ7xx rule family, evaluated over a :class:`ProjectModel`.

Each rule walks the model (not raw files), so a finding can say *why*
a line is dangerous — e.g. the call chain that makes a blocking call
event-loop work.  Findings honour ``# tcq: allow[TCQ70x] reason``
comments on the offending line (or the enclosing ``def``/``class``
line for function-granular findings).

Precision choices, deliberately conservative in both directions:

* TCQ701 ignores ``open()`` (the spill paths do short local file IO by
  design) and only flags ``.join(...)``/``.poll(...)`` forms that can
  actually park: a ``timeout=`` kwarg on join, a positive or symbolic
  timeout on poll (``poll(0)`` is a non-blocking probe).
* TCQ703 targets module-level *container* globals (list/dict/set/deque
  literals or constructors).  Instance singletons like the telemetry
  TOTALS objects are excluded: they are the sanctioned aggregation
  idiom, published through registry collectors.
* TCQ705 resolves imports before flagging, so project-local classes
  that merely share a name with telemetry kinds (``TallyCounter``)
  stay out of scope.
"""

from __future__ import annotations

import ast

from ..report import Diagnostic
from .contexts import Contexts
from .model import CallSite, FunctionInfo, ModuleInfo, ProjectModel, _dotted

__all__ = ["run_rules", "GuardResult"]


class GuardResult:
    """Findings plus the suppression bookkeeping the CLI reports."""

    def __init__(self, diagnostics, suppressed: int):
        self.diagnostics = list(diagnostics)
        self.suppressed = suppressed


# ---------------------------------------------------------------------------
# shared helpers


def _span_for(mod: ModuleInfo, node) -> tuple:
    """Character span of *node* inside the module source, for carets."""
    lines = mod.source.splitlines(keepends=True)
    if not (1 <= node.lineno <= len(lines)):
        return (-1, -1)
    start = sum(len(ln) for ln in lines[: node.lineno - 1]) + node.col_offset
    end_line = getattr(node, "end_lineno", node.lineno)
    end_col = getattr(node, "end_col_offset", node.col_offset + 1)
    if end_line == node.lineno:
        end = start - node.col_offset + end_col
    else:
        end = start + 1
    return (start, end)


def _emit(findings, mod: ModuleInfo, node, code: str, message: str,
          hint: str = "", anchor_lines=()):
    """Append a Diagnostic unless an allow comment covers it.

    *anchor_lines* are extra lines (e.g. the enclosing ``def``) where a
    suppression also counts.
    """
    for line in (node.lineno, *anchor_lines):
        if mod.suppressions.is_suppressed(line, code):
            return
    findings.append(Diagnostic(
        code=code, message=message, file=mod.file, line=node.lineno,
        span=_span_for(mod, node), source=mod.source, hint=hint,
    ))


def _fmt_chain(chain) -> str:
    return " -> ".join(q.rsplit(".", 2)[-1] if q.count(".") < 2
                       else ".".join(q.rsplit(".", 2)[-2:]) for q in chain)


# ---------------------------------------------------------------------------
# TCQ701 — blocking call reachable from async context


_BLOCK_EXACT = {
    "time.sleep": "time.sleep parks the whole event loop",
    "select.select": "select.select blocks the loop thread",
    "os.wait": "os.wait blocks until a child exits",
    "os.waitpid": "os.waitpid blocks until a child exits",
    "socket.create_connection": "synchronous connect blocks the loop",
    "multiprocessing.connection.wait": "connection.wait parks the loop "
                                       "until a worker pipe is readable",
}

_BLOCK_METHODS = {"recv", "recv_bytes", "recv_into", "accept"}


def _poll_blocks(call: ast.Call) -> bool:
    """``poll(0)`` is a probe; a positive or symbolic timeout parks."""
    args = list(call.args) + [kw.value for kw in call.keywords
                              if kw.arg == "timeout"]
    if not args:
        return False  # Connection.poll() defaults to an immediate probe
    arg = args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float)):
        return arg.value > 0
    return True  # symbolic timeout: assume it can park


def _join_blocks(call: ast.Call) -> bool:
    """str.join never takes kwargs; thread/process join with a timeout
    (or bare, on an attribute receiver) is the blocking variant we can
    identify without type info."""
    return any(kw.arg == "timeout" for kw in call.keywords)


def _blocking_reason(site: CallSite) -> str | None:
    if site.awaited or site.targets:
        return None
    if site.external in _BLOCK_EXACT:
        return _BLOCK_EXACT[site.external]
    if site.external and site.external.startswith("subprocess."):
        return "subprocess calls block on the child process"
    if site.attr in _BLOCK_METHODS:
        return f".{site.attr}() is synchronous IO and can park the loop"
    if site.attr == "poll" and _poll_blocks(site.node):
        return "poll with a timeout parks the calling thread"
    if site.attr == "join" and _join_blocks(site.node):
        return "join(timeout=...) parks the calling thread"
    if site.attr == "wait" and site.node.keywords and _join_blocks(site.node):
        return "wait(timeout=...) parks the calling thread"
    return None


def _check_tcq701(model: ProjectModel, ctx: Contexts, findings):
    for qual, _pred in ctx.async_reachable.items():
        fn = model.functions.get(qual)
        if fn is None:
            continue
        mod = model.module_of(fn)
        for site in fn.calls:
            reason = _blocking_reason(site)
            if reason is None:
                continue
            chain = ctx.chain(ctx.async_reachable, qual)
            what = site.external or f".{site.attr}()"
            _emit(
                findings, mod, site.node, "TCQ701",
                f"blocking call {what} reachable from async context "
                f"({_fmt_chain(chain)}): {reason}",
                hint="move the wait off the loop thread, make it a "
                     "non-blocking probe, or justify with "
                     "# tcq: allow[TCQ701] <reason>",
                anchor_lines=(fn.lineno,),
            )


# ---------------------------------------------------------------------------
# TCQ702 — unpicklable value into a cross-process payload


def _unpicklable_reason(arg, fn: FunctionInfo) -> str | None:
    if isinstance(arg, ast.Lambda):
        return "a lambda cannot be pickled"
    if isinstance(arg, ast.Name):
        local = fn.local_callables.get(arg.id)
        if isinstance(local, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"nested function {arg.id!r} cannot be pickled"
        if isinstance(local, ast.ClassDef):
            return f"local class {arg.id!r} cannot be pickled"
        if fn.local_types.get(arg.id) == "open":
            return f"{arg.id!r} holds an open file handle"
    if isinstance(arg, ast.Call) and _dotted(arg.func) == "open":
        return "an open file handle cannot be pickled"
    return None


def _check_tcq702(model: ProjectModel, ctx: Contexts, findings):
    for fn in model.functions.values():
        mod = model.module_of(fn)
        for site in fn.calls:
            # direct pickling of an obviously unpicklable expression
            if site.external in ("pickle.dumps", "pickle.dump"):
                for arg in site.node.args:
                    reason = _unpicklable_reason(arg, fn)
                    if reason:
                        _emit(findings, mod, site.node, "TCQ702",
                              f"unpicklable value pickled directly: {reason}",
                              hint="cross-process payloads must survive a "
                                   "pickle round-trip",
                              anchor_lines=(fn.lineno,))
                continue
            # one-hop interprocedural: argument flows into a sink param
            for target in site.targets:
                pickled_params = ctx.boundary_sinks.get(target)
                if not pickled_params:
                    continue
                target_fn = model.functions[target]
                params = [p for p in target_fn.params if p != "self"]
                for idx, arg in enumerate(site.node.args):
                    if idx >= len(params) or params[idx] not in pickled_params:
                        continue
                    reason = _unpicklable_reason(arg, fn)
                    if reason:
                        _emit(findings, mod, site.node, "TCQ702",
                              f"unpicklable value reaches cross-process "
                              f"payload via {target.rsplit('.', 1)[-1]}(): "
                              f"{reason}",
                              hint="ship a module-level callable or plain "
                                   "data instead",
                              anchor_lines=(fn.lineno,))
                for kw in site.node.keywords:
                    if kw.arg not in pickled_params:
                        continue
                    reason = _unpicklable_reason(kw.value, fn)
                    if reason:
                        _emit(findings, mod, site.node, "TCQ702",
                              f"unpicklable value reaches cross-process "
                              f"payload via {target.rsplit('.', 1)[-1]}(): "
                              f"{reason}",
                              hint="ship a module-level callable or plain "
                                   "data instead",
                              anchor_lines=(fn.lineno,))


# ---------------------------------------------------------------------------
# TCQ703 — module-level mutable global mutated from an engine path


_MUTATORS = {"append", "extend", "add", "update", "pop", "popleft", "clear",
             "remove", "insert", "setdefault", "appendleft", "discard"}


def _global_mutations(fn: FunctionInfo, mod: ModuleInfo, model: ProjectModel):
    """Yield (node, global_name) for mutations of module-level containers.

    Tracks simple local aliases (``totals = GLOBAL``) and names imported
    from sibling project modules.
    """

    def _container_origin(name: str):
        # a local assignment shadows the global unless it *is* the alias
        if name in mod.container_globals:
            return mod.name, name
        target = mod.imports.get(name)
        if target:
            tmod_name, _, gname = target.rpartition(".")
            tmod = model.modules.get(tmod_name)
            if tmod and gname in tmod.container_globals:
                return tmod_name, gname
        return None

    aliases: dict = {}
    locals_assigned = set()
    for top in (fn.node.body if hasattr(fn.node, "body") else []):
        for sub in ast.walk(top):
            if isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    if isinstance(tgt, ast.Name):
                        locals_assigned.add(tgt.id)
                        if (isinstance(sub.value, ast.Name)
                                and _container_origin(sub.value.id)):
                            aliases[tgt.id] = sub.value.id

    def _resolve(name: str):
        if name in aliases:
            name = aliases[name]
        elif name in locals_assigned:
            return None  # shadowed by a local rebinding
        return _container_origin(name)

    for top in (fn.node.body if hasattr(fn.node, "body") else []):
        for sub in ast.walk(top):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                recv = sub.func.value
                if isinstance(recv, ast.Name) and sub.func.attr in _MUTATORS:
                    origin = _resolve(recv.id)
                    if origin:
                        yield sub, origin
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for tgt in targets:
                    if (isinstance(tgt, ast.Subscript)
                            and isinstance(tgt.value, ast.Name)):
                        origin = _resolve(tgt.value.id)
                        if origin:
                            yield sub, origin
            elif isinstance(sub, ast.Delete):
                for tgt in sub.targets:
                    if (isinstance(tgt, ast.Subscript)
                            and isinstance(tgt.value, ast.Name)):
                        origin = _resolve(tgt.value.id)
                        if origin:
                            yield sub, origin


def _check_tcq703(model: ProjectModel, ctx: Contexts, findings):
    for qual in ctx.engine_reachable:
        fn = model.functions.get(qual)
        if fn is None:
            continue
        mod = model.module_of(fn)
        for node, (owner_mod, gname) in _global_mutations(fn, mod, model):
            chain = ctx.chain(ctx.engine_reachable, qual)
            _emit(findings, mod, node, "TCQ703",
                  f"module-level container {owner_mod}.{gname} mutated on an "
                  f"engine path ({_fmt_chain(chain)}): units interleave, so "
                  f"shared mutable state is a race candidate",
                  hint="pass state through the unit, or justify with "
                       "# tcq: allow[TCQ703] <reason>",
                  anchor_lines=(fn.lineno,))


# ---------------------------------------------------------------------------
# TCQ704 — asyncio outside repro.net


def _check_tcq704(model: ProjectModel, findings):
    for mod in model.modules.values():
        if "net" in mod.name.split("."):
            continue
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "asyncio" or n.startswith("asyncio.") for n in names):
                _emit(findings, mod, node, "TCQ704",
                      f"asyncio used in {mod.name}: event-loop primitives "
                      f"belong to the repro.net front door",
                      hint="hand work to the net service, or use the "
                           "cooperative scheduler")


# ---------------------------------------------------------------------------
# TCQ705 — telemetry series constructed outside the registry helpers


_SERIES_KINDS = {"Counter", "Gauge", "Histogram"}


def _check_tcq705(model: ProjectModel, findings):
    for mod in model.modules.values():
        if mod.name.endswith("telemetry"):
            continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if not name:
                continue
            head, _, last = name.rpartition(".")
            bare = last or name
            if bare not in _SERIES_KINDS:
                continue
            target = mod.imports.get(name.split(".")[0])
            if head:
                dotted_target = (target + "." + bare) if target else name
            else:
                dotted_target = target
            if not dotted_target:
                continue
            owner = dotted_target.rsplit(".", 1)[0]
            if not owner.endswith("telemetry"):
                continue
            _emit(findings, mod, node, "TCQ705",
                  f"telemetry series {bare} constructed directly in "
                  f"{mod.name}: series must come from the registry "
                  f"helpers so collectors and scrapes see them",
                  hint="use get_registry().counter/gauge/histogram")


# ---------------------------------------------------------------------------
# entry point


def run_rules(model: ProjectModel, ctx: Contexts) -> GuardResult:
    findings: list = []
    _check_tcq701(model, ctx, findings)
    _check_tcq702(model, ctx, findings)
    _check_tcq703(model, ctx, findings)
    _check_tcq704(model, findings)
    _check_tcq705(model, findings)
    findings.sort(key=lambda d: (d.file, d.line, d.code))
    suppressed = sum(m.suppressions.used_count for m in model.modules.values())
    return GuardResult(findings, suppressed)
