"""The TelegraphCQ server (Figure 5): FrontEnd + Executor + Wrapper glue.

This is the facade a client uses.  The paper's three processes become
three cooperating components over in-memory queues standing in for the
shared-memory segments:

* the **FrontEnd** role — :meth:`TelegraphCQServer.submit`: parse,
  analyse, optimize into an adaptive plan, and place it on the query
  plan queue (QPQueue) for the executor to fold in dynamically;
* the **Executor** role — :class:`repro.core.executor.Executor` hosting
  Execution Objects by query footprint class; continuous selection/join
  queries run in the shared CACQ engine of their class, windowed queries
  run as incremental Dispatch Units;
* the **Wrapper** role — :meth:`push` / :class:`repro.ingress` feed
  streams; every arrival is materialised in the stream's historical
  store (so new queries can see old data) and routed to the live CQs.

Results land in per-client output queues drained through
:class:`Cursor` objects; a :class:`ClientProxy` multiplexes many cursors
onto one connection, spilling into extra proxies beyond the cursor cap —
matching the proxy service on the right of Figure 5.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple as TypingTuple, Union)

from repro.analysis.plan_check import AdmissionContext, check_compiled
from repro.analysis.report import Diagnostic, PlanCheckWarning
from repro.core.cacq import CACQEngine, ContinuousQuery
from repro.core.executor import DispatchUnit, Executor
from repro.core.tuples import Rows, Schema, Tuple
from repro.core.windows import HistoricalStore
from repro.errors import ExecutionError, PlanCheckError, QueryError
from repro.fjords.queues import PushQueue
from repro.ingress.ingress import IngressPoint
from repro.monitor.telemetry import get_registry
import repro.monitor.tracing as tracing
from repro.sched.protocol import StepResult
from repro.query.ast import QuerySpec
from repro.query.catalog import Catalog
from repro.query.optimizer import CompiledQuery, WindowedPlan, compile_query
from repro.query.parser import parse
from repro.query.predicates import Predicate

_NO_LIMIT = sys.maxsize


class Cursor:
    """A client's handle on one submitted query.

    Result retrieval is unified across query kinds:

    * **pull** — :meth:`fetch` drains buffered results for *any* cursor
      (windowed cursors yield their window rows flattened, in window
      order);
    * **push** — pass ``on_result`` at :meth:`TelegraphCQServer.submit`
      time and results are delivered as they are produced;
    * **sequence of sets** — windowed cursors additionally expose
      :meth:`fetch_windows`, returning ``(loop_value, rows)`` pairs.

    :meth:`fetch` / :meth:`fetchall` / iteration are the *only* read
    surface — :class:`repro.client.NetworkCursor` exposes the identical
    one, so code written against a local cursor runs unchanged against
    the service.  Cursors are context managers; :meth:`close` (alias
    :meth:`cancel`) stops the underlying continuous query or windowed
    plan.
    """

    def __init__(self, cursor_id: int, kind: str, client: str,
                 on_result: Optional[Callable[[Tuple], None]] = None,
                 server: Optional["TelegraphCQServer"] = None):
        self.cursor_id = cursor_id
        self.kind = kind
        self.client = client
        self.on_result = on_result
        self._out: PushQueue = PushQueue(name=f"out[{cursor_id}]")
        #: a pull continuous cursor's buffer: its CACQ query appends
        #: results here, and they stay after a cancel or an engine
        #: merge.  Such a cursor never uses ``_out``.
        self._results: List[Tuple] = []
        self._windows: List[TypingTuple[int, List[Tuple]]] = []
        self.closed = False
        #: results delivered other than into ``_results``, plus those
        #: fetched out of it.
        self._delivered = 0
        #: set for continuous cursors: the underlying CACQ query and
        #: the shared engine it is registered in.
        self.continuous_query: Optional[ContinuousQuery] = None
        self._engine: Optional[CACQEngine] = None
        self.compiled: Optional[CompiledQuery] = None
        #: plan-verifier findings recorded at admission (warnings, or
        #: everything when admitted with allow_unsafe=True).
        self.diagnostics: List["Diagnostic"] = []
        self._server = server
        self._proxy: Optional["ClientProxy"] = None
        #: set for windowed cursors: the incremental execution state.
        self._windowed_state: Optional["_WindowedQueryState"] = None

    @property
    def delivered(self) -> int:
        """Results delivered to this cursor, fetched or still buffered."""
        return self._delivered + len(self._results)

    # -- engine side -------------------------------------------------------
    def _deliver(self, t: Tuple) -> None:
        self._delivered += 1
        tr = t.trace
        if tr is not None:
            query = f"cursor{self.cursor_id}"
            tr.hop("egress", query)
            tracing.TRACER.finish(tr, query)
        if self.on_result is not None:
            self.on_result(t)
        else:
            self._out.push(t)

    def _deliver_window(self, t: int, rows: List[Tuple]) -> None:
        self._delivered += len(rows)
        if tracing.TRACER.active:
            query = f"cursor{self.cursor_id}"
            for row in rows:
                tracing.finish_item(row, query)
        self._windows.append((t, rows))
        if self.on_result is not None:
            for row in rows:
                self.on_result(row)

    # -- client side -------------------------------------------------------
    def fetch(self, limit: int = 0) -> List[Tuple]:
        """Drain buffered results (all of them when ``limit`` is 0).

        Works for every cursor kind: windowed cursors flatten their
        computed windows into row order, so a client that does not care
        about window boundaries never needs :meth:`fetch_windows`.
        """
        results = self._results
        # PushQueue.__bool__ is always True: ask its deque.
        if not results and not self._out._items and not self._windows:
            return []
        if results:
            if limit and limit < len(results):
                rows = results[:limit]
                del results[:limit]
            else:
                rows = results[:]
                results.clear()
            self._delivered += len(rows)
            return rows
        out = self._out
        for _t, rows in self.fetch_windows():
            out.push_many(rows)
        return out.pop_many(limit or _NO_LIMIT)

    def fetchall(self) -> List[Tuple]:
        """Every buffered result (``fetch()`` with no limit)."""
        return self.fetch()

    def __iter__(self):
        """Drain buffered results in arrival order, chunked fetches
        under the hood; stops when the buffer is empty."""
        while True:
            rows = self.fetch(limit=256)
            if not rows:
                return
            for row in rows:
                yield row

    def fetch_windows(self) -> List[TypingTuple[int, List[Tuple]]]:
        """The windowed sequence-of-sets computed so far."""
        out, self._windows = self._windows, []
        return out

    def pending(self) -> int:
        return (len(self._results) + len(self._out)
                + sum(len(r) for _t, r in self._windows))

    def explain(self, analyze: bool = False) -> Dict[str, Any]:
        """The live plan behind this cursor (see
        :meth:`TelegraphCQServer.explain`)."""
        if self._server is None:
            raise QueryError(
                f"cursor #{self.cursor_id} is not attached to a server")
        return self._server.explain(self, analyze=analyze)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Stop the query behind this cursor.  Idempotent.

        Continuous cursors are cancelled out of their shared engine;
        windowed cursors stop evaluating further windows.  Already
        buffered results remain fetchable.
        """
        if self.closed:
            return
        if self._server is not None:
            self._server.cancel(self)
        self.closed = True

    def cancel(self) -> None:
        """Alias of :meth:`close` (the client-facing verb)."""
        self.close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Cursor(#{self.cursor_id}, {self.kind}, {self.client})"


class ClientProxy:
    """Multiplexes cursors for one client connection (Figure 5's proxy).

    A real connection caps open cursors; beyond ``max_cursors`` the
    engine transparently opens another proxy, as the paper describes.
    """

    def __init__(self, client: str, max_cursors: int = 16):
        self.client = client
        self.max_cursors = max_cursors
        self.cursors: List[Cursor] = []

    @property
    def has_room(self) -> bool:
        return len(self.cursors) < self.max_cursors


class _WindowedQueryState:
    """Incremental execution state for one windowed query DU.

    Satisfies the :class:`repro.sched.protocol.Schedulable` protocol
    (``run_once`` / ``finished``) so the executor can host it directly
    inside a scheduler-controlled EO.
    """

    def __init__(self, plan: WindowedPlan, spec_iter, cursor: Cursor,
                 server: "TelegraphCQServer"):
        self.name = f"windowed-{cursor.cursor_id}"
        self.plan = plan
        self.iterator = spec_iter
        self.cursor = cursor
        self.server = server
        #: binding -> catalog object, and the static-table bindings
        #: (no WindowIs): plan constants, read once.
        self.objects: Dict[str, str] = dict(plan.compiled.bindings)
        self.static = [(b, self.objects[b]) for b in plan.static_bindings]
        self.pending: Optional[TypingTuple[int, Dict[str, TypingTuple[int, int]]]] = None
        self.done = False
        self.windows_evaluated = 0

    @property
    def finished(self) -> bool:
        return self.done

    def run_once(self, quantum: Optional[int] = None) -> "StepResult":
        worked = self.step(16 if quantum is None else quantum)
        if self.done:
            return StepResult(worked, finished=True)
        return StepResult.BUSY if worked else StepResult.IDLE

    def step(self, batch: int) -> bool:
        """Evaluate up to ``batch`` ready windows."""
        worked = False
        for _ in range(max(1, batch)):
            if self.done:
                return worked
            if self.pending is None:
                try:
                    instance = next(self.iterator)
                except StopIteration:
                    self.done = True
                    return worked
                self.pending = (instance.t, instance.bounds)
            t, bounds = self.pending
            if not self._ready(bounds):
                return worked
            # Inputs without a WindowIs are static tables (§4.1.1): the
            # whole table as it stands joins every window.  A table row
            # is stamped with its position, so that is the bound.
            bounds = dict(bounds)
            for binding, obj in self.static:
                bounds[binding] = (0, len(self.server.tables[obj]) - 1)
            rows = self.plan.window(bounds, self._scan)
            self.cursor._deliver_window(t, rows)
            self.windows_evaluated += 1
            self.pending = None
            worked = True
        return worked

    def _scan(self, binding: str, lo: int, hi: int) -> Rows:
        return self.server._window_rows(self.objects[binding], lo, hi)

    def _ready(self, bounds: Dict[str, TypingTuple[int, int]]) -> bool:
        """A window fires once no more data can arrive inside it: every
        stream's clock is strictly past the right end, or closed."""
        for binding, (_lo, hi) in bounds.items():
            obj = self.objects[binding]
            if self.server._stream_closed.get(obj, False):
                continue
            clock = self.server.ingress[obj].clock
            if clock is None or clock <= hi:
                return False
        return True


class TelegraphCQServer:
    """The whole system, one object.

    The server is a context manager: ``with TelegraphCQServer() as srv``
    closes every stream and cursor on exit.  Live operational metrics
    for the whole process are returned by :meth:`telemetry`.
    """

    def __init__(self, max_cursors_per_proxy: int = 16):
        self.catalog = Catalog()
        self.executor = Executor()
        self.stores: Dict[str, HistoricalStore] = {}
        #: per-stream :class:`~repro.ingress.ingress.IngressPoint`: the
        #: one door rows enter a stream through (shed, store, count,
        #: then :meth:`_route_batch`).
        self.ingress: Dict[str, IngressPoint] = {}
        self._shedder: Optional[Any] = None
        self.tables: Dict[str, List[Tuple]] = {}
        self._stream_closed: Dict[str, bool] = {}
        #: one shared CQ engine per footprint-class root.
        self._cacq: Dict[str, CACQEngine] = {}
        #: stream -> the engine with a standing query over it (None:
        #: nobody reads it); emptied whenever a continuous query is
        #: admitted or cancelled.
        self._readers: Dict[str, Optional[CACQEngine]] = {}
        #: cursor id -> (streams, predicate, cursor) of every standing
        #: continuous query, so class merges can rebuild a combined
        #: engine.
        self._cq_registry: Dict[int, TypingTuple[TypingTuple[str, ...],
                                                 Predicate, Cursor]] = {}
        self._proxies: Dict[str, List[ClientProxy]] = {}
        #: open cursors by id; a closed cursor leaves it and its proxy.
        self._cursors: Dict[int, Cursor] = {}
        #: results delivered through cursors that have since closed.
        self._egress_retired = 0
        self.max_cursors_per_proxy = max_cursors_per_proxy
        self._next_cursor = itertools.count(1)
        self.closed = False
        self._telemetry = get_registry()
        self._telemetry.register_collector(self._publish_telemetry)

    # -- DDL ----------------------------------------------------------------
    def create_stream(self, schema: Schema) -> None:
        self.catalog.create_stream(schema)
        stream = schema.name
        self.stores[stream] = HistoricalStore(stream)
        self._stream_closed[stream] = False
        self.ingress[stream] = IngressPoint(
            f"server:{stream}", store=self.stores[stream],
            shedder=self._shedder,
            deliver=lambda batch: self._route_batch(stream, batch))

    def create_table(self, schema: Schema,
                     rows: Sequence[Sequence[Any]] = ()) -> None:
        self.catalog.create_table(schema)
        self.tables[schema.name] = []
        for row in rows:
            self.insert(schema.name, *row)

    def insert(self, table: str, *values: Any) -> None:
        """Append one row to a static table."""
        entry = self.catalog.lookup(table)
        if entry.is_stream:
            raise QueryError(f"{table!r} is a stream; use PUSH instead")
        rows = self.tables[table]
        rows.append(entry.schema.make(*values, timestamp=len(rows)))

    # -- ingress (the Wrapper role) ------------------------------------------------
    def push_rows(self, stream: str, rows: Sequence[Sequence[Any]],
                  timestamp: Optional[int] = None) -> Dict[str, int]:
        """The batch door: rows become validated, timestamped values
        here and nowhere else.  Row ``i`` is stamped ``timestamp + i``,
        or continues the stream's clock when no base is given.  A row
        becomes a :class:`Tuple` only where something needs one (a query
        keeps it, a window scans it, a trace samples it).

        All or nothing: an unknown or closed stream, a table name, a
        malformed row or a timestamp behind the stream's clock rejects
        the whole batch before the store, the clock or any counter
        moves.  Returns ``{"pushed": n, "shed": m}``.
        """
        schema = self._open_stream(stream)
        values = schema.validate(rows)
        first = timestamp if timestamp is not None else \
            (self.ingress[stream].clock or 0) + 1
        return self._admit(stream, Rows(schema, values,
                                        range(first, first + len(values))))

    def push(self, stream: str, *values: Any,
             timestamp: Optional[int] = None) -> None:
        self.push_rows(stream, (values,), timestamp)

    def push_tuple(self, stream: str, t: Tuple) -> None:
        """Admit one already-built tuple through the stream's door."""
        self._open_stream(stream)
        self._admit(stream, Rows.of((t,)))

    def _open_stream(self, stream: str) -> Schema:
        entry = self.catalog.lookup(stream)
        if not entry.is_stream:
            raise QueryError(f"{stream!r} is a table; use insert")
        if self._stream_closed[stream]:
            raise ExecutionError(f"stream {stream!r} is closed")
        return entry.schema

    def _admit(self, stream: str, batch: Rows) -> Dict[str, int]:
        pushed = self.ingress[stream].admit(batch)
        return {"pushed": pushed, "shed": len(batch) - pushed}

    def _route_batch(self, stream: str, batch: Rows) -> None:
        """The ingress point's consumer: hand the admitted batch,
        itself, to the engine reading the stream (a stream belongs to
        one footprint class, so to one engine).  A result callback may
        admit, cancel or merge engines mid-batch; the engine then stops
        after that row, and the rest goes to whichever engine reads the
        stream by then."""
        readers = self._readers
        while batch:
            if stream not in readers:
                readers[stream] = next(
                    (engine for engine in self._cacq.values()
                     if engine._source_mask.get(stream)), None)
            engine = readers[stream]
            if engine is None:
                return
            batch = batch[engine.push_batch(stream, batch):]

    def shed_with(self, shedder: Any) -> None:
        """Gate every stream's ingress point, present and future, with
        one :class:`~repro.monitor.qos.LoadShedder`-shaped shedder."""
        self._shedder = shedder
        for point in self.ingress.values():
            point.shedder = shedder

    @property
    def tuples_ingested(self) -> int:
        return sum(point.accepted for point in self.ingress.values())

    def close_stream(self, stream: str) -> None:
        """Declare end-of-stream: remaining windows become evaluable."""
        self.catalog.lookup(stream)
        self._stream_closed[stream] = True

    # -- the FrontEnd role ---------------------------------------------------------
    def submit(self, query: Union[str, QuerySpec], client: str = "default",
               on_result: Optional[Callable[[Tuple], None]] = None,
               env: Optional[Dict[str, int]] = None,
               allow_unsafe: bool = False) -> Cursor:
        """Parse, optimize, verify, and fold the query into the running
        system.

        ``env`` binds free window variables; ``ST`` defaults to the
        current global clock + 1 (the query's start time).

        The static plan verifier (:mod:`repro.analysis.plan_check`) runs
        before admission: errors (``TCQ1xx``) raise
        :class:`~repro.errors.PlanCheckError`, warnings (``TCQ2xx``) are
        issued as :class:`~repro.analysis.report.PlanCheckWarning` and
        kept on ``cursor.diagnostics``.  ``allow_unsafe=True`` admits
        the query anyway (diagnostics still reported via the warning).
        """
        spec = parse(query) if isinstance(query, str) else query
        compiled = compile_query(spec, self.catalog)
        report = check_compiled(compiled, self.catalog,
                                self._admission_context())
        if report.errors and not allow_unsafe:
            raise PlanCheckError(
                "; ".join(f"{d.code}: {d.message}" for d in report.errors),
                diagnostics=report.diagnostics)
        for diag in (report.diagnostics if allow_unsafe
                     else report.warnings):
            warnings.warn(f"{diag.code}: {diag.message}", PlanCheckWarning,
                          stacklevel=2)
        cursor = self._open_cursor(compiled.kind, client, on_result)
        cursor.compiled = compiled
        cursor.diagnostics = list(report.diagnostics)
        if compiled.kind == "snapshot":
            self._run_snapshot(compiled, cursor)
        elif compiled.kind == "continuous":
            self._register_continuous(compiled, cursor)
        else:
            self._register_windowed(compiled, cursor, env)
        return cursor

    def _admission_context(self) -> AdmissionContext:
        """Snapshot of the shared-engine landscape for the plan
        verifier's cross-query checks (TCQ204/TCQ205)."""
        classes = [frozenset(engine.schemas) for engine in
                   self._cacq.values()]
        counts = [len(engine.queries) for engine in self._cacq.values()]
        return AdmissionContext(footprint_classes=classes,
                                class_query_counts=counts)

    def _open_cursor(self, kind: str, client: str,
                     on_result: Optional[Callable[[Tuple], None]]) -> Cursor:
        cursor = Cursor(next(self._next_cursor), kind, client, on_result,
                        server=self)
        proxies = self._proxies.setdefault(client, [])
        proxy = next((p for p in proxies if p.has_room), None)
        if proxy is None:
            proxy = ClientProxy(client, self.max_cursors_per_proxy)
            proxies.append(proxy)
        proxy.cursors.append(cursor)
        cursor._proxy = proxy
        self._cursors[cursor.cursor_id] = cursor
        return cursor

    # -- snapshot path (Figure 4) ---------------------------------------------------
    def _run_snapshot(self, compiled: CompiledQuery, cursor: Cursor) -> None:
        """A plan with no WindowIs — every binding a static table —
        evaluated once over the tables as they stand."""
        plan = WindowedPlan(compiled, None, self.catalog)
        for row in plan.evaluate({binding: self.tables[obj]
                                  for binding, obj in compiled.bindings}):
            cursor._deliver(row)
        self.cancel(cursor)

    # -- continuous path (CACQ) -------------------------------------------------------
    def _register_continuous(self, compiled: CompiledQuery,
                             cursor: Cursor) -> None:
        streams = tuple(b for b, _o in compiled.bindings)
        for binding, obj in compiled.bindings:
            if binding != obj:
                raise QueryError(
                    "continuous self-join aliases are not supported; "
                    "use a windowed for-loop query instead")
            if not self.catalog.lookup(obj).is_stream:
                raise QueryError(
                    "continuous queries must range over streams only")
        root = self.executor.footprints.class_of(streams)
        engine = self._engine_for_class(root, streams)
        self._attach(engine, streams, compiled.predicate, cursor)
        self._cq_registry[cursor.cursor_id] = (streams, compiled.predicate,
                                               cursor)
        self._readers.clear()
        # Ensure the class has an executor presence so stats show it.
        self.executor.eo_for(streams)

    def _engine_for_class(self, root: str,
                          streams: Sequence[str]) -> CACQEngine:
        """The class's shared engine; merges engines when a new query
        bridges previously-disjoint classes."""
        # Engines whose streams now belong to this root (class_of is a
        # pure lookup here since those streams were unioned before).
        absorbed = [
            r for r, eng in list(self._cacq.items())
            if self.executor.footprints.class_of(list(eng.schemas)) == root]
        if len(absorbed) > 1:
            engine = self._rebuild_merged_engine(root, absorbed)
        elif len(absorbed) == 1:
            engine = self._cacq.pop(absorbed[0])
            self._cacq[root] = engine
        else:
            engine = CACQEngine()
            self._cacq[root] = engine
        for s in streams:
            if s not in engine.schemas:
                engine.register_stream(self.catalog.lookup(s).schema)
        return engine

    def _rebuild_merged_engine(self, root: str,
                               absorbed: List[str]) -> CACQEngine:
        merged = CACQEngine()
        old_engines = [self._cacq.pop(r) for r in absorbed]
        seen_streams = set()
        for old in old_engines:
            old.generation += 1     # retired: a batch in flight stops
            for name, schema in old.schemas.items():
                if name not in seen_streams:
                    merged.register_stream(schema)
                    seen_streams.add(name)
        for streams, predicate, cursor in self._cq_registry.values():
            if any(s in seen_streams for s in streams):
                for s in streams:
                    if s not in merged.schemas:
                        merged.register_stream(
                            self.catalog.lookup(s).schema)
                        seen_streams.add(s)
                self._attach(merged, streams, predicate, cursor)
        self._cacq[root] = merged
        return merged

    @staticmethod
    def _attach(engine: CACQEngine, streams: Sequence[str],
                predicate: Predicate, cursor: Cursor) -> None:
        """Register ``cursor``'s query in ``engine``.  A push cursor's
        results go through its callback; a pull cursor's query appends
        into the cursor's own list, so a retired engine still finishing
        the row that merged it delivers to the same place."""
        name = f"cursor{cursor.cursor_id}"
        if cursor.on_result is not None:
            cq = engine.add_query(list(streams), predicate,
                                  callback=cursor._deliver, name=name)
        else:
            cq = engine.add_query(list(streams), predicate, name=name)
            cq.results = cursor._results
            cq.egress = name
        cursor.continuous_query = cq
        cursor._engine = engine

    def cancel(self, cursor: Cursor) -> None:
        """Stop the query behind a cursor and retire the cursor from its
        proxy.  Idempotent; already buffered results stay fetchable."""
        if cursor.closed:
            return
        cursor.closed = True
        if cursor._windowed_state is not None:
            cursor._windowed_state.done = True
        if cursor.continuous_query is not None:
            cursor._engine.remove_query(cursor.continuous_query)
            del self._cq_registry[cursor.cursor_id]
            cursor.continuous_query = None
            cursor._engine = None
            self._readers.clear()
        del self._cursors[cursor.cursor_id]
        self._egress_retired += cursor.delivered
        proxy = cursor._proxy
        proxy.cursors.remove(cursor)
        if not proxy.cursors:
            proxies = self._proxies[cursor.client]
            proxies.remove(proxy)
            if not proxies:
                del self._proxies[cursor.client]

    # -- windowed path ------------------------------------------------------------------
    def _register_windowed(self, compiled: CompiledQuery, cursor: Cursor,
                           env: Optional[Dict[str, int]]) -> None:
        plan = compiled.window_plan
        assert plan is not None
        bound_env = dict(env or {})
        if "ST" not in bound_env:
            bound_env["ST"] = self._global_clock() + 1
        spec = plan.build_spec(bound_env)
        state = _WindowedQueryState(plan, iter(spec), cursor, self)
        cursor._windowed_state = state
        du = DispatchUnit(
            state.name, DispatchUnit.MODE_SINGLE_EDDY,
            step=state.run_once, is_finished=lambda: state.done)
        self.executor.enqueue_plan(compiled.footprint, du)

    def _window_rows(self, obj: str, lo: int, hi: int) -> Rows:
        """``obj``'s rows stamped ``lo..hi``."""
        if obj in self.stores:
            return self.stores[obj].rows(lo, hi)
        # A table row is stamped with its position (see insert).
        return Rows.of(self.tables[obj][max(lo, 0):max(hi + 1, 0)],
                       self.catalog.lookup(obj).schema)

    def _global_clock(self) -> int:
        return max((point.clock for point in self.ingress.values()
                    if point.clock is not None), default=0)

    # -- driving the executor -------------------------------------------------------
    def step(self, batch: int = 16) -> StepResult:
        """One scheduling round; returns the executor's
        :class:`~repro.sched.protocol.StepResult` (truthy iff progress
        was made, exactly like the historical bool)."""
        return self.executor.step(batch)

    def run_until_quiescent(self, max_steps: int = 100_000) -> int:
        return self.executor.run_until_quiescent(max_steps)

    # -- lifecycle ---------------------------------------------------------------
    def open_cursors(self) -> List[Cursor]:
        return list(self._cursors.values())

    def close(self) -> None:
        """Shut the server down: close every open cursor and declare
        end-of-stream on every stream.  Idempotent."""
        if self.closed:
            return
        for cursor in self.open_cursors():
            cursor.close()
        for stream in list(self._stream_closed):
            self._stream_closed[stream] = True
        self.closed = True

    def __enter__(self) -> "TelegraphCQServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- telemetry ---------------------------------------------------------------
    def telemetry(self):
        """A typed :class:`~repro.monitor.telemetry.TelemetrySnapshot`
        of every live metric series in the process — the eddy, SteM,
        executor, fjord, storage, QoS, Flux, and server subsystems."""
        return self._telemetry.snapshot()

    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        ingress = reg.counter("tcq_server_ingress_tuples_total",
                              "Tuples ingested per stream", ("stream",),
                              collected=True)
        for stream, point in self.ingress.items():
            ingress.labels(stream).set_total(point.accepted)
        store_size = reg.gauge("tcq_server_store_size",
                               "Tuples retained per historical store",
                               ("stream",), collected=True)
        for stream, store in self.stores.items():
            store_size.labels(stream).set(len(store))
        reg.gauge("tcq_server_open_cursors",
                  "Cursors open across all clients",
                  collected=True).set(len(self._cursors))
        reg.counter("tcq_server_egress_tuples_total",
                    "Results delivered through cursors",
                    collected=True).set_total(
            self._egress_retired
            + sum(c.delivered for c in self._cursors.values()))
        reg.gauge("tcq_server_continuous_queries",
                  "Standing continuous queries", collected=True).set(
            sum(len(e.queries) for e in self._cacq.values()))
        reg.gauge("tcq_server_proxies", "Client proxies open",
                  collected=True).set(
            sum(len(p) for p in self._proxies.values()))

    # -- introspection -----------------------------------------------------------
    def find_cursor(self, cursor_id: int) -> Cursor:
        cursor = self._cursors.get(cursor_id)
        if cursor is None:
            raise QueryError(f"no open cursor #{cursor_id}")
        return cursor

    def explain(self, cursor: Union[int, Cursor],
                analyze: bool = False) -> Dict[str, Any]:
        """Reconstruct the de-facto plan behind a cursor.

        Continuous cursors report the shared CACQ route: the engine's
        hardwired order (grouped filters, home SteM build, partner
        probes) carries one ordering per ingress stream weighted by that
        stream's share of arrivals, with per-operator selectivities from
        the shared structures' own observations.  ``analyze`` adds
        ingress→egress latency percentiles from the sampled tuple
        traces.  Render the dict with
        :func:`repro.monitor.introspect.render_explain`.
        """
        c = cursor if isinstance(cursor, Cursor) \
            else self.find_cursor(int(cursor))
        if c.kind == "continuous":
            return self._explain_continuous(c, analyze)
        return self._explain_plan(c, analyze)

    def _explain_continuous(self, cursor: Cursor,
                            analyze: bool) -> Dict[str, Any]:
        query = f"cursor{cursor.cursor_id}"
        cq = cursor.continuous_query
        engine = cursor._engine
        if cq is None or engine is None:
            return {"kind": "continuous", "target": query,
                    "operators": [], "orderings": [],
                    "ordering_source": "",
                    "notes": ["query is closed; no live plan"]}
        footprint = cq.footprint

        operators: List[Dict[str, Any]] = []
        filter_names: Dict[str, List[str]] = {s: [] for s in footprint}
        for (s, attr), gf in sorted(engine.filters.items()):
            if s not in footprint or not (gf.registered_mask & cq.bit):
                continue
            name = f"gf[{s}.{attr}]"
            filter_names[s].append(name)
            operators.append({
                "name": name, "kind": "GroupedFilter",
                "visits": gf.seen, "passed": gf.passed_count,
                "selectivity": gf.observed_selectivity(),
                "cost": float(gf.probe_cost_estimate()),
            })
        partners: Dict[str, List[str]] = {s: [] for s in footprint}
        probed: List[str] = []
        for pair, factors in engine._pair_factors.items():
            if not any(bit & cq.bit for bit, _f in factors):
                continue
            for s in pair:
                for partner in sorted(pair - {s}):
                    if partner not in partners[s]:
                        partners[s].append(partner)
                    if partner not in probed:
                        probed.append(partner)
        for s in sorted(probed):
            stem = engine.stems.get(s)
            if stem is None:
                continue
            operators.append({
                "name": f"stem[{s}]", "kind": "SteM",
                "visits": stem.probes, "passed": stem.probe_hits,
                "selectivity": stem.observed_hit_rate(),
                "cost": float(max(1, len(stem).bit_length())),
            })

        ingress = {s: self.ingress[s].accepted for s in footprint}
        total = sum(ingress.values())
        orderings: List[Dict[str, Any]] = []
        for s in sorted(footprint, key=lambda s: (-ingress[s], s)):
            order = list(filter_names[s])
            if s in engine.stems:
                order.append(f"build[{s}]")
            order.extend(f"probe[stem[{p}]]" for p in sorted(partners[s]))
            share = ingress[s] / total if total else 1.0 / len(footprint)
            orderings.append({"order": order, "frequency": share,
                              "count": ingress[s]})

        report: Dict[str, Any] = {
            "kind": "continuous",
            "target": query,
            "telemetry_id": engine._telemetry_id,
            "policy": "CACQ shared route (hardwired: grouped filters -> "
                      "home build -> deliver -> partner probes)",
            "streams": {s: ingress[s] for s in sorted(footprint)},
            "queries_sharing": len(engine.queries),
            "operators": operators,
            "orderings": orderings,
            "ordering_source": "cacq-route (frequency = ingress share)",
            "notes": [f"predicate: {cq.predicate!r}"],
        }
        if analyze:
            report["latency"] = self._trace_latency(query)
        return report

    def _explain_plan(self, cursor: Cursor, analyze: bool) -> Dict[str, Any]:
        query = f"cursor{cursor.cursor_id}"
        notes: List[str] = []
        compiled = cursor.compiled
        if compiled is not None:
            notes.append("bindings: " + ", ".join(
                f"{b}={o}" for b, o in compiled.bindings))
            notes.append(f"predicate: {compiled.predicate!r}")
        state = cursor._windowed_state
        if state is not None:
            notes.append(f"windows evaluated: {state.windows_evaluated}"
                         f" (done={state.done})")
        report: Dict[str, Any] = {
            "kind": cursor.kind, "target": query,
            "operators": [], "orderings": [], "ordering_source": "",
            "notes": notes,
        }
        if analyze:
            report["latency"] = self._trace_latency(query)
        return report

    def _trace_latency(self, query: str) -> Dict[str, float]:
        lats = [tr.latency() for tr in tracing.TRACER.recent()
                if tr.query == query]
        if lats:
            pct = tracing.exact_percentiles(lats)
            return {"p50": pct[0.5], "p95": pct[0.95], "p99": pct[0.99],
                    "count": float(len(lats))}
        # No raw traces in the ring: fall back to the published
        # histogram watermarks (coarser, but survives ring eviction).
        return tracing.latency_by_query().get(
            query, {"p50": 0.0, "p95": 0.0, "p99": 0.0, "count": 0.0})

    def stats(self) -> Dict[str, Any]:
        return {
            "ingested": self.tuples_ingested,
            "streams": {s: len(store) for s, store in self.stores.items()},
            "continuous_queries": sum(
                len(e.queries) for e in self._cacq.values()),
            "cacq_engines": len(self._cacq),
            "executor": self.executor.stats(),
            "proxies": {client: len(proxies)
                        for client, proxies in self._proxies.items()},
        }
