"""The TelegraphCQ server (Figure 5): FrontEnd + Executor + Wrapper glue.

This is the facade a client uses.  The paper's three processes become
three cooperating components over in-memory queues standing in for the
shared-memory segments:

* the **FrontEnd** role — :meth:`TelegraphCQServer.submit`: parse,
  analyse, optimize into an adaptive plan, and fold it into the running
  executor (a windowed plan first runs at the next step);
* the **Executor** role — continuous selection/join queries run in the
  server's one shared CACQ engine, synchronously with the rows that
  reach it; each windowed query's plan is one unit of the server's
  round-robin :class:`repro.sched.scheduler.Scheduler`, which
  :meth:`TelegraphCQServer.step` runs one pass of;
* the **Wrapper** role — :meth:`push` / :class:`repro.ingress` feed
  streams; every arrival is materialised in the stream's historical
  store (so new queries can see old data) and routed to the live CQs.

Results land in per-cursor buffers drained through
:class:`Cursor` objects; a :class:`ClientProxy` multiplexes many cursors
onto one connection, spilling into extra proxies beyond the cursor cap —
matching the proxy service on the right of Figure 5.
"""

from __future__ import annotations

import itertools
import warnings
from functools import reduce
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple as TypingTuple, Union)

from repro.analysis.plan_check import AdmissionContext, check_compiled
from repro.analysis.report import Diagnostic, PlanCheckWarning
from repro.core.cacq import CACQEngine, ContinuousQuery
from repro.core.tuples import Row, Rows, Schema, Tuple
from repro.core.windows import HistoricalStore
from repro.errors import ExecutionError, PlanCheckError, QueryError
from repro.ingress.ingress import IngressPoint
from repro.monitor.telemetry import get_registry
import repro.monitor.tracing as tracing
from repro.sched.protocol import StepResult
from repro.sched.scheduler import Scheduler, drive
from repro.query.ast import QuerySpec
from repro.query.catalog import Catalog
from repro.query.optimizer import (CompiledQuery, Projection, WindowedPlan,
                                   compile_query)
from repro.query.parser import parse


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

    Every kind hands back :class:`~repro.core.tuples.Row` results
    (values, schema and timestamp; a row that is stored or sampled comes
    back as the :class:`~repro.core.tuples.Tuple` it is, which reads the
    same).  :meth:`fetch` / :meth:`fetchall` / iteration are the *only*
    read surface — :class:`repro.client.NetworkCursor` exposes the
    identical one, so code written against a local cursor runs
    unchanged against the service.  Cursors are context managers;
    :meth:`close` (alias :meth:`cancel`) stops the underlying
    continuous query or windowed plan.
    """

    def __init__(self, cursor_id: int, kind: str, client: str,
                 on_result: Optional[Callable[[Row], None]] = None,
                 server: Optional["TelegraphCQServer"] = None):
        self.cursor_id = cursor_id
        self.kind = kind
        self.client = client
        self.on_result = on_result
        #: the pull buffer :meth:`fetch` drains: a pull continuous
        #: cursor's CACQ query appends its results here (they stay after
        #: a cancel), a snapshot cursor's rows and a windowed cursor's
        #: flattened windows land here too.
        self._results: List[Row] = []
        self._windows: List[TypingTuple[int, List[Row]]] = []
        self.closed = False
        #: results that left the buffers: handed to ``on_result``,
        #: fetched, or taken by :meth:`fetch_windows`.
        self._delivered = 0
        #: set for continuous cursors: the underlying CACQ query.
        self.continuous_query: Optional[ContinuousQuery] = None
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
        return self._delivered + self.pending()

    # -- engine side -------------------------------------------------------
    def _deliver(self, row: Row) -> None:
        tr = row.trace
        if tr is not None:
            query = f"cursor{self.cursor_id}"
            tr.hop("egress", query)
            tracing.TRACER.finish(tr, query)
        if self.on_result is not None:
            self._delivered += 1
            self.on_result(row)
        else:
            self._results.append(row)

    def _deliver_window(self, t: int, rows: List[Row]) -> None:
        if tracing.TRACER.active:
            query = f"cursor{self.cursor_id}"
            for row in rows:
                tracing.finish_item(row, query)
        self._windows.append((t, rows))
        if self.on_result is not None:
            for row in rows:
                self.on_result(row)

    # -- client side -------------------------------------------------------
    def fetch(self, limit: int = 0) -> List[Row]:
        """Drain buffered results (all of them when ``limit`` is 0).

        Works for every cursor kind: windowed cursors flatten their
        computed windows into row order, so a client that does not care
        about window boundaries never needs :meth:`fetch_windows`.
        """
        results = self._results
        if self._windows:
            windows, self._windows = self._windows, []
            for _t, rows in windows:
                results.extend(rows)
        if not results:
            return []
        if limit and limit < len(results):
            rows = results[:limit]
            del results[:limit]
        else:
            rows = results[:]
            results.clear()
        self._delivered += len(rows)
        return rows

    def fetchall(self) -> List[Row]:
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

    def fetch_windows(self) -> List[TypingTuple[int, List[Row]]]:
        """The windowed sequence-of-sets computed so far."""
        out, self._windows = self._windows, []
        self._delivered += sum(len(rows) for _t, rows in out)
        return out

    def pending(self) -> int:
        return len(self._results) + sum(len(r) for _t, r in self._windows)

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

        Continuous cursors are cancelled out of the shared engine;
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
    """Incremental execution state for one windowed query: a
    :class:`repro.sched.protocol.Schedulable` unit (``run_once`` /
    ``finished``) of the server's scheduler, which drops it once it
    finishes (cancelled, or its for-loop ran out)."""

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
        #: result rows handed to the cursor, summed over the windows.
        self.rows_delivered = 0
        #: quanta this unit has run (``tcq_executor_du_quanta_total``).
        self.quanta = 0

    @property
    def finished(self) -> bool:
        return self.done

    def run_once(self, quantum: Optional[int] = None) -> "StepResult":
        self.quanta += 1
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
            self.rows_delivered += len(rows)
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
        #: the executor: one unit per live windowed plan, every unit one
        #: quantum per :meth:`step`.
        self.scheduler = Scheduler(name="executor")
        self.steps = 0
        #: quanta run by windowed plans that have since finished.
        self._retired_quanta = 0
        self.stores: Dict[str, HistoricalStore] = {}
        #: per-stream :class:`~repro.ingress.ingress.IngressPoint`: the
        #: one door rows enter a stream through (shed, store, count,
        #: then :meth:`_route_batch`).
        self.ingress: Dict[str, IngressPoint] = {}
        self._shedder: Optional[Any] = None
        self.tables: Dict[str, List[Tuple]] = {}
        self._stream_closed: Dict[str, bool] = {}
        #: the one shared CQ engine: every stream is registered with it
        #: and every continuous query runs in it.
        self.cacq = CACQEngine()
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
        self.cacq.register_stream(schema)
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
        becomes a :class:`Tuple` only where something needs one (a SteM
        stores it, a join probes with it, a trace samples it).

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
        itself, to the shared engine.  A result callback may admit or
        cancel a query mid-batch; the engine then stops after that row,
        and the rest goes in again under the new query set."""
        while batch:
            batch = batch[self.cacq.push_batch(stream, batch):]

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
               on_result: Optional[Callable[[Row], None]] = None,
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
        A query refused after that raises with no cursor left open.
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
        try:
            if compiled.kind == "snapshot":
                self._run_snapshot(compiled, cursor)
            elif compiled.kind == "continuous":
                self._register_continuous(compiled, cursor)
            else:
                self._register_windowed(compiled, cursor, env)
        except BaseException:
            # A refused query leaves no cursor behind.
            self.cancel(cursor)
            raise
        return cursor

    def _admission_context(self) -> AdmissionContext:
        """What the plan verifier's cross-query check (TCQ205) needs of
        the shared engine."""
        return AdmissionContext(standing_queries=len(self.cacq.queries))

    def _open_cursor(self, kind: str, client: str,
                     on_result: Optional[Callable[[Row], None]]) -> Cursor:
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
        """Register ``cursor``'s query in the shared engine.  A push
        cursor's results go through its callback; a pull cursor's query
        appends into the cursor's own list.  A query whose SELECT list
        differs from the rows the engine delivers to it (its stream's,
        or its join class's) projects each result on the way to the
        cursor; its SELECT list is bound before the engine admits it, so
        a column no stream has is refused with nothing registered."""
        for binding, obj in compiled.bindings:
            if binding != obj:
                raise QueryError(
                    "continuous self-join aliases are not supported; "
                    "use a windowed for-loop query instead")
            if not self.catalog.lookup(obj).is_stream:
                raise QueryError(
                    "continuous queries must range over streams only")
        streams = [b for b, _o in compiled.bindings]
        joined = reduce(Schema.join, [self.catalog.lookup(s).schema
                                      for s in streams])
        project = Projection(
            compiled.spec.select_items, streams, joined,
            lambda column: self.catalog.resolve_column(column,
                                                       compiled.bindings))
        pick = project.picker(joined)
        name = f"cursor{cursor.cursor_id}"
        cq = self.cacq.add_query(
            streams, compiled.predicate, name=name,
            callback=None if cursor.on_result is None else cursor._deliver)
        if project.schema is not cq.schema:
            # Its SELECT list is not the rows the engine delivers: every
            # result goes through the callback path, projected (a
            # sampled row's output carries its trace).
            if cq.schema is not joined:
                pick = project.picker(cq.schema)
            schema, deliver = project.schema, cursor._deliver

            def projected(row: Row) -> None:
                if row.trace is None:
                    deliver(Row(schema, pick(row.values), row.timestamp))
                    return
                out = Tuple(schema, pick(row.values), row.timestamp)
                out.trace = row.trace
                deliver(out)
            cq.callback = projected
        elif cursor.on_result is None:
            cq.results = cursor._results
            cq.egress = name
        cursor.continuous_query = cq

    def cancel(self, cursor: Cursor) -> None:
        """Stop the query behind a cursor and retire the cursor from its
        proxy.  Idempotent; already buffered results stay fetchable."""
        if cursor.closed:
            return
        cursor.closed = True
        if cursor._windowed_state is not None:
            cursor._windowed_state.done = True
        if cursor.continuous_query is not None:
            self.cacq.remove_query(cursor.continuous_query)
            cursor.continuous_query = None
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
        # Windows are evaluated only inside step: the plan first runs at
        # the next one.
        self.scheduler.add(state)

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
        """One scheduling round: every live windowed plan evaluates up
        to ``batch`` ready windows.  A plan that finished in it leaves
        the scheduler, releasing its plan and SteMs.  Truthy iff some
        plan made progress; never finished, since plans fold in at any
        time."""
        self.steps += 1
        sched = self.scheduler
        worked = sched.pass_once(batch).worked
        for state in sched.units:
            if state.finished:
                sched.remove(state.name)
                self._retired_quanta += state.quanta
        return StepResult.BUSY if worked else StepResult.IDLE

    def run_until_quiescent(self, max_steps: int = 100_000) -> int:
        return drive(self.step, max_steps)

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
            len(self.cacq.queries))
        reg.gauge("tcq_server_proxies", "Client proxies open",
                  collected=True).set(
            sum(len(p) for p in self._proxies.values()))
        reg.counter("tcq_executor_steps_total",
                    "Scheduling rounds over the windowed plans",
                    collected=True).set_total(self.steps)
        reg.gauge("tcq_executor_dus", "Live windowed plans",
                  collected=True).set(len(self.scheduler))
        quanta = reg.counter("tcq_executor_du_quanta_total",
                             "Quanta run per windowed plan (finished "
                             "plans fold into du=retired)", ("du",),
                             collected=True)
        for state in self.scheduler.units:
            quanta.labels(state.name).set_total(state.quanta)
        if self._retired_quanta:
            quanta.labels("retired").set_total(self._retired_quanta)

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
        hardwired order (grouped filters, home SteM build, the join
        class's steps) carries one ordering per ingress stream weighted
        by that stream's share of arrivals, with per-operator
        selectivities from the shared structures' own observations.
        ``analyze`` adds ingress→egress latency percentiles from the
        sampled tuple traces.  Render the dict with
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
        engine = self.cacq
        if cq is None:
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
        # Per stream, the SteMs its rows probe: the query's join class's
        # steps, in order.
        cls = cq.join_class
        partners = {s: [step.stem.source for step in steps]
                    for s, (steps, _pick) in
                    (cls.routes.items() if cls is not None else ())}
        for s in sorted({p for order in partners.values() for p in order}):
            stem = engine.stems[s]
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
            order.extend(f"probe[stem[{p}]]" for p in partners.get(s, ()))
            share = ingress[s] / total if total else 1.0 / len(footprint)
            orderings.append({"order": order, "frequency": share,
                              "count": ingress[s]})

        report: Dict[str, Any] = {
            "kind": "continuous",
            "target": query,
            "telemetry_id": engine._telemetry_id,
            "policy": "CACQ shared route (hardwired: grouped filters -> "
                      "home build -> deliver -> join-class steps)",
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
        report: Dict[str, Any] = {
            "kind": cursor.kind, "target": query,
            "operators": [], "orderings": [], "ordering_source": "",
            "notes": notes,
        }
        state = cursor._windowed_state
        if state is not None:
            notes.append(f"windows evaluated: {state.windows_evaluated}"
                         f" (done={state.done})")
            # The state the plan holds: its SteMs' rows and its kept
            # results, each result made once however many windows it
            # is delivered in.
            held = dict(state.plan.state(),
                        results_delivered=state.rows_delivered)
            report["state"] = held
            notes.append(
                "state held: " + "".join(
                    f"stem[{b}] {n} rows, " for b, n in held["rows"].items())
                + f"{held['results_kept']} results kept; results built "
                f"{held['results_built']}, delivered "
                f"{held['results_delivered']}")
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
            "continuous_queries": len(self.cacq.queries),
            "executor": {"steps": self.steps,
                         "dus": len(self.scheduler)},
            "proxies": {client: len(proxies)
                        for client, proxies in self._proxies.items()},
        }
