"""The network front door: an asyncio TelegraphCQ service (Figure 5).

The paper splits TelegraphCQ into a *FrontEnd* taking client connections
and a shared-memory *Executor*; this module is that FrontEnd made real.
:class:`TelegraphCQService` wraps one engine (obtained through the
unified door, :class:`repro.client.LocalConnection`) and serves the
framed wire protocol of :mod:`repro.net.frames` to many concurrent
connections, plus an HTTP admin plane (:mod:`repro.net.admin`).

**The network pump is just another scheduler citizen.**  All engine work
happens inside one :class:`repro.sched.Scheduler` hosting two units:

* ``engine`` — the wrapped :class:`~repro.core.engine.TelegraphCQServer`
  (already a Schedulable via ``step``);
* ``net-pump`` — a :class:`NetworkPump` that dispatches buffered request
  frames, streams cursor rows out under credit, and evicts idle or slow
  consumers.

The asyncio side only moves bytes: connection handlers decode frames
into the pump's inbox and wake the drive task.  Every engine mutation
happens on the event-loop thread inside a scheduler pass, so the engine
needs no locks.

**Credit-based backpressure** (the paper's §4.2 QoS ideas applied per
connection): a streaming cursor starts with the credit its SUBMIT frame
granted; each STREAM-ROW spends one credit and CREDIT frames replenish
it.  A consumer that stops granting credit stops receiving — results
buffer server-side in its cursor.  When that backlog exceeds
``max_backlog`` (or the socket's own write buffer exceeds
``max_write_buffer``) the consumer is *evicted*: its cursors are
cancelled, the connection closes, and the stranded backlog is reported
to the :class:`~repro.monitor.qos.LoadShedder` as arrived-but-never-
serviced load so PUSH admission tightens under overload.  Idle
connections (no frame for ``idle_timeout`` seconds) are evicted the same
way.  Both show up in ``tcq_net_evictions_total{reason=...}``.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import warnings
from collections import deque
from typing import Any, Dict, List, Optional

from repro.analysis import sanitize
from repro.errors import (ExecutionError, ProtocolError, QueryError,
                          TelegraphError, error_to_wire)
from repro.monitor.clock import now as _now
from repro.monitor.qos import LoadShedder
from repro.monitor.telemetry import get_registry
from repro.net.frames import (ERROR, MAX_FRAME, PROTOCOL_VERSION, RESULT,
                              STREAM_ROW, FrameDecoder, encode_frame,
                              rows_to_wire, windows_to_wire)
from repro.sched.protocol import FunctionUnit, StepResult
from repro.sched.scheduler import Scheduler

_SESSION_IDS = itertools.count(1)


class _Session:
    """One client connection: its cursors, stream credit, and liveness."""

    __slots__ = ("sid", "client", "writer", "decoder", "cursors",
                 "streaming", "credit", "last_active", "frames_in",
                 "frames_out", "rows_streamed", "closed")

    def __init__(self, sid: int, writer: asyncio.StreamWriter,
                 max_frame: int):
        self.sid = sid
        self.client = f"net#{sid}"
        self.writer = writer
        self.decoder = FrameDecoder(max_frame)
        self.cursors: Dict[int, Any] = {}       # cursor_id -> engine Cursor
        self.streaming: Dict[int, bool] = {}    # cursor_id -> stream mode
        self.credit: Dict[int, int] = {}        # cursor_id -> rows owed
        self.last_active = _now()
        self.frames_in = 0
        self.frames_out = 0
        self.rows_streamed = 0
        self.closed = False


class NetworkPump:
    """The scheduler unit that does all protocol work.

    ``run_once(quantum)`` dispatches up to ``quantum`` buffered request
    frames, then delivers streaming rows within each cursor's credit,
    then runs the eviction scan.  ``ready()`` is the cheap hint the
    pressure-aware policy needs: frames waiting, or a creditable cursor
    with buffered rows.
    """

    def __init__(self, service: "TelegraphCQService"):
        self.name = "net-pump"
        self.service = service
        self.finished = False
        self.inbox: deque = deque()             # (session, frame) pairs

    def ready(self) -> bool:
        if self.inbox:
            return True
        for session in self.service.sessions():
            for cid, credit in session.credit.items():
                if credit > 0:
                    cursor = session.cursors.get(cid)
                    if cursor is not None and cursor.pending():
                        return True
        return False

    def run_once(self, quantum: Optional[int] = None) -> StepResult:
        budget = 64 if quantum is None else max(1, quantum)
        worked = 0
        for _ in range(budget):
            if not self.inbox:
                break
            session, frame = self.inbox.popleft()
            self.service._dispatch(session, frame)
            worked += 1
        worked += self.service._deliver_streams()
        self.service._eviction_scan()
        return StepResult.BUSY if worked else StepResult.IDLE


class TelegraphCQService:
    """The asyncio front end over one engine.

    Construct, then either ``await service.start()`` inside a running
    loop, or :meth:`run_in_thread` to host the loop on a daemon thread
    (what the CLI and the blocking client tests use).  ``close()`` stops
    everything; the service is a context manager.
    """

    def __init__(self, connection: Optional[Any] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 admin_port: Optional[int] = 0,
                 max_frame: int = MAX_FRAME,
                 max_backlog: int = 256,
                 max_write_buffer: int = 1 << 20,
                 idle_timeout: Optional[float] = None,
                 idle_poll: float = 0.005,
                 policy: str = "round_robin",
                 shedder: Optional[LoadShedder] = None):
        # The unified client API is the only door to an engine; the
        # service fronts a LocalConnection rather than building its own
        # TelegraphCQServer (lint rule TCQ401).
        if connection is None:
            from repro.client import LocalConnection
            connection = LocalConnection()
        self.connection = connection
        self.server = connection.server
        self.host = host
        self.port = port
        self.admin_port = admin_port
        self.max_frame = max_frame
        self.max_backlog = max_backlog
        self.max_write_buffer = max_write_buffer
        self.idle_timeout = idle_timeout
        self.idle_poll = idle_poll
        # target_utilisation=1.0: pushes fold into the engine
        # synchronously, so arrival == service in every healthy epoch
        # and the only true pressure signal is stranded backlog at
        # eviction time.  A margin below 1.0 would shed a steady slice
        # of perfectly serviced traffic.
        self.shedder = shedder or LoadShedder(policy="random",
                                              target_utilisation=1.0)
        # The shedder gates the server's own per-stream ingress points:
        # a wire row is shed, stored and counted at one door.
        self.server.shed_with(self.shedder)
        self.pump = NetworkPump(self)
        self.scheduler = Scheduler(policy=policy, name="net")
        self.scheduler.add(FunctionUnit(
            "engine", step=lambda q: self.server.step(16 if q is None else q)))
        self.scheduler.add(self.pump)
        self._sessions: Dict[int, _Session] = {}
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._admin: Optional[Any] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._wake: Optional[asyncio.Event] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._drive_task: Optional[asyncio.Task] = None
        self._running = False
        # lifetime counters behind the tcq_net_* series
        self.sessions_total = 0
        self.frames_in_total = 0
        self.frames_out_total = 0
        self.rows_streamed_total = 0
        self.bytes_in_total = 0
        self.bytes_out_total = 0
        self.evictions: Dict[str, int] = {"idle": 0, "slow": 0}
        self._epoch_in = 0          # push rows received this shed epoch
        self._epoch_out = 0         # rows delivered this shed epoch
        self._telemetry = get_registry()
        self._telemetry.register_collector(self._publish_telemetry)
        # REPRO_SANITIZE=1: time every scheduler pass on the loop thread
        # so blocking regressions (TCQ701's runtime shadow) are counted.
        self.watchdog: Optional[sanitize.LoopWatchdog] = (
            sanitize.LoopWatchdog(budget_s=0.1, name="net")
            if sanitize.enabled() else None)
        self._handlers = {
            "HELLO": self._h_hello, "SUBMIT": self._h_submit,
            "FETCH": self._h_fetch, "PUSH": self._h_push,
            "CANCEL": self._h_cancel, "STATS": self._h_stats,
            "EXPLAIN": self._h_explain, "CHECK": self._h_check,
            "DDL": self._h_ddl, "CONTROL": self._h_control,
            "CREDIT": self._h_credit, "METRICS": self._h_metrics,
            "BYE": self._h_bye,
        }

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    @property
    def admin_address(self) -> Optional["tuple[str, int]"]:
        return None if self._admin is None else self._admin.address

    def sessions(self) -> List[_Session]:
        return [s for s in self._sessions.values() if not s.closed]

    async def start(self) -> "TelegraphCQService":
        """Bind sockets and start the drive task in the running loop."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._tcp_server.sockets[0].getsockname()[1]
        if self.admin_port is not None:
            from repro.net.admin import AdminPlane
            self._admin = AdminPlane(self)
            await self._admin.start(self.host, self.admin_port)
            self.admin_port = self._admin.address[1]
        self._running = True
        self._drive_task = self._loop.create_task(self._drive())
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._drive_task is not None:
            await asyncio.gather(self._drive_task, return_exceptions=True)
        for session in list(self._sessions.values()):
            self._close_session(session)
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        if self._admin is not None:
            await self._admin.stop()
        self.connection.close()

    def run_in_thread(self) -> "TelegraphCQService":
        """Host the event loop on a daemon thread; returns once the
        sockets are bound (so :attr:`address` is valid)."""
        ready = threading.Event()
        failure: List[BaseException] = []

        async def _serve() -> None:
            try:
                await self.start()
            except BaseException as exc:    # surface bind errors
                failure.append(exc)
                ready.set()
                return
            ready.set()
            await self._stop_event.wait()
            await self.stop()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_serve()), name="tcq-service",
            daemon=True)
        self._thread.start()
        if not ready.wait(timeout=10) or failure:
            raise ExecutionError(
                f"service failed to start: {failure or 'timeout'}")
        return self

    def close(self) -> None:
        """Stop the service from any thread.  Idempotent."""
        loop, thread = self._loop, self._thread
        if thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(self._stop_event.set)
            thread.join(timeout=10)
        elif loop is not None and loop.is_running() and self._running:
            self._stop_event.set()

    def __enter__(self) -> "TelegraphCQService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- asyncio plumbing --------------------------------------------------
    async def _drive(self) -> None:
        """The scheduler loop: pass while there is work, park on the
        wake event (bounded by ``idle_poll`` so eviction scans run)
        while idle."""
        while self._running:
            if self.watchdog is not None:
                with self.watchdog:
                    result = self.scheduler.pass_once()
            else:
                result = self.scheduler.pass_once()
            if result.worked:
                await asyncio.sleep(0)      # yield to the transport
                continue
            self._wake.clear()
            if self.pump.ready():
                continue
            try:
                await asyncio.wait_for(self._wake.wait(), self.idle_poll)
            except asyncio.TimeoutError:
                pass

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        session = _Session(next(_SESSION_IDS), writer, self.max_frame)
        self._sessions[session.sid] = session
        self.sessions_total += 1
        try:
            while not session.closed:
                data = await reader.read(1 << 16)
                if not data:
                    break
                self.bytes_in_total += len(data)
                try:
                    frames = session.decoder.feed(data)
                except ProtocolError as exc:
                    self._send(session, {"type": ERROR, "id": None,
                                         "error": error_to_wire(exc)})
                    break
                for frame in frames:
                    session.last_active = _now()
                    session.frames_in += 1
                    self.frames_in_total += 1
                    self.pump.inbox.append((session, frame))
                if frames:
                    self._wake.set()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._close_session(session)

    def _send(self, session: _Session, frame: Dict[str, Any]) -> None:
        if session.closed:
            return
        try:
            data = encode_frame(frame, self.max_frame)
            session.writer.write(data)
        except (ProtocolError, ConnectionError, RuntimeError):
            self._close_session(session)
            return
        session.frames_out += 1
        self.frames_out_total += 1
        self.bytes_out_total += len(data)

    def _close_session(self, session: _Session) -> None:
        if session.closed:
            return
        session.closed = True
        for cursor in session.cursors.values():
            cursor.close()
        session.cursors.clear()
        session.credit.clear()
        self._sessions.pop(session.sid, None)
        try:
            session.writer.close()
        except RuntimeError:
            pass

    # -- pump phases -------------------------------------------------------
    def _dispatch(self, session: _Session, frame: Dict[str, Any]) -> None:
        op = str(frame.get("op", "")).upper()
        rid = frame.get("id")
        handler = self._handlers.get(op)
        if handler is None:
            self._send(session, {
                "type": ERROR, "id": rid,
                "error": error_to_wire(ProtocolError(
                    f"unknown operation {op or frame!r}"))})
            return
        try:
            payload = handler(session, frame)
        except TelegraphError as exc:
            self._send(session, {"type": ERROR, "id": rid,
                                 "error": error_to_wire(exc)})
            return
        except Exception as exc:        # engine bug: keep the wire alive
            self._send(session, {"type": ERROR, "id": rid,
                                 "error": error_to_wire(
                                     ExecutionError(repr(exc)))})
            return
        if payload is not None:
            self._send(session, {"type": RESULT, "id": rid, **payload})

    def _deliver_streams(self) -> int:
        """Push STREAM-ROW frames for every streaming cursor, spending
        its credit; returns rows delivered."""
        delivered = 0
        for session in self.sessions():
            for cid in list(session.streaming):
                credit = session.credit.get(cid, 0)
                if credit <= 0:
                    continue
                cursor = session.cursors.get(cid)
                if cursor is None:
                    continue
                rows = cursor.fetch(limit=credit)
                for row in rows:
                    self._send(session, {
                        "type": STREAM_ROW, "cursor": cid,
                        "row": rows_to_wire([row])[0]})
                if rows:
                    session.credit[cid] = credit - len(rows)
                    session.rows_streamed += len(rows)
                    self.rows_streamed_total += len(rows)
                    delivered += len(rows)
        if delivered:
            self._epoch_out += delivered
        return delivered

    def _eviction_scan(self) -> None:
        now = _now()
        for session in self.sessions():
            if self.idle_timeout is not None and \
                    now - session.last_active > self.idle_timeout:
                self._evict(session, "idle")
                continue
            backlog = sum(c.pending() for c in session.cursors.values()
                          if session.streaming.get(c.cursor_id))
            try:
                buffered = session.writer.transport.get_write_buffer_size()
            except (AttributeError, RuntimeError):
                buffered = 0
            if backlog > self.max_backlog or buffered > self.max_write_buffer:
                self._evict(session, "slow")
        if self._epoch_in or self._epoch_out:
            # Pushes fold into the engine synchronously, so in a healthy
            # epoch arrival == service regardless of how much clients
            # fetch back; genuine overload reaches the shedder via
            # _evict, which reports stranded rows as never-serviced
            # work, and these healthy epochs decay the drop rate again.
            self.shedder.update(self._epoch_in,
                                max(self._epoch_in, self._epoch_out))
            self._epoch_in = self._epoch_out = 0

    def _evict(self, session: _Session, reason: str) -> None:
        """Close a misbehaving consumer and report its stranded backlog
        to the load shedder as arrived-but-never-serviced work."""
        stranded = sum(c.pending() for c in session.cursors.values())
        self.evictions[reason] = self.evictions.get(reason, 0) + 1
        if stranded:
            self.shedder.update(arrived=stranded, serviced=0)
        self._send(session, {
            "type": ERROR, "id": None,
            "error": error_to_wire(ProtocolError(
                f"evicted: {reason} consumer "
                f"({stranded} rows stranded)"))})
        self._close_session(session)

    # -- request handlers --------------------------------------------------
    def _h_hello(self, session: _Session,
                 frame: Dict[str, Any]) -> Dict[str, Any]:
        client = frame.get("client")
        if client:
            session.client = str(client)
        return {"server": "telegraphcq", "protocol": PROTOCOL_VERSION,
                "session": session.sid}

    def _h_submit(self, session: _Session,
                  frame: Dict[str, Any]) -> Dict[str, Any]:
        cursor, reply = self.submit(frame.get("query"), session.client,
                                    frame.get("env"),
                                    frame.get("allow_unsafe", False))
        session.cursors[cursor.cursor_id] = cursor
        if frame.get("stream"):
            session.streaming[cursor.cursor_id] = True
            session.credit[cursor.cursor_id] = int(frame.get("credit", 0))
        return reply

    def submit(self, query: Any, client: str, env: Optional[Dict[str, int]],
               allow_unsafe: Any) -> "tuple[Any, Dict[str, Any]]":
        """Submit on a remote caller's behalf (SUBMIT frame or admin
        ``POST /queries``); returns the cursor and its reply payload."""
        if not query:
            raise ProtocolError("a submission needs a query")
        with warnings.catch_warnings():
            # Plan-check warnings belong to the submitting client, not
            # the service's stderr; they travel as diagnostics instead.
            warnings.simplefilter("ignore")
            cursor = self.server.submit(query, client=client, env=env,
                                        allow_unsafe=bool(allow_unsafe))
        return cursor, {
            "cursor": cursor.cursor_id, "kind": cursor.kind,
            "diagnostics": [d.to_dict() for d in cursor.diagnostics]}

    def _cursor_of(self, session: _Session, frame: Dict[str, Any]) -> Any:
        cid = frame.get("cursor")
        cursor = session.cursors.get(cid)
        if cursor is None:
            # Cursors are strictly per-session: another client's id is
            # indistinguishable from an unknown one (no leakage).
            raise QueryError(f"no cursor #{cid} on this connection")
        return cursor

    def _h_fetch(self, session: _Session,
                 frame: Dict[str, Any]) -> Dict[str, Any]:
        cursor = self._cursor_of(session, frame)
        if frame.get("windows"):
            return {"windows": windows_to_wire(cursor.fetch_windows())}
        rows = cursor.fetch(limit=int(frame.get("limit", 0)))
        self._epoch_out += len(rows)
        return {"rows": rows_to_wire(rows)}

    def _h_push(self, session: _Session,
                frame: Dict[str, Any]) -> Dict[str, Any]:
        rows = frame.get("rows")
        if rows is None:
            raise ProtocolError("PUSH needs rows")
        reply = self.connection.push_rows(frame.get("stream"), rows,
                                          frame.get("timestamp"))
        self._epoch_in += reply["pushed"] + reply["shed"]
        return reply

    def _h_cancel(self, session: _Session,
                  frame: Dict[str, Any]) -> Dict[str, Any]:
        cursor = self._cursor_of(session, frame)
        cursor.close()
        session.streaming.pop(cursor.cursor_id, None)
        session.credit.pop(cursor.cursor_id, None)
        return {"cancelled": cursor.cursor_id}

    def _h_stats(self, session: _Session,
                 frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"stats": self.server.stats(), "net": self.net_stats()}

    def _h_explain(self, session: _Session,
                   frame: Dict[str, Any]) -> Dict[str, Any]:
        cursor = self._cursor_of(session, frame)
        return {"explain": self.server.explain(
            cursor, analyze=bool(frame.get("analyze", False)))}

    def _h_check(self, session: _Session,
                 frame: Dict[str, Any]) -> Dict[str, Any]:
        query = frame.get("query")
        if not query:
            raise ProtocolError("CHECK needs a query")
        report = self.connection.check(query)
        return {"diagnostics": [d.to_dict() for d in report.diagnostics]}

    def _h_ddl(self, session: _Session,
               frame: Dict[str, Any]) -> Dict[str, Any]:
        action = frame.get("action")
        name = frame.get("name")
        conn = self.connection
        if action == "create_stream":
            conn.create_stream(name, *frame["columns"])
            return {"created": name}
        if action == "create_table":
            conn.create_table(name, *frame["columns"],
                              rows=frame.get("rows", ()))
            return {"created": name}
        if action == "close_stream":
            conn.close_stream(name)
            return {"closed": name}
        if action == "insert":
            conn.insert(name, *frame["values"])
            return {"inserted": 1}
        raise ProtocolError(f"unknown DDL action {action!r}")

    def _h_control(self, session: _Session,
                   frame: Dict[str, Any]) -> Dict[str, Any]:
        action = frame.get("action")
        if action == "step":
            k = int(frame.get("k", 1))
            return {"stepped": k, "worked": self.connection.step(k)}
        if action == "run":
            return {"steps": self.connection.run()}
        raise ProtocolError(f"unknown CONTROL action {action!r}")

    def _h_credit(self, session: _Session,
                  frame: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        cursor = self._cursor_of(session, frame)
        grant = int(frame.get("n", 0))
        if grant > 0:
            session.credit[cursor.cursor_id] = \
                session.credit.get(cursor.cursor_id, 0) + grant
        if frame.get("id") is not None:
            return {"credit": session.credit.get(cursor.cursor_id, 0)}
        return None

    def _h_metrics(self, session: _Session,
                   frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"prometheus": self._telemetry.snapshot().to_prometheus()}

    def _h_bye(self, session: _Session,
               frame: Dict[str, Any]) -> None:
        if frame.get("id") is not None:
            self._send(session, {"type": RESULT, "id": frame["id"],
                                 "bye": True})
        self._close_session(session)
        return None

    # -- observability -----------------------------------------------------
    def net_stats(self) -> Dict[str, Any]:
        return {
            "sessions_open": len(self.sessions()),
            "sessions_total": self.sessions_total,
            "frames_in": self.frames_in_total,
            "frames_out": self.frames_out_total,
            "rows_streamed": self.rows_streamed_total,
            "evictions": dict(self.evictions),
            "shed_drop_rate": self.shedder.drop_rate,
        }

    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        reg.gauge("tcq_net_sessions_open", "Live client connections",
                  collected=True).set(len(self.sessions()))
        reg.counter("tcq_net_sessions_total",
                    "Connections accepted since start",
                    collected=True).set_total(self.sessions_total)
        frames_c = reg.counter("tcq_net_frames_total",
                               "Protocol frames moved", ("dir",),
                               collected=True)
        frames_c.labels("in").set_total(self.frames_in_total)
        frames_c.labels("out").set_total(self.frames_out_total)
        bytes_c = reg.counter("tcq_net_bytes_total", "Wire bytes moved",
                              ("dir",), collected=True)
        bytes_c.labels("in").set_total(self.bytes_in_total)
        bytes_c.labels("out").set_total(self.bytes_out_total)
        reg.counter("tcq_net_stream_rows_total",
                    "Rows delivered as STREAM-ROW frames",
                    collected=True).set_total(self.rows_streamed_total)
        evict = reg.counter("tcq_net_evictions_total",
                            "Connections evicted", ("reason",),
                            collected=True)
        for reason, n in self.evictions.items():
            evict.labels(reason).set_total(n)
        shed = sum(p.shed for p in self.server.ingress.values())
        reg.counter("tcq_net_push_shed_total",
                    "PUSH rows dropped by the load shedder",
                    collected=True).set_total(shed)
        reg.gauge("tcq_net_inbox_depth",
                  "Request frames awaiting the pump",
                  collected=True).set(len(self.pump.inbox))


def main(argv: Optional[List[str]] = None) -> int:    # pragma: no cover
    """``python -m repro.net [--host H] [--port P] [--admin-port A]``"""
    import argparse
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Serve a TelegraphCQ engine over the framed wire "
                    "protocol, with an HTTP admin plane")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7673)
    parser.add_argument("--admin-port", type=int, default=7674)
    parser.add_argument("--idle-timeout", type=float, default=None)
    args = parser.parse_args(argv)
    service = TelegraphCQService(host=args.host, port=args.port,
                                 admin_port=args.admin_port,
                                 idle_timeout=args.idle_timeout)

    async def _serve() -> None:
        await service.start()
        print(f"telegraphcq: wire protocol on {service.host}:{service.port}, "
              f"admin on http://{service.admin_address[0]}:"
              f"{service.admin_address[1]}/")
        await service._stop_event.wait()
        await service.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0
