"""The two Connection implementations behind :func:`repro.client.connect`.

:class:`LocalConnection` owns an in-process
:class:`~repro.core.engine.TelegraphCQServer` — it is the *only*
sanctioned constructor of one (lint ``TCQ401``).  Its ``submit`` returns
the engine's own :class:`~repro.core.engine.Cursor`.

:class:`NetworkConnection` speaks the :mod:`repro.net.frames` protocol
over a blocking socket to a running service, returning
:class:`NetworkCursor` objects.  Both cursor kinds expose the same read
surface — ``fetch(limit=)`` / ``fetchall()`` / iteration /
``fetch_windows()`` / ``explain()`` / ``cancel()`` / context manager —
and both connections raise the same :mod:`repro.errors` taxonomy, so
swapping ``connect()`` for ``connect("tcp://...")`` changes *where* the
engine runs and nothing else.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.report import Diagnostic, DiagnosticReport
from repro.core.tuples import Schema, Tuple
from repro.errors import (ConnectionClosedError, ProtocolError,
                          error_from_wire)
from repro.net.frames import (ERROR, MAX_FRAME, STREAM_ROW,
                              FrameDecoder, encode_frame, rows_from_wire,
                              windows_from_wire)


def _as_schema(name_or_schema: Union[str, Schema],
               columns: Sequence[str]) -> Schema:
    if isinstance(name_or_schema, Schema):
        return name_or_schema
    return Schema.of(name_or_schema, *columns)


class Connection:
    """The surface both implementations provide (documentation base;
    satisfaction is structural, like the repo's other protocols)."""

    def submit(self, query: str, **kwargs) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalConnection(Connection):
    """An in-process engine behind the unified API."""

    def __init__(self, server: Optional[Any] = None,
                 client: str = "default", **server_kwargs):
        if server is None:
            # The one sanctioned construction site (TCQ401).
            from repro.core.engine import TelegraphCQServer
            server = TelegraphCQServer(**server_kwargs)
        self.server = server
        self.client = client
        self.closed = False

    # -- DDL / ingress -----------------------------------------------------
    def create_stream(self, name_or_schema: Union[str, Schema],
                      *columns: str) -> None:
        self.server.create_stream(_as_schema(name_or_schema, columns))

    def create_table(self, name_or_schema: Union[str, Schema],
                     *columns: str,
                     rows: Sequence[Sequence[Any]] = ()) -> None:
        self.server.create_table(_as_schema(name_or_schema, columns),
                                 rows=rows)

    def insert(self, table: str, *values: Any) -> None:
        self.server.insert(table, *values)

    def push(self, stream: str, *values: Any,
             timestamp: Optional[int] = None) -> None:
        self.server.push(stream, *values, timestamp=timestamp)

    def push_tuple(self, stream: str, t: Tuple) -> None:
        self.server.push_tuple(stream, t)

    def push_rows(self, stream: str, rows: Sequence[Sequence[Any]],
                  timestamp: Optional[int] = None) -> Dict[str, Any]:
        """The batch door (:meth:`TelegraphCQServer.push_rows`): all
        rows enter or none do; returns ``{"pushed": n, "shed": m}``."""
        return self.server.push_rows(stream, rows, timestamp)

    def close_stream(self, stream: str) -> None:
        self.server.close_stream(stream)

    # -- queries -----------------------------------------------------------
    def submit(self, query: str,
               on_result: Optional[Callable[[Tuple], None]] = None,
               env: Optional[Dict[str, int]] = None,
               allow_unsafe: bool = False, stream: bool = False,
               credit: int = 0) -> Any:
        # ``stream``/``credit`` shape network delivery; locally every
        # cursor is already push-fed, so they are accepted and ignored.
        return self.server.submit(query, client=self.client,
                                  on_result=on_result, env=env,
                                  allow_unsafe=allow_unsafe)

    def cancel(self, cursor: Any) -> None:
        cursor.close()

    def explain(self, cursor: Any, analyze: bool = False) -> Dict[str, Any]:
        return self.server.explain(cursor, analyze=analyze)

    def check(self, query: str) -> DiagnosticReport:
        from repro.analysis.plan_check import check_query
        return check_query(query, self.server.catalog,
                           self.server._admission_context())

    # -- driving / observability -------------------------------------------
    def step(self, k: int = 1) -> int:
        worked = 0
        for _ in range(max(1, k)):
            if self.server.step():
                worked += 1
        return worked

    def run(self) -> int:
        return self.server.run_until_quiescent()

    def stats(self) -> Dict[str, Any]:
        return self.server.stats()

    def telemetry(self) -> Any:
        return self.server.telemetry()

    def open_cursors(self) -> List[Any]:
        return self.server.open_cursors()

    def close(self) -> None:
        if not self.closed:
            self.server.close()
            self.closed = True

    def __repr__(self) -> str:
        return f"LocalConnection(client={self.client!r})"


class NetworkCursor:
    """A client-side handle on one cursor living in the service.

    Mirrors the engine cursor's read surface; rows come back as real
    :class:`~repro.core.tuples.Tuple` objects (schemas interned per
    connection).
    """

    def __init__(self, conn: "NetworkConnection", cursor_id: int,
                 kind: str, diagnostics: List[Diagnostic],
                 streaming: bool = False):
        self.conn = conn
        self.cursor_id = cursor_id
        self.kind = kind
        self.diagnostics = diagnostics
        self.streaming = streaming
        self.closed = False
        self._prefetched: List[Tuple] = []

    # -- reads -------------------------------------------------------------
    def fetch(self, limit: int = 0) -> List[Tuple]:
        """Drain buffered results: rows already streamed to this client
        plus whatever the service has buffered server-side."""
        out = self._prefetched if not limit else self._prefetched[:limit]
        self._prefetched = self._prefetched[len(out):]
        if limit and len(out) >= limit:
            return out
        out.extend(self.conn._drain_streamed(
            self.cursor_id, (limit - len(out)) if limit else 0))
        if limit and len(out) >= limit:
            return out
        payload = self.conn._request(
            "FETCH", cursor=self.cursor_id,
            limit=(limit - len(out)) if limit else 0)
        fetched = rows_from_wire(payload.get("rows", ()),
                                 self.conn._schemas)
        # STREAM-ROW frames routed to our buffer while the FETCH round
        # trip was in flight were sent before the service answered it,
        # so they precede the fetched rows in production order.  Rows
        # beyond ``limit`` are kept client-side, never discarded.
        arrived = self.conn._drain_streamed(self.cursor_id, 0) + fetched
        if limit:
            room = limit - len(out)
            out.extend(arrived[:room])
            self._prefetched.extend(arrived[room:])
        else:
            out.extend(arrived)
        return out

    def fetchall(self) -> List[Tuple]:
        return self.fetch()

    def __iter__(self):
        while True:
            rows = self.fetch(limit=256)
            if not rows:
                return
            for row in rows:
                yield row

    def fetch_windows(self) -> List[Any]:
        payload = self.conn._request("FETCH", cursor=self.cursor_id,
                                     windows=True)
        return windows_from_wire(payload.get("windows", ()),
                                 self.conn._schemas)

    # -- control -----------------------------------------------------------
    def grant(self, n: int) -> None:
        """Grant ``n`` rows of streaming credit (backpressure release)."""
        self.conn._send_frame({"op": "CREDIT", "cursor": self.cursor_id,
                               "n": int(n)})

    def explain(self, analyze: bool = False) -> Dict[str, Any]:
        return self.conn._request("EXPLAIN", cursor=self.cursor_id,
                                  analyze=analyze)["explain"]

    def cancel(self) -> None:
        self.close()

    def close(self) -> None:
        if self.closed or self.conn.closed:
            self.closed = True
            return
        try:
            self.conn._request("CANCEL", cursor=self.cursor_id)
        except ConnectionClosedError:
            pass
        self.closed = True

    def __enter__(self) -> "NetworkCursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"NetworkCursor(#{self.cursor_id}, {self.kind})"


class NetworkConnection(Connection):
    """A blocking-socket client of the frame protocol.

    One in-flight request at a time (requests are answered in order);
    unsolicited STREAM-ROW frames arriving between responses are routed
    into per-cursor buffers, so streaming delivery and request/response
    interleave safely on one socket.
    """

    def __init__(self, host: str, port: int, client: str = "default",
                 timeout: Optional[float] = 30.0,
                 max_frame: int = MAX_FRAME):
        self.host = host
        self.port = port
        self.client = client
        self.closed = False
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder(max_frame)
        self._max_frame = max_frame
        self._ids = itertools.count(1)
        self._streamed: Dict[int, List[Dict[str, Any]]] = {}
        #: frames decoded behind a reply in the same read; the next
        #: request handles them before it reads the socket again.
        self._pending: List[Dict[str, Any]] = []
        self._schemas: Dict[Any, Schema] = {}
        self.hello = self._request("HELLO", client=client)
        self.session = self.hello.get("session")

    # -- the wire ----------------------------------------------------------
    def _send_frame(self, frame: Dict[str, Any]) -> None:
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        try:
            self._sock.sendall(encode_frame(frame, self._max_frame))
        except OSError as exc:
            self._teardown()
            raise ConnectionClosedError(f"send failed: {exc}") from None

    def _request(self, op: str, **fields: Any) -> Dict[str, Any]:
        rid = next(self._ids)
        self._send_frame({"op": op, "id": rid, **fields})
        while True:
            frames = self._pending or self._read_frames()
            self._pending = []
            for i, frame in enumerate(frames):
                kind = frame.get("type")
                if kind == STREAM_ROW:
                    self._streamed.setdefault(frame["cursor"], []).append(
                        frame["row"])
                    continue
                if kind == ERROR and frame.get("id") is None:
                    self._teardown()
                    raise ConnectionClosedError(
                        str(frame.get("error", {}).get("message",
                                                       "evicted")))
                if frame.get("id") != rid:
                    continue        # a late response we stopped awaiting
                # One read can hold frames behind the reply (rows streamed
                # after the service answered): they were produced later,
                # so they wait, in order, for the next request.
                self._pending = frames[i + 1:]
                if kind == ERROR:
                    raise error_from_wire(frame.get("error", {}))
                return frame

    def _read_frames(self) -> List[Dict[str, Any]]:
        try:
            data = self._sock.recv(1 << 16)
        except socket.timeout:
            self._teardown()
            raise ConnectionClosedError(
                "timed out awaiting a response") from None
        except OSError as exc:
            self._teardown()
            raise ConnectionClosedError(f"recv failed: {exc}") from None
        if not data:
            self._teardown()
            raise ConnectionClosedError("connection closed by peer")
        return self._decoder.feed(data)

    def _drain_streamed(self, cursor_id: int, limit: int) -> List[Tuple]:
        buf = self._streamed.get(cursor_id, [])
        take = buf if not limit else buf[:limit]
        self._streamed[cursor_id] = buf[len(take):]
        return rows_from_wire(take, self._schemas)

    def _teardown(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    # -- DDL / ingress -----------------------------------------------------
    def create_stream(self, name_or_schema: Union[str, Schema],
                      *columns: str) -> None:
        schema = _as_schema(name_or_schema, columns)
        self._request("DDL", action="create_stream", name=schema.name,
                      columns=schema.column_names())

    def create_table(self, name_or_schema: Union[str, Schema],
                     *columns: str,
                     rows: Sequence[Sequence[Any]] = ()) -> None:
        schema = _as_schema(name_or_schema, columns)
        self._request("DDL", action="create_table", name=schema.name,
                      columns=schema.column_names(),
                      rows=[list(r) for r in rows])

    def insert(self, table: str, *values: Any) -> None:
        self._request("DDL", action="insert", name=table,
                      values=list(values))

    def push(self, stream: str, *values: Any,
             timestamp: Optional[int] = None) -> None:
        self.push_rows(stream, [values], timestamp)

    def push_tuple(self, stream: str, t: Tuple) -> None:
        self.push_rows(stream, [t.values], t.timestamp)

    def push_rows(self, stream: str, rows: Sequence[Sequence[Any]],
                  timestamp: Optional[int] = None) -> Dict[str, Any]:
        """The batch door over the wire: one PUSH frame, admitted whole
        or not at all; returns ``{"pushed": n, "shed": m}`` (the
        service's load shedder may drop under overload)."""
        return self._request("PUSH", stream=stream,
                             rows=[list(r) for r in rows],
                             timestamp=timestamp)

    def close_stream(self, stream: str) -> None:
        self._request("DDL", action="close_stream", name=stream)

    # -- queries -----------------------------------------------------------
    def submit(self, query: str,
               on_result: Optional[Callable[[Tuple], None]] = None,
               env: Optional[Dict[str, int]] = None,
               allow_unsafe: bool = False, stream: bool = False,
               credit: int = 0) -> NetworkCursor:
        if on_result is not None:
            raise ProtocolError(
                "on_result callbacks are in-process only; use a "
                "streaming cursor (stream=True) and iterate instead")
        payload = self._request("SUBMIT", query=query, env=env,
                                allow_unsafe=allow_unsafe,
                                stream=stream, credit=credit)
        return NetworkCursor(
            self, payload["cursor"], payload["kind"],
            [Diagnostic.from_dict(d)
             for d in payload.get("diagnostics", ())],
            streaming=stream)

    def cancel(self, cursor: NetworkCursor) -> None:
        cursor.close()

    def explain(self, cursor: Union[int, NetworkCursor],
                analyze: bool = False) -> Dict[str, Any]:
        cid = cursor.cursor_id if isinstance(cursor, NetworkCursor) \
            else int(cursor)
        return self._request("EXPLAIN", cursor=cid,
                             analyze=analyze)["explain"]

    def check(self, query: str) -> DiagnosticReport:
        payload = self._request("CHECK", query=query)
        return DiagnosticReport([Diagnostic.from_dict(d)
                                 for d in payload.get("diagnostics", ())])

    # -- driving / observability -------------------------------------------
    def step(self, k: int = 1) -> int:
        return self._request("CONTROL", action="step", k=k)["worked"]

    def run(self) -> int:
        return self._request("CONTROL", action="run")["steps"]

    def stats(self) -> Dict[str, Any]:
        return self._request("STATS")["stats"]

    def net_stats(self) -> Dict[str, Any]:
        return self._request("STATS")["net"]

    def telemetry(self) -> Any:
        from repro.monitor.telemetry import TelemetrySnapshot
        text = self._request("METRICS")["prometheus"]
        return TelemetrySnapshot.from_prometheus(text)

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._request("BYE")
        except ConnectionClosedError:
            pass
        self._teardown()

    def __repr__(self) -> str:
        return (f"NetworkConnection({self.host}:{self.port}, "
                f"session={self.session})")
