"""The HTTP admin plane: operational REST next to the wire protocol.

A deliberately small asyncio HTTP/1.1 server (stdlib only — no web
framework) bound beside the frame port.  It serves the operator-facing
read/manage surface of a running :class:`~repro.net.service.
TelegraphCQService`:

====================================  =========================================
``GET /queries``                      open cursors across all clients
``POST /queries``                     submit ``{"query": ..., "client": ...,
                                      "env": ..., "allow_unsafe": ...}``
``DELETE /queries/{id}``              cancel a cursor
``GET /queries/{id}/explain``         the live plan (``?analyze=1`` adds
                                      latency percentiles)
``GET /stats``                        engine + network statistics
``GET /trace``                        the trace ring as JSONL
``GET /metrics``                      Prometheus exposition of the *same*
                                      process-global registry the in-process
                                      exporter serves
====================================  =========================================

Errors come back as JSON bodies in the :mod:`repro.errors` wire shape
(``{"error": {"code": ..., "message": ...}}``), so a script driving the
admin plane and a client speaking the frame protocol parse failures the
same way.

Handlers run on the event-loop thread and never await mid-request, so
each admin call observes (and mutates) the engine atomically with
respect to scheduler passes — the same single-writer discipline the
frame dispatcher enjoys.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple as TypingTuple
from urllib.parse import parse_qs, urlsplit

import repro.monitor.tracing as tracing
from repro.errors import (ProtocolError, QueryError, TelegraphError,
                          error_to_wire)

_REASONS = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}
_MAX_BODY = 1 << 20


class AdminPlane:
    """The HTTP side-door of one service."""

    def __init__(self, service: Any):
        self.service = service
        self._http: Optional[asyncio.AbstractServer] = None
        self.address: Optional[TypingTuple[str, int]] = None
        self.requests_served = 0

    async def start(self, host: str, port: int) -> None:
        self._http = await asyncio.start_server(self._handle, host, port)
        self.address = self._http.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()

    # -- one request -------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, ctype, body = await self._respond(reader)
        except (ConnectionError, asyncio.LimitOverrunError):
            writer.close()
            return
        except Exception as exc:        # never let the plane die
            status, ctype, body = 500, "application/json", json.dumps(
                {"error": error_to_wire(exc)})
        payload = body.encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
        self.requests_served += 1

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> TypingTuple[int, str, str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return self._error(400, ProtocolError(
                f"malformed request line {request_line!r}"))
        method, target, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = min(int(value.strip() or 0), _MAX_BODY)
        body: Dict[str, Any] = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                return self._error(400, ProtocolError(
                    f"request body is not JSON: {exc}"))
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        try:
            return self._route(method.upper(), split.path, query, body)
        except QueryError as exc:
            # Unknown cursor / unknown route reads as 404; a query the
            # engine *rejected* (parse, plan check) is the caller's 400.
            status = 404 if type(exc) is QueryError else 400
            return self._error(status, exc)
        except TelegraphError as exc:
            return self._error(400, exc)

    @staticmethod
    def _error(status: int, exc: BaseException
               ) -> TypingTuple[int, str, str]:
        return (status, "application/json",
                json.dumps({"error": error_to_wire(exc)}))

    @staticmethod
    def _json(payload: Any, status: int = 200
              ) -> TypingTuple[int, str, str]:
        return (status, "application/json",
                json.dumps(payload, default=str))

    # -- routing -----------------------------------------------------------
    def _route(self, method: str, path: str, query: Dict[str, str],
               body: Dict[str, Any]) -> TypingTuple[int, str, str]:
        server = self.service.server
        segments = [s for s in path.split("/") if s]

        if segments == ["metrics"] and method == "GET":
            return (200, "text/plain",
                    server.telemetry().to_prometheus())

        if segments == ["stats"] and method == "GET":
            return self._json({"engine": server.stats(),
                               "net": self.service.net_stats()})

        if segments == ["trace"] and method == "GET":
            return (200, "application/x-ndjson",
                    tracing.TRACER.export_jsonl())

        if segments == ["queries"]:
            if method == "GET":
                return self._json({"queries": [
                    {"cursor": c.cursor_id, "kind": c.kind,
                     "client": c.client, "pending": c.pending(),
                     "delivered": c.delivered}
                    for c in server.open_cursors()]})
            if method == "POST":
                _cursor, reply = self.service.submit(
                    body.get("query"), str(body.get("client", "admin")),
                    body.get("env"), body.get("allow_unsafe", False))
                return self._json(reply, status=201)
            return self._error(405, ProtocolError(
                f"{method} not allowed on /queries"))

        if len(segments) >= 2 and segments[0] == "queries":
            cursor = server.find_cursor(int(segments[1]))
            if len(segments) == 2 and method == "DELETE":
                cursor.close()
                return self._json({"cancelled": cursor.cursor_id})
            if len(segments) == 3 and segments[2] == "explain" \
                    and method == "GET":
                analyze = query.get("analyze") in ("1", "true", "yes")
                return self._json(server.explain(cursor, analyze=analyze))
            return self._error(405, ProtocolError(
                f"{method} not allowed on /{'/'.join(segments)}"))

        return self._error(404, QueryError(f"no route for {path!r}"))
