"""A minimal asyncio frame client.

The blocking :class:`repro.client.NetworkConnection` is the supported
application API; this module is the *driver-side* counterpart used where
hundreds of concurrent connections must live in one thread — the
multi-client leakage test.
It speaks exactly the :mod:`repro.net.frames` protocol: requests get
incrementing ids, responses are matched back by id, and unsolicited
STREAM-ROW frames accumulate per cursor.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional

from repro.errors import ConnectionClosedError, error_from_wire
from repro.net.frames import (ERROR, MAX_FRAME, STREAM_ROW, FrameDecoder,
                              encode_frame)


class AsyncFrameClient:
    """One async connection to a :class:`~repro.net.service.
    TelegraphCQService`.  ``request(op, **fields)`` returns the RESULT
    payload or raises the deserialized taxonomy error."""

    def __init__(self, host: str, port: int, max_frame: int = MAX_FRAME):
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder(max_frame)
        self._ids = itertools.count(1)
        self._waiters: Dict[int, asyncio.Future] = {}
        self._pump_task: Optional[asyncio.Task] = None
        #: cursor_id -> wire rows pushed by STREAM-ROW frames.
        self.stream_rows: Dict[int, List[Dict[str, Any]]] = {}
        self.evicted: Optional[Dict[str, Any]] = None

    async def connect(self, client: str = "aio") -> Dict[str, Any]:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump())
        return await self.request("HELLO", client=client)

    async def _pump(self) -> None:
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    break
                for frame in self._decoder.feed(data):
                    self._on_frame(frame)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            closed = ConnectionClosedError("connection closed by peer")
            for fut in self._waiters.values():
                if not fut.done():
                    fut.set_exception(closed)
            self._waiters.clear()

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        kind = frame.get("type")
        if kind == STREAM_ROW:
            self.stream_rows.setdefault(frame["cursor"], []).append(
                frame["row"])
            return
        rid = frame.get("id")
        fut = self._waiters.pop(rid, None)
        if fut is None or fut.done():
            if kind == ERROR and rid is None:
                # Unsolicited: the service evicted us.
                self.evicted = frame.get("error")
            return
        if kind == ERROR:
            fut.set_exception(error_from_wire(frame.get("error", {})))
        else:
            fut.set_result(frame)

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        rid = next(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._waiters[rid] = fut
        self._writer.write(encode_frame({"op": op, "id": rid, **fields},
                                        self.max_frame))
        await self._writer.drain()
        return await fut

    def send(self, op: str, **fields: Any) -> None:
        """Fire-and-forget (CREDIT grants, BYE without waiting)."""
        self._writer.write(encode_frame({"op": op, **fields},
                                        self.max_frame))

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self.send("BYE")
                await self._writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            self._writer.close()
        if self._pump_task is not None:
            self._pump_task.cancel()
            await asyncio.gather(self._pump_task, return_exceptions=True)

    async def __aenter__(self) -> "AsyncFrameClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
