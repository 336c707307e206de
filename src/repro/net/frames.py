"""The framed wire protocol: length-prefixed JSON frames.

Section 2 of the paper: "Client communication to Telegraph can be done
via TCP/IP sockets".  This module is the codec both ends share — the
asyncio :class:`~repro.net.service.TelegraphCQService` and the blocking
:class:`~repro.client.NetworkConnection` — so framing bugs cannot drift
between them.

Frame grammar (DESIGN.md §10)::

    frame    := header payload
    header   := uint32 big-endian payload length
    payload  := UTF-8 JSON object

Request frames carry ``op`` (HELLO, SUBMIT, FETCH, PUSH, CANCEL, STATS,
EXPLAIN, CHECK, DDL, CONTROL, CREDIT, METRICS, BYE) and a client-chosen
``id`` echoed on the response.  Response frames carry ``type``: RESULT
(success payload), ERROR (a wire-serialized
:mod:`repro.errors` taxonomy member), or STREAM-ROW (one pushed result
row for a streaming cursor — correlated by ``cursor``, not ``id``,
because it is unsolicited).

The decoder is incremental: feed it arbitrary byte slices (partial
headers, split payloads, many frames at once) and it yields complete
frames in order.  Oversized frames are rejected *from the header* —
before buffering the body — so a hostile or confused peer cannot balloon
memory.

Rows cross the wire as ``{"c": columns, "v": values, "ts": timestamp,
"s": schema name}``.  :func:`rows_from_wire` and
:func:`windows_from_wire` rebuild :class:`~repro.core.tuples.Row`
results (schemas are interned per connection), so local and network
cursors hand back the same object kind; :func:`tuple_from_wire` rebuilds
a :class:`~repro.core.tuples.Tuple` for Flux's partition shipping, where
the receiving state stores it.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple as TypingTuple

from repro.core.tuples import Row, Schema, Tuple
from repro.errors import ProtocolError

#: Wire-format revision; HELLO responses carry it.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's JSON payload (1 MiB).
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: Request operations the service understands.
REQUEST_OPS = ("HELLO", "SUBMIT", "FETCH", "PUSH", "CANCEL", "STATS",
               "EXPLAIN", "CHECK", "DDL", "CONTROL", "CREDIT", "METRICS",
               "BYE")

#: Response frame types.
RESULT, ERROR, STREAM_ROW = "RESULT", "ERROR", "STREAM-ROW"


def encode_frame(frame: Dict[str, Any], max_frame: int = MAX_FRAME) -> bytes:
    """One frame as bytes: 4-byte big-endian length, then UTF-8 JSON."""
    try:
        payload = json.dumps(frame, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable frame: {exc}") from None
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte limit")
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    Feed it whatever the transport produced — half a header, a payload
    split across reads, six frames in one read — and it returns every
    frame completed so far.  State between feeds is one buffer and the
    pending payload length.
    """

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buf = bytearray()
        self._need: Optional[int] = None    # payload bytes awaited
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return the frames it completed (often [])."""
        self.bytes_fed += len(data)
        self._buf.extend(data)
        out: List[Dict[str, Any]] = []
        while True:
            if self._need is None:
                if len(self._buf) < HEADER_SIZE:
                    break
                (self._need,) = _HEADER.unpack(self._buf[:HEADER_SIZE])
                del self._buf[:HEADER_SIZE]
                if self._need > self.max_frame:
                    raise ProtocolError(
                        f"peer announced a {self._need}-byte frame; "
                        f"limit is {self.max_frame}")
            if len(self._buf) < self._need:
                break
            payload = bytes(self._buf[:self._need])
            del self._buf[:self._need]
            self._need = None
            try:
                frame = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"undecodable frame: {exc}") from None
            if not isinstance(frame, dict):
                raise ProtocolError(
                    f"frame must be a JSON object, got {type(frame).__name__}")
            self.frames_decoded += 1
            out.append(frame)
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)


# -- tuple / window serialization ---------------------------------------------

def tuple_to_wire(t: Row) -> Dict[str, Any]:
    return {"s": t.schema.name, "c": list(t.schema.column_names()),
            "v": list(t.values), "ts": t.timestamp}


def _schema_from_wire(payload: Dict[str, Any],
                      schemas: Optional[Dict[Any, Schema]]) -> Schema:
    """The row's schema; ``schemas`` interns one Schema per (name,
    columns) so a million rows do not allocate a million schemas."""
    key = (payload.get("s", ""), tuple(payload["c"]))
    schema = None if schemas is None else schemas.get(key)
    if schema is None:
        schema = Schema.of(key[0], *key[1])
        if schemas is not None:
            schemas[key] = schema
    return schema


def tuple_from_wire(payload: Dict[str, Any],
                    schemas: Optional[Dict[Any, Schema]] = None) -> Tuple:
    """Rebuild a Tuple, for a receiver that stores or routes it."""
    return Tuple(_schema_from_wire(payload, schemas), tuple(payload["v"]),
                 payload.get("ts"))


def rows_to_wire(rows: Iterable[Row]) -> List[Dict[str, Any]]:
    return [tuple_to_wire(t) for t in rows]


def rows_from_wire(rows: Iterable[Dict[str, Any]],
                   schemas: Optional[Dict[Any, Schema]] = None
                   ) -> List[Row]:
    """Rebuild result rows (no lineage: a client only reads them)."""
    return [Row(_schema_from_wire(r, schemas), tuple(r["v"]), r.get("ts"))
            for r in rows]


def windows_to_wire(windows: Iterable[TypingTuple[int, List[Row]]]
                    ) -> List[Dict[str, Any]]:
    return [{"t": t, "rows": rows_to_wire(rows)} for t, rows in windows]


def windows_from_wire(payload: Iterable[Dict[str, Any]],
                      schemas: Optional[Dict[Any, Schema]] = None
                      ) -> List[TypingTuple[int, List[Row]]]:
    return [(w["t"], rows_from_wire(w["rows"], schemas)) for w in payload]
