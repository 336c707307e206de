"""repro.client — the one client API, local or over the wire.

The paper's Figure 5 puts a *proxy* between applications and the
TelegraphCQ FrontEnd; this package is that proxy made uniform.  Every
application — the CLI, the examples, the benchmarks — obtains an engine
through :func:`connect` and drives it through the same
``Connection``/``Cursor`` surface regardless of where the engine lives:

>>> conn = connect()                        # in-process engine
>>> conn = connect("tcp://127.0.0.1:7673")  # engine behind the service

Both return objects with identical semantics: ``submit`` hands back a
cursor whose only read surface is ``fetch(limit=)`` / ``fetchall()`` /
iteration; errors raise the same :mod:`repro.errors` taxonomy
(:class:`~repro.errors.PlanCheckError` diagnostics — spans included —
survive the network round trip byte-identically).

Constructing :class:`~repro.core.engine.TelegraphCQServer` directly
anywhere else is a lint violation (``TCQ401``): the unified API is the
only door.
"""

from __future__ import annotations

from typing import Optional

from repro.client.connection import (Connection, LocalConnection,
                                     NetworkConnection, NetworkCursor)
from repro.errors import ProtocolError

__all__ = ["connect", "Connection", "LocalConnection",
           "NetworkConnection", "NetworkCursor"]


def connect(address: Optional[str] = None, *, client: str = "default",
            **kwargs) -> Connection:
    """Open a connection to a TelegraphCQ engine.

    ``address`` of ``None`` or ``"local"`` starts an in-process engine
    (a :class:`LocalConnection`); ``"tcp://host:port"`` or
    ``"host:port"`` dials a running
    :class:`~repro.net.service.TelegraphCQService`
    (a :class:`NetworkConnection`).  Extra keyword arguments go to the
    chosen connection class.
    """
    if address is None or address == "local":
        return LocalConnection(client=client, **kwargs)
    spec = address[len("tcp://"):] if address.startswith("tcp://") \
        else address
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ProtocolError(
            f"cannot parse address {address!r}; expected "
            "'tcp://host:port', 'host:port', or 'local'")
    return NetworkConnection(host or "127.0.0.1", int(port),
                             client=client, **kwargs)
