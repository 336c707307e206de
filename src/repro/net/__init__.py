"""repro.net — the network front door (paper §2: "client communication
to Telegraph can be done via TCP/IP sockets").

* :mod:`repro.net.frames` — the length-prefixed JSON frame codec both
  ends share;
* :mod:`repro.net.service` — the asyncio :class:`TelegraphCQService`
  (frame protocol + scheduler-driven :class:`NetworkPump`);
* :mod:`repro.net.admin` — the HTTP admin plane;
* :mod:`repro.net.aioclient` — a minimal asyncio frame client for tests
  and benchmarks (the blocking client lives in :mod:`repro.client`).
"""
