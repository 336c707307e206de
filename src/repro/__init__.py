"""repro — a reproduction of *TelegraphCQ: Continuous Dataflow
Processing for an Uncertain World* (Chandrasekaran et al., CIDR 2003).

The package implements the full TelegraphCQ stack in pure Python:

* **Fjords** (:mod:`repro.fjords`) — the push/pull inter-module queue
  API and the cooperative dataflow scheduler;
* **adaptive core** (:mod:`repro.core`) — eddies, routing policies,
  SteMs, grouped filters, the CACQ shared-CQ engine, PSoup, window
  semantics, and the server facade (whose scheduler runs the windowed
  plans);
* **query language** (:mod:`repro.query`) — the SQL subset with the
  paper's for-loop ``WindowIs`` clause, catalog, and optimizer;
* **ingress** (:mod:`repro.ingress`) — pull/push source wrappers,
  streamers, and synthetic workload generators;
* **storage** (:mod:`repro.storage`) — buffer pool, pages, and a
  log-structured spill store for out-of-core streams;
* **Flux** (:mod:`repro.flux`) — partitioned-parallel dataflow with
  online repartitioning and process-pair fault tolerance over a
  simulated cluster;
* **Juggle** (:mod:`repro.juggle`) — online reordering by preference;
* **baselines** (:mod:`repro.baselines`) — static plans, per-query CQ
  processing, and a NiagaraCQ-style grouped engine;
* **monitor** (:mod:`repro.monitor`) — runtime statistics, QoS load
  shedding, and the unified telemetry registry
  (:mod:`repro.monitor.telemetry`);
* **net** (:mod:`repro.net`) — the asyncio network service: a framed
  wire protocol, streaming cursors with credit backpressure, and an
  HTTP admin plane;
* **client** (:mod:`repro.client`) — the unified front door.
  ``connect()`` returns an in-process connection;
  ``connect("tcp://host:port")`` returns the same API over the wire.

Where names live: each public name has one import path, the module that
defines it (``from repro.core.tuples import Schema``,
``from repro.sched.scheduler import Scheduler``).  This package and its
sub-packages re-export nothing, so ``import repro`` loads only this
module, and a process loads exactly the modules it runs.  The two
exceptions are the door, :mod:`repro.client` (``connect`` and its
connection classes), and :func:`repro.analysis.guard.guard_paths`.

Quickstart::

    from repro.client import connect

    with connect() as conn:
        conn.create_stream("trades", "sym", "price")
        cursor = conn.submit("SELECT * FROM trades WHERE price > 100")
        conn.push("trades", "MSFT", 101.5)
        print(cursor.fetch())
        print(conn.telemetry().to_prometheus())

Result retrieval — the blessed triad
------------------------------------

Every :class:`Cursor` supports exactly three retrieval styles; pick one
per cursor and stick to it:

* **pull** — ``cursor.fetch(limit=...)`` / ``cursor.fetchall()`` /
  iteration drain buffered results for any query kind (windowed
  cursors yield rows flattened in window order);
* **push** — pass ``on_result=callback`` to ``submit`` (in-process
  connections only) and every result is delivered as it is produced;
* **sequence of sets** — windowed cursors additionally offer
  ``cursor.fetch_windows()`` returning ``(loop_value, rows)`` pairs
  when window boundaries matter.

The three styles behave identically on local and network cursors;
there is no other read surface.  Cursors, connections, and the server
are context managers (``close()`` cancels the underlying query / shuts
the engine down).
"""

__version__ = "1.0.0"
