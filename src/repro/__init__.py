"""repro — a reproduction of *TelegraphCQ: Continuous Dataflow
Processing for an Uncertain World* (Chandrasekaran et al., CIDR 2003).

The package implements the full TelegraphCQ stack in pure Python:

* **Fjords** (:mod:`repro.fjords`) — the push/pull inter-module queue
  API and the cooperative dataflow scheduler;
* **adaptive core** (:mod:`repro.core`) — eddies, routing policies,
  SteMs, grouped filters, the CACQ shared-CQ engine, PSoup, window
  semantics, the EO/DU executor, and the server facade;
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

from repro.core.adaptivity import AdaptivityController
from repro.core.cacq import CACQEngine, ContinuousQuery
from repro.core.eddy import Eddy, EddyOperator, FilterOperator, SteMOperator
from repro.core.engine import ClientProxy, Cursor, TelegraphCQServer
from repro.core.executor import DispatchUnit, ExecutionObject, Executor
from repro.core.grouped_filter import GroupedFilter
from repro.core.psoup import OnDemandPSoup, PSoup, PSoupQuery
from repro.core.routing import (BatchingDirective, FixedPolicy,
                                GreedySelectivityPolicy, LotteryPolicy,
                                RandomPolicy, RankPolicy, RoutingPolicy)
from repro.core.nested_eddy import SubEddyOperator, nested_filter_scope
from repro.core.psoup_spill import PeriodicQuery, SpillingQueryStore
from repro.core.stem import CacheSteM, RendezvousBuffer, SteM
from repro.storage.broadcast import (BroadcastReader, BroadcastSchedule,
                                     expected_wait)
from repro.storage.buffer_pool import BufferPool
from repro.storage.spill import SpillStore
from repro.storage.spooled_stream import SpooledStream
from repro.egress.egress import (FanoutEgress, PullEgress, PushEgress,
                                 TranscodingEgress)
from repro.core.tuples import Column, Punctuation, Schema, Tuple
from repro.core.windows import ForLoopSpec, HistoricalStore, WindowIs
from repro.errors import (ClusterError, ExecutionError, ParseError,
                          PlanError, QueryError, SchemaError, StorageError,
                          TelegraphError, TelemetryError)
from repro.fjords.fjord import Fjord
from repro.fjords.module import CollectingSink, Module, SinkModule, SourceModule
from repro.fjords.queues import ExchangeQueue, FjordQueue, PullQueue, PushQueue
from repro.flux.backend import ClusterBackend, PartitionHandoff, \
    SimulatedBackend, as_backend
from repro.flux.cluster import Cluster, GroupCountState, Machine
from repro.flux.flux import Flux, FluxPump
from repro.flux.parallel_cacq import CACQPartitionState, ParallelCACQ
from repro.flux.procs import LoopbackBackend, MultiprocessBackend
from repro.juggle.juggle import Juggle
from repro.ingress.sensor_proxy import SensorProxy
from repro.ingress.tess import SimulatedWebForm, TessWrapper
from repro.ingress.tag import (CentralizedAggregator, RoutingTree,
                               TagAggregator)
from repro.monitor.qos import LoadShedder
from repro.monitor.telemetry import (MetricRegistry, SeriesSample,
                                     TelemetrySnapshot, get_registry,
                                     set_registry)
from repro.query.catalog import Catalog
from repro.query.dataflow_script import DataflowScript, parse_script
from repro.query.parser import parse, parse_predicate
from repro.query.predicates import (And, ColumnComparison, Comparison, Not,
                                    Or, Predicate)
from repro.sched import (BusyFirstPolicy, DeficitRoundRobinPolicy,
                         FunctionUnit, PressureAwarePolicy, QuiescenceDetector,
                         RoundRobinPolicy, Schedulable, Scheduler,
                         SchedulerStall, SchedulingPolicy, StepResult,
                         make_policy)

__version__ = "1.0.0"

__all__ = [
    "AdaptivityController", "And", "BatchingDirective", "CACQEngine", "CacheSteM", "Catalog",
    "ClientProxy", "Cluster", "ClusterError", "CollectingSink", "Column",
    "ClusterBackend", "ColumnComparison", "Comparison", "ContinuousQuery",
    "Cursor",
    "CentralizedAggregator", "DataflowScript", "DispatchUnit", "Eddy",
    "EddyOperator", "ExchangeQueue",
    "ExecutionError", "ExecutionObject", "Executor", "FanoutEgress",
    "Fjord", "FjordQueue",
    "FilterOperator", "FixedPolicy", "Flux", "FluxPump", "ForLoopSpec",
    "GreedySelectivityPolicy", "GroupCountState", "GroupedFilter",
    "HistoricalStore", "Juggle", "LoadShedder", "LoopbackBackend",
    "LotteryPolicy", "Machine", "Module", "MultiprocessBackend", "Not",
    "OnDemandPSoup", "Or", "ParseError", "PartitionHandoff", "PlanError",
    "Predicate", "PSoup", "PSoupQuery", "PullEgress", "PullQueue",
    "Punctuation", "PushEgress",
    "PushQueue", "QueryError", "RandomPolicy", "RendezvousBuffer",
    "RankPolicy", "RoutingPolicy", "RoutingTree", "Schema", "SchemaError",
    "SensorProxy", "SimulatedBackend", "SinkModule", "SourceModule", "SteM",
    "SteMOperator",
    "StorageError", "TagAggregator", "TelegraphCQServer", "TelegraphError",
    "TelemetryError",
    "TranscodingEgress", "Tuple", "WindowIs",
    "as_backend", "parse", "parse_predicate", "parse_script",
    "BroadcastReader", "BroadcastSchedule", "BufferPool", "PeriodicQuery",
    "SimulatedWebForm", "SpillStore", "SpillingQueryStore",
    "SpooledStream", "SubEddyOperator", "TessWrapper", "expected_wait",
    "nested_filter_scope", "CACQPartitionState",
    "ParallelCACQ", "MetricRegistry", "SeriesSample", "TelemetrySnapshot",
    "get_registry", "set_registry", "BusyFirstPolicy",
    "DeficitRoundRobinPolicy", "FunctionUnit", "PressureAwarePolicy",
    "QuiescenceDetector", "RoundRobinPolicy", "Schedulable", "Scheduler",
    "SchedulerStall", "SchedulingPolicy", "StepResult", "make_policy",
]
