"""flux subpackage of the TelegraphCQ reproduction.

The partitioned-parallel dataflow layer: the :class:`Flux` operator
(routing, online repartitioning, process-pair failover) programs
against the :class:`ClusterBackend` protocol, which is implemented by
the deterministic :class:`SimulatedBackend` (tier-1), the in-process
:class:`LoopbackBackend` (real worker logic and wire codec, zero
processes) and the :class:`MultiprocessBackend` (real spawned worker
interpreters connected by framed pipes).
"""
