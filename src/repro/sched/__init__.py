"""repro.sched — the unified scheduler core.

One :class:`Schedulable` protocol (``run_once(quantum) -> StepResult``
plus ``finished``), one round-robin :class:`Scheduler` and one
quiescence/stall protocol.  Every run loop in the system — Fjords,
the server's windowed plans, the network service, Flux drains —
routes through here.
"""
