"""repro.sched — the unified scheduler core.

One :class:`Schedulable` protocol (``run_once(quantum) -> StepResult``
plus ``finished``), one round-robin :class:`Scheduler` and one
quiescence/stall protocol.  Every run loop in the system — Fjords,
Execution Objects, the Executor, the server facade, Flux drains —
routes through here.
"""
