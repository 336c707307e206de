"""tcqbench: one front-door benchmark for the TelegraphCQ reproduction.

    python3 benchmarks/tcqbench/run.py --workload firehose --seed 1 \
        --seconds 16 --trace 0

One process, one driver thread (plus the service thread in ``net_door``),
no child processes.  A run is: set-up (imports, then inputs + oracle +
system set-up, repeated ``SETUP_REPEATS`` times for a median), one
discarded warm-up round, then measured rounds until ``--seconds`` have
passed.  Every value reported is the median over measured rounds, with
quartiles beside it.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` records spans around every front-door
call on alternate rounds, replays each layer on the workload's inputs,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

_T0 = time.perf_counter()           # process start, as near as python sees it

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import threading
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("firehose", "standing_queries", "query_churn", "windowed_join",
             "net_door")
SETUP_REPEATS = 3
#: A run that has not finished by then is a hang: fail it, leave no orphan.
WATCHDOG_SECONDS = 170
#: An open-loop round whose generator sent later than this (p99) is not
#: averaged into result latency.
MAX_GENERATOR_LAG_MS = 2.0

#: Telemetry counter families read as per-round deltas on traced rounds.
COUNTERS = {
    "engine.ingress_tuples": "tcq_server_ingress_tuples_total",
    "engine.egress_tuples": "tcq_server_egress_tuples_total",
    "cacq.filter_probes": "tcq_cacq_filter_probes_total",
    "cacq.results_out": "tcq_cacq_results_out_total",
    "eddy.routing_decisions": "tcq_eddy_routing_decisions_total",
    "freeze.frozen_rows": "tcq_freeze_frozen_rows_total",
    "stem.probes": "tcq_stem_probes_total",
    "storage.history_scans": "tcq_storage_history_scans_total",
    "storage.tuples_scanned": "tcq_storage_history_tuples_scanned_total",
    "fjords.enqueued": "tcq_fjords_enqueued_total",
    "executor.steps": "tcq_executor_steps_total",
    "executor.du_quanta": "tcq_executor_du_quanta_total",
    "sched.passes": "tcq_sched_passes_total",
    "net.frames_in": "tcq_net_frames_total:in",
    "net.frames_out": "tcq_net_frames_total:out",
    "net.bytes_in": "tcq_net_bytes_total:in",
    "net.bytes_out": "tcq_net_bytes_total:out",
    "net.rows_shed": "tcq_net_push_shed_total",
}
SPAN_KINDS = ("push_rows", "step", "fetch", "submit", "cancel")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values):
    """``(median, q1, q3)`` over rounds; quartiles collapse below 2 rounds."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def generator_lag_p99(round_result):
    lag = round_result.generator_lag_ms
    return percentile(lag, 0.99) if lag else 0.0


def flat(value):
    """A value measured once per run, in the ``(median, q1, q3)`` shape."""
    return value, value, value


def _on_alarm(signum, frame):
    raise TimeoutError(f"tcqbench watchdog: run exceeded {WATCHDOG_SECONDS} s")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def make_workload(name, seed, size):
    import workloads
    classes = {c.name: c for c in (
        workloads.Firehose, workloads.StandingQueries, workloads.QueryChurn,
        workloads.WindowedJoin, workloads.NetDoor)}
    return classes[name](seed, size)


def run_rounds(workload, seconds, recorder):
    """Warm-up, then rounds until ``seconds`` have passed.  With a
    recorder, rounds alternate traced / untraced so the slowdown tracing
    causes is measured inside the run."""
    from spans import NULL
    warmup = workload.round(NULL)
    rounds = []
    start = time.perf_counter()
    while True:
        traced = recorder is not None and len(rounds) % 2 == 0
        if traced:
            recorder.round_id = len(rounds)
        gc.collect()        # every round starts from the same heap state
        result = workload.round(recorder if traced else NULL)
        result.traced = traced
        rounds.append(result)
        enough = len(rounds) >= (2 if recorder is not None else 1)
        if enough and time.perf_counter() - start >= seconds:
            return warmup, rounds


def end_to_end_values(rounds, setup_s):
    """Every end-to-end candidate, as ``{name: (median, q1, q3)}`` plus
    the per-round sample sizes the percentiles rest on."""
    out, sizes = {}, {}
    out["tuples_per_s"] = summary([r.tuples / r.wall_s for r in rounds])
    timed = [r for r in rounds if generator_lag_p99(r) <= MAX_GENERATOR_LAG_MS]
    if len(timed) < len(rounds):
        print(f"note: the open-loop generator ran late in "
              f"{len(rounds) - len(timed)} of {len(rounds)} rounds; "
              + ("they are left out of result latency" if timed
                 else "with none on time, all are kept"), file=sys.stderr)
    timed = timed or rounds
    for name, series, qs in (
            ("result_latency_ms", [r.latency_ms for r in timed],
             (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))),
            ("admit_ms", [r.admit_ms for r in rounds],
             (("p50", 0.50), ("p99", 0.99))),
            ("cancel_ms", [r.cancel_ms for r in rounds],
             (("p50", 0.50), ("p99", 0.99)))):
        sizes[name] = statistics.median(len(s) for s in series)
        for label, q in qs:
            out[f"{name}_{label}"] = summary(
                [percentile(s, q) for s in series])
    out["setup_s"] = setup_s
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = flat(rss)
    return out, sizes


def per_layer_values(workload, rounds, recorder, e2e):
    """Span self times, telemetry deltas, layer replays and the checks
    that tie them to the end-to-end numbers."""
    import layers
    from workloads import NetDoor, WindowedJoin
    out = {}
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]

    self_s = recorder.self_seconds()
    for kind in SPAN_KINDS:
        out[f"client.{kind}_s"] = summary(
            [per_round.get(f"client.{kind}", 0.0)
             for per_round in self_s.values()])
    for name, family in COUNTERS.items():
        out[name] = summary([r.counters.get(family, 0.0) for r in traced])

    def ratio(a, b):
        return flat(out[a][0] / out[b][0] if out[b][0] else 0.0)

    ingress = "engine.ingress_tuples"
    out["cacq.results_per_probe"] = ratio("cacq.results_out",
                                          "cacq.filter_probes")
    out["windows.tuples_scanned_per_tuple"] = ratio("storage.tuples_scanned",
                                                    ingress)
    out["net.bytes_in_per_row"] = ratio("net.bytes_in", ingress)
    out["net.bytes_out_per_row"] = ratio("net.bytes_out", ingress)
    del out["storage.tuples_scanned"], out["net.bytes_in"], out["net.bytes_out"]

    for name, value in layers.replay(workload).items():
        out[name] = flat(value)

    # How much of the door's push_rows time the bare layers account for.
    push_s = out["client.push_rows_s"][0]
    tuples = statistics.median(r.tuples for r in traced)
    cacq_share = out["cacq.push_tuple_us"][0] * tuples / 1e6 / push_s
    gf_share = (out["grouped_filter.matching_us"][0]
                * out["cacq.filter_probes"][0] / 1e6 / push_s)
    out["cacq.share_of_push_rows"] = flat(cacq_share)
    out["grouped_filter.share_of_push_rows"] = flat(gf_share)

    is_net = isinstance(workload, NetDoor)
    out["net.push_roundtrip_us"] = summary(
        [d / 1e3 for d in recorder.durations_ns("client.push_rows")]
    ) if is_net else flat(0.0)
    missing = control = 0.0
    if is_net:
        missing = float(workload.streaming_rows_missing())
        control = workload.inprocess_control_tuples_per_s()
    out["net.stream_rows_missing"] = flat(missing)
    out["net.inprocess_control_tuples_per_s"] = flat(control)
    out["gen.lag_ms_p99"] = summary([generator_lag_p99(r) for r in rounds])

    def tput(rs):
        return statistics.median(r.tuples / r.wall_s for r in rs)

    overhead = 1.0 - tput(traced) / tput(untraced) if untraced else 0.0
    out["bench.trace_overhead_share"] = flat(overhead)

    # End-to-end candidates that did not repeat well enough to carry a
    # bound (see README) are still reported here.
    windowed = isinstance(workload, WindowedJoin)
    for p in ("p50", "p95"):
        out[f"window_lag_ms_{p}"] = \
            e2e[f"result_latency_ms_{p}"] if windowed else flat(0.0)
    return out


def report(title, names, values, units, sizes):
    print(f"== {title} ==")
    for name in names:
        med, q1, q3 = values[name]
        n = next((f"  n/round={sizes[k]:g}" for k in sizes
                  if name.startswith(k)), "")
        print(f"{name:<40} {med:>14.6g} {units[name]:<6} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}]{n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1/50 size; for the test, not for comparing")
    parser.add_argument("--out", default=None,
                        help="merge this run into a result-set JSON file "
                             "(input of compare.py)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"tcqbench: no system to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        print("note: PYTHONHASHSEED is not pinned; hash randomisation moves "
              "firehose throughput by about 2 % either way between "
              "processes (BENCHMARK.json runs with PYTHONHASHSEED=0)",
              file=sys.stderr)

    # One core for the whole run: with two cores and the interpreter lock
    # the second buys nothing, and where the scheduler happens to place
    # the driver and service threads moved net_door's round trips by
    # 15-25 % between rounds.
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {max(cpus)})

    threads_before = threading.active_count()
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        return _run(args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)
        gc.unfreeze()
        if cpus:
            os.sched_setaffinity(0, cpus)
        # Leave nothing running: a thread or child alive here would
        # outlive the benchmark.
        if threading.active_count() != threads_before:
            raise RuntimeError(
                f"threads left running: {threading.enumerate()}")
        if multiprocessing.active_children():
            raise RuntimeError("child processes left running")


def _run(args):
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None \
        else contract["run_seconds"]
    size = "smoke" if args.smoke else "full"

    from repro.analysis.report import PlanCheckWarning
    import spans
    # Past 64 standing queries every submit carries an advisory TCQ205
    # warning; a client with a thousand queries silences it, as the
    # network service does.
    warnings.simplefilter("ignore", PlanCheckWarning)
    import_s = time.perf_counter() - _T0

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = make_workload(args.workload, args.seed, size)
        workload.system_setup()
        builds.append(time.perf_counter() - t0)
    setup_s = tuple(import_s + b for b in summary(builds))
    # The inputs and the oracle are the benchmark's, not the system's:
    # keep the collector from walking them during the measured rounds.
    gc.collect()
    gc.freeze()

    recorder = spans.SpanRecorder() if args.trace else None
    warmup, rounds = run_rounds(workload, seconds, recorder)
    attempted = sum(r.attempted for r in rounds) + warmup.attempted
    failed = sum(r.failed for r in rounds) + warmup.failed
    for r in [warmup] + rounds:
        for error in r.errors:
            print(f"FAILED: {error}", file=sys.stderr)

    values, sizes = end_to_end_values(rounds, setup_s)
    if args.trace:
        values.update(per_layer_values(workload, rounds, recorder, values))
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    names = [m["name"] for m in
             contract["per_layer" if args.trace else "end_to_end"]]
    unknown = [n for n in names if n not in values]
    if unknown:
        raise RuntimeError(f"BENCHMARK.json names metrics the run did not "
                           f"produce: {unknown}")

    print(f"tcqbench {args.workload} seed={args.seed} size={size} "
          f"rounds={len(rounds)} trace={args.trace}")
    report("per-layer" if args.trace else "end-to-end", names, values,
           units, sizes)
    print(f"operations attempted {attempted}, failed {failed}")

    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        recorder.write(
            os.path.join(HERE, "out",
                         f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "size": size,
             "traced_rounds": [i for i, r in enumerate(rounds) if r.traced]})

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": values[n][0], "unit": units[n]}
                          for n in names}}
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        merged[args.workload] = dict(
            result, seed=args.seed, size=size, rounds=len(rounds),
            quartiles={n: [values[n][1], values[n][2]] for n in names})
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
