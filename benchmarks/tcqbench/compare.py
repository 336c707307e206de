"""Compare two tcqbench result sets against the benchmark's own bounds.

    python3 benchmarks/tcqbench/compare.py A.json B.json

A result set is what ``run.py --trace 0 --out FILE`` accumulates, one
entry per workload.  For every workload x end-to-end metric present in
both sets this prints A's and B's value, B's difference relative to A and
the metric's bound from ``BENCHMARK.json``, and exits 1 when any pair
differs by more than its bound in either direction (two sets of one
commit must agree; for a change, "worse" rows are the regressions).
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def compare(a, b, end_to_end):
    """Rows ``(workload, metric, a, b, relative diff, bound, verdict)``."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in end_to_end:
            name = metric["name"]
            try:
                va = a[workload]["metrics"][name]["value"]
                vb = b[workload]["metrics"][name]["value"]
            except KeyError:
                continue
            rel = (vb - va) / va if va else 0.0
            worse = rel > 0 if metric["better"] == "lower" else rel < 0
            if abs(rel) <= metric["bound"]:
                verdict = "ok"
            else:
                verdict = "WORSE" if worse else "BETTER"
            rows.append((workload, name, va, vb, rel, metric["bound"],
                         verdict))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    rows = compare(a, b, end_to_end)
    if not rows:
        print("nothing to compare: the sets share no workload x metric",
              file=sys.stderr)
        return 2
    print(f"{'workload':<17} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'B vs A':>8} {'bound':>6}")
    for workload, name, va, vb, rel, bound, verdict in rows:
        print(f"{workload:<17} {name:<24} {va:>12.6g} {vb:>12.6g} "
              f"{rel:>+8.1%} {bound:>6.0%}  {verdict}")
    outside = [r for r in rows if r[-1] != "ok"]
    print(f"{len(rows)} pairs, {len(outside)} outside their bound")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
