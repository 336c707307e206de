"""Smoke test of tcqbench itself: every workload at ~1/50 size, oracle
checks on, both output modes, and the contract with ``BENCHMARK.json``.

    python3 -m pytest benchmarks/tcqbench -q

Not part of tier-1 (``testpaths`` is ``tests``).  Numbers printed here
are not comparable with anything: only ``full`` size is.
"""

import json
import os
import re
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_once(capsys, workload, trace, seed=1, extra=()):
    code = run.main(["--workload", workload, "--smoke", "--seconds", "0.2",
                     "--seed", str(seed), "--trace", str(trace), *extra])
    out = capsys.readouterr().out
    assert code == 0
    return out, json.loads(out.strip().splitlines()[-1])


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    names += [w["name"] for w in CONTRACT["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in CONTRACT["end_to_end"])}]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_workload_prints_exactly_the_contract_metrics(
        capsys, trace, section):
    started = time.perf_counter()
    threads = threading.active_count()
    wanted = {m["name"]: m["unit"] for m in CONTRACT[section]}
    for workload in run.WORKLOADS:
        out, result = run_once(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == wanted
        for name, unit in wanted.items():
            assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\s",
                             out, re.M), f"{name} not printed with its unit"
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert threading.active_count() == threads
    assert time.perf_counter() - started < 15


def test_run_produces_no_metric_outside_the_contract(capsys):
    """Vice versa: everything the runner computes is named in the file."""
    listed = {m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    w = run.make_workload("net_door", 1, "smoke")
    recorder = spans.SpanRecorder()
    _warmup, rounds = run.run_rounds(w, 0.1, recorder)
    values, _sizes = run.end_to_end_values(rounds, (1.0, 1.0, 1.0))
    values.update(run.per_layer_values(w, rounds, recorder, values))
    assert set(values) == listed


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_changes_inputs_and_passes_its_oracle(capsys, workload):
    a = run.make_workload(workload, 1, "smoke")
    b = run.make_workload(workload, 2, "smoke")
    same_seed = run.make_workload(workload, 1, "smoke")
    if workload == "windowed_join":
        assert a.trades != b.trades and a.trades == same_seed.trades
    else:
        assert a.rows != b.rows and a.rows == same_seed.rows
    _out, result = run_once(capsys, workload, 0, seed=2)
    assert result["correct"] is True and result["failed"] == 0


def test_oracle_catches_a_wrong_result():
    w = run.make_workload("firehose", 1, "smoke")
    w.expected[0] = (w.expected[0][0] + 3, w.expected[0][1])
    result = w.round()
    assert result.failed == 3 and result.errors


def test_span_self_time_excludes_children():
    rec = spans.SpanRecorder()
    with rec.span("outer"):
        time.sleep(0.002)
        with rec.span("inner"):
            time.sleep(0.004)
    per_round = rec.self_seconds()[0]
    assert per_round["inner"] >= 0.004 and per_round["outer"] >= 0.002
    total = (rec.spans[0][2] - rec.spans[0][1]) / 1e9
    assert abs(per_round["outer"] + per_round["inner"] - total) < 1e-9


def test_compare_accepts_equal_sets_and_rejects_a_regression(
        capsys, tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_once(capsys, "firehose", 0, extra=("--out", a_path))
    with open(a_path) as fh:
        doc = json.load(fh)
    assert compare.main([a_path, a_path]) == 0
    doc["firehose"]["metrics"]["tuples_per_s"]["value"] *= 0.5
    with open(b_path, "w") as fh:
        json.dump(doc, fh)
    assert compare.main([a_path, b_path]) == 1
    assert "WORSE" in capsys.readouterr().out
