"""The TCQ7xx whole-program guard: corpus expectations, false-positive
regression on the real tree, and the CLI surface (--json, --rules)."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.analysis.guard import guard_paths
from repro.analysis.guard.contexts import infer_contexts
from repro.analysis.guard.model import build_model

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "guard_corpus")
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
SRC_REPRO = os.path.join(SRC, "repro")

#: file basename -> exact expected finding codes (sorted by line).
#: Good twins are pinned to [] so a regression in either direction fails.
EXPECTED = {
    "t701_bad.py": ["TCQ701", "TCQ701"],
    "t701_good.py": [],
    "t701_suppressed.py": [],
    "t702_bad.py": ["TCQ702", "TCQ702", "TCQ702"],
    "t702_good.py": [],
    "t703_bad.py": ["TCQ703", "TCQ703"],
    "t703_good.py": [],
    "t704_bad.py": ["TCQ704"],
    "t704_good.py": [],
    "t705_bad.py": ["TCQ705", "TCQ705"],
    "t705_good.py": [],
    "telemetry.py": [],
}


def by_file(diagnostics):
    out = {}
    for d in diagnostics:
        out.setdefault(os.path.basename(d.file), []).append(d.code)
    return out


@pytest.fixture(scope="module")
def corpus_result():
    return guard_paths([CORPUS])


def test_every_rule_fires_on_its_bad_twin(corpus_result):
    got = by_file(corpus_result.diagnostics)
    for fname, codes in EXPECTED.items():
        assert got.get(fname, []) == codes, fname


def test_no_findings_outside_the_expected_set(corpus_result):
    got = by_file(corpus_result.diagnostics)
    assert set(got) <= {f for f, codes in EXPECTED.items() if codes}


def test_suppressed_violation_is_counted_not_reported(corpus_result):
    assert corpus_result.suppressed >= 1
    files = {os.path.basename(d.file) for d in corpus_result.diagnostics}
    assert "t701_suppressed.py" not in files


def test_finding_carries_span_and_chain(corpus_result):
    d = next(d for d in corpus_result.diagnostics
             if os.path.basename(d.file) == "t701_bad.py")
    assert d.span != (-1, -1)
    assert "async context" in d.message
    # the rendered block points a caret at the offending call
    assert "^" in d.render()


def test_call_chain_reaches_through_helpers(corpus_result):
    recv = [d for d in corpus_result.diagnostics
            if os.path.basename(d.file) == "t701_bad.py"
            and ".recv()" in d.message]
    assert recv, "the run_once -> _relay -> _pull chain finding is missing"
    assert "run_once" in recv[0].message


# -- false-positive regression on the real tree --------------------------------

def test_real_tree_is_guard_clean():
    res = guard_paths([SRC_REPRO])
    assert [d.render() for d in res.diagnostics] == []
    # the justified survivors in flux/procs.py are suppressions, not
    # silence: the pass must actually be exercising them
    assert res.suppressed >= 1


def test_real_tree_pass_is_fast_enough():
    t0 = time.perf_counter()
    guard_paths([SRC_REPRO])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"guard pass took {elapsed:.2f}s (budget 5s)"


def test_context_inference_finds_the_flux_chain():
    """The async-reachable set must cross module boundaries: the pump's
    run_once makes the multiprocess backend's step loop-thread work."""
    model = build_model([SRC_REPRO])
    ctx = infer_contexts(model)
    assert "repro.flux.procs.MultiprocessBackend.step" in ctx.async_reachable
    chain = ctx.chain(ctx.async_reachable,
                      "repro.flux.procs.MultiprocessBackend.step")
    assert chain[0].endswith("run_once")


def test_nonblocking_step_has_no_wait_call():
    """The previously-real violation stays fixed: step() must not reach
    multiprocessing.connection.wait (that lives in wait_for_acks now)."""
    model = build_model([SRC_REPRO])
    step = model.functions["repro.flux.procs.MultiprocessBackend.step"]
    externals = {c.external for c in step.calls}
    assert "multiprocessing.connection.wait" not in externals
    wfa = model.functions["repro.flux.procs.MultiprocessBackend.wait_for_acks"]
    assert "multiprocessing.connection.wait" in {c.external for c in wfa.calls}


# -- CLI surface ---------------------------------------------------------------

def _run_cli(*args):
    env = {"PYTHONPATH": SRC, "PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)


def test_cli_exits_nonzero_on_corpus():
    proc = _run_cli(CORPUS)
    assert proc.returncode == 10, proc.stdout


def test_cli_json_output():
    proc = _run_cli(CORPUS, "--json")
    payload = json.loads(proc.stdout)
    assert payload["count"] == len(payload["findings"]) == proc.returncode
    assert payload["suppressed"] >= 1
    f = payload["findings"][0]
    assert set(f) >= {"rule", "path", "line", "span", "message"}
    assert f["rule"].startswith("TCQ7")
    assert isinstance(f["span"], list) and len(f["span"]) == 2


def test_cli_rules_filter():
    proc = _run_cli(CORPUS, "--json", "--rules", "TCQ703,TCQ704")
    payload = json.loads(proc.stdout)
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"TCQ703", "TCQ704"}
    assert proc.returncode == payload["count"] == 3


def test_cli_self_json_is_clean():
    proc = _run_cli("--self", "--json")
    assert proc.returncode == 0, proc.stdout
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["suppressed"] >= 1
