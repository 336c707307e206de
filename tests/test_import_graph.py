"""The serving set: which ``repro`` modules a process loads.

Every public name is imported from its defining module; no package
``__init__`` re-exports another module's names.  So an import loads
exactly the modules it runs, and the list in
:data:`SERVING_SET` below *is* the definition of serving code: what an
in-process session through ``repro.client.connect()`` executes.  The
paper's other mechanisms (the eddy family, PSoup, Flux, storage,
egress, Juggle, the Fjord module graph, the analyzers) are reference
code: importable, tested, and never loaded by the door.  A change that
pulls one of them into the door shows up here as a diff of the list.

Each probe runs in a fresh interpreter, so nothing this test process
has already imported can hide a load.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a local session: a filter, a two-stream join, a windowed COUNT, the
#: batch door, run, fetch, telemetry and EXPLAIN.
SESSION = """
from repro.client import connect
with connect() as conn:
    conn.create_stream("S", "k", "v")
    conn.create_stream("T", "k", "w")
    f = conn.submit("SELECT * FROM S WHERE v > 5")
    j = conn.submit("SELECT * FROM S, T WHERE S.k = T.k")
    w = conn.submit("SELECT COUNT(*) FROM S "
                    "for (t = 4; t <= 8; t += 4) { WindowIs(S, t - 3, t); }")
    conn.push_rows("S", [(i % 3, i) for i in range(10)])
    conn.push_rows("T", [(i % 3, i) for i in range(10)])
    conn.run()
    assert f.fetch() and j.fetch() and w.fetch()
    conn.telemetry()
    conn.explain(f)
    conn.explain(w, analyze=True)
"""

#: every ``repro`` module :data:`SESSION` loads: 24 modules and the 9
#: packages above them.
SERVING_SET = [
    "repro",
    "repro.analysis",
    "repro.analysis.plan_check",
    "repro.analysis.report",
    "repro.client",
    "repro.client.connection",
    "repro.core",
    "repro.core.aggregates",
    "repro.core.cacq",
    "repro.core.engine",
    "repro.core.grouped_filter",
    "repro.core.stem",
    "repro.core.tuples",
    "repro.core.windows",
    "repro.errors",
    "repro.ingress",
    "repro.ingress.ingress",
    "repro.monitor",
    "repro.monitor.clock",
    "repro.monitor.telemetry",
    "repro.monitor.tracing",
    "repro.net",
    "repro.net.frames",
    "repro.query",
    "repro.query.ast",
    "repro.query.catalog",
    "repro.query.lexer",
    "repro.query.optimizer",
    "repro.query.parser",
    "repro.query.predicates",
    "repro.sched",
    "repro.sched.protocol",
    "repro.sched.scheduler",
]

#: modules (or module prefixes) that are reference code: no serving
#: process, local or networked, loads them.
REFERENCE = [
    "repro.core.eddy", "repro.core.routing", "repro.core.adaptivity",
    "repro.core.nested_eddy", "repro.core.operators", "repro.core.psoup",
    "repro.core.psoup_spill", "repro.flux", "repro.storage", "repro.egress",
    "repro.juggle", "repro.fjords.fjord", "repro.fjords.module",
    "repro.query.dataflow_script", "repro.analysis.lint",
    "repro.analysis.guard",
]


def loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the sorted ``repro``
    modules it left in ``sys.modules`` and the third-party ones asked
    about by the probes."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps({'repro': sorted(m for m in sys.modules\n"
        "                  if m == 'repro' or m.startswith('repro.')),\n"
        "                  'numpy': 'numpy' in sys.modules,\n"
        "                  'asyncio': 'asyncio' in sys.modules}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH", "")])))
    probe = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, env=env, cwd=ROOT)
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.strip().splitlines()[-1])


def is_reference(module):
    return any(module == r or module.startswith(r + ".") for r in REFERENCE)


def test_import_graph_stays_pure_python():
    """The package and its client door import no array library: batch
    columns are plain lists, so nothing in the import graph needs one."""
    loaded = loaded_after("import repro\nfrom repro.client import connect")
    assert not loaded["numpy"], "numpy imported"


def test_package_import_loads_only_the_package():
    assert loaded_after("import repro")["repro"] == ["repro"]


def test_local_session_loads_exactly_the_serving_set():
    loaded = loaded_after(SESSION)
    assert loaded["repro"] == SERVING_SET
    assert not loaded["asyncio"]
    assert not any(is_reference(m) for m in SERVING_SET)


def test_network_service_loads_no_reference_module():
    loaded = loaded_after("from repro.net.service import TelegraphCQService")
    assert [m for m in loaded["repro"] if is_reference(m)] == []
