"""The codebase invariant linter: one positive and one negative case per
rule, exemption comments, and the cross-module hierarchy map."""

import textwrap

from repro.analysis.lint import lint_paths, lint_source

# A minimal stand-in for core/eddy.py so the hierarchy map can resolve
# EddyOperator without importing anything.
EDDY_BASE = textwrap.dedent("""\
    class EddyOperator:
        def handle(self, t): ...
        def handle_batch(self, batch): ...
""")


def codes(src, **kw):
    return [d.code for d in lint_source(textwrap.dedent(src), **kw)]


# -- TCQ301 batch parity -------------------------------------------------------

def test_batch_parity_flags_missing_handle_batch():
    src = EDDY_BASE + textwrap.dedent("""\
        class MyOp(EddyOperator):
            def handle(self, t):
                return None
    """)
    assert codes(src) == ["TCQ301"]


def test_batch_parity_satisfied_by_override():
    src = EDDY_BASE + textwrap.dedent("""\
        class MyOp(EddyOperator):
            def handle(self, t):
                return None

            def handle_batch(self, batch):
                return batch, ()
    """)
    assert codes(src) == []


def test_batch_parity_cross_module_hierarchy():
    # The subclass lives in another "file"; the base arrives via
    # extra_sources, exactly how lint_paths resolves across modules.
    src = textwrap.dedent("""\
        class MyOp(Intermediate):
            def handle(self, t):
                return None
    """)
    extra = {"base.py": EDDY_BASE + "class Intermediate(EddyOperator): ..."}
    assert codes(src, extra_sources=extra) == ["TCQ301"]


def test_batch_parity_exemption_comment():
    src = EDDY_BASE + textwrap.dedent("""\
        class MyOp(EddyOperator):   # tcq: allow[TCQ301] per-tuple only
            def handle(self, t):
                return None
    """)
    assert codes(src) == []


def test_non_eddy_class_not_flagged():
    src = "class Unrelated:\n    def handle(self, t): ...\n"
    assert codes(src) == []


# -- TCQ302 telemetry naming ---------------------------------------------------

def test_metric_prefix_enforced():
    src = 'reg.counter("my_events_total", "help")\n'
    assert codes(src) == ["TCQ302"]


def test_metric_prefix_ok():
    src = 'reg.counter("tcq_events_total", "help")\n'
    assert codes(src) == []


def test_metric_kind_conflict():
    src = ('reg.counter("tcq_x", "a")\n'
           'reg.gauge("tcq_x", "b")\n')
    assert codes(src) == ["TCQ302"]


def test_metric_same_kind_reregistration_ok():
    src = ('reg.counter("tcq_x", "a")\n'
           'reg.counter("tcq_x", "a")\n')
    assert codes(src) == []


def test_metric_exemption():
    src = ('reg.counter("legacy_total", "h")'
           '  # tcq: allow[TCQ302] external dashboard name\n')
    assert codes(src) == []


# -- TCQ303 clock discipline ---------------------------------------------------

def test_clock_attribute_flagged():
    assert codes("import time\nt0 = time.monotonic()\n") == ["TCQ303"]


def test_clock_from_import_flagged():
    assert codes("from time import perf_counter\n") == ["TCQ303"]


def test_clock_sleep_is_fine():
    assert codes("import time\ntime.sleep(0.1)\n") == []


def test_clock_allowed_in_clock_module():
    src = "import time\nnow = time.perf_counter\n"
    assert lint_source(src, file="src/repro/monitor/clock.py") == []


def test_clock_exemption_comment():
    src = "import time\nt = time.time()  # tcq: allow[TCQ303] wall-clock stamp\n"
    assert codes(src) == []


# -- TCQ304 Schedulable conformance --------------------------------------------

def test_run_once_without_protocol_flagged():
    src = textwrap.dedent("""\
        class Half:
            def run_once(self, quantum=None):
                return None
    """)
    assert codes(src) == ["TCQ304"]


def test_run_once_with_ready_but_no_finished_flagged():
    src = textwrap.dedent("""\
        class Half:
            def run_once(self, quantum=None): ...
            def ready(self): ...
    """)
    assert codes(src) == ["TCQ304"]


def test_run_once_with_methods_ok():
    src = textwrap.dedent("""\
        class Full:
            def run_once(self, quantum=None): ...
            @property
            def finished(self): ...
    """)
    assert codes(src) == []


def test_run_once_with_instance_attr_ok():
    src = textwrap.dedent("""\
        class Full:
            def __init__(self):
                self.finished = False
            def run_once(self, quantum=None): ...
    """)
    assert codes(src) == []


def test_run_once_inherited_protocol_ok():
    src = textwrap.dedent("""\
        class Unit(Schedulable):
            def run_once(self, quantum=None): ...
    """)
    extra = {"protocol.py": textwrap.dedent("""\
        class Schedulable:
            @property
            def finished(self): ...
    """)}
    assert codes(src, extra_sources=extra) == []


def test_run_once_exemption():
    src = textwrap.dedent("""\
        class Half:   # tcq: allow[TCQ304] driven by hand
            def run_once(self, quantum=None): ...
    """)
    assert codes(src) == []


# -- TCQ305 bounded-ring discipline --------------------------------------------

def test_bounded_class_with_pure_append_flagged():
    src = textwrap.dedent("""\
        class Ring:
            \"\"\"A bounded history buffer.\"\"\"
            def __init__(self):
                self.items = []
            def push(self, x):
                self.items.append(x)
    """)
    assert codes(src) == ["TCQ305"]


def test_bounded_class_with_trim_ok():
    src = textwrap.dedent("""\
        class Ring:
            \"\"\"A bounded history buffer.\"\"\"
            def __init__(self):
                self.items = []
            def push(self, x):
                self.items.append(x)
                if len(self.items) > 64:
                    self.items.pop(0)
    """)
    assert codes(src) == []


def test_unbounded_docstring_not_flagged():
    src = textwrap.dedent("""\
        class Log:
            \"\"\"An unbounded append-only log.\"\"\"
            def __init__(self):
                self.items = []
            def push(self, x):
                self.items.append(x)
    """)
    assert codes(src) == []


def test_bounded_exemption():
    src = textwrap.dedent("""\
        class Ring:
            \"\"\"Bounded by construction upstream.\"\"\"
            def __init__(self):
                self.items = []
            def push(self, x):
                self.items.append(x)  # tcq: allow[TCQ305] trimmed upstream
    """)
    assert codes(src) == []


# -- whole-tree invariants -----------------------------------------------------

def test_shipped_tree_is_clean():
    assert lint_paths(["src/repro"]) == []


def test_lint_paths_reports_file_and_line(tmp_path):
    mod = tmp_path / "bad.py"
    mod.write_text("import time\nx = time.time()\n")
    diags = lint_paths([str(tmp_path)])
    assert [d.code for d in diags] == ["TCQ303"]
    assert diags[0].file.endswith("bad.py")
    assert diags[0].line == 2


# -- TCQ401 server door --------------------------------------------------------

def test_direct_server_construction_flagged():
    src = """\
        from repro.core.engine import TelegraphCQServer
        server = TelegraphCQServer()
    """
    assert codes(src, file="src/repro/somewhere.py") == ["TCQ401"]


def test_server_door_allows_client_package():
    src = """\
        from repro.core.engine import TelegraphCQServer
        server = TelegraphCQServer()
    """
    assert codes(src, file="src/repro/client/connection.py") == []


def test_server_door_allows_engine_module_itself():
    src = """\
        def clone():
            return TelegraphCQServer()
    """
    assert codes(src, file="src/repro/core/engine.py") == []


def test_server_door_allows_tests():
    src = """\
        from repro.core.engine import TelegraphCQServer
        server = TelegraphCQServer()
    """
    assert codes(src, file="tests/test_server_api.py") == []


def test_server_door_exemption_comment():
    src = """\
        srv = TelegraphCQServer()  # tcq: allow[TCQ401] engine test
    """
    assert codes(src, file="src/repro/somewhere.py") == []


def test_server_door_mentions_the_front_door():
    src = """\
        srv = TelegraphCQServer()
    """
    (diag,) = [d for d in __import__("repro.analysis.lint",
                                     fromlist=["lint_source"]).lint_source(
        textwrap.dedent(src), file="src/repro/x.py")]
    assert "client" in diag.hint or "connect" in diag.hint


def test_server_door_flags_private_reach_in_from_a_transport():
    src = """\
        class Service:
            def _h_push(self, frame):
                clock = self.server._stream_clock.get(frame["stream"], 0)
                return self.server._admission_context()
    """
    assert codes(src, file="src/repro/net/service.py") == \
        ["TCQ401", "TCQ401"]


def test_server_door_allows_public_calls_and_core_or_client_reach_in():
    public = """\
        class Service:
            def _h_push(self, frame):
                return self.connection.push_rows(frame["stream"],
                                                 frame["rows"])

            def stats(self):
                return self.server.stats(), self.server.__class__
    """
    assert codes(public, file="src/repro/net/service.py") == []
    private = """\
        def check(self, query):
            return self.server._admission_context()
    """
    assert codes(private, file="src/repro/client/connection.py") == []
    assert codes(private, file="src/repro/core/engine.py") == []


# -- TCQ501 columnar discipline ------------------------------------------------

def test_columnar_discipline_flags_materialize_in_hot_path():
    src = """\
        def handle_batch(batch):
            return [t for t in batch.materialize()]
    """
    assert codes(src, file="src/repro/core/myop.py") == ["TCQ501"]
    assert codes(src, file="src/repro/query/rewrite.py") == ["TCQ501"]


def test_columnar_discipline_flags_foreign_rows_access():
    src = """\
        def peek(batch):
            return batch._rows
    """
    assert codes(src, file="src/repro/core/myop.py") == ["TCQ501"]


def test_columnar_discipline_allows_self_rows_and_cold_paths():
    impl = """\
        class TupleBatch:
            def materialize(self):
                return self._rows
    """
    # self._rows is the backing store: clean even in the implementation
    # file, which no longer enjoys a by-name exemption.
    assert codes(impl, file="src/repro/core/tuples.py") == []
    hot = """\
        rows = batch.materialize()
    """
    assert codes(hot, file="src/repro/fjords/module.py") == []
    assert codes(hot, file="tests/test_something.py") == []


def test_columnar_discipline_exemption_comment():
    src = """\
        rows = batch.materialize()  # tcq: allow[TCQ501] rows stored
    """
    assert codes(src, file="src/repro/core/myop.py") == []


def test_columnar_discipline_hot_paths_are_clean():
    """The real hot-path modules must hold the invariant (same check the
    ``--self`` gate runs, narrowed to TCQ501)."""
    diags = [d for d in lint_paths(["src/repro/core", "src/repro/query"])
             if d.code == "TCQ501"]
    assert diags == []


# -- TCQ601 process confinement ------------------------------------------------

def test_process_confinement_flags_multiprocessing_import():
    src = """\
        import multiprocessing
    """
    assert codes(src, file="src/repro/core/engine2.py") == ["TCQ601"]
    src = """\
        from multiprocessing.connection import wait
    """
    assert codes(src, file="src/repro/sched/pool.py") == ["TCQ601"]


def test_process_confinement_flags_fork_and_executor():
    src = """\
        import os
        pid = os.fork()
    """
    assert codes(src, file="src/repro/net/service.py") == ["TCQ601"]
    src = """\
        from concurrent.futures import ProcessPoolExecutor
    """
    assert codes(src, file="src/repro/query/planner.py") == ["TCQ601"]


def test_process_confinement_has_no_path_exemption():
    # procs.py is no longer special-cased by path: the real module
    # carries inline ``# tcq: allow[TCQ601]`` comments instead, so a
    # *new* unannotated primitive there is flagged like anywhere else.
    src = """\
        import multiprocessing
    """
    assert codes(src, file="src/repro/flux/procs.py") == ["TCQ601"]
    annotated = """\
        import multiprocessing  # tcq: allow[TCQ601] confinement module
    """
    assert codes(annotated, file="src/repro/flux/procs.py") == []


def test_process_confinement_allows_tests():
    src = """\
        import multiprocessing
        pid = os.fork()
    """
    assert codes(src, file="tests/test_flux_procs.py") == []


def test_process_confinement_allows_threads_and_subprocess():
    src = """\
        import threading
        import subprocess
    """
    assert codes(src, file="src/repro/net/service.py") == []


def test_process_confinement_exemption_comment():
    src = """\
        import multiprocessing  # tcq: allow[TCQ601] spawns nothing
    """
    assert codes(src, file="src/repro/core/engine2.py") == []


# -- unified # tcq: allow[...] suppression syntax ------------------------------

def test_bracket_allow_works_for_lint_rules():
    src = "import time\nt = time.time()  # tcq: allow[TCQ303] bench-only timing\n"
    assert codes(src) == []


def test_bracket_allow_multiple_codes():
    src = ("import time\n"
           "t = time.time()  # tcq: allow[TCQ303, TCQ501] cold diagnostic path\n")
    assert codes(src) == []


def test_bracket_allow_requires_reason():
    src = "import time\nt = time.time()  # tcq: allow[TCQ303]\n"
    assert codes(src) == ["TCQ303"]


def test_bracket_allow_wrong_code_does_not_suppress():
    src = "import time\nt = time.time()  # tcq: allow[TCQ501] wrong code\n"
    assert codes(src) == ["TCQ303"]


def test_process_confinement_shipped_tree_is_clean():
    """procs.py is the only module in the shipped tree touching process
    primitives (same check the ``--self`` gate runs, narrowed)."""
    diags = [d for d in lint_paths(["src/repro"]) if d.code == "TCQ601"]
    assert diags == []
