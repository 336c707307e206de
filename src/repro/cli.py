"""A command-line client for the TelegraphCQ server.

Section 2: "Client communication to Telegraph can be done via TCP/IP
sockets ... or via local command-line interfaces."  This is the local
interface: an interactive shell (or script runner) speaking the query
language plus a small set of control commands.

Commands (each statement ends with ``;``):

    CREATE STREAM name (col, col, ...);
    CREATE TABLE name (col, ...);
    INSERT INTO table VALUES (v, v, ...);
    PUSH stream v, v, ... [@ timestamp];
    CLOSE STREAM name;
    SELECT ...;                 -- snapshot results print immediately;
                                -- continuous/windowed queries get a
                                -- cursor id
    CHECK SELECT ...;           -- static plan verification only: print
                                -- diagnostics, submit nothing
    FETCH n;                    -- drain cursor n
    CANCEL n;                   -- cancel continuous cursor n
    EXPLAIN [ANALYZE] n;        -- de-facto plan behind cursor n
    EXPLAIN [ANALYZE] SELECT..; -- submit, then explain the new cursor
    TRACE ON [n];               -- trace every nth ingress tuple and
                                -- record routing decisions (default 16)
    TRACE OFF;                  -- stop tracing/recording
    TRACE DUMP [n] [file];      -- last n traces as JSON-lines
    STEP [k];                   -- run k executor rounds (default 1)
    RUN;                        -- run the executor to quiescence
    STATS;                      -- engine statistics (incl. LATENCY
                                -- watermarks while tracing is on)
    HELP; QUIT;

Run interactively:  python -m repro.cli
Run a script:       python -m repro.cli script.tcq
Dial a service:     python -m repro.cli tcp://host:port [script.tcq]

The shell drives everything through :func:`repro.client.connect`, so
the same statements run against an in-process engine (the default) or a
remote :class:`~repro.net.service.TelegraphCQService`.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional

from repro.client import Connection, LocalConnection, connect
from repro.core.tuples import Row
from repro.errors import TelegraphError
import repro.monitor.introspect as introspect
import repro.monitor.tracing as tracing


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith(("'", '"')) and raw.endswith(raw[0]) and len(raw) >= 2:
        return raw[1:-1]
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def _format_rows(rows: List[Row], limit: int = 50) -> str:
    if not rows:
        return "(no rows)"
    header = rows[0].schema.column_names()
    body = [[str(v) for v in t.values] for t in rows[:limit]]
    widths = [max(len(h), *(len(r[i]) for r in body))
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in body]
    if len(rows) > limit:
        lines.append(f"... ({len(rows) - limit} more)")
    return "\n".join(lines)


def _split_statements(text: str):
    """Split a buffer into complete ';'-terminated statements plus the
    unterminated remainder.

    Semicolons nested in parentheses or braces (the windowed for-loop:
    ``for (t = 1; t <= N; t++) { WindowIs(...); }``) or inside string
    literals do not terminate a statement, so windowed queries work
    through the shell."""
    statements: List[str] = []
    start = 0
    depth = 0
    quote = ""
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "'\"":
            quote = ch
        elif ch in "{(":
            depth += 1
        elif ch in "})":
            depth = max(0, depth - 1)
        elif ch == ";" and depth == 0:
            statements.append(text[start:i])
            start = i + 1
    return statements, text[start:]


class TelegraphShell:
    """Stateful statement interpreter over one connection.

    ``execute`` returns the printable response for one statement, so
    the shell is fully testable without a TTY.  Pass a
    :class:`~repro.client.Connection` (or a ``server`` to wrap in a
    :class:`~repro.client.LocalConnection`) — by default the shell opens
    a local in-process engine through :func:`repro.client.connect`.
    """

    def __init__(self, connection: Optional[Connection] = None,
                 server: Optional[Any] = None):
        if connection is None:
            connection = LocalConnection(server=server) if server \
                else connect()
        self.conn = connection
        self.cursors: Dict[int, Any] = {}
        self.done = False

    # -- statement dispatch ------------------------------------------------
    def execute(self, statement: str) -> str:
        statement = statement.strip().rstrip(";").strip()
        if not statement:
            return ""
        try:
            return self._dispatch(statement)
        except TelegraphError as exc:
            return f"error: {exc}"

    def _dispatch(self, statement: str) -> str:
        upper = statement.upper()
        if upper in ("QUIT", "EXIT"):
            self.done = True
            return "bye"
        if upper == "HELP":
            return __doc__.split("Commands", 1)[1]
        if upper == "STATS":
            return self._stats()
        if upper == "RUN":
            steps = self.conn.run()
            return f"quiescent after {steps} step(s)"
        if upper.startswith("STEP"):
            return self._step(statement)
        if upper.startswith("CREATE STREAM"):
            return self._create(statement, stream=True)
        if upper.startswith("CREATE TABLE"):
            return self._create(statement, stream=False)
        if upper.startswith("INSERT INTO"):
            return self._insert(statement)
        if upper.startswith("PUSH"):
            return self._push(statement)
        if upper.startswith("CLOSE STREAM"):
            name = statement.split()[2]
            self.conn.close_stream(name)
            return f"stream {name} closed"
        if upper.startswith("FETCH"):
            return self._fetch(statement)
        if upper.startswith("CANCEL"):
            return self._cancel(statement)
        if upper.startswith("EXPLAIN"):
            return self._explain(statement)
        if upper.startswith("TRACE"):
            return self._trace(statement)
        if upper.startswith("CHECK"):
            return self._check(statement)
        if upper.startswith("SELECT"):
            return self._select(statement)
        return f"error: unrecognised statement {statement.split()[0]!r}"

    # -- DDL / DML -------------------------------------------------------------
    def _create(self, statement: str, stream: bool) -> str:
        open_paren = statement.find("(")
        close_paren = statement.rfind(")")
        if open_paren == -1 or close_paren == -1:
            raise TelegraphError(
                "CREATE needs a column list: CREATE STREAM s (a, b);")
        name = statement[:open_paren].split()[2]
        columns = [c.strip() for c in
                   statement[open_paren + 1:close_paren].split(",")
                   if c.strip()]
        if stream:
            self.conn.create_stream(name, *columns)
            return f"stream {name} ({', '.join(columns)})"
        self.conn.create_table(name, *columns)
        return f"table {name} ({', '.join(columns)})"

    def _insert(self, statement: str) -> str:
        upper = statement.upper()
        values_at = upper.find("VALUES")
        if values_at == -1:
            raise TelegraphError("INSERT INTO t VALUES (v, ...);")
        table = statement[len("INSERT INTO"):values_at].strip()
        raw = statement[values_at + len("VALUES"):].strip()
        if raw.startswith("(") and raw.endswith(")"):
            raw = raw[1:-1]
        values = [_parse_value(v) for v in raw.split(",")]
        self.conn.insert(table, *values)
        return "1 row"

    def _push(self, statement: str) -> str:
        body = statement[len("PUSH"):].strip()
        timestamp = None
        if "@" in body:
            body, _at, ts_text = body.rpartition("@")
            timestamp = int(ts_text.strip())
        parts = body.strip().split(None, 1)
        if len(parts) != 2:
            raise TelegraphError("PUSH stream v, v, ... [@ ts];")
        stream, raw_values = parts
        values = [_parse_value(v) for v in raw_values.split(",")]
        self.conn.push(stream, *values, timestamp=timestamp)
        self.conn.step()
        return "pushed"

    # -- queries ---------------------------------------------------------------
    def _check(self, statement: str) -> str:
        """``CHECK <SELECT ...>``: run the static plan verifier and print
        the full diagnostic report without submitting the query."""
        query = statement[len("CHECK"):].strip()
        if not query:
            raise TelegraphError("usage: CHECK <SELECT ...>;")
        return self.conn.check(query).render()

    def _select(self, statement: str) -> str:
        cursor = self.conn.submit(statement)
        if cursor.kind == "snapshot":
            return _format_rows(cursor.fetch())
        self.cursors[cursor.cursor_id] = cursor
        return (f"cursor {cursor.cursor_id} open "
                f"({cursor.kind} query); FETCH {cursor.cursor_id}; "
                f"to read results")

    def _fetch(self, statement: str) -> str:
        cursor = self._cursor_of(statement)
        if cursor.kind == "windowed":
            windows = cursor.fetch_windows()
            if not windows:
                return "(no complete windows yet)"
            blocks = []
            for t, rows in windows:
                blocks.append(f"-- window t={t} ({len(rows)} rows)")
                blocks.append(_format_rows(rows))
            return "\n".join(blocks)
        rows = cursor.fetch()
        return _format_rows(rows)

    def _cancel(self, statement: str) -> str:
        cursor = self._cursor_of(statement)
        self.conn.cancel(cursor)
        return f"cursor {cursor.cursor_id} cancelled"

    def _explain(self, statement: str) -> str:
        body = statement[len("EXPLAIN"):].strip()
        analyze = False
        if body.upper().startswith("ANALYZE"):
            analyze = True
            body = body[len("ANALYZE"):].strip()
        if body.isdigit():
            cursor = self.cursors.get(int(body))
            if cursor is None:
                raise TelegraphError(f"no cursor {body}")
        elif body.upper().startswith("SELECT"):
            cursor = self.conn.submit(body)
            if cursor.kind != "snapshot":
                self.cursors[cursor.cursor_id] = cursor
        else:
            raise TelegraphError(
                "EXPLAIN [ANALYZE] <cursor-id | SELECT ...>;")
        report = self.conn.explain(cursor, analyze=analyze)
        return introspect.render_explain(report)

    def _trace(self, statement: str) -> str:
        parts = statement.split()
        sub = parts[1].upper() if len(parts) > 1 else ""
        tracer = tracing.get_tracer()
        recorder = introspect.get_flight_recorder()
        if sub == "ON":
            every = int(parts[2]) if len(parts) > 2 else 16
            tracer.configure(sample_every=every)
            recorder.enable()
            if every:
                return (f"tracing every {every}th ingress tuple; "
                        f"flight recorder on")
            return "sampling disabled; flight recorder on"
        if sub == "OFF":
            tracer.configure(sample_every=0)
            recorder.disable()
            return "tracing off; flight recorder off"
        if sub == "DUMP":
            rest = parts[2:]
            n = 0
            if rest and rest[0].isdigit():
                n = int(rest[0])
                rest = rest[1:]
            traces = tracer.recent(n)
            text = tracer.export_jsonl(traces)
            if rest:
                path = rest[0]
                with open(path, "w") as f:
                    f.write(text + ("\n" if text else ""))
                return f"wrote {len(traces)} trace(s) to {path}"
            return text if text else "(no traces)"
        raise TelegraphError(
            "TRACE ON [n]; TRACE OFF; or TRACE DUMP [n] [file];")

    def _cursor_of(self, statement: str) -> Any:
        parts = statement.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise TelegraphError(f"{parts[0]} needs a cursor id")
        cursor = self.cursors.get(int(parts[1]))
        if cursor is None:
            raise TelegraphError(f"no cursor {parts[1]}")
        return cursor

    # -- control ------------------------------------------------------------------
    def _step(self, statement: str) -> str:
        parts = statement.split()
        k = int(parts[1]) if len(parts) > 1 else 1
        self.conn.step(k)
        return f"stepped {k}"

    def _stats(self) -> str:
        stats = self.conn.stats()
        lines = [f"ingested tuples : {stats['ingested']}",
                 f"standing queries: {stats['continuous_queries']}",
                 f"windowed plans  : {stats['executor']['dus']}"]
        for stream, n in stats["streams"].items():
            lines.append(f"stream {stream}: {n} tuples stored")
        snapshot = self.conn.telemetry()
        latency = tracing.latency_by_query(snapshot)
        if latency:
            lines.append("")
            lines.append("LATENCY (ingress->egress, sampled traces)")
            fmt = introspect.format_seconds
            for query in sorted(latency):
                p = latency[query]
                lines.append(
                    f"  {query}: p50={fmt(p['p50'])} p95={fmt(p['p95'])} "
                    f"p99={fmt(p['p99'])} n={int(p['count'])}")
        lines.append("")
        lines.append(f"telemetry ({len(snapshot)} series)")
        for subsystem in snapshot.subsystems():
            samples = snapshot.by_subsystem(subsystem)
            lines.append(f"[{subsystem}]")
            for s in samples:
                label_body = ",".join(
                    f"{k}={v}" for k, v in sorted(s.labels.items()))
                name = f"{s.name}{{{label_body}}}" if label_body else s.name
                if s.kind == "histogram":
                    lines.append(f"  {name} count={s.count} sum={s.sum:g}")
                else:
                    lines.append(f"  {name} = {s.value:g}")
        return "\n".join(lines)

    # -- drivers ------------------------------------------------------------------
    def run_script(self, text: str) -> List[str]:
        """Execute every ';'-terminated statement; returns responses."""
        out = []
        statements, _rest = _split_statements(text)
        for statement in statements:
            if statement.strip():
                out.append(self.execute(statement + ";"))
            if self.done:
                break
        return out

    def repl(self, stdin=None, stdout=None) -> None:  # pragma: no cover
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        buffer = ""
        stdout.write("TelegraphCQ shell — HELP; for commands\n")
        while not self.done:
            stdout.write("telegraph> " if not buffer else "        -> ")
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            buffer += line
            statements, buffer = _split_statements(buffer)
            for statement in statements:
                response = self.execute(statement + ";")
                if response:
                    stdout.write(response + "\n")
                if self.done:
                    return


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    argv = sys.argv[1:] if argv is None else argv
    address = None
    if argv and (argv[0].startswith("tcp://") or argv[0] == "local"):
        address, argv = argv[0], argv[1:]
    shell = TelegraphShell(connection=connect(address, client="cli"))
    if argv:
        with open(argv[0]) as f:
            for response in shell.run_script(f.read()):
                if response:
                    print(response)
        return 0
    shell.repl()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
