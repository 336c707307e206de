"""The five tcqbench workloads: inputs, oracle, and one round each.

Every workload is built from a seed with ``random.Random`` only; the
system under test sees nothing but the generated rows and query texts.
A *round* opens a fresh front door (``repro.client.connect``), admits the
workload's standing queries (each ``submit`` timed), streams the input
closed-loop (open-loop too in ``net_door``), cancels every cursor (each
``cancel`` timed) and then checks what came back against a plain-python
oracle computed in set-up.

Result latency has one definition across workloads: from the moment the
tuple that completes a result is handed to the door -- the start of the
``push_rows`` call that carries it, or its *due* time in the open loop
-- until that result is in the client's hand.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.client import connect
from repro.errors import TelegraphError
from repro.net.service import TelegraphCQService

from spans import NULL

SYMBOLS = [f"S{i:02d}" for i in range(100)]
TRADES = ("trades", "sym", "price", "vol", "seq")
QUOTES = ("quotes", "sym", "bid", "seq")

#: Per-round sizes.  ``smoke`` is ~1/50 of ``full`` and exists for the
#: test; only ``full`` numbers are comparable between commits.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "firehose": {"tuples": 200_000, "batch": 256},
        "standing_queries": {"tuples": 8_000, "batch": 64, "queries": 1000},
        "query_churn": {"tuples": 20_000, "batch": 64, "queries": 500,
                        "churn": 4},
        "windowed_join": {"per_stream": 20_000, "batch": 16, "keys": 200,
                          "join_width": 500, "agg_width": 2000, "hop": 100},
        "net_door": {"tuples": 32_000, "batch": 8, "closed_frames": 3000,
                     "open_rate": 250},
    },
    "smoke": {
        "firehose": {"tuples": 4_000, "batch": 256},
        "standing_queries": {"tuples": 320, "batch": 64, "queries": 100},
        "query_churn": {"tuples": 640, "batch": 64, "queries": 60,
                        "churn": 4},
        "windowed_join": {"per_stream": 800, "batch": 16, "keys": 20,
                          "join_width": 100, "agg_width": 400, "hop": 50},
        "net_door": {"tuples": 880, "batch": 8, "closed_frames": 60,
                     "open_rate": 250},
    },
}

QuerySpec = Tuple[str, Any, Any, Any]


# -- queries and their oracle ------------------------------------------------

def query_text(spec: QuerySpec) -> str:
    kind, a, b, c = spec
    if kind == "band":
        return (f"SELECT * FROM trades WHERE price > {a} AND price < {b} "
                f"AND vol > {c}")
    if kind == "sym":
        return f"SELECT * FROM trades WHERE sym = '{a}' AND price > {b}"
    if kind == "vol":
        return f"SELECT * FROM trades WHERE vol > {a} AND vol < {b}"
    return f"SELECT * FROM trades WHERE price > {a}"


def oracle_seqs(spec: QuerySpec, rows: Sequence[Sequence[Any]]) -> List[int]:
    """``seq`` of every trades row the query must return, in order."""
    kind, a, b, c = spec
    if kind == "band":
        return [r[3] for r in rows if a < r[1] < b and r[2] > c]
    if kind == "sym":
        return [r[3] for r in rows if r[0] == a and r[1] > b]
    if kind == "vol":
        return [r[3] for r in rows if a < r[2] < b]
    return [r[3] for r in rows if r[1] > a]


def digest(seqs: Sequence[int]) -> Tuple[int, int]:
    """Row count and an order-free checksum of the ``seq`` values."""
    return len(seqs), sum(s * s + 1 for s in seqs)


def mixed_query(rng: random.Random) -> QuerySpec:
    """70 % two-sided price range + vol threshold, 20 % symbol equality +
    price threshold, 10 % narrow vol band (~12 matches/tuple at Q=1000)."""
    u = rng.random()
    if u < 0.7:
        a = rng.randrange(0, 970)
        return ("band", a, a + rng.randrange(5, 30), rng.randrange(0, 50))
    if u < 0.9:
        return ("sym", rng.choice(SYMBOLS), rng.randrange(0, 1000), None)
    a = rng.randrange(0, 96)
    return ("vol", a, a + 3, None)


def trade_rows(rng: random.Random, n: int) -> List[Tuple]:
    return [(rng.choice(SYMBOLS), rng.randrange(1000), rng.randrange(100), i)
            for i in range(n)]


def batches(rows: Sequence[Any], size: int) -> List[Sequence[Any]]:
    return [rows[i:i + size] for i in range(0, len(rows), size)]


# -- spans and the door ------------------------------------------------------

class Door:
    """The front-door calls a workload makes, each inside a span."""

    def __init__(self, conn: Any, rec: Any):
        self.conn = conn
        self.rec = rec

    def submit(self, text: str, **kwargs: Any) -> Any:
        with self.rec.span("client.submit"):
            return self.conn.submit(text, **kwargs)

    def cancel(self, cursor: Any) -> None:
        with self.rec.span("client.cancel"):
            self.conn.cancel(cursor)

    def push_rows(self, stream: str, rows: Sequence[Sequence[Any]],
                  timestamp: Optional[int] = None) -> int:
        """Returns the number of rows the door shed."""
        with self.rec.span("client.push_rows"):
            return self.conn.push_rows(stream, rows,
                                       timestamp=timestamp)["shed"]

    def step(self, k: int = 1) -> int:
        with self.rec.span("client.step"):
            return self.conn.step(k)

    def fetch(self, cursors: Sequence[Any]) -> List[List[Any]]:
        with self.rec.span("client.fetch"):
            return [c.fetch() for c in cursors]

    def fetch_windows(self, cursors: Sequence[Any]) -> List[List[Any]]:
        with self.rec.span("client.fetch"):
            return [c.fetch_windows() for c in cursors]


class RoundResult:
    """What one round measured."""

    def __init__(self) -> None:
        self.tuples = 0             # input tuples whose results were fetched
        self.wall_s = 0.0           # closed-loop wall time for those tuples
        self.latency_ms: List[float] = []
        self.generator_lag_ms: List[float] = []     # open loop only
        self.admit_ms: List[float] = []
        self.cancel_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.traced = False
        self.counters: Dict[str, float] = {}    # traced rounds only


def counter_totals(snapshot: Any) -> Dict[Tuple, float]:
    return {(s.name, tuple(sorted(s.labels.items()))): s.value
            for s in snapshot.samples
            if s.kind == "counter" and s.value is not None}


#: Families whose labels recur every round (stream names, cursor-numbered
#: dispatch units) and that a fresh server first publishes only after
#: the round's "before" snapshot: the stale value of the previous round
#: would cancel the growth, so these are read as totals, not deltas.
RESTARTING_FAMILIES = ("tcq_server_ingress_tuples_total",
                       "tcq_executor_du_quanta_total")


def counter_delta(before: Dict[Tuple, float],
                  after: Dict[Tuple, float]) -> Dict[str, float]:
    """Per-family growth between two snapshots of the process-wide
    registry (series of engines from earlier rounds stay put: delta 0).
    Families split by direction keep it: ``tcq_net_frames_total:in``."""
    out: Dict[str, float] = {}
    for (name, labels), value in after.items():
        grown = value if name in RESTARTING_FAMILIES \
            else value - before.get((name, labels), 0.0)
        if grown > 0:
            direction = dict(labels).get("dir")
            family = f"{name}:{direction}" if direction else name
            out[family] = out.get(family, 0.0) + grown
    return out


class Workload:
    """Base: the round template shared by the in-process workloads."""

    name = ""
    streams: Sequence[Sequence[str]] = (TRADES,)

    def __init__(self, seed: int, size: str = "full"):
        self.size = SIZES[size][self.name]
        self.rng = random.Random(f"{self.name}/{seed}")

    # -- what subclasses provide -------------------------------------------
    def standing_texts(self) -> List[str]:
        """Query texts admitted at the start of a round."""
        raise NotImplementedError

    def all_texts(self) -> List[str]:
        """Every query text a round admits (replayed by the layer probes)."""
        return self.standing_texts()

    def stream(self, door: Door, cursors: List[Any],
               res: RoundResult) -> Any:
        """Push the input, fetch results; returns what :meth:`verify`
        needs.  Sets ``res.tuples``, ``res.wall_s``, ``res.latency_ms``."""
        raise NotImplementedError

    def verify(self, collected: Any, res: RoundResult) -> None:
        raise NotImplementedError

    # -- the template ------------------------------------------------------
    def open(self) -> Tuple[Any, Any]:
        """A fresh front door: ``(connection, closer)``."""
        conn = connect()
        return conn, conn

    def system_setup(self) -> None:
        """The system's share of set-up: open the door, declare streams,
        admit the standing queries, close."""
        conn, closer = self.open()
        try:
            for schema in self.streams:
                conn.create_stream(*schema)
            for text in self.standing_texts():
                conn.submit(text)
        finally:
            closer.close()

    def admit(self, door: Door, texts: Sequence[str],
              res: RoundResult) -> List[Any]:
        cursors = []
        for text in texts:
            t0 = time.perf_counter()
            cursors.append(door.submit(text))
            res.admit_ms.append((time.perf_counter() - t0) * 1e3)
        res.attempted += len(texts)
        return cursors

    def cancel(self, door: Door, cursors: Sequence[Any],
               res: RoundResult) -> None:
        for cursor in cursors:
            t0 = time.perf_counter()
            door.cancel(cursor)
            res.cancel_ms.append((time.perf_counter() - t0) * 1e3)
        res.attempted += len(cursors)

    def round(self, rec: Any = NULL) -> RoundResult:
        res = RoundResult()
        collected = None
        conn, closer = self.open()
        try:
            door = Door(conn, rec)
            before = counter_totals(conn.telemetry()) if rec.enabled else {}
            with rec.span("round"):
                try:
                    for schema in self.streams:
                        conn.create_stream(*schema)
                    with rec.span("phase.admit"):
                        cursors = self.admit(door, self.standing_texts(), res)
                    with rec.span("phase.stream"):
                        collected = self.stream(door, cursors, res)
                    with rec.span("phase.teardown"):
                        self.cancel(door, cursors, res)
                except TelegraphError as exc:
                    # A failed door call ends the round; whatever it left
                    # undelivered is counted missing by verify().
                    res.failed += 1
                    res.errors.append(repr(exc))
            if rec.enabled:
                res.counters = counter_delta(
                    before, counter_totals(conn.telemetry()))
        finally:
            closer.close()
        self.verify(collected, res)
        return res


def check_digest(got: Tuple[int, Any], want: Tuple[int, Any],
                 res: RoundResult, what: str) -> None:
    """Count one mismatching result set as failed rows (at least one)."""
    if got != want:
        res.failed += max(1, abs(got[0] - want[0]))
        if len(res.errors) < 5:
            res.errors.append(f"{what}: got {got}, oracle {want}")


# -- firehose / standing_queries / query_churn -------------------------------

class FilterWorkload(Workload):
    """Standing selection queries over ``trades``; results fetched after
    every pushed batch."""

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.specs = self.make_specs()
        self.rows = trade_rows(self.rng, self.size["tuples"])
        self.batches = batches(self.rows, self.size["batch"])
        self.build_oracle()

    def make_specs(self) -> List[QuerySpec]:
        return [mixed_query(self.rng) for _ in range(self.size["queries"])]

    def build_oracle(self) -> None:
        self.expected = [digest(oracle_seqs(s, self.rows))
                         for s in self.specs]

    def standing_texts(self) -> List[str]:
        return [query_text(s) for s in self.specs]

    def after_batch(self, k: int, door: Door, cursors: List[Any],
                    got: List[List[Any]], res: RoundResult) -> None:
        """Hook between batches (query_churn turns queries over here)."""

    def stream(self, door: Door, cursors: List[Any],
               res: RoundResult) -> List[List[Any]]:
        got: List[List[Any]] = [[] for _ in cursors]
        latency = res.latency_ms
        shed = 0
        t0 = time.perf_counter()
        try:
            for k, batch in enumerate(self.batches):
                t_batch = time.perf_counter()
                shed += door.push_rows("trades", batch)
                door.step()
                for rows, part in zip(got, door.fetch(cursors)):
                    if part:
                        rows.extend(part)
                latency.append((time.perf_counter() - t_batch) * 1e3)
                res.tuples += len(batch)
                self.after_batch(k, door, cursors, got, res)
        finally:
            res.wall_s = time.perf_counter() - t0
            res.failed += shed
            res.attempted += len(self.rows)
        return got

    def verify(self, collected: Optional[List[List[Any]]],
               res: RoundResult) -> None:
        collected = collected or []
        for i, want in enumerate(self.expected):
            rows = collected[i] if i < len(collected) else []
            check_digest(digest([t.values[-1] for t in rows]), want, res,
                         f"query {i}")
            res.attempted += want[0]


class Firehose(FilterWorkload):
    name = "firehose"

    def make_specs(self) -> List[QuerySpec]:
        # Eight disjoint price bands: every tuple meets eight almost-free
        # standing predicates, so fixed per-tuple cost dominates.
        return [("band", a, a + 50, 20)
                for a in (120 * k + self.rng.randrange(50) for k in range(8))]


class StandingQueries(FilterWorkload):
    name = "standing_queries"


class QueryChurn(FilterWorkload):
    """Constant standing count; after every batch the ``churn`` oldest
    cursors are cancelled and as many new queries admitted."""

    name = "query_churn"

    def make_specs(self) -> List[QuerySpec]:
        size = self.size
        n_batches = -(-size["tuples"] // size["batch"])
        self.steps = n_batches - 1          # no turnover after the last batch
        total = size["queries"] + self.steps * size["churn"]
        return [mixed_query(self.rng) for _ in range(total)]

    def build_oracle(self) -> None:
        # Query j lives from its admission to its cancel, in tuples pushed.
        size, n = self.size, len(self.rows)
        standing, churn, batch = size["queries"], size["churn"], size["batch"]
        self.expected = []
        for j, spec in enumerate(self.specs):
            start = 0 if j < standing else ((j - standing) // churn + 1) * batch
            end = (j // churn + 1) * batch if j // churn < self.steps else n
            self.expected.append(digest(oracle_seqs(spec, self.rows[start:end])))

    def standing_texts(self) -> List[str]:
        return [query_text(s) for s in self.specs[:self.size["queries"]]]

    def all_texts(self) -> List[str]:
        return [query_text(s) for s in self.specs]

    def after_batch(self, k: int, door: Door, cursors: List[Any],
                    got: List[List[Any]], res: RoundResult) -> None:
        if k >= self.steps:
            return
        churn = self.size["churn"]
        # ``cursors`` holds every cursor ever opened, in admission order;
        # the oldest live ones are at [k*churn, (k+1)*churn).
        self.cancel(door, cursors[k * churn:(k + 1) * churn], res)
        first = self.size["queries"] + k * churn
        cursors.extend(self.admit(
            door, [query_text(s) for s in self.specs[first:first + churn]],
            res))
        got.extend([] for _ in range(churn))

    def cancel(self, door: Door, cursors: Sequence[Any],
               res: RoundResult) -> None:
        # Teardown hands over every cursor; the turned-over ones are closed.
        super().cancel(door, [c for c in cursors if not c.closed], res)


# -- windowed_join -----------------------------------------------------------

class WindowedJoin(Workload):
    """Two standing for-loop queries over alternating ``trades`` and
    ``quotes``: a sliding-window equijoin and a sliding aggregate."""

    name = "windowed_join"
    streams = (TRADES, QUOTES)

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        size_ = self.size
        n = size_["per_stream"]
        keys = [f"K{i:03d}" for i in range(size_["keys"])]
        rng = self.rng
        # seq == timestamp (1-based) on both streams.
        self.trades = [(rng.choice(keys), rng.randrange(1000),
                        rng.randrange(100), i + 1) for i in range(n)]
        self.quotes = [(rng.choice(keys), rng.randrange(1000), i + 1)
                       for i in range(n)]
        b = size_["batch"]
        self.batches = list(zip(batches(self.trades, b),
                                batches(self.quotes, b)))
        hop = size_["hop"]
        self.last = n - hop       # every window closes inside the input
        self.join_ts = range(size_["join_width"], self.last + 1, hop)
        self.agg_ts = range(size_["agg_width"], self.last + 1, hop)
        self.build_oracle()

    def standing_texts(self) -> List[str]:
        s = self.size
        jw, aw, hop, last = s["join_width"], s["agg_width"], s["hop"], self.last
        return [
            "SELECT trades.seq, quotes.seq FROM trades, quotes "
            "WHERE trades.sym = quotes.sym AND trades.price > quotes.bid "
            f"for (t = {jw}; t <= {last}; t += {hop}) {{ "
            f"WindowIs(trades, t - {jw - 1}, t); "
            f"WindowIs(quotes, t - {jw - 1}, t); }}",
            "SELECT AVG(price), COUNT(*) FROM trades "
            f"for (t = {aw}; t <= {last}; t += {hop}) {{ "
            f"WindowIs(trades, t - {aw - 1}, t); }}",
        ]

    def build_oracle(self) -> None:
        jw, aw = self.size["join_width"], self.size["agg_width"]
        self.expected_join: Dict[int, Tuple[int, int]] = {}
        for t in self.join_ts:
            by_sym: Dict[str, List[Tuple]] = {}
            for q in self.quotes[t - jw:t]:
                by_sym.setdefault(q[0], []).append(q)
            pairs = [(tr[3], q[2]) for tr in self.trades[t - jw:t]
                     for q in by_sym.get(tr[0], ()) if tr[1] > q[1]]
            self.expected_join[t] = join_digest(pairs)
        self.expected_agg: Dict[int, Tuple[int, float]] = {}
        for t in self.agg_ts:
            prices = [tr[1] for tr in self.trades[t - aw:t]]
            self.expected_agg[t] = (len(prices), sum(prices) / len(prices))

    def stream(self, door: Door, cursors: List[Any],
               res: RoundResult) -> List[Dict[int, List[Any]]]:
        got: List[Dict[int, List[Any]]] = [{} for _ in cursors]
        starts: List[float] = []
        b = self.size["batch"]
        shed = 0

        def collect() -> None:
            windows = door.fetch_windows(cursors)
            now = time.perf_counter()
            for per_cursor, ws in zip(got, windows):
                for t, rows in ws:
                    per_cursor[t] = rows
                    # The window (.., t] closes when timestamp t+1 arrives
                    # on both streams: batch index t // b.
                    res.latency_ms.append((now - starts[t // b]) * 1e3)

        t0 = time.perf_counter()
        try:
            for k, (trades, quotes) in enumerate(self.batches):
                starts.append(time.perf_counter())
                shed += door.push_rows("trades", trades, timestamp=k * b + 1)
                shed += door.push_rows("quotes", quotes, timestamp=k * b + 1)
                door.step(4)
                collect()
                res.tuples += len(trades) + len(quotes)
            for _ in range(64):             # windows deferred past the input
                if not door.step(4):
                    break
                collect()
        finally:
            res.wall_s = time.perf_counter() - t0
            res.failed += shed
            res.attempted += 2 * len(self.trades)
        return got

    def verify(self, collected: Optional[List[Dict[int, List[Any]]]],
               res: RoundResult) -> None:
        join, agg = collected if collected else ({}, {})
        for t, want in self.expected_join.items():
            rows = join.get(t)
            got = join_digest([t_.values for t_ in rows]) \
                if rows is not None else (-1, 0)
            check_digest(got, want, res, f"join window {t}")
        for t, (n, avg) in self.expected_agg.items():
            rows = agg.get(t)
            ok = rows is not None and len(rows) == 1 \
                and rows[0].values[1] == n \
                and abs(rows[0].values[0] - avg) <= 1e-9 * max(1.0, abs(avg))
            if not ok:
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(
                        f"agg window {t}: got "
                        f"{rows and [r.values for r in rows]}, "
                        f"oracle {(avg, n)}")
        extra = (set(join) - set(self.expected_join)) | \
            (set(agg) - set(self.expected_agg))
        res.failed += len(extra)
        res.attempted += len(self.expected_join) + len(self.expected_agg)


def join_digest(pairs: Sequence[Sequence[int]]) -> Tuple[int, int]:
    return len(pairs), sum(a * 1_000_003 + b for a, b in pairs)


# -- net_door ----------------------------------------------------------------

class _ServiceDoor:
    """Closes the connection, then the service that hosts the engine."""

    def __init__(self, service: Any, conn: Any):
        self.service = service
        self.conn = conn

    def close(self) -> None:
        try:
            if self.conn is not None:
                self.conn.close()
        finally:
            self.service.close()
            thread = self.service._thread
            if thread is not None and thread.is_alive():
                raise RuntimeError("service thread still alive after close()")


class NetDoor(FilterWorkload):
    """One blocking client of the wire protocol and one standing *pull*
    query.  Phase A: closed loop, PUSH then FETCH per frame.  Phase B:
    open loop on a fixed schedule, each frame timed from its due time."""

    name = "net_door"

    def make_specs(self) -> List[QuerySpec]:
        return [("gt", 50, None, None)]

    def open(self) -> Tuple[Any, Any]:
        service = TelegraphCQService(admin_port=None).run_in_thread()
        closer = _ServiceDoor(service, None)
        try:
            closer.conn = connect(f"tcp://127.0.0.1:{service.port}")
        except BaseException:
            closer.close()
            raise
        return closer.conn, closer

    def stream(self, door: Door, cursors: List[Any],
               res: RoundResult) -> List[List[Any]]:
        s = self.size
        cursor = cursors[0]
        got: List[Any] = []
        closed = self.batches[:s["closed_frames"]]
        opened = self.batches[s["closed_frames"]:]
        shed = 0
        try:
            # Phase A: closed loop.
            t0 = time.perf_counter()
            for frame in closed:
                shed += door.push_rows("trades", frame)
                got.extend(door.fetch((cursor,))[0])
            res.wall_s = time.perf_counter() - t0
            res.tuples = len(closed) * s["batch"]

            # Phase B: open loop.  The schedule is fixed before the first
            # frame; a slow reply delays later frames' sends but not their
            # due times, so the wait it imposes is counted.
            period = 1.0 / s["open_rate"]
            start = time.perf_counter() + period
            for k, frame in enumerate(opened):
                due = start + k * period
                while True:
                    now = time.perf_counter()
                    if now >= due:
                        break
                    if due - now > 1e-3:
                        time.sleep(due - now - 5e-4)
                res.generator_lag_ms.append((now - due) * 1e3)
                shed += door.push_rows("trades", frame)
                got.extend(door.fetch((cursor,))[0])
                res.latency_ms.append((time.perf_counter() - due) * 1e3)
        finally:
            res.failed += shed
            res.attempted += len(self.rows)
        return [got]

    # -- traced runs only --------------------------------------------------
    def streaming_rows_missing(self) -> int:
        """Rows a *streaming* cursor fails to hand to the client over the
        closed-loop frames (see README, Known issues).  Not an operation
        of the workload: the gated phases use pull cursors."""
        frames = self.batches[:self.size["closed_frames"] // 4]
        want = sum(1 for frame in frames for r in frame if r[1] > 50)
        conn, closer = self.open()
        try:
            conn.create_stream(*TRADES)
            cursor = conn.submit(self.standing_texts()[0], stream=True,
                                 credit=want + 1)
            for frame in frames:
                conn.push_rows("trades", frame)
            got = len(cursor.fetch())
            for _ in range(20):                 # let the pump drain
                more = len(cursor.fetch())
                got += more
                if got >= want or not more:
                    break
            return want - got
        finally:
            closer.close()

    def inprocess_control_tuples_per_s(self) -> float:
        """Phase A with no wire: the same frames, query and fetch through
        an in-process connection."""
        closed = self.batches[:self.size["closed_frames"]]
        conn = connect()
        try:
            conn.create_stream(*TRADES)
            cursor = conn.submit(self.standing_texts()[0])
            t0 = time.perf_counter()
            for frame in closed:
                conn.push_rows("trades", frame)
                cursor.fetch()
            return len(closed) * self.size["batch"] / \
                (time.perf_counter() - t0)
        finally:
            conn.close()
