"""Every cursor hands back a :class:`~repro.core.tuples.Row`, and every
``Row`` reads alike.

One parity check over each way a result reaches a client: a local pull
cursor, a windowed cursor (``fetch`` and ``fetch_windows``), an
``on_result`` callback, and a network cursor.  The read API is defined
once, on ``Row``; a ``Tuple`` inherits it and compares equal to a
``Row`` with the same values, in both directions.
"""

import pytest

from repro.client import connect
from repro.core.tuples import Row, Tuple
from repro.net.service import TelegraphCQService

ROWS = [("IBM", 5, 1), ("MSFT", 55, 2), ("ORCL", 72, 3), ("SAP", 9, 4)]
#: what each query keeps, as ``(sym, price, timestamp)``.
WANT = [("MSFT", 55, 2), ("ORCL", 72, 3)]
CONTINUOUS = "SELECT * FROM trades WHERE price > 50"
WINDOWED = ("SELECT sym, price FROM trades WHERE price > 50 "
            "for (t = 4; t <= 4; t++) { WindowIs(trades, 1, t); }")


def drive(conn, query, **submit):
    conn.create_stream("trades", "sym", "price")
    cursor = conn.submit(query, **submit)
    for sym, price, ts in ROWS + [("END", 0, 5)]:
        conn.push("trades", sym, price, timestamp=ts)
    conn.run()
    return cursor


def local_pull():
    with connect() as conn:
        return drive(conn, CONTINUOUS).fetch()


def windowed_fetch():
    with connect() as conn:
        return drive(conn, WINDOWED).fetch()


def windowed_fetch_windows():
    with connect() as conn:
        ((t, rows),) = drive(conn, WINDOWED).fetch_windows()
    assert t == 4
    return rows


def callback():
    got = []
    with connect() as conn:
        drive(conn, CONTINUOUS, on_result=got.append)
    return got


def network_pull():
    service = TelegraphCQService(admin_port=None)
    service.run_in_thread()
    try:
        with connect(f"tcp://127.0.0.1:{service.port}") as conn:
            return drive(conn, CONTINUOUS).fetch()
    finally:
        service.close()


@pytest.mark.parametrize("results", [
    local_pull, windowed_fetch, windowed_fetch_windows, callback,
    pytest.param(network_pull, marks=pytest.mark.net)])
def test_every_cursor_hands_back_rows_that_read_alike(results):
    rows = results()
    assert [type(row) for row in rows] == [Row] * len(WANT)
    for row, (sym, price, ts) in zip(rows, WANT):
        assert row["price"] == price and row["sym"] == sym
        assert row["trades.price"] == price
        assert row.get("volume", "none") == "none"
        assert row.get("price") == price
        assert row.values == (sym, price)
        assert row.timestamp == ts
        assert row.as_dict() == {"sym": sym, "price": price}
        assert list(row) == [sym, price] and len(row) == 2
        same = Tuple(row.schema, row.values, row.timestamp)
        assert row == same and same == row
        assert hash(row) == hash(same)
        assert row != Tuple(row.schema, row.values, ts + 1)
        assert row.trace is None
