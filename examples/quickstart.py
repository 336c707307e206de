#!/usr/bin/env python
"""Quickstart: the TelegraphCQ server in five minutes.

Creates a stream, registers a continuous query, a windowed query, and a
snapshot query over a static table, then pushes data and reads results —
the three query kinds of Section 4.2 in one script.  Everything goes
through the unified client API: swap ``connect()`` for
``connect("tcp://host:port")`` and the same code drives a remote
service.

Run:  python examples/quickstart.py
"""

from repro.client import connect


def main() -> None:
    conn = connect()

    # --- DDL: one stream, one static table -------------------------------
    conn.create_stream("trades", "sym", "price")
    conn.create_table("companies", "sym", "sector",
                      rows=[("MSFT", "tech"), ("IBM", "tech"),
                            ("XOM", "energy")])

    # --- a continuous query: standing filter over the stream -------------
    alerts = conn.submit("SELECT * FROM trades WHERE price > 100")

    # --- a windowed query: 3-tick sliding average, the paper's for-loop --
    averages = conn.submit("""
        SELECT AVG(price) FROM trades
        for (t = 3; t <= 9; t += 3) {
            WindowIs(trades, t - 2, t);
        }""")

    # --- a snapshot query over the table (classic one-shot execution) ----
    tech = conn.submit("SELECT sym FROM companies WHERE sector = 'tech'")
    print("snapshot:", [row["sym"] for row in tech.fetch()])

    # --- push data; the executor folds it into every live query ----------
    prices = [95.0, 101.5, 98.0, 120.0, 99.0, 97.0, 103.0, 96.0, 94.0, 131.0]
    for i, price in enumerate(prices, start=1):
        conn.push("trades", "MSFT", price, timestamp=i)
        conn.step()                        # one executor scheduling round
    conn.close_stream("trades")
    conn.run()

    print("alerts (price > 100):",
          [(row["price"], row.timestamp) for row in alerts.fetch()])
    for t, rows in averages.fetch_windows():
        print(f"window ending at t={t}: avg price = "
              f"{rows[0]['avg_price']:.2f}")

    stats = conn.stats()
    print("\nserver stats:", stats["executor"]["dus"],
          "live windowed plan(s),",
          stats["continuous_queries"], "standing quer(ies)")


if __name__ == "__main__":
    main()
