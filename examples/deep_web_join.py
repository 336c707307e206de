#!/usr/bin/env python
"""The Federated Facts & Figures scenario: joining a stream against the
deep web through TeSS.

Section 2.2's index-join discussion in action: a stream of book orders
joins against a catalog that is only reachable through a web form
(simulated) with a declared binding pattern, page-sized results, and
transient failures.  The wrapper scrapes, paginates, retries, and caches
([HN96]); a rendezvous buffer holds orders while lookups are in flight;
and an eddy-less driver shows the hybridization effect: once catalog
rows are cached, repeat lookups never touch the network.

Run:  python examples/deep_web_join.py
"""

import random

from repro.core.stem import RendezvousBuffer
from repro.core.tuples import Schema
from repro.ingress.tess import SimulatedWebForm, TessWrapper

CATALOG = Schema.of("catalog", "author", "title", "price")
ORDERS = Schema.of("orders", "author", "qty")

AUTHORS = ["leguin", "borges", "lem", "butler", "calvino"]


def build_remote_catalog():
    rng = random.Random(7)
    rows = []
    for i in range(60):
        author = AUTHORS[i % len(AUTHORS)]
        rows.append(CATALOG.make(author, f"{author}-title-{i}",
                                 round(rng.uniform(8, 40), 2),
                                 timestamp=i))
    return SimulatedWebForm(
        "catalog-form", CATALOG, rows, bindable=["author"],
        page_size=5, latency_cost=200, failure_rate=0.15, seed=3)


def main() -> None:
    form = build_remote_catalog()
    wrapper = TessWrapper(form, max_retries=5)
    rendezvous = RendezvousBuffer("orders")

    rng = random.Random(11)
    orders = [ORDERS.make(rng.choice(AUTHORS), rng.randint(1, 5),
                          timestamp=i) for i in range(40)]

    joined = []
    for order in orders:
        rendezvous.hold(order)               # pending remote lookup
        books = wrapper.lookup({"author": order["author"]})
        for book in books:
            joined.append(order.concat(book))
        rendezvous.settle(order)

    stats = wrapper.stats()
    print(f"{len(orders)} orders joined against the deep-web catalog:")
    print(f"  join results        : {len(joined)}")
    print(f"  form submissions    : {stats['requests']} "
          f"(pagination: {form.page_size}/page)")
    print(f"  transient failures  : {form.failures_injected} "
          f"(retried {stats['retries']} times, none surfaced)")
    print(f"  cache hits          : {stats['cache_hits']} of "
          f"{stats['lookups']} lookups "
          f"— only {len(AUTHORS)} authors exist, so after one lookup "
          f"per author the network goes quiet")
    print(f"  rendezvous pending  : {rendezvous.pending_count()}")

    total = sum(t["orders.qty"] * t["catalog.price"] for t in joined)
    print(f"\norder book value: ${total:,.2f}")


if __name__ == "__main__":
    main()
