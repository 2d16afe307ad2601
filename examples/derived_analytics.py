#!/usr/bin/env python3
"""Derived analytics: a running-average transform feeding a derived view.

The paper's section 2 notes that installing an update is not always a
plain store: "running averages may have to be computed", and section 3.2
keeps values *derived* from the view data — composite indices, position
tables — fresh as the update stream moves.

This example wires both into one scenario:

* price updates are smoothed through an exponential running average
  before being stored (a registered *transformer*, costing ``x_transform``
  extra instructions per install — the mechanism of figure A5);
* a registered partition view ``book=sum:low,groups=4`` keeps the sum of
  the smoothed prices of each of four books (instrument ``i`` belongs to
  book ``i % 4``), maintained by one exact delta per applied install and
  read after the run.

Usage::

    python examples/derived_analytics.py [--seconds 30]
"""

from __future__ import annotations

import argparse

from repro import Simulation, baseline_config, format_table
from repro.db.objects import ObjectClass
from repro.db.transforms import exponential_average

BOOKS = 4


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--instruments", type=int, default=16)
    args = parser.parse_args()

    config = (
        baseline_config(duration=args.seconds)
        .with_updates(arrival_rate=200.0, n_low=args.instruments,
                      n_high=args.instruments)
        .with_system(x_transform=5000)
    )

    sim = Simulation(config, "OD")
    # Smooth the volatile low-importance feed before storing it.
    sim.database.set_transformer(
        ObjectClass.VIEW_LOW, exponential_average(alpha=0.3)
    )
    sim.register_view(f"book=sum:low,groups={BOOKS}")

    result = sim.run()

    print(result.summary())
    print()

    report = sim.views.report()["book"]
    members = [
        sum(1 for i in range(args.instruments) if i % BOOKS == book)
        for book in range(BOOKS)
    ]
    print(format_table(
        ("book", "instruments", "sum of smoothed prices"),
        zip(range(BOOKS), members, report["values"]),
        title="Derived view 'book': smoothed prices summed per book",
    ))
    print()
    exact = report["values"] == sim.views.expected_values("book", args.seconds)
    print(f"view refreshes: {report['refreshes']} (one exact delta per applied "
          f"low-importance install); equals a full recompute: {exact}; "
          f"stale fraction {result.fold_views:.4f}")
    print(f"transform cost charged on every one of "
          f"{result.updates_applied} installs.")


if __name__ == "__main__":
    main()
