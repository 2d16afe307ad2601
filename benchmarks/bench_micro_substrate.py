"""Microbenchmark of the substrate's update transformers.

The wall-clock overhead of transformer invocation, which the simulated
cost model charges as ``x_transform`` instructions, so its real cost stays
visible.
"""

from repro.config import baseline_config
from repro.core.simulator import Simulation
from repro.db.objects import ObjectClass
from repro.db.transforms import exponential_average


def short_config():
    return baseline_config(duration=10.0).with_updates(
        arrival_rate=200.0, n_low=100, n_high=100
    )


def test_simulation_with_transformer_overhead(benchmark):
    """One run with an EWMA transformer on both partitions."""

    def run():
        sim = Simulation(short_config(), "UF")
        transformer = exponential_average(0.3)
        sim.database.set_transformer(ObjectClass.VIEW_LOW, transformer)
        sim.database.set_transformer(ObjectClass.VIEW_HIGH, transformer)
        return sim.run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.updates_applied > 0
