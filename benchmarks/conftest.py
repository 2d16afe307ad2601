"""Shared fixtures for the benchmark suite.

Every figure benchmark builds its reproduction through
``repro.experiments.figures``; sweeps shared between figures (e.g. the
baseline lambda_t sweep behind Figures 3-6) are computed once per session
thanks to the module-level sweep cache.

Scale: by default each simulated point runs for 60 seconds with a 12-second
warmup; set ``REPRO_FULL=1`` for the paper's 1000-second points.
"""

import pytest

from repro.experiments.sweeps import ExperimentScale


@pytest.fixture(scope="session")
def experiment_scale() -> ExperimentScale:
    return ExperimentScale.from_env()


@pytest.fixture
def run_figure(benchmark, experiment_scale):
    """Build one figure under pytest-benchmark and validate its checks."""
    from repro.experiments.figures import build_figure

    def _run(figure_id: str):
        figure = benchmark.pedantic(
            build_figure, args=(figure_id, experiment_scale), rounds=1, iterations=1
        )
        print()
        print(figure.render())
        failed = figure.failed_checks()
        assert not failed, "failed shape checks:\n" + "\n".join(
            str(check) for check in failed
        )
        return figure

    return _run
