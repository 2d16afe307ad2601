"""Tests for the persistent result cache (fingerprinting + store)."""

import json

import pytest

import repro.experiments.cache as cache_module
from repro.config import baseline_config
from repro.core.simulator import run_simulation
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    fingerprint,
)
from repro.experiments.sweeps import ExperimentScale, run_sweep, scaled_baseline

TINY = ExperimentScale(duration=2.0, warmup=0.5, label="tiny-test")


def tiny_config(**overrides):
    config = scaled_baseline(TINY).with_updates(
        arrival_rate=50.0, n_low=20, n_high=20
    )
    return config.replace(**overrides) if overrides else config


class TestFingerprint:
    def test_stable_for_identical_inputs(self):
        config = tiny_config()
        assert fingerprint(config, "TF") == fingerprint(config, "TF")
        # A structurally equal but distinct config hashes identically.
        assert fingerprint(config, "TF") == fingerprint(tiny_config(), "TF")

    def test_sensitive_to_config_changes(self):
        base = tiny_config()
        changed = base.with_transactions(arrival_rate=99.0)
        assert fingerprint(base, "TF") != fingerprint(changed, "TF")

    def test_sensitive_to_algorithm_and_kwargs(self):
        config = tiny_config()
        assert fingerprint(config, "TF") != fingerprint(config, "UF")
        assert fingerprint(config, "FX", {"fraction": 0.2}) != fingerprint(
            config, "FX", {"fraction": 0.3}
        )

    def test_sensitive_to_version_and_extra(self):
        config = tiny_config()
        assert fingerprint(config, "TF", version="1.0.0") != fingerprint(
            config, "TF", version="1.0.1"
        )
        assert fingerprint(config, "TF") != fingerprint(config, "TF", extra="t")

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/somewhere-else")
        assert str(default_cache_dir()) == "/tmp/somewhere-else"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert str(default_cache_dir()) == ".repro_cache"


class TestResultCache:
    def test_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        result = run_simulation(config, "TF")
        assert cache.get(config, "TF") is None
        cache.put(config, "TF", result)
        assert len(cache) == 1
        hit = cache.get(config, "TF")
        assert hit == result
        assert cache.hits == 1 and cache.misses == 1

    def test_misses_on_any_cell_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, "TF", run_simulation(config, "TF"))
        assert cache.get(config.with_transactions(arrival_rate=9.0), "TF") is None
        assert cache.get(config, "UF") is None
        assert cache.get(config, "TF", kwargs={"x": 1}) is None
        assert cache.get(config, "TF", extra="transformed") is None
        assert cache.get(config, "TF") is not None

    def test_version_change_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, "TF", run_simulation(config, "TF"))
        monkeypatch.setattr(cache_module, "__version__", "999.0.0")
        assert cache.get(config, "TF") is None

    def test_corrupted_entry_warns_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        result = run_simulation(config, "TF")
        path = cache.put(config, "TF", result)
        path.write_text("{ not json")
        with pytest.warns(UserWarning, match="corrupted cache entry"):
            assert cache.get(config, "TF") is None
        # The bad entry is removed so the recompute can be stored cleanly.
        assert not path.exists()
        cache.put(config, "TF", result)
        assert cache.get(config, "TF") == result

    def test_wrong_key_payload_treated_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        path = cache.put(config, "TF", run_simulation(config, "TF"))
        payload = json.loads(path.read_text())
        payload["key"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            assert cache.get(config, "TF") is None

    def test_clear_purges_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_config()
        cache.put(config, "TF", run_simulation(config, "TF"))
        cache.put(config, "UF", run_simulation(config, "UF"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get(config, "TF") is None


class TestSweepWithCache:
    ARGS = (
        "lambda_t",
        (2.0, 5.0),
        lambda config, x: config.with_transactions(arrival_rate=x),
        ("TF", "UF"),
    )

    def test_warm_sweep_runs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_sweep(tiny_config(), *self.ARGS, cache=cache)
        assert cache.misses == 4 and cache.hits == 0
        warm = run_sweep(tiny_config(), *self.ARGS, cache=cache)
        assert cache.hits == 4
        assert [p.result for p in warm.points] == [p.result for p in cold.points]

    def test_cached_equals_uncached(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = run_sweep(tiny_config(), *self.ARGS)
        run_sweep(tiny_config(), *self.ARGS, cache=cache)
        cached = run_sweep(tiny_config(), *self.ARGS, cache=cache)
        assert [p.result for p in cached.points] == [
            p.result for p in plain.points
        ]

    def test_clear_sweep_cache_purges_disk(self, tmp_path):
        from repro.experiments import figures

        cache = ResultCache(tmp_path)
        figures.clear_sweep_cache()
        try:
            figures.baseline_sweep(TINY, workers=1, cache=cache)
            assert len(cache) > 0
            figures.clear_sweep_cache()
            assert len(figures._SWEEP_CACHE) == 0
            assert len(cache) == 0
        finally:
            figures._ACTIVE_DISK_CACHE = None
            figures.clear_sweep_cache()
