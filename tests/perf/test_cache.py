"""Tests for repro.perf.cache: keys, hit/miss, corruption, integration."""

import dataclasses
import json

import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectKind
from repro.ifa.flow import IfaCampaign
from repro.memory.geometry import MemoryGeometry
from repro.perf.cache import (
    SCHEMA,
    VERSION,
    EvaluationCache,
    frontier_cache_key,
    unit_cache_key,
)
from repro.perf.fingerprint import (
    behavior_fingerprint,
    population_fingerprint,
)
from repro.runner.atomic import atomic_write_envelope, temp_path_for
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import ChaosBehaviorModel, FaultInjector
from repro.runner.retry import RetryPolicy
from repro.stress import production_conditions

GEOM = MemoryGeometry(16, 2, 4)


def make_campaign(seed=11):
    return IfaCampaign(GEOM, CMOS018, n_sites=40, seed=seed)


def two_conditions():
    conds = production_conditions(CMOS018)
    return (conds["VLV"], conds["Vmax"])


def bridge_spec():
    return SweepSpec.of(DefectKind.BRIDGE, (1e3, 10e3), two_conditions())


def records_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


def make_key(campaign, resistance=1e3, condition=None):
    condition = condition or two_conditions()[0]
    return unit_cache_key(
        behavior_fingerprint(campaign.behavior),
        population_fingerprint(campaign, DefectKind.BRIDGE),
        resistance, condition)


class TestCacheKey:
    def test_deterministic(self):
        assert make_key(make_campaign()) == make_key(make_campaign())

    def test_sensitive_to_each_input(self):
        base = make_key(make_campaign())
        assert make_key(make_campaign(seed=12)) != base
        assert make_key(make_campaign(), resistance=2e3) != base
        assert (make_key(make_campaign(),
                         condition=two_conditions()[1]) != base)

    def test_wrapped_model_gets_distinct_keys(self):
        """A chaos-wrapped model must never share rows with the bare one."""
        wrapped = make_campaign()
        wrapped.behavior = ChaosBehaviorModel(wrapped.behavior,
                                              FaultInjector(seed=3))
        assert make_key(wrapped) != make_key(make_campaign())


class TestFrontierCacheKey:
    """Group-table keys (the name predates the batch evaluator)."""

    def test_key_covers_grid_and_condition(self):
        conds = tuple(production_conditions(CMOS018).values())
        base = frontier_cache_key({"m": 1}, {"p": 1}, [1e3, 1e4], conds[0])
        assert base == frontier_cache_key({"m": 1}, {"p": 1},
                                          [1e3, 1e4], conds[0])
        assert base != frontier_cache_key({"m": 1}, {"p": 1},
                                          [1e3, 2e4], conds[0])
        assert base != frontier_cache_key({"m": 1}, {"p": 1},
                                          [1e3, 1e4], conds[1])
        assert base != frontier_cache_key({"m": 2}, {"p": 1},
                                          [1e3, 1e4], conds[0])


class TestCacheBasics:
    def test_miss_then_hit(self):
        cache = EvaluationCache()
        assert cache.get("k") is None
        cache.put("k", {"detected": 5})
        assert cache.get("k") == {"detected": 5}
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "hit_rate": 0.5,
            "discarded_corrupt": False, "corrupt_detail": [],
        }

    def test_get_returns_a_copy(self):
        cache = EvaluationCache()
        cache.put("k", {"detected": 5})
        cache.get("k")["detected"] = 99
        assert cache.get("k") == {"detected": 5}

    def test_dirty_tracking(self):
        cache = EvaluationCache()
        assert not cache.dirty
        cache.put("k", {})
        assert cache.dirty


class TestCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = EvaluationCache()
        cache.put("k1", {"detected": 5})
        cache.save(path)
        assert not cache.dirty
        loaded = EvaluationCache.load(path)
        assert loaded.entries == {"k1": {"detected": 5}}
        assert not loaded.discarded_corrupt

    def test_missing_file_loads_empty(self, tmp_path):
        cache = EvaluationCache.load(tmp_path / "absent.json")
        assert len(cache) == 0
        assert not cache.discarded_corrupt

    @pytest.mark.parametrize("garbage", [
        "not json", '{"schema": "wrong"}',
        '{"schema": "repro.evaluation-cache", "version": 1, '
        '"checksum": "0" , "body": {"entries": {}}}',
    ])
    def test_corrupt_file_discards_not_raises(self, tmp_path, garbage):
        """A cache is disposable: corruption degrades to empty, loudly."""
        path = tmp_path / "cache.json"
        path.write_text(garbage)
        cache = EvaluationCache.load(path)
        assert len(cache) == 0
        assert cache.discarded_corrupt
        assert cache.stats()["discarded_corrupt"] is True

    @pytest.mark.parametrize("entry", [5, [1, 2], "ab"],
                             ids=["int", "list", "str"])
    def test_non_object_entry_discards_not_raises(self, tmp_path, entry):
        """A validly checksummed envelope holding a non-object entry is
        corrupt too: discarded and recorded, never a raw TypeError."""
        path = tmp_path / "cache.json"
        atomic_write_envelope(path, SCHEMA, VERSION,
                              {"entries": {"k": entry}})
        cache = EvaluationCache.load(path)
        assert len(cache) == 0
        assert cache.discarded_corrupt
        (detail,) = cache.corrupt_detail
        assert detail["error"].startswith("EnvelopeError:")
        assert "'k'" in detail["error"]

    def test_recovers_from_temp_sibling(self, tmp_path):
        """Crash between fsync and rename: the .tmp sibling is valid."""
        path = tmp_path / "cache.json"
        cache = EvaluationCache()
        cache.put("k", {"detected": 1})
        cache.save(path)
        path.rename(temp_path_for(path))
        loaded = EvaluationCache.load(path)
        assert loaded.entries == {"k": {"detected": 1}}
        assert loaded.recovered_from_temp
        assert not loaded.discarded_corrupt
        assert loaded.corrupt_detail == []

    def test_corrupt_detail_names_file_and_exception(self, tmp_path):
        """The discard forensics say *which* file died of *what*."""
        path = tmp_path / "cache.json"
        path.write_text("not json")
        cache = EvaluationCache.load(path)
        assert cache.discarded_corrupt
        (entry,) = cache.corrupt_detail
        assert entry["path"] == str(path)
        assert entry["error"]  # "<ExcType>: <message>"
        assert ":" in entry["error"]
        assert cache.stats()["corrupt_detail"] == [entry]

    def test_corrupt_main_with_valid_temp_still_reports_discard(
            self, tmp_path):
        """Temp recovery must not hide that the main file was corrupt."""
        path = tmp_path / "cache.json"
        cache = EvaluationCache()
        cache.put("k", {"detected": 1})
        cache.save(path)
        path.rename(temp_path_for(path))
        path.write_text("garbage")
        loaded = EvaluationCache.load(path)
        assert loaded.entries == {"k": {"detected": 1}}
        assert loaded.recovered_from_temp
        assert loaded.discarded_corrupt
        (entry,) = loaded.corrupt_detail
        assert entry["path"] == str(path)


class TestRunnerIntegration:
    def test_warm_cache_serves_every_unit(self, tmp_path):
        path = tmp_path / "cache.json"
        spec = bridge_spec()
        cold = CampaignRunner(make_campaign(), cache=path).run([spec])
        assert cold.cached_units == 0
        assert cold.cache_stats["hits"] == 0
        assert path.exists()

        warm = CampaignRunner(make_campaign(), cache=path).run([spec])
        assert warm.executed_units == 0
        assert warm.cached_units == len(warm.records)
        assert warm.cache_stats["hit_rate"] == 1.0
        assert records_bytes(warm.records) == records_bytes(cold.records)

    def test_changed_seed_misses(self, tmp_path):
        path = tmp_path / "cache.json"
        spec = bridge_spec()
        CampaignRunner(make_campaign(), cache=path).run([spec])
        other = CampaignRunner(make_campaign(seed=12),
                               cache=path).run([spec])
        assert other.cached_units == 0
        assert other.executed_units == len(other.records)

    def test_corrupt_cache_never_stops_a_campaign(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("garbage")
        result = CampaignRunner(make_campaign(),
                                cache=path).run([bridge_spec()])
        assert result.cache_stats["discarded_corrupt"] is True
        assert result.executed_units == len(result.records)
        # ... and the campaign rewrote a valid cache behind itself.
        assert len(EvaluationCache.load(path)) == len(result.records)

    def test_degraded_units_are_not_cached(self, tmp_path):
        """errors > 0 units must re-evaluate on the next fresh campaign."""
        path = tmp_path / "cache.json"
        campaign = make_campaign()
        injector = FaultInjector(
            positions={"behavior.evaluate": {0, 1, 2}})
        campaign.behavior = ChaosBehaviorModel(campaign.behavior, injector)
        result = CampaignRunner(
            campaign, cache=path,
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
        ).run([bridge_spec()])
        degraded = [r for r in result.records if r.errors > 0]
        assert degraded, "chaos should have quarantined the first site"
        cache = EvaluationCache.load(path)
        assert len(cache) == len(result.records) - len(degraded)

    def test_cache_instance_can_be_shared_in_memory(self):
        cache = EvaluationCache()
        spec = bridge_spec()
        CampaignRunner(make_campaign(), cache=cache).run([spec])
        again = CampaignRunner(make_campaign(), cache=cache).run([spec])
        assert again.cached_units == len(again.records)
