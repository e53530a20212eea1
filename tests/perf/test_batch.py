"""Tests for repro.perf.batch: the scalar path as equivalence oracle.

The contract under test: ``strategy="batch"`` emits records
byte-identical to ``strategy="exact"`` serial for *every* model in the
capability matrix -- a correct vectorised hook, a model without the
hook, a hook that raises or returns the wrong shape, and a hook that
lies -- and under chaos, kill/resume and cache reuse.  Wall-clock is
the benchmark's business (:mod:`repro.perf.frontier_bench`); here the
speedup claim appears only as deterministic call-count inequalities.
"""

import dataclasses
import hashlib
import json
import random
import struct

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import BridgeSite, Defect, DefectKind, OpenSite
from repro.ifa.flow import TABLE1_RESISTANCES
from repro.perf.batch import TABLE_SCHEMA, BatchEvaluator, BatchPolicy
from repro.perf.cache import EvaluationCache, frontier_cache_key
from repro.perf.fingerprint import (
    behavior_fingerprint,
    fingerprint_document,
    population_fingerprint,
)
from repro.runner.atomic import canonical_json
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.runner.chaos import ChaosBehaviorModel, FaultInjector, InjectedCrash
from repro.runner.units import plan_units
from repro.stress import StressCondition, production_conditions


def all_conditions():
    return tuple(production_conditions(CMOS018).values())


def table1_spec():
    return SweepSpec.of(DefectKind.BRIDGE, TABLE1_RESISTANCES,
                        all_conditions())


def opens_spec():
    resistances = tuple(float(r) for r in np.logspace(4, 7.5, 8))
    return SweepSpec.of(DefectKind.OPEN, resistances, all_conditions())


def records_bytes(records):
    """Canonical byte serialisation for exact-identity comparison."""
    return json.dumps([dataclasses.asdict(r) for r in records],
                      sort_keys=True).encode()


class OpaqueModel:
    """Delegates ``fails_condition`` only -- offers no batch hook."""

    def __init__(self, inner):
        self._inner = inner

    def fails_condition(self, defect, condition):
        return self._inner.fails_condition(defect, condition)


class LyingBatchModel(OpaqueModel):
    """Claims every cell is detected (a lie the cross-check catches)."""

    def evaluate_batch(self, sites, resistances, condition):
        return np.ones((len(sites), len(resistances)), dtype=bool)


class BadShapeBatchModel(OpaqueModel):
    """Returns a transposed matrix (wrong shape, honest otherwise)."""

    def evaluate_batch(self, sites, resistances, condition):
        return np.zeros((len(resistances), len(sites)), dtype=bool)


class RaisingBatchModel(OpaqueModel):
    """A hook that blows up on every call."""

    def evaluate_batch(self, sites, resistances, condition):
        raise RuntimeError("vector unit on fire")


def float_bits(value):
    """IEEE-754 bit pattern of a positive double (ordered like floats)."""
    return struct.unpack("<q", struct.pack("<d", value))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def gate_sites():
    """Every site class, built directly, at three strengths x both
    polarities."""
    classes = ([(DefectKind.BRIDGE, s) for s in BridgeSite]
               + [(DefectKind.OPEN, s) for s in OpenSite])
    return [Defect(kind, site, 1.0, strength=strength, polarity=polarity)
            for kind, site in classes
            for strength in (0.3, 1.0, 2.7)
            for polarity in (-1, 1)]


def gate_conditions():
    """The production suite plus a cold VLV and a hot Vmax corner."""
    conds = production_conditions(CMOS018)
    return (tuple(conds.values())
            + (StressCondition("VLV-cold", CMOS018.vdd_vlv,
                               conds["VLV"].period, temperature=-40.0),
               StressCondition("Vmax-hot", CMOS018.vdd_max,
                               conds["Vmax"].period, temperature=125.0)))


def exact_transition(model, site, condition, lo, hi):
    """Bit pattern of the first float in (lo, hi] whose scalar answer
    differs from the answer at ``lo`` (lo and hi must disagree)."""
    def scalar(bits):
        return model.fails_condition(
            site.with_resistance(bits_float(bits)), condition)

    lo_bits, hi_bits = float_bits(lo), float_bits(hi)
    at_lo = scalar(lo_bits)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if scalar(mid) == at_lo:
            lo_bits = mid
        else:
            hi_bits = mid
    return hi_bits


class TestBatchHookOracle:
    """evaluate_batch agrees with fails_condition, cell by cell."""

    def test_full_grid_and_every_transition(self):
        """The differential gate: every site class x strength x
        polarity, seven conditions, a dense 1 Ohm .. 1 GOhm grid plus
        each row's exact float transition +-3 ulps -- as the
        ``evaluate_batch`` grid and as the ``evaluate_defects``
        diagonal, every cell one defect at its own R, shuffled so
        that neighbours differ in class and R."""
        model = DefectBehaviorModel(CMOS018)
        sites = gate_sites()
        grid = [float(r) for r in np.logspace(0, 9, 400)]
        cells = transitions = 0
        for cond in gate_conditions():
            matrix = model.evaluate_batch(sites, grid, cond)
            assert matrix.shape == (len(sites), len(grid))
            # (defect, scalar answer, grid answer) for every cell.
            diagonal = []
            for i, site in enumerate(sites):
                defects = [site.with_resistance(r) for r in grid]
                row = [model.fails_condition(d, cond) for d in defects]
                assert matrix[i].tolist() == row, f"{site} under {cond.name}"
                diagonal += zip(defects, row, matrix[i].tolist())
                cells += len(grid)
                for j in range(len(grid) - 1):
                    if row[j] == row[j + 1]:
                        continue
                    edge = exact_transition(model, site, cond, grid[j],
                                            grid[j + 1])
                    probes = [bits_float(b)
                              for b in range(edge - 3, edge + 4)]
                    defects = [site.with_resistance(r) for r in probes]
                    exact = [model.fails_condition(d, cond)
                             for d in defects]
                    batch = model.evaluate_batch([site], probes, cond)
                    assert batch[0].tolist() == exact, (
                        f"{site} under {cond.name} near R={probes[3]!r}")
                    assert exact[2] != exact[3]
                    diagonal += zip(defects, exact, batch[0].tolist())
                    cells += len(probes)
                    transitions += 1
            random.Random(f"diagonal:{cond.name}").shuffle(diagonal)
            defects, scalar, gridded = (list(c) for c in zip(*diagonal))
            answer = model.evaluate_defects(defects, cond)
            assert answer.shape == (len(defects),)
            mismatches = [d for d, got, want in zip(defects, answer.tolist(),
                                                    scalar) if got != want]
            assert mismatches == [], (
                f"{len(mismatches)} diagonal cells off fails_condition "
                f"under {cond.name}, first {mismatches[0]}")
            assert answer.tolist() == gridded
        # The gate must actually reach the boundaries it exists for.
        assert transitions >= 300
        assert cells > 200_000

    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    def test_matches_exact_model_everywhere(self, counting_campaign, kind):
        campaign = counting_campaign(n_sites=30)
        model = DefectBehaviorModel(CMOS018)
        population = (campaign.bridge_population()
                      if kind is DefectKind.BRIDGE
                      else campaign.open_population())
        grid = [float(r) for r in np.logspace(1, 7.5, 12)]
        for cond in all_conditions():
            matrix = model.evaluate_batch(population, grid, cond)
            assert matrix.shape == (len(population), len(grid))
            for i, site in enumerate(population):
                for j, r in enumerate(grid):
                    exact = model.fails_condition(
                        site.with_resistance(r), cond)
                    assert bool(matrix[i, j]) == exact, (
                        f"{site} at {r:g} under {cond.name}")


class TestEquivalence:
    def test_table1_byte_identical_with_5x_fewer_calls(
            self, counting_campaign):
        exact_campaign = counting_campaign()
        exact = CampaignRunner(exact_campaign).run([table1_spec()])
        batch_campaign = counting_campaign()
        batch = CampaignRunner(
            batch_campaign, strategy="batch").run([table1_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        # The ISSUE acceptance floor, as a call-count inequality (the
        # only counted calls left are the cross-check sample).
        assert exact_campaign.behavior.calls >= (
            5 * batch_campaign.behavior.calls)
        stats = batch.batch_stats
        assert stats is not None
        assert stats["batch_sites"] == stats["sites"]
        assert stats["fallback_sites"] == 0
        assert stats["demoted_sites"] == 0
        assert stats["crosscheck_mismatches"] == 0
        assert stats["model_invocations"] == stats[
            "crosscheck_invocations"] == batch_campaign.behavior.calls
        assert exact.batch_stats is None

    def test_opens_sweep_byte_identical(self, counting_campaign):
        exact_campaign = counting_campaign()
        exact = CampaignRunner(exact_campaign).run([opens_spec()])
        batch_campaign = counting_campaign()
        batch = CampaignRunner(
            batch_campaign, strategy="batch").run([opens_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact_campaign.behavior.calls >= (
            5 * batch_campaign.behavior.calls)

    def test_matches_parallel_exact_run(self, counting_campaign):
        parallel = CampaignRunner(
            counting_campaign(), workers=4).run([table1_spec()])
        batch = CampaignRunner(
            counting_campaign(), strategy="batch").run([table1_spec()])
        assert records_bytes(parallel.records) == records_bytes(
            batch.records)


class TestFallbacks:
    """Every capability gap degrades to the exact path, never to
    wrong records."""

    def run_pair(self, counting_campaign, wrap, **runner_kwargs):
        exact = CampaignRunner(
            counting_campaign(wrap=wrap)).run([table1_spec()])
        campaign = counting_campaign(wrap=wrap)
        batch = CampaignRunner(campaign, strategy="batch",
                               **runner_kwargs).run([table1_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        return batch.batch_stats

    def test_opaque_model_falls_back_silently(self, counting_campaign):
        stats = self.run_pair(counting_campaign, OpaqueModel)
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0
        assert stats["demotions"] == []

    def test_raising_hook_falls_back_with_ledger(self, counting_campaign):
        stats = self.run_pair(counting_campaign, RaisingBatchModel)
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0
        assert len(stats["demotions"]) == len(stats["group_log"])
        entry = stats["demotions"][0]
        assert entry["reason"] == "probe-error"
        assert entry["stage"] == "batch"
        assert entry["site_index"] == -1
        assert "vector unit on fire" in entry["error"]

    def test_bad_shape_falls_back_with_ledger(self, counting_campaign):
        stats = self.run_pair(counting_campaign, BadShapeBatchModel)
        assert stats["fallback_sites"] == stats["sites"]
        reasons = {d["reason"] for d in stats["demotions"]}
        assert reasons == {"bad-shape"}

    def test_lying_hook_demoted_by_full_crosscheck(self, counting_campaign):
        policy = BatchPolicy(crosscheck_fraction=1.0)
        stats = self.run_pair(counting_campaign, LyingBatchModel,
                              batch_policy=policy)
        # Checking every cell catches every lying site; the records
        # above were still byte-identical because demoted sites rerun
        # exactly per unit.
        assert stats["crosscheck_mismatches"] > 0
        assert stats["demoted_sites"] > 0
        entry = next(d for d in stats["demotions"]
                     if d["reason"] == "lying-model")
        assert entry["stage"] == "crosscheck"
        assert entry["site_index"] >= 0
        assert "batch row says" in entry["error"]

    def test_default_sparse_crosscheck_still_catches_the_liar(
            self, counting_campaign):
        # An all-True hook is wrong class-wide, so even the default 1%
        # sample trips on sampled undetectable cells and flags the
        # model.  Only the sampled sites are *corrected*, though --
        # full correction under a hostile hook needs fraction 1.0
        # (previous test); the sparse default is a tripwire, and the
        # mismatch counter is the signal operators alarm on.
        result = CampaignRunner(
            counting_campaign(wrap=LyingBatchModel),
            strategy="batch").run([table1_spec()])
        stats = result.batch_stats
        assert stats["crosscheck_mismatches"] > 0
        assert stats["demoted_sites"] == stats["crosscheck_mismatches"]


class TestChaosEquivalence:
    """Batch + faults == exact + faults: pattern, ledger and records."""

    def chaos_run(self, counting_campaign, injector, strategy):
        campaign = counting_campaign()
        campaign.behavior = ChaosBehaviorModel(campaign.behavior, injector)
        return CampaignRunner(campaign, strategy=strategy).run(
            [table1_spec()])

    def test_chaos_model_declines_the_hook(self):
        chaos = ChaosBehaviorModel(DefectBehaviorModel(CMOS018),
                                   FaultInjector())
        assert chaos.evaluate_batch is None
        assert chaos.evaluate_defects is None

    def test_flaky_faults_identical_ledgers(self, counting_campaign):
        exact = self.chaos_run(
            counting_campaign,
            FaultInjector(seed=7, rates={"behavior.evaluate": 0.05}),
            "exact")
        batch = self.chaos_run(
            counting_campaign,
            FaultInjector(seed=7, rates={"behavior.evaluate": 0.05}),
            "batch")
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact.quarantine == batch.quarantine
        assert dataclasses.asdict(exact.retry_stats) == dataclasses.asdict(
            batch.retry_stats)

    def test_positional_faults_identical_quarantine(self,
                                                    counting_campaign):
        positions = {"behavior.evaluate": {0, 1, 2, 40, 41, 42}}
        exact = self.chaos_run(counting_campaign,
                               FaultInjector(positions=positions), "exact")
        batch = self.chaos_run(counting_campaign,
                               FaultInjector(positions=positions), "batch")
        assert exact.quarantine, "the burst should exhaust retries"
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact.quarantine == batch.quarantine

    def test_chaos_batch_run_is_all_fallback(self, counting_campaign):
        batch = self.chaos_run(counting_campaign, FaultInjector(), "batch")
        stats = batch.batch_stats
        assert stats["fallback_sites"] == stats["sites"]
        assert stats["batch_sites"] == 0


class TestResume:
    def test_killed_batch_campaign_resumes_byte_identical(
            self, tmp_path, counting_campaign):
        make = counting_campaign
        baseline = CampaignRunner(make()).run([table1_spec()])
        ck = tmp_path / "ck.json"
        inj = FaultInjector(crash_positions={"io.replace": {4}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(make(), checkpoint_path=ck, strategy="batch",
                           fault_hook=inj.check).run([table1_spec()])
        resumed = CampaignRunner(make(), checkpoint_path=ck,
                                 strategy="batch").run([table1_spec()])
        assert resumed.resumed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)

    def test_exact_checkpoint_resumes_under_batch(self, tmp_path,
                                                  counting_campaign):
        baseline = CampaignRunner(counting_campaign()).run([table1_spec()])
        ck = tmp_path / "ck.json"
        inj = FaultInjector(crash_positions={"io.replace": {7}})
        with pytest.raises(InjectedCrash):
            CampaignRunner(counting_campaign(), checkpoint_path=ck,
                           fault_hook=inj.check).run([table1_spec()])
        resumed = CampaignRunner(counting_campaign(), checkpoint_path=ck,
                                 strategy="batch").run([table1_spec()])
        assert resumed.resumed_units > 0
        assert records_bytes(resumed.records) == records_bytes(
            baseline.records)


class TestCacheInterop:
    def plan(self):
        return plan_units(DefectKind.BRIDGE, TABLE1_RESISTANCES,
                          all_conditions())

    def evaluate_all(self, evaluator):
        return [evaluator.evaluate(u).record for u in self.plan()]

    def test_exact_warmed_cache_serves_batch_run(self, counting_campaign):
        cache = EvaluationCache()
        exact = CampaignRunner(counting_campaign(),
                               cache=cache).run([table1_spec()])
        campaign = counting_campaign()
        batch = CampaignRunner(campaign, cache=cache,
                               strategy="batch").run([table1_spec()])
        assert batch.cached_units == len(batch.records)
        assert campaign.behavior.calls == 0
        assert records_bytes(exact.records) == records_bytes(batch.records)

    def test_frontier_table_serves_batch_and_back(self, counting_campaign):
        """Group tables cached before the batch evaluator owned them --
        key schema ``repro.frontier-table-key/1``, payload schema
        ``repro.frontier-table/1`` -- must still be served, and a batch
        run writes those very entries back."""
        campaign = counting_campaign()
        exact = CampaignRunner(counting_campaign()).run([table1_spec()])
        grid = sorted(TABLE1_RESISTANCES)
        population = campaign.bridge_population()
        cache = EvaluationCache()
        for cond in all_conditions():
            doc = {
                "schema": "repro.frontier-table-key/1",
                "behavior": behavior_fingerprint(campaign.behavior),
                "population": population_fingerprint(
                    campaign, DefectKind.BRIDGE),
                "resistances": [repr(float(r)) for r in grid],
                "condition": fingerprint_document(cond, "condition"),
            }
            key = hashlib.sha256(
                canonical_json(doc).encode("utf-8")).hexdigest()
            assert key == frontier_cache_key(
                doc["behavior"], doc["population"], grid, cond)
            cache.put(key, {
                "schema": "repro.frontier-table/1",
                "decisions": [
                    [campaign.behavior.inner.fails_condition(
                        site.with_resistance(r), cond) for r in grid]
                    for site in population],
            })
        assert TABLE_SCHEMA == "repro.frontier-table/1"
        calls_before = campaign.behavior.calls
        batch = CampaignRunner(campaign, strategy="batch",
                               cache=cache).run([table1_spec()])
        assert batch.batch_stats["cached_groups"] == len(all_conditions())
        assert batch.batch_stats["groups"] == 0
        assert campaign.behavior.calls == calls_before
        assert records_bytes(batch.records) == records_bytes(exact.records)

        # ... and back: a batch run over an empty cache writes the same
        # keys and payloads, so either side's cache file serves the other.
        written = EvaluationCache()
        CampaignRunner(counting_campaign(), strategy="batch",
                       cache=written).run([table1_spec()])
        def tables(c):
            return {k: v for k, v in c.entries.items()
                    if v.get("schema") == TABLE_SCHEMA}

        assert len(tables(cache)) == len(all_conditions())
        assert canonical_json(tables(written)) == canonical_json(
            tables(cache))

    def test_non_boolean_table_cell_is_a_cache_miss(self,
                                                    counting_campaign):
        """A cached cell must be a JSON boolean: the string "false" is
        truthy and must not read as detected."""
        cache = EvaluationCache()
        plan = self.plan()
        warm = BatchEvaluator(counting_campaign(), plan, cache=cache)
        warm_records = self.evaluate_all(warm)
        for payload in cache.entries.values():
            if payload.get("schema") == TABLE_SCHEMA:
                payload["decisions"][0] = [
                    json.dumps(v) for v in payload["decisions"][0]]
        assert any(v == "false" for p in cache.entries.values()
                   for v in p["decisions"][0])
        served = BatchEvaluator(counting_campaign(), plan, cache=cache)
        served_records = self.evaluate_all(served)
        assert served.stats.cached_groups == 0
        assert served.stats.groups == len(all_conditions())
        assert records_bytes(served_records) == records_bytes(warm_records)


class TestFingerprintStability:
    """Batch capability must not fork the cache-key space."""

    def test_hook_is_invisible_to_behavior_fingerprint(self):
        doc = canonical_json(behavior_fingerprint(
            DefectBehaviorModel(CMOS018)))
        assert "evaluate_batch" not in doc

    def test_population_memo_is_invisible_to_fingerprints(
            self, counting_campaign):
        campaign = counting_campaign()
        before = canonical_json(
            population_fingerprint(campaign, DefectKind.BRIDGE))
        campaign.bridge_population()  # fill the underscore memo
        after = canonical_json(
            population_fingerprint(campaign, DefectKind.BRIDGE))
        assert before == after


class TestGuards:
    def test_batch_strategy_is_serial_only(self, counting_campaign):
        with pytest.raises(ValueError, match="serial"):
            CampaignRunner(counting_campaign(), strategy="batch",
                           workers=4)

    def test_unknown_strategy_rejected(self, counting_campaign):
        for strategy in ("turbo", "frontier"):
            with pytest.raises(ValueError,
                               match="strategy must be 'exact' or "
                                     "'batch'"):
                CampaignRunner(counting_campaign(), strategy=strategy)

    def test_policy_validates_batch_fraction(self):
        for fraction in (-0.1, 1.5):
            with pytest.raises(ValueError, match="crosscheck_fraction"):
                BatchPolicy(crosscheck_fraction=fraction)
        assert BatchPolicy() == BatchPolicy(crosscheck_fraction=0.01,
                                            crosscheck_seed=20050806)

    def test_unit_deadline_must_be_positive(self, counting_campaign):
        with pytest.raises(ValueError, match="unit_deadline"):
            BatchEvaluator(counting_campaign(), [], unit_deadline=0.0)
