"""Tests for detection-frontier tables: the group rows behind batch.

Detection is monotone in defect resistance: a bridge is detected below
a resistance threshold, an open above one.  ``evaluate_batch`` derives
one such frontier row per site for a whole (kind, condition) group, and
the evaluation cache keeps each group's rows as a
``repro.frontier-table/1`` payload under
:func:`repro.perf.cache.frontier_cache_key`.  The contract under test:
every row is a monotone frontier that agrees with the exact model, a
cached table holds exactly the exact model's decisions, and a row the
cross-check rejects never reaches the cache as a decision.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel
from repro.defects.models import DefectKind
from repro.ifa.flow import TABLE1_RESISTANCES
from repro.perf.batch import TABLE_SCHEMA, BatchPolicy
from repro.perf.cache import EvaluationCache, frontier_cache_key
from repro.perf.fingerprint import behavior_fingerprint, population_fingerprint
from repro.runner.campaign import CampaignRunner, SweepSpec
from repro.stress import production_conditions


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


def population(campaign, kind):
    return (campaign.bridge_population() if kind is DefectKind.BRIDGE
            else campaign.open_population())


def cached_tables(campaign, cache, spec):
    """The cached decision rows of each condition of ``spec``."""
    grid = sorted(set(spec.resistances))
    tables = {}
    for cond in spec.conditions:
        key = frontier_cache_key(
            behavior_fingerprint(campaign.behavior),
            population_fingerprint(campaign, spec.kind), grid, cond)
        payload = cache.get(key)
        assert payload is not None and payload["schema"] == TABLE_SCHEMA
        tables[cond] = payload["decisions"]
    return grid, tables


def exact_rows(campaign, kind, grid, cond):
    model = DefectBehaviorModel(CMOS018)
    return [[model.fails_condition(site.with_resistance(r), cond)
             for r in grid] for site in population(campaign, kind)]


class OpaqueModel:
    """Delegates ``fails_condition`` only -- offers no batch hook."""

    def __init__(self, inner):
        self._inner = inner

    def fails_condition(self, defect, condition):
        return self._inner.fails_condition(defect, condition)


class LyingFrontierModel(OpaqueModel):
    """Claims every site is detected at every resistance (a lie)."""

    def evaluate_batch(self, sites, resistances, condition):
        return np.ones((len(sites), len(resistances)), dtype=bool)


class TestAnalyticFrontiers:
    """Batch rows are monotone frontiers that agree with the exact
    model, cell by cell."""

    @pytest.mark.parametrize("kind", [DefectKind.BRIDGE, DefectKind.OPEN])
    def test_matches_exact_model_everywhere(self, counting_campaign, kind):
        campaign = counting_campaign(n_sites=30)
        model = DefectBehaviorModel(CMOS018)
        sites = population(campaign, kind)
        grid = [float(r) for r in np.logspace(1, 7.5, 12)]
        for cond in all_conditions():
            matrix = model.evaluate_batch(sites, grid, cond)
            for site, row in zip(sites, matrix):
                row = [bool(v) for v in row]
                assert row == [
                    model.fails_condition(site.with_resistance(r), cond)
                    for r in grid], f"{site} under {cond.name}"
                # Bridges are detected below one threshold, opens
                # above one: at most a single transition per row.
                assert row == sorted(
                    row, reverse=kind is DefectKind.BRIDGE), (
                    f"{site} under {cond.name} is not monotone in R")


class TestEquivalence:
    """Cached frontier tables hold exactly the exact model's answers."""

    def check(self, counting_campaign, spec):
        exact_campaign = counting_campaign()
        exact = CampaignRunner(exact_campaign).run([spec])
        campaign = counting_campaign()
        cache = EvaluationCache()
        batch = CampaignRunner(campaign, strategy="batch",
                               cache=cache).run([spec])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        assert exact_campaign.behavior.calls >= 5 * campaign.behavior.calls
        grid, tables = cached_tables(campaign, cache, spec)
        for cond, rows in tables.items():
            assert rows == exact_rows(campaign, spec.kind, grid, cond), (
                f"cached {spec.kind.value} table under {cond.name}")

    def test_table1_byte_identical_with_5x_fewer_calls(
            self, counting_campaign):
        self.check(counting_campaign, table1_spec())

    def test_opens_sweep_byte_identical(self, counting_campaign):
        self.check(counting_campaign, opens_spec())


class TestFallbacks:
    def test_undeclared_model_runs_exact(self, counting_campaign):
        exact_campaign = counting_campaign()
        exact = CampaignRunner(exact_campaign).run([table1_spec()])
        opaque_campaign = counting_campaign(wrap=OpaqueModel)
        cache = EvaluationCache()
        batch = CampaignRunner(opaque_campaign, strategy="batch",
                               cache=cache).run([table1_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        # No hook -> no fast path: the call counts match, and the cached
        # tables carry no decision for any site.
        assert opaque_campaign.behavior.calls == (
            exact_campaign.behavior.calls)
        _, tables = cached_tables(opaque_campaign, cache, table1_spec())
        for rows in tables.values():
            assert rows == [None] * len(rows)

    def test_lying_frontier_is_caught_by_crosscheck(
            self, counting_campaign):
        exact = CampaignRunner(counting_campaign()).run([table1_spec()])
        lying_campaign = counting_campaign(wrap=LyingFrontierModel)
        cache = EvaluationCache()
        batch = CampaignRunner(
            lying_campaign, strategy="batch", cache=cache,
            batch_policy=BatchPolicy(crosscheck_fraction=1.0),
        ).run([table1_spec()])
        assert records_bytes(exact.records) == records_bytes(batch.records)
        stats = batch.batch_stats
        assert stats["crosscheck_mismatches"] > 0
        # Every demoted site is cached as "no decision"; every row that
        # survived the full cross-check is the exact answer.
        grid, tables = cached_tables(lying_campaign, cache, table1_spec())
        demoted = 0
        for cond, rows in tables.items():
            exact_table = exact_rows(lying_campaign, DefectKind.BRIDGE,
                                     grid, cond)
            for row, truth in zip(rows, exact_table):
                if row is None:
                    demoted += 1
                else:
                    assert row == truth
        assert demoted == stats["demoted_sites"] > 0


class TestRunnerIntegration:
    def test_unknown_strategy_rejected(self, counting_campaign):
        with pytest.raises(ValueError, match="strategy"):
            CampaignRunner(counting_campaign(), strategy="turbo")

    def test_frontier_is_serial_only(self, counting_campaign):
        # Frontier tables are built by the serial batch evaluator.
        with pytest.raises(ValueError, match="serial"):
            CampaignRunner(counting_campaign(), strategy="batch",
                           workers=2)

    def test_group_tables_are_cached(self, counting_campaign):
        campaign = counting_campaign()
        cache = EvaluationCache()
        first = CampaignRunner(campaign, strategy="batch",
                               cache=cache).run([table1_spec()])
        assert first.batch_stats["cached_groups"] == 0
        # Keep only the table entries, so the second run must evaluate
        # its units -- from cached tables rather than re-derivation.
        table_cache = EvaluationCache()
        table_cache.entries = {
            k: v for k, v in cache.entries.items()
            if v.get("schema") == TABLE_SCHEMA}
        assert table_cache.entries
        calls_before_second = campaign.behavior.calls
        second = CampaignRunner(campaign, strategy="batch",
                                cache=table_cache).run([table1_spec()])
        assert records_bytes(first.records) == records_bytes(
            second.records)
        stats = second.batch_stats
        assert stats["cached_groups"] == len(all_conditions())
        assert stats["groups"] == 0
        # Cached tables skip even the cross-check: zero new model calls.
        assert campaign.behavior.calls == calls_before_second


class TestFrontierPolicy:
    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_validated(self, fraction):
        with pytest.raises(ValueError, match="crosscheck_fraction"):
            BatchPolicy(crosscheck_fraction=fraction)
