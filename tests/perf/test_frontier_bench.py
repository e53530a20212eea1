"""Tests for the fast-path benchmark harness (exact vs batch campaign,
exact vs boundary shmoo) and its committed ``BENCH_frontier.json``."""

import json
from pathlib import Path

import pytest

from repro.perf.frontier_bench import (
    FRONTIER_BENCH_SCHEMA,
    MIN_BATCH_WALLCLOCK,
    FrontierBenchConfig,
    run_frontier_benchmark,
    validate_frontier_bench,
)


@pytest.fixture(scope="module")
def frontier_doc():
    """One quick frontier benchmark run shared by the shape tests."""
    return run_frontier_benchmark(FrontierBenchConfig.quick())


class TestFrontierBenchDocument:
    def test_schema_valid(self, frontier_doc):
        assert validate_frontier_bench(frontier_doc) == []

    def test_headline_fields(self, frontier_doc):
        assert frontier_doc["schema"] == FRONTIER_BENCH_SCHEMA
        assert FRONTIER_BENCH_SCHEMA == "repro.bench-frontier/3"
        assert frontier_doc["invocation_reduction_campaign"] >= 5.0
        assert frontier_doc["invocation_reduction_shmoo"] >= 3.0
        assert frontier_doc["campaign"]["records_match"] is True
        assert frontier_doc["shmoo"]["grids_match"] is True

    def test_batch_stats_embedded(self, frontier_doc):
        campaign = frontier_doc["campaign"]
        stats = campaign["batch"]["stats"]
        assert stats["batch_sites"] == stats["sites"]
        assert stats["demoted_sites"] == 0
        assert stats["crosscheck_mismatches"] == 0
        assert campaign["speedup"] >= MIN_BATCH_WALLCLOCK
        assert frontier_doc["wallclock_speedup_batch"] == campaign["speedup"]
        assert frontier_doc["invocation_reduction_campaign"] == round(
            campaign["exact"]["model_invocations"]
            / campaign["batch"]["model_invocations"], 2)
        assert set(campaign) == {
            "exact", "batch", "invocation_reduction", "speedup",
            "records_match"}

    def test_frontier_stats_embedded(self, frontier_doc):
        # The shmoo half traces the pass/fail frontier; its tracer
        # stats ride along with the exact row they are compared to.
        shmoo = frontier_doc["shmoo"]
        boundary, exact = shmoo["boundary"], shmoo["exact"]
        assert boundary["fallback"] is False
        assert boundary["grid_cells"] == exact["grid_cells"]
        assert 0 < boundary["crosscheck_invocations"] <= (
            boundary["tester_invocations"])
        assert exact["tester_invocations"] == exact["grid_cells"]
        assert shmoo["invocation_reduction"] == round(
            exact["tester_invocations"] / boundary["tester_invocations"], 2)
        assert frontier_doc["invocation_reduction_shmoo"] == (
            shmoo["invocation_reduction"])

    def test_round_trips_through_json(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        assert validate_frontier_bench(doc) == []


class TestValidateFrontierBench:
    def test_rejects_non_object(self):
        assert validate_frontier_bench(None) == [
            "document is not a JSON object"]

    def test_reports_each_defect(self):
        problems = validate_frontier_bench({"schema": "wrong"})
        assert any("schema" in p for p in problems)
        assert any("campaign" in p for p in problems)
        assert any("shmoo" in p for p in problems)

    def test_enforces_reduction_floors(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["invocation_reduction_campaign"] = 4.9
        doc["invocation_reduction_shmoo"] = 2.9
        problems = validate_frontier_bench(doc)
        assert any("5.0x floor" in p for p in problems)
        assert any("3.0x floor" in p for p in problems)

    def test_enforces_batch_wallclock_floor(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["wallclock_speedup_batch"] = MIN_BATCH_WALLCLOCK - 0.1
        problems = validate_frontier_bench(doc)
        assert any("wallclock_speedup_batch" in p for p in problems)

    def test_flags_failed_equivalence_check(self, frontier_doc):
        doc = json.loads(json.dumps(frontier_doc))
        doc["campaign"]["records_match"] = False
        doc["shmoo"]["grids_match"] = False
        problems = validate_frontier_bench(doc)
        assert any("records_match" in p for p in problems)
        assert any("grids_match" in p for p in problems)

    def test_committed_artifact_is_valid(self):
        path = Path(__file__).resolve().parents[2] / "BENCH_frontier.json"
        doc = json.loads(path.read_text())
        assert validate_frontier_bench(doc) == []
        assert doc["invocation_reduction_campaign"] >= 5.0
        assert doc["invocation_reduction_shmoo"] >= 3.0
        # The committed artefact is generated at the default (not
        # quick) configuration, where the ISSUE's 10x target holds.
        assert doc["wallclock_speedup_batch"] >= 10.0
        assert doc["campaign"]["records_match"] is True
