"""Tests for the estimator-service benchmark validator and its artefact.

The benchmark itself times a live listener, so these tests only drive
:func:`validate_service_bench` over the committed ``BENCH_service.json``
and edited copies of it.
"""

import json
from pathlib import Path

import pytest

from repro.perf.service_bench import (
    MIN_COLD_QPS,
    MIN_WARM_QPS,
    validate_service_bench,
)


@pytest.fixture
def committed_doc():
    path = Path(__file__).resolve().parents[2] / "BENCH_service.json"
    return json.loads(path.read_text())


class TestValidateServiceBench:
    def test_committed_artifact_is_valid(self, committed_doc):
        assert validate_service_bench(committed_doc) == []

    def test_enforces_cold_floor(self, committed_doc):
        """A cold request that integrates again runs at ~100/sec."""
        committed_doc["cold"]["qps"] = MIN_COLD_QPS / 3
        assert validate_service_bench(committed_doc) == [
            f"cold.qps = {MIN_COLD_QPS / 3} is below the "
            f"{MIN_COLD_QPS} cold floor"]

    def test_enforces_warm_floor(self, committed_doc):
        committed_doc["qps"] = MIN_WARM_QPS / 2
        problems = validate_service_bench(committed_doc)
        assert problems == [
            f"qps = {MIN_WARM_QPS / 2} is below the "
            f"{MIN_WARM_QPS} warm floor"]

    def test_pins_hit_rate_and_identity(self, committed_doc):
        committed_doc["warm_hit_rate"] = 0.99
        committed_doc["byte_identical"] = False
        assert validate_service_bench(committed_doc) == [
            "warm_hit_rate is not exactly 1.0",
            "byte_identical is not true"]
