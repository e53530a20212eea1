"""The layer map: which public calls are wrapped, and what they report.

:func:`install` wraps the public entry points of each layer --
``ifa``, ``runner``/``perf.batch``, ``core``, ``service``,
``experiment`` and ``tester`` -- with :class:`~repobench.spans.Tracer`
spans and counters.  :func:`layer_metrics` folds a trace document into
the per-layer metrics named in :data:`PER_LAYER`.

Units: every ``*_s`` metric is *self* seconds per op of the traced
window (op = one flow, one served request, one lot shard); ``.calls``
and work counts are per op too; ratios are plain ratios; failure counts
(``runner.quarantined_sites``, ``experiment.poisoned_shards``) and
``service.cache.invalidated`` are totals over the window.
"""

from __future__ import annotations

from typing import Any

from repobench.spans import Tracer, call_counts, self_times

#: Self-time metrics: metric -> the span names it adds up.
SELF_TIME = {
    "ifa.layout_s": ("ifa.layout",),
    "ifa.adjacent_pairs_s": ("ifa.adjacent_pairs",),
    "ifa.site_classes_s": ("ifa.site_classes",),
    "ifa.sample_s": ("ifa.sample",),
    "ifa.sample_batch_s": ("ifa.sample_batch",),
    "runner.campaign_s": ("runner.campaign",),
    "perf.batch.evaluate_batch_s": ("perf.batch.evaluate_batch",),
    "core.database_build_s": ("core.database_build",),
    "core.estimate_s": ("core.estimate",),
    "core.integrate_s": ("core.integrate",),
    "core.snapshot_load_s": ("core.snapshot_load",),
    "service.parse_s": ("service.parse",),
    "service.render_s": ("service.render",),
    "service.dispatch_s": ("service.dispatch",),
    "service.reload_s": ("service.reload",),
    "experiment.generate_s": ("experiment.shard",),
    "experiment.classify_s": ("experiment.classify",),
    "experiment.merge_s": ("experiment.merge",),
    "experiment.diagnose_s": ("experiment.diagnose",),
    "tester.quick_s": ("tester.quick",),
    "tester.full_s": ("tester.full",),
}

#: Call-count metrics (per op): metric -> span name.
CALLS = {
    "core.estimate.calls": "core.estimate",
    "experiment.diagnose.calls": "experiment.diagnose",
    "tester.quick.calls": "tester.quick",
    "tester.full.calls": "tester.full",
}

#: Counter metrics reported per op.
PER_OP_COUNTERS = (
    "ifa.sample_batch.defects",
    "perf.batch.model_invocations",
    "perf.batch.crosscheck_invocations",
    "experiment.defective_chips",
    "service.cache.lookups",
)

#: Every per-layer metric, in report order.
PER_LAYER = (
    *SELF_TIME, *CALLS, *PER_OP_COUNTERS,
    "ifa.adjacent_pairs.found",
    "perf.batch.batch_site_ratio",
    "runner.quarantined_sites",
    "experiment.interesting_ratio",
    "experiment.poisoned_shards",
    "service.cache.hit_ratio",
    "service.cache.invalidated",
    "service.transport_wait_ms",
    "loadgen.lag_p99_ms",
    "loadgen.backlog_max",
    "trace.overhead_frac",
)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; undo with ``restore``."""
    from repro.core.database import CoverageDatabase
    from repro.core.estimator import FaultCoverageEstimator
    from repro.defects.behavior import DefectBehaviorModel
    from repro.experiment.classify import StressClassifier
    from repro.experiment.diagnosis import LotDiagnostician
    from repro.experiment.streaming.accumulator import ExperimentAccumulator
    from repro.experiment.streaming.engine import ShardEvaluator
    from repro.ifa import extraction
    from repro.ifa.extraction import IfaExtractor
    from repro.ifa.layout import SramLayout
    from repro.runner.campaign import CampaignRunner
    from repro.service import app
    from repro.service.cache import ResponseCache
    from repro.service.state import DatabaseSnapshot, ServiceState
    from repro.tester.ate import VirtualTester

    count = tracer.count
    wrap = tracer.wrap

    # ifa
    wrap(SramLayout, "__init__", "ifa.layout")

    def pairs_found(result: Any, *_: Any, **__: Any) -> None:
        count("ifa.adjacent_pairs.found", len(result))

    wrap(extraction, "find_adjacent_pairs", "ifa.adjacent_pairs",
         after=pairs_found)
    for attr in ("bridge_site_classes", "open_site_classes"):
        wrap(IfaExtractor, attr, "ifa.site_classes")
    for attr in ("sample_bridges", "sample_opens"):
        wrap(IfaExtractor, attr, "ifa.sample")

    def batch_defects(result: Any, *_: Any, **__: Any) -> None:
        count("ifa.sample_batch.defects", len(result))

    wrap(IfaExtractor, "sample_batch", "ifa.sample_batch",
         after=batch_defects)

    # runner / perf.batch
    def campaign_done(result: Any, *_: Any, **__: Any) -> None:
        count("runner.quarantined_sites", len(result.quarantine))
        batch = result.batch_stats or {}
        for key in ("model_invocations", "crosscheck_invocations",
                    "batch_sites", "sites"):
            count(f"perf.batch.{key}", batch.get(key, 0))

    wrap(CampaignRunner, "run", "runner.campaign", after=campaign_done)
    wrap(DefectBehaviorModel, "evaluate_batch", "perf.batch.evaluate_batch")

    # core
    wrap(CoverageDatabase, "__init__", "core.database_build")
    wrap(FaultCoverageEstimator, "estimate", "core.estimate")
    for attr in ("weighted_coverage", "envelope_coverage"):
        wrap(CoverageDatabase, attr, "core.integrate")
    wrap(DatabaseSnapshot, "load", "core.snapshot_load")

    # service
    wrap(app, "parse_request", "service.parse")
    for attr in ("report_document", "batch_response_document", "_render"):
        wrap(app, attr, "service.render")
    wrap(app.EstimatorService, "dispatch", "service.dispatch",
         starts_op=True)
    puts = [0]

    def reloaded(result: Any, *_: Any, **__: Any) -> None:
        if result.outcome == "reloaded":
            count("service.cache.invalidated", puts[0])
            puts[0] = 0

    wrap(ServiceState, "reload", "service.reload", after=reloaded)

    def looked_up(result: Any, *_: Any, **__: Any) -> None:
        count("service.cache.lookups")
        count("service.cache.hits", result is not None)

    def stored(*_: Any, **__: Any) -> None:
        puts[0] += 1

    wrap(ResponseCache, "get", "service.cache", after=looked_up)
    wrap(ResponseCache, "put", "service.cache", after=stored)

    # experiment
    wrap(ShardEvaluator, "evaluate", "experiment.shard", starts_op=True)

    def classified(record: Any, *_: Any, **__: Any) -> None:
        count("experiment.defective_chips")
        count("experiment.interesting",
              record is not None and record.interesting)

    wrap(StressClassifier, "classify_chip", "experiment.classify",
         after=classified)
    for attr in ("observe", "merge"):
        wrap(ExperimentAccumulator, attr, "experiment.merge")
    wrap(LotDiagnostician, "diagnose_device", "experiment.diagnose")

    # tester
    def test_kind(*args: Any, **kwargs: Any) -> str:
        quick = kwargs.get("quick", args[5] if len(args) > 5 else True)
        return "tester.quick" if quick else "tester.full"

    wrap(VirtualTester, "test_device", "tester", span_name=test_kind)


def layer_metrics(doc: dict[str, Any], ops: int) -> dict[str, float]:
    """Per-layer metrics of a trace document covering ``ops`` ops."""
    ops = max(ops, 1)
    own = self_times(doc)
    calls = call_counts(doc)
    counters = doc["counters"]
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own.get(n, 0.0) for n in names) / ops
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0) / ops
    for name in PER_OP_COUNTERS:
        out[name] = counters.get(name, 0) / ops
    pair_calls = calls.get("ifa.adjacent_pairs", 0)
    out["ifa.adjacent_pairs.found"] = (
        counters.get("ifa.adjacent_pairs.found", 0) / pair_calls
        if pair_calls else 0.0)
    sites = counters.get("perf.batch.sites", 0)
    out["perf.batch.batch_site_ratio"] = (
        counters.get("perf.batch.batch_sites", 0) / sites if sites else 0.0)
    out["runner.quarantined_sites"] = counters.get(
        "runner.quarantined_sites", 0)
    defective = counters.get("experiment.defective_chips", 0)
    out["experiment.interesting_ratio"] = (
        counters.get("experiment.interesting", 0) / defective
        if defective else 0.0)
    lookups = counters.get("service.cache.lookups", 0)
    out["service.cache.hit_ratio"] = (
        counters.get("service.cache.hits", 0) / lookups if lookups else 0.0)
    out["service.cache.invalidated"] = counters.get(
        "service.cache.invalidated", 0)
    return out
