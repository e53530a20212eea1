"""repro.perf -- the campaign execution-performance layer.

Two independent accelerators for coverage campaigns, both preserving
byte-identical results:

* :mod:`repro.perf.executor` -- a process-pool work-unit executor
  fanning the sweep across cores (out-of-order execution, in-order
  effects), supervised by :mod:`repro.perf.supervisor` so worker
  death, hangs and poison units heal instead of aborting the run;
* :mod:`repro.perf.cache` -- a content-addressed evaluation cache
  (keyed by :mod:`repro.perf.fingerprint`) so repeated sweeps skip
  already-simulated points, mirroring the paper's database of
  pre-calculated simulation results.

A third accelerator changes the *amount* of work instead of its
schedule: :mod:`repro.perf.batch` answers each (kind, condition)
group's full site x R grid in one vectorised ``evaluate_batch`` call
whose closed forms replicate the scalar float arithmetic
operation-for-operation, guarded by cross-check sampling, per-site
demotion and whole-group scalar fallback so the records stay
byte-identical (``CampaignRunner(strategy="batch")``; see
``docs/batch_kernel.md``).

All plug into :class:`repro.runner.campaign.CampaignRunner` via its
``workers=``, ``cache=`` and ``strategy=`` arguments; the benchmark
harnesses live in :mod:`repro.perf.bench` and
:mod:`repro.perf.frontier_bench`.  See ``docs/performance.md``.
"""

from repro.perf.batch import BatchEvaluator, BatchPolicy, BatchStats
from repro.perf.cache import (
    EvaluationCache,
    frontier_cache_key,
    unit_cache_key,
)
from repro.perf.counting import CountingBehaviorModel, CountingTester
from repro.perf.executor import (
    ParallelUnitExecutor,
    WorkerInitError,
    chunk_units,
)
from repro.perf.supervisor import SupervisedUnitExecutor, SupervisorStats
from repro.perf.fingerprint import (
    FingerprintError,
    behavior_fingerprint,
    fingerprint_digest,
    fingerprint_document,
    population_fingerprint,
)

__all__ = [
    "BatchEvaluator",
    "BatchPolicy",
    "BatchStats",
    "EvaluationCache",
    "frontier_cache_key",
    "unit_cache_key",
    "CountingBehaviorModel",
    "CountingTester",
    "ParallelUnitExecutor",
    "SupervisedUnitExecutor",
    "SupervisorStats",
    "WorkerInitError",
    "chunk_units",
    "FingerprintError",
    "behavior_fingerprint",
    "fingerprint_digest",
    "fingerprint_document",
    "population_fingerprint",
]
