"""Vectorised batch evaluation: one numpy call per sweep group.

The campaign sweep asks the behaviour model the same structural
question once per (site, R, condition) cell.  Per (kind, condition)
group the model's optional :meth:`~repro.defects.behavior.
DefectBehaviorModel.evaluate_batch` hook answers the full site x R grid
in **one** vectorised call; per-resistance detection counts are then
precomputed column sums, so evaluating a work unit costs O(1) Python
work instead of O(sites).  This is the one fast campaign strategy
beside the exact oracle (``CampaignRunner(strategy="batch")``).

**Exactness is guarded, not assumed:**

1. the hook's closed forms replicate the scalar float arithmetic
   operation-for-operation (same operand grouping, same comparisons,
   transcendentals through the identical :mod:`math` calls), so its
   answers are bit-identical by construction;
2. a seeded cross-check sample of (site, R) cells is re-evaluated
   through ``fails_condition``; any site whose batch row disagrees is
   demoted to per-unit exact evaluation (ledger reason
   ``lying-model``);
3. a model without the hook -- or whose hook raises or returns the
   wrong shape -- silently falls back to the scalar path for the whole
   group, reproducing the exact path's records, retries and
   quarantine semantics byte-for-byte.

Exact-path equivalence: tests/perf/test_batch.py

Derived group tables are content-addressed into the evaluation cache
(:func:`repro.perf.cache.frontier_cache_key`, payload schema
:data:`TABLE_SCHEMA`).  Both names predate this module and are kept
verbatim: renaming either would orphan every existing cache file.

Chaos note: :class:`~repro.runner.chaos.ChaosBehaviorModel` explicitly
declines the hook (``evaluate_batch = None``), so chaos campaigns take
the all-scalar fallback and probe the injector site-for-site exactly
like ``strategy="exact"`` -- same fault pattern, same retry/quarantine
ledger, same records (asserted in the equivalence tests).
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.defects.models import Defect, DefectKind
from repro.ifa.flow import CoverageRecord
from repro.runner.evaluate import UnitOutcome
from repro.runner.retry import (
    DEFAULT_UNIT_POLICY,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
    run_with_retry,
)
from repro.runner.units import WorkUnit

__all__ = [
    "TABLE_SCHEMA",
    "BatchEvaluator",
    "BatchPolicy",
    "BatchStats",
]

#: Schema tag of cached group-table payloads.
TABLE_SCHEMA = "repro.frontier-table/1"


@dataclass(frozen=True)
class BatchPolicy:
    """Cross-check knobs of the batch fast path.

    Attributes:
        crosscheck_fraction: Fraction of each group's batch-answered
            (site, R) cells re-evaluated through ``fails_condition`` as
            a consistency guard; a disagreeing site is demoted to exact
            evaluation.  One ``evaluate_batch`` call answers every row
            from a single shared codepath, so a lying implementation is
            wrong in a correlated, class-wide way that a sparse sample
            still catches (the scalar-oracle tests guard the kernel
            itself).  0 trusts the hook outright; raise it (up to 1.0)
            when evaluating an untrusted third-party hook.  Cached
            tables are always trusted: their key proves they were
            derived -- and cross-checked -- under identical inputs.
        crosscheck_seed: Seed of the deterministic cell sample.
    """

    crosscheck_fraction: float = 0.01
    crosscheck_seed: int = 20050806

    def __post_init__(self) -> None:
        if not 0.0 <= self.crosscheck_fraction <= 1.0:
            raise ValueError("crosscheck_fraction must be in [0, 1]")


@dataclass
class BatchStats:
    """Counters describing one batch evaluator's work.

    Attributes:
        groups: (kind, condition) groups whose table was derived.
        cached_groups: Groups served from the evaluation cache.
        sites: Site decisions made across all derived groups.
        batch_sites: Sites answered by the model's ``evaluate_batch``
            hook (zero scalar model invocations).
        fallback_sites: Sites routed to per-unit scalar evaluation
            because the hook was absent, ``None``, raised or returned
            a wrong-shape result.  Whole-group events: every site of
            the group falls back together.
        demoted_sites: Batch-answered sites demoted to scalar
            evaluation by a failed cross-check.
        model_invocations: Total ``fails_condition`` calls issued by
            this evaluator (cross-check + scalar fallback).
        crosscheck_invocations: Subset of ``model_invocations`` spent
            on the consistency guard.
        crosscheck_mismatches: Cross-checked cells that disagreed with
            the batch row (each demotes its site).
        demotions: Forensic ledger of every fast-path rejection: one
            ``{"kind", "condition", "site_index", "reason", "stage",
            "error"}`` entry per event.  ``reason`` is ``lying-model``
            (cross-check disagreed), ``probe-error`` (the hook or a
            check raised) or ``bad-shape`` (the hook returned the
            wrong array shape); group-level entries use
            ``site_index=-1``.  Hook-level entries do not bump
            ``demoted_sites`` -- a group the hook could not answer was
            never on the fast path.
        group_log: One ``{"kind", "condition", "sites", "cached"}``
            entry per group table built or served from cache, in build
            order.
    """

    groups: int = 0
    cached_groups: int = 0
    sites: int = 0
    batch_sites: int = 0
    fallback_sites: int = 0
    demoted_sites: int = 0
    model_invocations: int = 0
    crosscheck_invocations: int = 0
    crosscheck_mismatches: int = 0
    demotions: list[dict[str, Any]] = field(default_factory=list)
    group_log: list[dict[str, Any]] = field(default_factory=list)

    def record_demotion(self, kind: DefectKind, condition: Any,
                        site_index: int, reason: str, stage: str,
                        error: str | None = None) -> None:
        """Append one demotion-ledger entry (never drops the cause)."""
        self.demotions.append({
            "kind": kind.value,
            "condition": condition.name,
            "site_index": site_index,
            "reason": reason,
            "stage": stage,
            "error": error,
        })

    def as_dict(self) -> dict[str, Any]:
        """Counters plus ledgers as a plain JSON-serialisable dict."""
        return {
            "groups": self.groups,
            "cached_groups": self.cached_groups,
            "sites": self.sites,
            "batch_sites": self.batch_sites,
            "fallback_sites": self.fallback_sites,
            "demoted_sites": self.demoted_sites,
            "model_invocations": self.model_invocations,
            "crosscheck_invocations": self.crosscheck_invocations,
            "crosscheck_mismatches": self.crosscheck_mismatches,
            "demotions": [dict(d) for d in self.demotions],
            "group_log": [dict(g) for g in self.group_log],
        }


@dataclass
class _BatchTable:
    """Derived detection rows plus precomputed per-column sums.

    Attributes:
        grid: Ascending unique resistance grid of the group.
        index_of: Resistance -> grid index (plan resistances are reused
            verbatim, so float equality is exact).
        decisions: Per site: a detection row aligned with ``grid``
            (a plain list from the cache or a numpy row fresh from the
            hook -- indexing behaves identically), or ``None`` when
            the site must be evaluated exactly per unit.
        detected_counts: Per grid index: how many decided sites detect
            at that resistance -- the O(1) core of unit evaluation.
        fallback: Site indices whose row is ``None``, in site order.
    """

    grid: list[float]
    index_of: dict[float, int]
    decisions: list[Any]
    detected_counts: list[int]
    fallback: list[int]


class BatchEvaluator:
    """Drop-in :class:`~repro.runner.evaluate.UnitEvaluator` answering
    whole sweep groups through the model's batch hook.

    Presents the same ``evaluate(unit) -> UnitOutcome`` interface and
    emits identical :class:`~repro.ifa.flow.CoverageRecord` payloads;
    the difference is that a unit whose group table is derived costs
    O(1) Python work plus O(fallback sites) scalar calls.  Group
    tables are built lazily on the first unit of each (kind,
    condition) group; retry counters spent on a group's cross-check
    are folded into that triggering unit's outcome so campaign-wide
    tallies stay complete.

    Args:
        campaign: The :class:`~repro.ifa.flow.IfaCampaign`-shaped
            object supplying site populations and the behaviour model.
        plan: The **full** unit plan (not only pending units) -- the
            group resistance grids must be derived from the complete
            sweep so cached tables are content-addressed identically
            regardless of checkpoint/cache state.
        retry: Per-site retry policy (shared with the exact path).
        policy: Cross-check knobs (:class:`BatchPolicy`).
        cache: Optional :class:`~repro.perf.cache.EvaluationCache`;
            derived group tables are stored/served under
            :func:`~repro.perf.cache.frontier_cache_key`.
        unit_deadline: Optional wall-clock budget (seconds) for one
            unit's scalar-fallback loop.  Group-table derivation is
            excluded: it amortises over the whole group, so charging
            it to the triggering unit would trip the budget
            spuriously.
        sleep: Injectable sleep for the retry machinery.
        clock: Injectable monotonic clock for deadlines.
    """

    def __init__(self, campaign: Any, plan: Sequence[WorkUnit],
                 retry: RetryPolicy | None = None,
                 policy: BatchPolicy | None = None,
                 cache: Any = None,
                 unit_deadline: float | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if unit_deadline is not None and unit_deadline <= 0:
            raise ValueError("unit_deadline must be positive")
        self.campaign = campaign
        self.retry = retry if retry is not None else DEFAULT_UNIT_POLICY
        self.policy = policy if policy is not None else BatchPolicy()
        self.cache = cache
        self.unit_deadline = unit_deadline
        self.sleep = sleep
        self.clock = clock
        self.stats = BatchStats()
        self._populations: dict[DefectKind, list[Defect]] = {}
        self._grids: dict[tuple[DefectKind, Any], list[float]] = {}
        for unit in plan:
            key = (unit.kind, unit.condition)
            grid = self._grids.setdefault(key, [])
            if unit.resistance not in grid:
                grid.append(unit.resistance)
        for grid in self._grids.values():
            grid.sort()
        self._groups: dict[tuple[DefectKind, Any], _BatchTable] = {}
        self._pending_group_stats = RetryStats()

    # ------------------------------------------------------------------
    # Population / model access
    # ------------------------------------------------------------------
    def population(self, kind: DefectKind) -> list[Defect]:
        """The campaign's (cached) site population for one defect kind."""
        if kind not in self._populations:
            self._populations[kind] = (
                self.campaign.bridge_population()
                if kind is DefectKind.BRIDGE
                else self.campaign.open_population())
        return self._populations[kind]

    def _call_model(self, defect: Defect, condition: Any, key: str,
                    stats: RetryStats) -> bool:
        """One retry-wrapped, counted ``fails_condition`` call."""
        behavior = self.campaign.behavior
        self.stats.model_invocations += 1
        return run_with_retry(
            lambda: behavior.fails_condition(defect, condition),
            self.retry, key, sleep=self.sleep, clock=self.clock,
            stats=stats)

    # ------------------------------------------------------------------
    # Group tables
    # ------------------------------------------------------------------
    def _table_cache_key(self, kind: DefectKind, condition: Any,
                         grid: Sequence[float]) -> str | None:
        """Content-addressed cache key of one group table (or None)."""
        if self.cache is None:
            return None
        from repro.perf.cache import frontier_cache_key
        from repro.perf.fingerprint import (
            FingerprintError,
            behavior_fingerprint,
            population_fingerprint,
        )

        try:
            return frontier_cache_key(
                behavior_fingerprint(self.campaign.behavior),
                population_fingerprint(self.campaign, kind),
                grid, condition)
        except FingerprintError:
            return None

    def _cached_table(self, key: str | None, n_sites: int,
                      n_grid: int) -> list[list[bool] | None] | None:
        """Validated decision rows from the cache, or ``None``.

        Any malformed payload is a cache miss, never a guess: a row
        must be ``None`` or a list of exactly ``n_grid`` JSON booleans
        (the string ``"false"`` is truthy and must not read as
        detected).
        """
        if key is None:
            return None
        payload = self.cache.get(key)
        if payload is None or payload.get("schema") != TABLE_SCHEMA:
            return None
        rows = payload.get("decisions")
        if not isinstance(rows, list) or len(rows) != n_sites:
            return None
        for row in rows:
            if row is not None and not (
                    isinstance(row, list) and len(row) == n_grid
                    and all(type(v) is bool for v in row)):
                return None
        return list(rows)

    def _assemble(self, grid: list[float], index_of: dict[float, int],
                  decisions: list[Any]) -> _BatchTable:
        """Precompute the per-column detection sums and fallback list."""
        fallback = [i for i, row in enumerate(decisions) if row is None]
        decided = [row for row in decisions if row is not None]
        if decided:
            detected_counts = [int(c) for c in np.asarray(
                decided, dtype=bool).sum(axis=0)]
        else:
            detected_counts = [0] * len(grid)
        return _BatchTable(grid, index_of, decisions, detected_counts,
                           fallback)

    def _group(self, kind: DefectKind, condition: Any) -> _BatchTable:
        """The (lazily built) group table for one (kind, condition)."""
        gkey = (kind, condition)
        table = self._groups.get(gkey)
        if table is not None:
            return table
        grid = self._grids.get(gkey, [])
        population = self.population(kind)
        index_of = {r: j for j, r in enumerate(grid)}
        cache_key = self._table_cache_key(kind, condition, grid)
        cached = self._cached_table(cache_key, len(population), len(grid))
        if cached is not None:
            self.stats.cached_groups += 1
            self.stats.group_log.append({
                "kind": kind.value,
                "condition": condition.name,
                "sites": len(population),
                "cached": True,
            })
            table = self._assemble(grid, index_of, cached)
            self._groups[gkey] = table
            return table
        decisions = self._derive_group(kind, condition, grid, population)
        self.stats.groups += 1
        self.stats.sites += len(population)
        self.stats.group_log.append({
            "kind": kind.value,
            "condition": condition.name,
            "sites": len(population),
            "cached": False,
        })
        if cache_key is not None:
            # Live rows may be numpy views; the cached artefact is a
            # plain-list JSON payload.
            self.cache.put(cache_key, {
                "schema": TABLE_SCHEMA,
                "decisions": [
                    None if row is None
                    else [bool(v) for v in row]
                    for row in decisions],
            })
        table = self._assemble(grid, index_of, decisions)
        self._groups[gkey] = table
        return table

    def _derive_group(self, kind: DefectKind, condition: Any,
                      grid: list[float], population: Sequence[Defect],
                      ) -> list[Any]:
        """One batch-hook call for the group, cross-checked.

        The hook is a capability probe, never an obligation: absent or
        ``None`` routes the whole group to the scalar path silently; a
        raising hook or a wrong-shape result does the same but leaves
        a demotion-ledger entry naming the cause.
        """
        behavior = self.campaign.behavior
        n = len(population)
        hook = getattr(behavior, "evaluate_batch", None)
        if hook is None:
            self.stats.fallback_sites += n
            return [None] * n
        try:
            matrix = np.asarray(hook(population, list(grid), condition),
                                dtype=bool)
        except Exception as exc:
            self.stats.record_demotion(
                kind, condition, -1, "probe-error", "batch",
                error=f"evaluate_batch: {type(exc).__name__}: {exc}")
            self.stats.fallback_sites += n
            return [None] * n
        if matrix.shape != (n, len(grid)):
            self.stats.record_demotion(
                kind, condition, -1, "bad-shape", "batch",
                error=f"evaluate_batch returned shape {matrix.shape}, "
                      f"expected {(n, len(grid))}")
            self.stats.fallback_sites += n
            return [None] * n
        # Rows stay numpy views here; they convert to plain lists only
        # at cache-put time.  Row indexing and truthiness behave
        # identically, and skipping the conversion keeps the per-sweep
        # Python work O(demoted + fallback), not O(cells).
        decisions: list[Any] = list(matrix)
        self.stats.batch_sites += n
        self._crosscheck(kind, condition, grid, population, decisions)
        return decisions

    def _crosscheck(self, kind: DefectKind, condition: Any,
                    grid: Sequence[float], population: Sequence[Defect],
                    decisions: list[Any]) -> None:
        """Re-evaluate a seeded cell sample exactly; demote liars.

        Mutates ``decisions`` in place: any site whose batch row
        disagrees with an exact evaluation -- or whose check exhausts
        its retries -- is set to ``None`` (exact per-unit fallback).
        The sample is a pure function of the policy and the group
        (kind, condition, grid size), so identical policies check
        identical cells.
        """
        fraction = self.policy.crosscheck_fraction
        if fraction <= 0.0 or not grid:
            return
        decided = [i for i, row in enumerate(decisions) if row is not None]
        total = len(decided) * len(grid)
        if total == 0:
            return
        samples = min(total, max(1, math.ceil(fraction * total)))
        rng = random.Random(f"{self.policy.crosscheck_seed}:"
                            f"{kind.value}:{condition.name}:{len(grid)}")
        for cell in rng.sample(range(total), samples):
            ordinal, j = divmod(cell, len(grid))
            site_index = decided[ordinal]
            row = decisions[site_index]
            if row is None:
                continue  # already demoted by an earlier sample
            defect = population[site_index].with_resistance(grid[j])
            self.stats.crosscheck_invocations += 1
            try:
                exact = self._call_model(
                    defect, condition,
                    f"batch-check:{kind.value}:{condition.name}"
                    f"#site{site_index}@{grid[j]!r}",
                    self._pending_group_stats)
            except RetryExhaustedError as exc:
                decisions[site_index] = None
                self.stats.demoted_sites += 1
                self.stats.record_demotion(
                    kind, condition, site_index, "probe-error",
                    "crosscheck", error=f"{type(exc).__name__}: {exc}")
                continue
            if exact != row[j]:
                decisions[site_index] = None
                self.stats.crosscheck_mismatches += 1
                self.stats.demoted_sites += 1
                self.stats.record_demotion(
                    kind, condition, site_index, "lying-model",
                    "crosscheck",
                    error=f"batch row says {row[j]}, exact says "
                          f"{exact} at R={grid[j]!r}")

    # ------------------------------------------------------------------
    # Unit evaluation
    # ------------------------------------------------------------------
    def evaluate(self, unit: WorkUnit) -> UnitOutcome:
        """Evaluate one unit from its group table (exact where demoted).

        Decided sites are answered by the precomputed per-column sum;
        fallback sites run the scalar path with the exact evaluator's
        site keys, injector bookkeeping and quarantine semantics, so a
        whole-group fallback reproduces ``strategy="exact"``
        byte-for-byte -- retry jitter, chaos probes, ledger and all.

        Args:
            unit: The (kind, R, condition) cell to evaluate.

        Returns:
            A :class:`~repro.runner.evaluate.UnitOutcome` whose record
            is byte-identical to the exact path's.

        Raises:
            UnitDeadlineExceeded: the scalar-fallback loop overran
                ``unit_deadline``.
        """
        from repro.runner.evaluate import UnitDeadlineExceeded

        table = self._group(unit.kind, unit.condition)
        j = table.index_of.get(unit.resistance)
        population = self.population(unit.kind)
        cond = unit.condition
        behavior = self.campaign.behavior
        # Chaos bookkeeping, identical to UnitEvaluator's: scope the
        # injector to the unit and snapshot its counters so outcomes
        # carry per-unit injection deltas.
        injector = getattr(behavior, "injector", None)
        if injector is not None and hasattr(injector, "begin_unit"):
            injector.begin_unit(unit.unit_id)
        snapshot = (injector.counter_snapshot()
                    if injector is not None
                    and hasattr(injector, "counter_snapshot") else None)
        stats = RetryStats()
        # Attribute retry counters spent cross-checking the group to
        # the unit that triggered the build, so tallies stay complete.
        stats.merge(self._pending_group_stats)
        self._pending_group_stats = RetryStats()
        started = self.clock()
        if j is not None:
            detected = table.detected_counts[j]
            fallback: Sequence[int] = table.fallback
        else:
            detected = 0
            fallback = range(len(population))
        entries: list[dict[str, Any]] = []
        for position, site_index in enumerate(fallback):
            defect = population[site_index].with_resistance(
                unit.resistance)
            site_key = f"{unit.unit_id}#site{site_index}"
            try:
                if self._call_model(defect, cond, site_key, stats):
                    detected += 1
            except RetryExhaustedError as exc:
                entries.append({
                    "unit_id": unit.unit_id,
                    "site_index": site_index,
                    "defect": str(defect),
                    "attempts": exc.attempts,
                    "error": f"{type(exc.causes[-1]).__name__}: "
                             f"{exc.causes[-1]}",
                    "deadline_hit": exc.deadline_hit,
                })
            if (self.unit_deadline is not None
                    and self.clock() - started > self.unit_deadline):
                raise UnitDeadlineExceeded(
                    f"{unit} exceeded its {self.unit_deadline:g}s budget "
                    f"after {position + 1}/{len(fallback)} fallback "
                    "sites; completed units are checkpointed -- fix the "
                    "stall and resume")
        record = CoverageRecord(
            kind=unit.kind.value,
            resistance=unit.resistance,
            condition=cond.name,
            vdd=cond.vdd,
            period=cond.period,
            detected=detected,
            total=len(population),
            errors=len(entries),
        )
        injections = (injector.counters_since(snapshot)
                      if snapshot is not None else {})
        return UnitOutcome(index=unit.index, unit_id=unit.unit_id,
                           record=record, quarantine=entries, stats=stats,
                           injections=injections)
