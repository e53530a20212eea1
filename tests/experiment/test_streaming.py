"""Streaming sharded experiment: plan, accumulator, equivalence, chaos.

The load-bearing suite for :mod:`repro.experiment.streaming`: the shard
plan's determinism contract (results a pure function of ``(seed,
n_devices, block_devices)``), the accumulator's merge algebra, the
``scheme="legacy"`` byte-identity oracle against the materialise-
everything pipeline, checkpoint resume, and worker-kill chaos healing
without changing a single count.
"""

import json

import numpy as np
import pytest

from repro.circuit.technology import CMOS018
from repro.defects.behavior import DefectBehaviorModel, defect_kernel
from repro.defects.models import DefectKind
from repro.experiment import (
    ExperimentAccumulator,
    PopulationGenerator,
    PopulationSpec,
    ShardPlan,
    StreamingExperiment,
    StreamingRunner,
    StressClassifier,
    VeqtorChip,
)
from repro.experiment.classify import DeviceRecord
from repro.experiment.streaming.accumulator import PayloadError
from repro.perf.counting import CountingBehaviorModel
from repro.runner.atomic import canonical_json
from repro.runner.chaos import (
    WORKER_EXIT_SITE,
    ChaosBehaviorModel,
    FaultInjector,
)
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointCorruptError,
    CheckpointMismatchError,
)


def _payload(n_devices, *, seed=1105, scheme="spawn", shard_devices=None,
             block_devices=None, workers=1, **runner_kwargs):
    """One streaming run's canonical accumulator payload."""
    engine = StreamingExperiment(
        n_devices=n_devices, seed=seed, scheme=scheme,
        **({"shard_devices": shard_devices}
           if shard_devices is not None else {}),
        **({"block_devices": block_devices}
           if block_devices is not None else {}))
    runner = StreamingRunner(engine, workers=workers, **runner_kwargs)
    return runner.run().accumulator.as_payload()


class TestShardPlan:
    def test_legacy_scheme_is_one_full_shard(self):
        plan = ShardPlan(10_000, scheme="legacy")
        shards = plan.shards()
        assert len(shards) == 1
        assert (shards[0].start, shards[0].stop) == (0, 10_000)

    def test_spawn_shards_tile_the_device_space(self):
        plan = ShardPlan(10_000, shard_devices=4096, block_devices=1024)
        shards = plan.shards()
        assert [(s.start, s.stop) for s in shards] == [
            (0, 4096), (4096, 8192), (8192, 10_000)]
        assert [s.index for s in shards] == [0, 1, 2]
        assert sum(s.devices for s in shards) == 10_000

    def test_blocks_carry_global_indices(self):
        plan = ShardPlan(16_384, shard_devices=8192, block_devices=4096)
        second = plan.shards()[1]
        assert plan.blocks_of(second) == [
            (2, 8192, 12_288), (3, 12_288, 16_384)]

    def test_unit_ids_are_stable_and_sortable(self):
        plan = ShardPlan(16_384, shard_devices=8192, block_devices=4096)
        ids = [s.unit_id for s in plan.shards()]
        assert ids == ["shard:00000:0-8192", "shard:00001:8192-16384"]
        assert ids == sorted(ids)

    def test_rejects_misaligned_shards(self):
        with pytest.raises(ValueError, match="block"):
            ShardPlan(10_000, shard_devices=5000, block_devices=4096)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            ShardPlan(10_000, scheme="interleaved")

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(ValueError):
            ShardPlan(0)

    @pytest.mark.parametrize("field, value", [
        ("n_devices", float("nan")),    # once a silently empty lot
        ("n_devices", True),            # once a one-device lot
        ("n_devices", 5000.5),          # once a TypeError inside numpy
        ("shard_devices", 65536.0),     # once "shard:00001:65536-100000.0"
        ("block_devices", 4096.0),
        ("block_devices", False),
    ])
    def test_rejects_non_int_sizes(self, field, value):
        sizes = {"n_devices": 100_000, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            ShardPlan(**sizes)


def _record(chip_id, failed_standard=False, failed_stress=()):
    return DeviceRecord(chip=VeqtorChip(chip_id=chip_id),
                        failed_standard=failed_standard,
                        failed_stress=frozenset(failed_stress))


def _synthetic(devices, records, hints=()):
    acc = ExperimentAccumulator(devices=devices)
    for record in records:
        acc.observe(record)
    for hint_map in hints:
        acc.observe_hints(hint_map)
    return acc


class TestAccumulator:
    def test_observe_routes_standard_before_stress(self):
        acc = _synthetic(3, [
            _record(0, failed_standard=True, failed_stress=("VLV",)),
            _record(1, failed_stress=("VLV",)),
            _record(2, failed_stress=("VLV", "Vmax")),
        ])
        assert acc.defective == 3
        assert acc.standard_fails == 1
        assert acc.interesting == 2
        assert acc.class_counts[frozenset({"VLV"})] == 1

    def test_payload_round_trip_is_identity(self):
        acc = _synthetic(10, [
            _record(0, failed_stress=("VLV", "at-speed")),
            _record(1, failed_standard=True),
        ], hints=[{"VLV": "coupling"}])
        payload = acc.as_payload()
        rebuilt = ExperimentAccumulator.from_payload(payload)
        assert canonical_json(rebuilt.as_payload()) == (
            canonical_json(payload))
        assert json.loads(json.dumps(payload)) == payload

    def test_merge_equals_single_pass(self):
        records = [
            _record(i, failed_standard=(i % 5 == 0),
                    failed_stress=("VLV",) if i % 3 == 0 else ())
            for i in range(30)
        ]
        whole = _synthetic(30, records)
        left = _synthetic(10, records[:10])
        right = _synthetic(20, records[10:])
        assert canonical_json(left.merge(right).as_payload()) == (
            canonical_json(whole.as_payload()))

    def test_merge_is_commutative_and_associative(self):
        def fresh():
            a = _synthetic(4, [_record(0, failed_stress=("VLV",))],
                           hints=[{"VLV": "single-cell"}])
            b = _synthetic(6, [_record(1, failed_standard=True),
                               _record(2, failed_stress=("Vmax",))])
            c = _synthetic(2, [_record(3, failed_stress=("VLV",))])
            return a, b, c

        a, b, c = fresh()
        ab_c = a.merge(b).merge(c).as_payload()
        a, b, c = fresh()
        a_bc = a.merge(b.merge(c)).as_payload()
        a, b, c = fresh()
        cba = c.merge(b).merge(a).as_payload()
        assert canonical_json(ab_c) == canonical_json(a_bc)
        assert canonical_json(ab_c) == canonical_json(cba)

    @pytest.mark.parametrize("payload, match", [
        ({"devices": 4096}, "lacks 'defective'"),
        ([1, 2], "payload must be an object"),
        ({"devices": 4096, "defective": "x", "standard_fails": 0},
         "defective must be a non-negative int"),
        ({"devices": 4096, "defective": -5, "standard_fails": 0},
         "defective must be a non-negative int"),
        ({"devices": 4096, "defective": 1.9, "standard_fails": 0},
         "defective must be a non-negative int"),
        ({"devices": True, "defective": 0, "standard_fails": 0},
         "devices must be a non-negative int"),
        ({"devices": 4096, "defective": 4097, "standard_fails": 0},
         "exceeds devices"),
        ({"devices": 4096, "defective": 9, "standard_fails": 0,
          "classes": {"VLV": -1}}, "classes"),
        ({"devices": 4096, "defective": 9, "standard_fails": 0,
          "hints": {"VLV": [1]}}, "hints"),
    ])
    def test_from_payload_rejects_malformed_payloads(self, payload, match):
        with pytest.raises(PayloadError, match=match):
            ExperimentAccumulator.from_payload(payload)

    def test_escape_dpm_guards_empty_accumulator(self):
        assert ExperimentAccumulator().escape_dpm("VLV") == 0.0

    def test_escape_dpm_counts_region_membership(self):
        acc = _synthetic(1_000_000, [
            _record(0, failed_stress=("VLV",)),
            _record(1, failed_stress=("VLV", "Vmax")),
            _record(2, failed_stress=("at-speed",)),
        ])
        assert acc.escape_dpm("VLV") == 2.0
        assert acc.escape_dpm("Vmax") == 1.0


class TestLegacyEquivalence:
    """``scheme="legacy"`` streaming is byte-identical to the old path."""

    N = 2048
    SEED = 77

    def test_single_shard_matches_materialised_pipeline(self):
        spec = PopulationSpec(n_devices=self.N, seed=self.SEED)
        chips = PopulationGenerator(spec).generate()
        legacy = ExperimentAccumulator.from_experiment(
            StressClassifier().classify(chips))
        streamed = _payload(self.N, seed=self.SEED, scheme="legacy")
        assert canonical_json(streamed) == (
            canonical_json(legacy.as_payload()))


class TestInvariance:
    """Results are a pure function of (seed, n_devices, block_devices)."""

    N = 16_384

    @pytest.fixture(scope="class")
    def base_payload(self):
        return _payload(self.N, shard_devices=8192)

    def test_shard_layout_does_not_change_results(self, base_payload):
        resharded = _payload(self.N, shard_devices=4096)
        assert canonical_json(resharded) == canonical_json(base_payload)

    def test_worker_count_does_not_change_results(self, base_payload):
        pooled = _payload(self.N, shard_devices=4096, workers=4)
        assert canonical_json(pooled) == canonical_json(base_payload)

    def test_block_size_is_part_of_the_population_identity(
            self, base_payload):
        reblocked = _payload(self.N, shard_devices=8192,
                             block_devices=2048)
        assert canonical_json(reblocked) != canonical_json(base_payload)

    def test_journals_byte_identical_across_worker_counts(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        _payload(self.N, shard_devices=4096, journal=serial)
        _payload(self.N, shard_devices=4096, workers=2, journal=pooled)
        assert serial.read_bytes() == pooled.read_bytes()


class TestResume:
    N = 16_384

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ckpt_path = tmp_path / "exp.ckpt.json"
        uninterrupted = _payload(self.N, shard_devices=4096)
        full = _payload(self.N, shard_devices=4096,
                        checkpoint_path=ckpt_path, checkpoint_every=1)
        assert canonical_json(full) == canonical_json(uninterrupted)

        # Rewind the checkpoint to "killed after two shards": keep the
        # first two completed units, drop the rest.
        done = CampaignCheckpoint.load(ckpt_path)
        engine = StreamingExperiment(n_devices=self.N,
                                     shard_devices=4096)
        partial = CampaignCheckpoint(engine.meta())
        shards = engine.plan.shards()
        assert len(shards) == 4
        for shard in shards[:2]:
            partial.record_unit(shard.unit_id,
                                done.result_for(shard.unit_id))
        partial.save(ckpt_path)

        runner = StreamingRunner(
            StreamingExperiment(n_devices=self.N, shard_devices=4096),
            checkpoint_path=ckpt_path)
        result = runner.run()
        assert result.resumed_shards == 2
        assert result.executed_shards == 2
        assert canonical_json(result.accumulator.as_payload()) == (
            canonical_json(uninterrupted))

    @pytest.mark.parametrize("payload, match", [
        ({"devices": 4096}, "lacks 'defective'"),
        ([1, 2], "payload must be an object"),
        ({"devices": 4096, "defective": "x", "standard_fails": 0},
         "defective must be"),
        ({"devices": 4096, "defective": -5, "standard_fails": 0},
         "defective must be"),
        ({"devices": 4096, "defective": 1.9, "standard_fails": 0},
         "defective must be"),
        # Once merged silently: a 16,384-device lot reported 1,012,287.
        ({"devices": 999_999, "defective": 0, "standard_fails": 0},
         "covers 999999 devices, the shard has 4096"),
    ])
    def test_malformed_replayed_payload_is_refused(self, tmp_path, payload,
                                                   match):
        ckpt_path = tmp_path / "exp.ckpt.json"
        engine = StreamingExperiment(n_devices=self.N, shard_devices=4096)
        ckpt = CampaignCheckpoint(engine.meta())
        # Stored as-is: the file is validly checksummed, its payload
        # is not.
        ckpt.completed[engine.plan.shards()[0].unit_id] = payload
        ckpt.save(ckpt_path)
        runner = StreamingRunner(engine, checkpoint_path=ckpt_path)
        with pytest.raises(CheckpointCorruptError,
                           match="shard:00000:0-4096: .*" + match):
            runner.run()

    def test_mismatched_checkpoint_is_rejected(self, tmp_path):
        ckpt_path = tmp_path / "exp.ckpt.json"
        _payload(self.N, shard_devices=4096, checkpoint_path=ckpt_path)
        runner = StreamingRunner(
            StreamingExperiment(n_devices=self.N, shard_devices=4096,
                                seed=2),
            checkpoint_path=ckpt_path)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            runner.run()


class TestChaos:
    """Worker-kill chaos heals without changing a single count."""

    N = 8192

    def _chaotic_payload(self):
        engine = StreamingExperiment(n_devices=self.N,
                                     shard_devices=4096)
        victim = engine.plan.shards()[1].unit_id
        injector = FaultInjector(
            seed=0, worker_faults={WORKER_EXIT_SITE: {victim: 1}})
        chaotic = StreamingExperiment(
            n_devices=self.N, shard_devices=4096,
            behavior=ChaosBehaviorModel(
                StreamingExperiment(n_devices=self.N).behavior,
                injector))
        runner = StreamingRunner(chaotic, workers=2)
        return runner.run()

    def test_worker_exit_heals_with_identical_results(self):
        clean = _payload(self.N, shard_devices=4096)
        result = self._chaotic_payload()
        assert result.supervisor_stats["worker_losses"] >= 1
        assert result.supervisor_stats["redispatched_units"] >= 1
        assert result.quarantine == []
        assert result.accumulator.errors == 0
        assert canonical_json(result.accumulator.as_payload()) == (
            canonical_json(clean))


def _scalar_payload(engine):
    """The lot classified chip by chip through ``classify_chip`` --
    the oracle the kernel batches must match payload for payload."""
    total = ExperimentAccumulator()
    for shard in engine.plan.shards():
        acc = ExperimentAccumulator(devices=shard.devices)
        for chip in engine.iter_shard_chips(shard):
            record = engine.classifier.classify_chip(chip)
            if record is None:
                continue
            acc.observe(record)
            if engine.diagnose and record.interesting:
                device = engine.diagnostician.diagnose_device(record)
                acc.observe_hints(device.hints)
        total.merge(acc)
    return total.as_payload()


def _kernel_payload(engine, workers=1):
    return StreamingRunner(engine, workers=workers).run(
    ).accumulator.as_payload()


class DuckModel:
    """A third-party model: scalar physics, no per-defect hook."""

    def __init__(self):
        self.inner = DefectBehaviorModel(CMOS018)

    def manifestation(self, defect, condition):
        return self.inner.manifestation(defect, condition)

    def fails_condition(self, defect, condition):
        return self.inner.fails_condition(defect, condition)


class VlvBlindModel(DefectBehaviorModel):
    """Own scalar physics (bridges never show at VLV), stock hook."""

    def manifestation(self, defect, condition):
        if defect.kind is DefectKind.BRIDGE and condition.name == "VLV":
            return None
        return super().manifestation(defect, condition)


class RaisingHookModel(DefectBehaviorModel):
    def evaluate_defects(self, defects, condition):
        raise RuntimeError("vector unit on fire")


class BadShapeHookModel(DefectBehaviorModel):
    def evaluate_defects(self, defects, condition):
        return np.zeros(len(defects) + 1, dtype=bool)


class TestKernelPath:
    """Shards classified by the per-defect kernel equal the scalar
    ``classify_chip`` path, payload for payload."""

    N = 16_384

    @pytest.mark.parametrize("seed", [1, 7, 1105])
    @pytest.mark.parametrize("shard_devices, block_devices", [
        (4096, None), (16_384, None),
        (4096, 64),     # ~4 kernel batches per shard
    ])
    def test_matches_scalar_path(self, seed, shard_devices, block_devices):
        engine = StreamingExperiment(
            n_devices=self.N, seed=seed, shard_devices=shard_devices,
            **({"block_devices": block_devices}
               if block_devices is not None else {}))
        assert defect_kernel(engine.behavior) is not None
        kernel = _kernel_payload(engine)
        assert kernel["classes"] and kernel["standard_fails"]
        assert canonical_json(kernel) == canonical_json(
            _scalar_payload(engine))

    @pytest.mark.parametrize("seed", [3, 1105])
    def test_matches_scalar_path_with_diagnosis(self, seed):
        engine = StreamingExperiment(n_devices=8192, seed=seed,
                                     shard_devices=4096, diagnose=True)
        kernel = _kernel_payload(engine)
        assert kernel["hints"]
        assert canonical_json(kernel) == canonical_json(
            _scalar_payload(engine))

    def test_matches_scalar_path_across_workers(self):
        engine = StreamingExperiment(n_devices=self.N, seed=5,
                                     shard_devices=4096)
        assert canonical_json(_kernel_payload(engine, workers=2)) == (
            canonical_json(_scalar_payload(engine)))

    @pytest.mark.parametrize("seed", [77, 2])
    def test_matches_scalar_path_under_legacy_scheme(self, seed):
        # 256-chip batches: the legacy stream crosses batch boundaries.
        engine = StreamingExperiment(n_devices=2048, seed=seed,
                                     scheme="legacy", block_devices=256)
        assert canonical_json(_kernel_payload(engine)) == canonical_json(
            _scalar_payload(engine))

    @pytest.mark.parametrize("make", [
        lambda: ChaosBehaviorModel(DefectBehaviorModel(CMOS018),
                                   FaultInjector(seed=0)),
        DuckModel,
        lambda: VlvBlindModel(CMOS018),
    ], ids=["chaos", "duck", "subclass"])
    def test_models_without_a_trusted_hook_take_the_scalar_path(self,
                                                                make):
        engine = StreamingExperiment(n_devices=self.N, seed=9,
                                     shard_devices=4096, behavior=make())
        assert defect_kernel(engine.behavior) is None
        assert canonical_json(_kernel_payload(engine)) == canonical_json(
            _scalar_payload(engine))

    def test_overridden_physics_is_not_answered_by_the_stock_kernel(self):
        stock = _kernel_payload(StreamingExperiment(
            n_devices=self.N, seed=9, shard_devices=4096))
        blind = _kernel_payload(StreamingExperiment(
            n_devices=self.N, seed=9, shard_devices=4096,
            behavior=VlvBlindModel(CMOS018)))
        assert blind != stock

    def test_counting_model_delegates_the_hook_uncounted(self):
        counting = CountingBehaviorModel(DefectBehaviorModel(CMOS018))
        engine = StreamingExperiment(n_devices=self.N, seed=9,
                                     shard_devices=4096, behavior=counting)
        assert defect_kernel(counting) is not None
        payload = _kernel_payload(engine)
        assert counting.calls == 0
        assert canonical_json(payload) == canonical_json(_kernel_payload(
            StreamingExperiment(n_devices=self.N, seed=9,
                                shard_devices=4096)))

    @pytest.mark.parametrize("model, error, match", [
        (RaisingHookModel, RuntimeError, "vector unit on fire"),
        (BadShapeHookModel, ValueError, "evaluate_defects returned shape"),
    ])
    def test_a_failing_hook_fails_the_shard(self, model, error, match):
        engine = StreamingExperiment(n_devices=4096, seed=9,
                                     shard_devices=4096,
                                     behavior=model(CMOS018))
        with pytest.raises(error, match=match):
            StreamingRunner(engine).run()


class TestRunnerObservability:
    N = 8192

    def test_journal_carries_shard_and_merge_events(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        _payload(self.N, shard_devices=4096, journal=journal)
        events = [json.loads(line)
                  for line in journal.read_text().splitlines()]
        shard_events = [e["data"] for e in events
                        if e.get("event") == "experiment.shard"]
        merge_events = [e["data"] for e in events
                        if e.get("event") == "experiment.merge"]
        assert len(shard_events) == 2
        assert [e["shard"] for e in shard_events] == [0, 1]
        assert all(e["source"] == "executed" for e in shard_events)
        assert len(merge_events) == 1
        assert merge_events[0]["devices"] == self.N

    def test_report_renders_experiment_section(self, tmp_path):
        from repro.obs.bus import read_journal
        from repro.obs.report import build_report, render_text

        journal = tmp_path / "run.jsonl"
        _payload(self.N, shard_devices=4096, journal=journal)
        meta, events = read_journal(journal)
        report = build_report(meta, events)
        section = report["experiment"]
        assert section["shards"] == 2
        assert section["devices"] == self.N
        text = render_text(report)
        assert "Streaming experiment:" in text
        assert f"devices={self.N}" in text
