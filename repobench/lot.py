"""The ``lot`` and ``diagnose`` workloads: the streaming silicon experiment.

Each lot is ``StreamingRunner(StreamingExperiment(n, seed), workers=1)
.run()``: serial, because on a 2-CPU host a 2-worker pool spreads
about 30% run to run against about 11% serial.  ``diagnose`` is the
same engine with ``diagnose=True`` at a fifth of the devices, where
bitmap diagnosis through the full march simulation dominates.

An op is one shard.  Shard latencies come from the runner's public
``clock`` parameter: the serial shard evaluator reads it exactly once
as each shard starts, so consecutive readings bracket each shard
(including its in-order merge).  A run whose readings do not match its
shard count stops rather than report wrong latencies.

Lot seeds come from the committed oracle table
(``oracles/lot.json``), in a seeded order; every lot's accumulator
payload must hash to its committed digest.  ``setup_s`` is the median
spawn-to-runner-built time of :data:`SETUP_REPEATS` fresh processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Any

from repobench import stats
from repobench.common import (
    ORACLES,
    ROOT,
    SETUP_REPEATS,
    SRC,
    WORK,
    OracleMismatch,
    WorkloadResult,
    finish_trace,
    self_peak_rss_mb,
)

#: Per-workload engine shape.  Results do not depend on the shard
#: layout; shards are sized so that a run holds the 100 ops a p90
#: needs, and lots are whole shards (about 10^6 and 2x10^5 devices) so
#: that no op is a stub.
SHAPES = {
    "lot": {"n_devices": 60 * 16384, "shard_devices": 16384,
            "diagnose": False},
    "diagnose": {"n_devices": 24 * 8192, "shard_devices": 8192,
                 "diagnose": True},
}
#: The tail percentile reported beside the median.
TAIL = 90.0


class ShardClock:
    """A monotonic clock that keeps every reading."""

    def __init__(self) -> None:
        self.readings: list[float] = []

    def __call__(self) -> float:
        now = time.perf_counter()
        self.readings.append(now)
        return now


def build_runner(workload: str, seed: int, clock: Any = time.monotonic,
                 ) -> Any:
    """The serial runner of one lot."""
    from repro.experiment.streaming.engine import StreamingExperiment
    from repro.experiment.streaming.runner import StreamingRunner

    engine = StreamingExperiment(seed=seed, **SHAPES[workload])
    return StreamingRunner(engine, workers=1, clock=clock)


def payload_digest(result: Any) -> str:
    """SHA-256 of the lot's canonical accumulator payload."""
    from repro.runner.atomic import canonical_json

    payload = canonical_json(result.accumulator.as_payload())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_oracle(workload: str) -> dict[str, str]:
    """Committed payload digests of ``workload``, keyed by lot seed."""
    doc = json.loads((ORACLES / "lot.json").read_text())
    entry = doc[workload]
    if entry["shape"] != SHAPES[workload]:
        raise OracleMismatch(f"oracle table of {workload} is for another "
                             "engine shape; regenerate it")
    return entry["digests"]


def lot_seeds(workload: str, seed: int, table: dict[str, str]) -> Any:
    """The run's lot seeds: the oracle table in a seeded order, cycled."""
    order = sorted(int(s) for s in table)
    random.Random(f"{workload}:{seed}").shuffle(order)
    while True:
        yield from order


def cold_setup(workload: str, seed: int) -> float:
    """Spawn a fresh process that builds the runner; spawn-to-ready s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                       str(ROOT)]))
    argv = [sys.executable, "-m", "repobench.lot", workload, str(seed)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=env)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{workload} setup probe failed: {line!r}")
    return elapsed


def measure(workload: str, seeds: Any, seconds: float, need: int = 1,
            tracer: Any = None) -> dict[str, Any]:
    """Run lots for ``seconds``, and on until ``need`` shards completed.

    Returns:
        Shard latencies, attempted and failed shard counts, poisoned
        shards, devices, busy seconds and the (lot seed, digest) pairs
        to check.
    """
    out: dict[str, Any] = {"shards": [], "attempted": 0, "failed": 0,
                           "poisoned": 0, "devices": 0, "busy": 0.0,
                           "checks": []}
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or out["attempted"] < need):
        lot_seed = next(seeds)
        clock = ShardClock()
        runner = build_runner(workload, lot_seed, clock)
        n_shards = len(runner.engine.plan.shards())
        out["attempted"] += n_shards
        try:
            if tracer is None:
                result = runner.run()
            else:
                with tracer.span("experiment.run"):
                    result = runner.run()
        except Exception as exc:  # noqa: BLE001 - a failed lot is counted
            print(f"{workload} lot {lot_seed} failed: {exc!r}",
                  file=sys.stderr)
            out["failed"] += n_shards
            continue
        end = time.perf_counter()
        if len(clock.readings) != n_shards:
            raise RuntimeError(
                f"runner read its clock {len(clock.readings)} times for "
                f"{n_shards} shards; shard timing is no longer valid")
        bounds = [*clock.readings, end]
        out["shards"].extend(b - a for a, b in zip(bounds, bounds[1:]))
        out["busy"] += end - clock.readings[0]
        poisoned = sum(1 for q in result.quarantine
                       if q["site_index"] == -1)
        out["poisoned"] += poisoned
        out["failed"] += poisoned
        out["devices"] += result.accumulator.devices
        out["checks"].append((lot_seed, payload_digest(result)))
    return out


def check(table: dict[str, str], checks: list[tuple[int, str]],
          workload: str) -> None:
    """Raise :class:`OracleMismatch` on any digest off its oracle."""
    for lot_seed, digest in checks:
        want = table.get(str(lot_seed))
        if digest != want:
            raise OracleMismatch(
                f"{workload} lot seed {lot_seed}: payload digest "
                f"{digest[:16]} != oracle {str(want)[:16]}")


def run(workload: str, seed: int, seconds: float,
        traced: bool) -> WorkloadResult:
    """Run the ``lot`` or ``diagnose`` workload."""
    table = load_oracle(workload)
    if traced:
        return _traced(workload, seed, seconds, table)
    seeds = lot_seeds(workload, seed, table)
    setups = [cold_setup(workload, next(seeds))
              for _ in range(SETUP_REPEATS)]
    got = measure(workload, seeds, seconds, stats.min_samples_for(TAIL))
    check(table, got["checks"], workload)
    shards = got["shards"]
    attempted = got["attempted"]
    result = WorkloadResult(attempted=attempted, failed=got["failed"])
    p50 = stats.median(shards)
    p90 = stats.percentile(shards, TAIL)
    rate = got["devices"] / got["busy"]
    result.e2e = {"setup_s": stats.median(setups),
                  "peak_rss_mb": self_peak_rss_mb(),
                  "op_p90_ms": p90 * 1e3}
    result.add("setup_s", result.e2e["setup_s"], "s", len(setups))
    result.add("peak_rss_mb", result.e2e["peak_rss_mb"], "MB", 1)
    result.add("ops_failed_frac", got["failed"] / attempted, "ratio",
               attempted)
    result.add("devices_per_s", rate, "devices/s", len(got["checks"]))
    result.add("shard_p50_ms", p50 * 1e3, "ms", len(shards))
    result.add("shard_p90_ms", p90 * 1e3, "ms", len(shards))
    return result


def _traced(workload: str, seed: int, seconds: float,
            table: dict[str, str]) -> WorkloadResult:
    """Untraced half, then traced half on the same lots."""
    from repobench import layers
    from repobench.spans import Tracer

    plain = measure(workload, lot_seeds(workload, seed, table), seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measure(workload, lot_seeds(workload, seed, table),
                         seconds / 2, tracer=tracer)
    finally:
        tracer.restore()
    check(table, plain["checks"] + traced["checks"], workload)
    result = WorkloadResult(
        attempted=plain["attempted"] + traced["attempted"],
        failed=plain["failed"] + traced["failed"])
    result.layer = layers.layer_metrics(tracer.as_doc(), traced["attempted"])
    result.layer["experiment.poisoned_shards"] = traced["poisoned"]
    dump = WORK / f"trace-{workload}.npz"
    tracer.dump(dump)
    return finish_trace(result, workload,
                        stats.median(plain["shards"]) * 1e3,
                        stats.median(traced["shards"]) * 1e3, "ms",
                        len(tracer), dump)


if __name__ == "__main__":
    # Set-up probe: build the runner in a fresh process, then report.
    build_runner(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
