"""The ``flow`` workload: the paper's Figure-2 pipeline, closed loop.

Each op is a fresh ``MemoryTestFlow(geometry).run(strategy="batch")``
(layout, extraction, site sampling, campaign, database, both estimator
reports) on the next geometry of a seeded stream over the paper's
range.  Ops run back to back on one process.  ``setup_s`` is the
median of :data:`SETUP_REPEATS` cold processes, each timed from spawn to
its first flow's result -- one cold ``repro estimate``.

Oracle: every op's canonical records and reports must hash to the
committed digest of the same geometry under ``strategy="exact"``
(``oracles/flow_exact.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections.abc import Iterator
from typing import Any

from repobench import stats
from repobench.common import (
    ORACLES,
    ROOT,
    SETUP_REPEATS,
    SRC,
    OracleMismatch,
    WorkloadResult,
    geometry_grid,
    geometry_key,
    self_peak_rss_mb,
)

#: The tail percentile reported beside the median.
TAIL = 90.0


def geometries(seed: int) -> Iterator[tuple[int, int, int, int]]:
    """The seeded geometry stream of one run."""
    rng = random.Random(f"flow:{seed}")
    grid = geometry_grid()
    while True:
        yield rng.choice(grid)


def flow_digest(result: Any) -> str:
    """SHA-256 of a flow's canonical records and both reports."""
    from repro.runner.atomic import canonical_json
    from repro.runner.campaign import record_to_payload
    from repro.service.schema import report_document

    doc = {
        "records": [record_to_payload(r) for r in result.database.records],
        "reports": [report_document(result.bridge_report),
                    report_document(result.open_report)],
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def run_flow(geometry: tuple[int, int, int, int],
             strategy: str = "batch") -> Any:
    """One op: a fresh flow over ``geometry``."""
    from repro.core.flow import MemoryTestFlow
    from repro.memory.geometry import MemoryGeometry

    return MemoryTestFlow(MemoryGeometry(*geometry)).run(strategy=strategy)


def load_oracle() -> dict[str, str]:
    """Committed exact-strategy digests, keyed by geometry."""
    doc = json.loads((ORACLES / "flow_exact.json").read_text())
    return doc["digests"]


def check(oracle: dict[str, str], geometry: tuple[int, int, int, int],
          digest: str) -> None:
    """Raise :class:`OracleMismatch` unless ``digest`` is the oracle's."""
    want = oracle.get(geometry_key(geometry))
    if digest != want:
        raise OracleMismatch(
            f"flow {geometry_key(geometry)}: digest {digest[:16]} != "
            f"exact-strategy oracle {str(want)[:16]}")


def cold_setup(geometry: tuple[int, int, int, int]) -> tuple[float, str]:
    """Spawn a fresh process, run one flow; (spawn-to-result s, digest)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                       str(ROOT)]))
    argv = [sys.executable, "-m", "repobench.flow",
            *(str(v) for v in geometry)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=env)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"cold flow exited {proc.returncode}")
    return elapsed, line.strip()


def measure(seed: int, seconds: float, need: int = 1, tracer: Any = None,
            ) -> dict[str, Any]:
    """Run ops for ``seconds``, and on until ``need`` ops were attempted.

    Returns:
        Latencies of the completed ops, attempted and failed op counts,
        and ``checks``: each completed op's geometry with its digest,
        verified afterwards so hashing stays out of the timed region.
    """
    out: dict[str, Any] = {"latencies": [], "attempted": 0, "failed": 0,
                           "checks": []}
    stream = geometries(seed)
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or out["attempted"] < need):
        geometry = next(stream)
        out["attempted"] += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = run_flow(geometry)
            else:
                tracer.op += 1
                with tracer.span("flow.op"):
                    result = run_flow(geometry)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            print(f"flow {geometry_key(geometry)} failed: {exc!r}",
                  file=sys.stderr)
            out["failed"] += 1
            continue
        out["latencies"].append(time.perf_counter() - t0)
        if result.campaign.total_errors > 0:
            out["failed"] += 1
        out["checks"].append((geometry, flow_digest(result)))
    return out


def run(seed: int, seconds: float, traced: bool) -> WorkloadResult:
    """Run the flow workload; see the module docstring."""
    oracle = load_oracle()
    if traced:
        return _traced(seed, seconds, oracle)
    stream = geometries(seed + 1_000_003)
    setups = []
    for _ in range(SETUP_REPEATS):
        geometry = next(stream)
        elapsed, digest = cold_setup(geometry)
        check(oracle, geometry, digest)
        setups.append(elapsed)
    got = measure(seed, seconds, stats.min_samples_for(TAIL))
    for geometry, digest in got["checks"]:
        check(oracle, geometry, digest)
    latencies = got["latencies"]
    result = WorkloadResult(attempted=got["attempted"], failed=got["failed"])
    p50 = stats.median(latencies)
    p90 = stats.percentile(latencies, TAIL)
    result.e2e = {"setup_s": stats.median(setups),
                  "peak_rss_mb": self_peak_rss_mb(),
                  "op_p90_ms": p90 * 1e3}
    result.add("setup_s", result.e2e["setup_s"], "s", len(setups))
    result.add("peak_rss_mb", result.e2e["peak_rss_mb"], "MB", 1)
    result.add("ops_failed_frac", result.failed / result.attempted, "ratio",
               result.attempted)
    result.add("flow_p50_s", p50, "s", len(latencies))
    result.add("flow_p90_s", p90, "s", len(latencies))
    return result


def _traced(seed: int, seconds: float,
            oracle: dict[str, str]) -> WorkloadResult:
    """Untraced half, then traced half; per-layer metrics + overhead."""
    from repobench import layers
    from repobench.common import WORK, finish_trace
    from repobench.spans import Tracer

    plain = measure(seed, seconds / 2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = measure(seed, seconds / 2, tracer=tracer)
    finally:
        tracer.restore()
    for geometry, digest in plain["checks"] + traced["checks"]:
        check(oracle, geometry, digest)
    result = WorkloadResult(
        attempted=plain["attempted"] + traced["attempted"],
        failed=plain["failed"] + traced["failed"])
    result.layer = layers.layer_metrics(tracer.as_doc(), traced["attempted"])
    dump = WORK / "trace-flow.npz"
    tracer.dump(dump)
    return finish_trace(result, "flow", stats.median(plain["latencies"]),
                        stats.median(traced["latencies"]), "s",
                        len(tracer), dump)


if __name__ == "__main__":
    # Cold-start probe: one flow in a fresh process, digest on stdout.
    print(flow_digest(run_flow(tuple(int(v) for v in sys.argv[1:5]))),
          flush=True)
