"""The ``serve`` workload: open-loop traffic against ``repro serve``.

One run:

1. writes the shipped database and a seeded second database (a subset
   of its resistance points) into the work directory;
2. starts the server :data:`SETUP_REPEATS` times and takes the median
   spawn-to-``serving on`` time as ``setup_s``, keeping the last one;
3. sends the reference phase at :data:`REFERENCE_RPS` for at least
   ``--seconds`` and 1000 requests -- Zipf-drawn 1-3 query batches, a
   small share of malformed bodies that must get their named 4xx, and
   a ``/v1/reload`` every :data:`RELOAD_EVERY_S` seconds alternating
   the database file between the two versions;
4. climbs the fixed :data:`LADDER_RPS` until a rung fails (more than 1%
   of requests over :data:`LATENCY_LIMIT_S` or a growing backlog);
5. checks, after each phase, every 200 body byte for byte against the
   in-process estimator for the generation its ``ETag`` names.

The traced run starts the server through :mod:`repobench.serve_launcher`
instead, which installs the span wrappers in the server process.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repobench import layers, stats
from repobench.common import (
    SETUP_REPEATS,
    SRC,
    WORK,
    OracleMismatch,
    WorkloadResult,
    finish_trace,
    geometry_grid,
)
from repobench.loadgen import PhaseResult, Request, run_schedule
from repobench.spans import load_dump

#: The reference rate (requests per second) of the latency metrics.
#: The single-process server sustains 70-100 req/s on a 2-CPU host when
#: the CPU runs at full speed and about half that in its slow phases;
#: at 50 req/s a slow phase saturated it and p90 latency more than
#: doubled.  The reference phase lasts until it has the 1000 samples a
#: p99 needs.
REFERENCE_RPS = 40.0
#: Fixed ladder for ``max_rate_rps``, above the reference rate.
LADDER_RPS = (50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 120.0, 140.0, 160.0,
              200.0)
#: Seconds per ladder rung (the climb stops at the first failing rung).
RUNG_S = 1.25
#: Latency limit of the rate ladder (on the 99th percentile).
LATENCY_LIMIT_S = 0.050
#: The tail percentile reported beside the median.
TAIL = 90.0
#: Keep-alive connections the client uses.
CONNECTIONS = 2
#: Seconds between ``/v1/reload`` requests.
RELOAD_EVERY_S = 3.0
#: Distinct (geometry, kind) query items the batches draw from.
POOL_SIZE = 40
#: Zipf exponent of the query-item popularity.
ZIPF_S = 1.1
#: Share of estimate bodies that are deliberately malformed.
MALFORMED_SHARE = 0.03

#: Malformed bodies and the (status, error code) each must get.
MALFORMED = (
    (b'{"queries": [', 400, "bad-json"),
    (b'{"queries": []}', 400, "empty-queries"),
    (b'{"queries": [{"geometry": {"rows": 0, "columns": 4, '
     b'"bits_per_word": 8}}]}', 400, "bad-geometry"),
    (b'{"queries": [{"geometry": {"rows": 64, "columns": 4, '
     b'"bits_per_word": 8}, "kind": "short"}]}', 400, "bad-kind"),
    (b'{"queries": [{"geometry": {"rows": 64, "columns": 4, '
     b'"bits_per_word": 8}, "conditions": ["Vhot"]}]}', 404,
     "unknown-condition"),
)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def query_pool(rng: random.Random) -> list[dict[str, Any]]:
    """:data:`POOL_SIZE` distinct query items, most popular first."""
    grid = geometry_grid()
    items: list[dict[str, Any]] = []
    seen: set[str] = set()
    while len(items) < POOL_SIZE:
        rows, columns, bits, blocks = rng.choice(grid)
        # Kinds alternate by popularity rank, so every seed's mix
        # costs the same to integrate (bridge and open sweeps differ).
        item: dict[str, Any] = {
            "geometry": {"rows": rows, "columns": columns,
                         "bits_per_word": bits, "blocks": blocks},
            "kind": ("bridge", "open")[len(items) % 2],
        }
        if rng.random() < 0.25:
            item["conditions"] = sorted(rng.sample(
                ["VLV", "Vmin", "Vnom", "Vmax", "at-speed"], 2))
        key = json.dumps(item, sort_keys=True)
        if key not in seen:
            seen.add(key)
            items.append(item)
    return items


def schedule(rng: random.Random, pool: list[dict[str, Any]], rate: float,
             seconds: float, reload_phase: float | None = None,
             ) -> list[Request]:
    """A fixed-rate schedule of estimate bodies (and reloads).

    Args:
        rng: The workload's generator.
        pool: Query items, most popular first.
        rate: Estimate requests per second.
        seconds: Phase length.
        reload_phase: Due time of the first reload (``None``: no
            reloads).
    """
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    requests = []
    n = int(rate * seconds)
    for i in range(n):
        due = i / rate
        if rng.random() < MALFORMED_SHARE:
            body, status, code = rng.choice(MALFORMED)
            requests.append(Request(due, "POST", "/v1/estimate", body,
                                    status, code))
            continue
        items = rng.choices(pool, weights, k=rng.choice((1, 2, 3)))
        body = json.dumps({"queries": items}, sort_keys=True).encode()
        requests.append(Request(due, "POST", "/v1/estimate", body, 200,
                                "estimate"))
    if reload_phase is not None:
        due = reload_phase
        while due < seconds:
            requests.append(Request(due, "POST", "/v1/reload", b"", 200,
                                    "reload"))
            due += RELOAD_EVERY_S
    requests.sort(key=lambda r: r.due)
    return requests


def write_databases(rng: random.Random, work: Path) -> tuple[Path, Path]:
    """The shipped database and a seeded variant, as two files.

    The variant drops a seeded tenth of each sweep's interior
    resistance points, so it loads, answers every query of the pool
    and fingerprints differently.
    """
    from repro.core.database import CoverageDatabase, default_database_path

    first = work / "db-a.json"
    shutil.copyfile(default_database_path(), first)
    records = CoverageDatabase.load(first).records
    by_sweep: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        by_sweep.setdefault((rec.kind, rec.condition), []).append(
            rec.resistance)
    dropped = set()
    for key, resistances in sorted(by_sweep.items()):
        interior = sorted(resistances)[1:-1]
        for r in rng.sample(interior, max(1, len(interior) // 10)):
            dropped.add((key, r))
    second = work / "db-b.json"
    CoverageDatabase([rec for rec in records
                      if ((rec.kind, rec.condition), rec.resistance)
                      not in dropped]).save(second)
    return first, second


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, db: Path, spans: Path | None = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        if spans is None:
            argv = [sys.executable, "-m", "repro", "serve", "--db",
                    str(db), "--port", "0"]
        else:
            argv = [sys.executable, "-m", "repobench.serve_launcher",
                    "--db", str(db), "--spans", str(spans)]
            env["PYTHONPATH"] += os.pathsep + str(SRC.parent)
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     env=env)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(
                f"server did not start: {line!r} {self.proc.stderr.read()}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server so far."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Terminate the server and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()


# ----------------------------------------------------------------------
# The byte-identity oracle
# ----------------------------------------------------------------------
class ResponseOracle:
    """Expected 200 bodies, computed in-process per database generation."""

    def __init__(self, files: list[Path]) -> None:
        from repro.service.state import DatabaseSnapshot

        snapshots = [DatabaseSnapshot.load(path) for path in files]
        #: The etag of each file, in order.
        self.etags = tuple(s.etag for s in snapshots)
        self.snapshots = {s.etag: s for s in snapshots}
        self._reports: dict[tuple[str, str], Any] = {}

    def expected(self, etag: str, body: bytes) -> bytes:
        """The canonical response body for ``body`` at generation ``etag``."""
        from repro.runner.atomic import canonical_json
        from repro.service.schema import (
            batch_response_document,
            parse_request,
            report_document,
        )

        snapshot = self.snapshots.get(etag)
        if snapshot is None:
            raise OracleMismatch(f"response names unknown etag {etag!r}")
        results = []
        for query in parse_request(body).queries:
            key = (etag, canonical_json(query.as_document()))
            if key not in self._reports:
                report = snapshot.estimator.estimate(
                    query.geometry, query.kind,
                    yield_fraction=query.yield_fraction)
                self._reports[key] = report_document(report,
                                                     query.conditions)
            results.append(self._reports[key])
        return (canonical_json(batch_response_document(etag, results))
                .encode("utf-8") + b"\n")


def check_outcomes(phase: PhaseResult, oracle: ResponseOracle,
                   reload_etags: dict[float, str]) -> None:
    """Raise :class:`OracleMismatch` on any wrong answered body.

    Transport failures and unexpected statuses are failed requests,
    counted elsewhere; a 200 (or named error) with the wrong *content*
    is a correctness failure that stops the run.
    """
    for out in phase.outcomes:
        if not out.ok:
            continue
        tag = out.request.tag
        if tag == "estimate":
            etag = out.headers.get("etag", "").strip('"')
            if out.body != oracle.expected(etag, out.request.body):
                raise OracleMismatch(
                    f"body of {out.request.body[:80]!r} at etag "
                    f"{etag[:12]} differs from the in-process estimator")
        elif tag == "reload":
            doc = json.loads(out.body)
            want = reload_etags[out.request.due]
            if doc != {"outcome": "reloaded", "etag": want}:
                raise OracleMismatch(
                    f"reload answered {doc}, expected etag {want[:12]}")
        else:
            code = json.loads(out.body)["error"]["code"]
            if code != tag:
                raise OracleMismatch(
                    f"malformed body {out.request.body[:60]!r} got error "
                    f"{code!r}, expected {tag!r}")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class _ServeRun:
    """One run's inputs, work files and oracle."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve:{seed}")
        work = WORK / "serve"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        self.files = write_databases(self.rng, work)
        self.served = work / "served.json"
        shutil.copyfile(self.files[0], self.served)
        self.spans = work / "server-spans.npz"
        self.pool = query_pool(self.rng)
        self.oracle = ResponseOracle(list(self.files))
        self.reload_etags: dict[float, str] = {}
        self.phases: list[PhaseResult] = []
        self._serving = 0

    def phase(self, server: Server, rate: float, seconds: float,
              reloads: bool) -> PhaseResult:
        """Run one fixed-rate phase, swapping the file before reloads."""
        requests = schedule(
            self.rng, self.pool, rate, seconds,
            reload_phase=RELOAD_EVERY_S / 2 if reloads else None)
        self.reload_etags.clear()

        def on_due(request: Request) -> None:
            if request.tag != "reload":
                return
            self._serving ^= 1
            swap = self.served.with_suffix(".swap")
            shutil.copyfile(self.files[self._serving], swap)
            os.replace(swap, self.served)
            self.reload_etags[request.due] = (
                self.oracle.etags[self._serving])

        result = asyncio.run(run_schedule(
            "127.0.0.1", server.port, requests, connections=CONNECTIONS,
            on_due=on_due))
        check_outcomes(result, self.oracle, self.reload_etags)
        self.phases.append(result)
        return result

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) over every phase so far."""
        outcomes = [o for p in self.phases for o in p.outcomes]
        return len(outcomes), sum(not o.ok for o in outcomes)


def _latencies(phase: PhaseResult) -> list[float | None]:
    """Latency of each non-reload request, ``None`` when it failed."""
    return [out.latency if out.ok else None for out in phase.outcomes
            if out.request.tag != "reload"]


def _ok(values: list[float | None]) -> list[float]:
    return [v for v in values if v is not None]


def reference_seconds(seconds: float) -> float:
    """The reference phase: ``seconds``, and long enough for a p99."""
    return max(seconds, stats.min_samples_for(99.0) / REFERENCE_RPS)


def run(seed: int, seconds: float, traced: bool) -> WorkloadResult:
    """Run the serve workload; see the module docstring."""
    bench = _ServeRun(seed)
    if traced:
        return _traced(bench, seconds)
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server = Server(bench.served)
        setups.append(server.setup_s)
    try:
        reference = bench.phase(server, REFERENCE_RPS,
                                  reference_seconds(seconds), reloads=True)
        max_rate = 0.0
        rungs = 0
        ok = stats.over_limit_share(_latencies(reference),
                                    LATENCY_LIMIT_S) <= 0.01
        if ok:
            max_rate = REFERENCE_RPS
        for rate in LADDER_RPS:
            if not ok:
                break
            phase = bench.phase(server, rate, RUNG_S, reloads=False)
            rungs += 1
            ok = (stats.over_limit_share(_latencies(phase),
                                         LATENCY_LIMIT_S) <= 0.01
                  and not stats.backlog_grows(phase.backlog))
            if ok:
                max_rate = rate
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    attempted, failed = bench.counts()
    result = WorkloadResult(attempted=attempted, failed=failed)
    latencies = _ok(_latencies(reference))
    reloads = [o.latency for o in reference.outcomes
               if o.request.tag == "reload" and o.ok]
    p50 = stats.median(latencies)
    p90 = stats.percentile(latencies, TAIL)
    result.e2e = {"setup_s": stats.median(setups), "peak_rss_mb": rss,
                  "op_p90_ms": p90 * 1e3}
    result.add("setup_s", result.e2e["setup_s"], "s", len(setups))
    result.add("peak_rss_mb", rss, "MB", 1)
    result.add("ops_failed_frac", failed / attempted, "ratio", attempted)
    result.add("req_p50_ms", p50 * 1e3, "ms", len(latencies))
    result.add("req_p90_ms", p90 * 1e3, "ms", len(latencies))
    result.add_tail("req_p99_ms", latencies, 99.0, 1e3, "ms")
    result.add("max_rate_rps", max_rate, "req/s", rungs + 1)
    result.add("reload_p50_ms",
               stats.median(reloads) * 1e3 if reloads else None, "ms",
               len(reloads))
    hits = sum(1 for o in reference.outcomes
               if o.headers.get("x-cache") == "hit")
    result.notes.append(
        f"reference phase: {REFERENCE_RPS:g} req/s for "
        f"{reference.seconds:.1f} s over {CONNECTIONS} connections, "
        f"{hits} response-cache hits in {len(latencies)} requests; "
        f"ladder rungs {RUNG_S:g} s each")
    return result


def _traced(bench: _ServeRun, seconds: float) -> WorkloadResult:
    """Untraced server, then the launcher's traced server, same traffic."""
    server = Server(bench.served)
    try:
        plain = bench.phase(server, REFERENCE_RPS, seconds / 2, True)
    finally:
        server.stop()
    server = Server(bench.served, spans=bench.spans)
    try:
        traced = bench.phase(server, REFERENCE_RPS, seconds / 2, True)
    finally:
        server.stop()
    attempted, failed = bench.counts()
    result = WorkloadResult(attempted=attempted, failed=failed)
    doc = load_dump(bench.spans)
    result.layer = layers.layer_metrics(doc, len(traced.outcomes))
    dispatch = [doc["end"][i] - doc["start"][i]
                for i, ident in enumerate(doc["name"])
                if doc["names"][ident] == "service.dispatch"]
    served = [o.done - o.sent for o in traced.outcomes if o.ok]
    result.layer["service.transport_wait_ms"] = (
        (sum(served) / len(served) - sum(dispatch) / len(dispatch)) * 1e3)
    lags = [o.lag for o in traced.outcomes]
    result.layer["loadgen.lag_p99_ms"] = (
        stats.percentile(lags, 99.0) if len(lags) >= stats.min_samples_for(
            99.0) else max(lags)) * 1e3
    result.layer["loadgen.backlog_max"] = max(traced.backlog, default=0)
    return finish_trace(result, "serve",
                        stats.median(_ok(_latencies(plain))) * 1e3,
                        stats.median(_ok(_latencies(traced))) * 1e3, "ms",
                        len(doc["start"]), bench.spans)
