"""Start the estimator service with the span wrappers installed.

The traced ``serve`` run starts the server through this launcher
instead of ``repro serve``: it wraps every layer's public calls, builds
the service exactly as ``repro serve --db PATH --port 0`` does, and on
SIGTERM stops serving and writes the spans to ``--spans``::

    PYTHONPATH=src:. python3 -m repobench.serve_launcher \\
        --db coverage.json --spans spans.npz
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repobench import layers
from repobench.spans import Tracer

#: The ``repro serve`` default response-cache capacity.
CACHE_SIZE = 1024


def main() -> int:
    """Serve until SIGTERM, then dump the spans."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--db", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    layers.install(tracer)
    from repro.obs.metrics import MetricsRegistry
    from repro.service import (
        DatabaseSnapshot,
        EstimatorService,
        ServiceState,
        serve,
    )

    snapshot = DatabaseSnapshot.load(args.db)
    service = EstimatorService(ServiceState(snapshot, args.db),
                               cache_size=CACHE_SIZE,
                               metrics=MetricsRegistry())

    async def run() -> None:
        stop = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                      stop.set)
        server = await serve(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"serving on http://127.0.0.1:{port}", flush=True)
        async with server:
            await stop.wait()

    asyncio.run(run())
    tracer.restore()
    tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
