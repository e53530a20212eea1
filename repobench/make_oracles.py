"""Regenerate the committed oracle digests.

Run from the repository root::

    python3 repobench/make_oracles.py            # both tables
    python3 repobench/make_oracles.py flow       # one table

``oracles/flow_exact.json`` holds, for every geometry of the grid in
:mod:`repobench.common`, the digest of ``MemoryTestFlow(geometry).run(
strategy="exact")`` -- the exact oracle, never the batch path the
workload times.  ``oracles/lot.json`` holds the accumulator payload
digest of every lot seed of the ``lot`` and ``diagnose`` tables (the
workloads draw their lots only from these seeds).  Regenerate only when
the program's outputs are meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from repobench import flow, lot  # noqa: E402
from repobench.common import ORACLES, geometry_grid, geometry_key  # noqa: E402

#: Lot seeds per workload table.
LOT_SEEDS = 24


def make_flow() -> dict:
    """Exact-strategy digests of every grid geometry."""
    digests = {}
    for geometry in geometry_grid():
        digests[geometry_key(geometry)] = flow.flow_digest(
            flow.run_flow(geometry, strategy="exact"))
        print(geometry_key(geometry), digests[geometry_key(geometry)][:16],
              flush=True)
    return {"strategy": "exact", "digests": digests}


def make_lot() -> dict:
    """Payload digests of each workload's lot seeds."""
    doc = {}
    for workload in lot.SHAPES:
        digests = {}
        for lot_seed in range(1, LOT_SEEDS + 1):
            result = lot.build_runner(workload, lot_seed).run()
            if result.quarantine:
                raise SystemExit(f"{workload} lot {lot_seed} quarantined "
                                 "shards; no oracle written")
            digests[str(lot_seed)] = lot.payload_digest(result)
            print(workload, lot_seed, digests[str(lot_seed)][:16],
                  flush=True)
        doc[workload] = {"shape": lot.SHAPES[workload],
                         "digests": digests}
    return doc


def main(argv: list[str]) -> int:
    """Write the requested tables (default: both)."""
    which = argv or ["flow", "lot"]
    ORACLES.mkdir(parents=True, exist_ok=True)
    if "flow" in which:
        (ORACLES / "flow_exact.json").write_text(
            json.dumps(make_flow(), indent=1, sort_keys=True) + "\n")
    if "lot" in which:
        (ORACLES / "lot.json").write_text(
            json.dumps(make_lot(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
