"""The repository benchmark: one command, four workloads, one oracle each.

Usage, from the repository root::

    python3 repobench/run.py --workload flow --seed 0 --seconds 12 --trace 0
    python3 repobench/run.py --workload all            # every workload

Workloads: ``flow`` (MemoryTestFlow, closed loop), ``serve`` (open-loop
traffic against ``repro serve``), ``lot`` (the streaming experiment)
and ``diagnose`` (the same with bitmap diagnosis).  Every output is
checked against its oracle before any timing is reported; a mismatch
exits 1 without a result.

``--trace 0`` prints the workload's report rows (its own metric names,
units and sample counts) and, as the last line, a JSON object whose
``metrics`` are the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs half the window untraced and half with every layer
wrapped in spans, prints the per-layer table and the tracing overhead,
and puts the per-layer metrics in the JSON line.  See
``repobench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow", "serve", "lot", "diagnose")
#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p90_ms": "ms"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its report and JSON line; exit code."""
    from repobench import flow, layers, lot, serve
    from repobench.common import WORK, OracleMismatch

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if name == "flow":
            result = flow.run(seed, seconds, trace)
        elif name == "serve":
            result = serve.run(seed, seconds, trace)
        else:
            result = lot.run(name, seed, seconds, trace)
    except OracleMismatch as exc:
        print(f"{name}: ORACLE MISMATCH, no result reported: {exc}",
              file=sys.stderr)
        return 1
    print(f"== {name} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    if trace:
        metrics = {m: {"value": result.layer.get(m, 0.0),
                       "unit": layer_unit(m)} for m in layers.PER_LAYER}
        for metric, entry in metrics.items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    else:
        metrics = {m: {"value": result.e2e[m], "unit": unit}
                   for m, unit in END_TO_END.items()}
        for metric, value, unit, samples in result.rows:
            shown = "refused" if value is None else f"{value:.6g}"
            print(f"  {metric:<18} {shown:>12} {unit:<10} n={samples}")
    for note in result.notes:
        print(f"  {note}")
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}),
          flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the requested workload(s)."""
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="least measured time; a run goes on until "
                             "every percentile it reports has its samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"repobench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # Import the benchmark as a package, never its modules as top-level
    # names: the script directory is replaced, not kept.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_workload(name, args.seed, args.seconds,
                                          bool(args.trace)))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
