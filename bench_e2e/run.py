"""bench_e2e: the end-to-end, layer-attributed benchmark.

Run from the repository root::

    python3 bench_e2e/run.py --workload fhir_mix_lan --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs four quarter-length phases, untraced / traced / traced / untraced,
and reports the per-layer metrics of the traced ones plus the tracing
overhead against the untraced ones.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: (name, unit) of the metrics a ``--trace 0`` run reports: those every
#: workload has and that repeat from seed to seed (README.md says why
#: the others are printed but not gated).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("round_trips_per_op", "count"),
    ("insert_p50_ms", "ms"),
    ("eq_search_p90_ms", "ms"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    overrides = sorted(name for name in os.environ
                       if name.startswith("DATABLINDER_"))
    if overrides:
        print(f"refusing to run: {', '.join(overrides)} set; the "
              f"benchmark measures the default configuration",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import WORKLOADS, set_up
    from metrics import (OP_KINDS, PER_LAYER, end_to_end, merge, p90_support,
                         per_layer, wire_requests)
    from spans import Tracer, dump

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    setups = []
    for attempt in range(SETUPS):
        rig, seconds = set_up(workload, args.seed)
        setups.append(seconds)
        if attempt < SETUPS - 1:
            rig.close()
    setup_s = statistics.median(setups)

    print(f"env: python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"workload: {workload.name}: {workload.why}")
    print(f"setup_s runs: {', '.join(f'{value:.3f}' for value in setups)}")
    try:
        if args.trace == 0:
            phases = [rig.phase(args.seconds)]
            untraced, traced = phases, []
        else:
            tracer = Tracer({id(transport): name for name, transport
                             in rig.deployment.nodes})
            quarter = args.seconds / 4
            phases = [rig.phase(quarter), rig.phase(quarter, tracer),
                      rig.phase(quarter, tracer), rig.phase(quarter)]
            untraced, traced = phases[0::3], phases[1:3]
        errors = rig.verify(phases)
    finally:
        rig.close()

    figures = end_to_end(merge(untraced), setup_s)
    for kind in OP_KINDS:
        count = figures.get(f"{kind}_samples", 0)
        if count:
            thin = "" if p90_support(count) else " (under 10 beyond p90)"
            print(f"{kind}: n={count} p50={figures[f'{kind}_p50_ms']:.2f} ms"
                  f" p90={figures[f'{kind}_p90_ms']:.2f} ms{thin}")
    for name in ("throughput_ops_s", "error_ratio", "cpu_ms_per_op",
                 "round_trips_per_op"):
        print(f"{name}: {figures[name]:.4f}")
    failures = [record for phase in phases for record in phase.records
                if record.outcome != "ok"]
    for record in failures[:5]:
        print(f"op failed: {record.op.kind}: {record.error}")
    for error in errors[:10]:
        print(f"WRONG: {error}")

    if args.trace == 0:
        metrics = {name: {"value": figures[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layers, shares, cpu_shares = per_layer(traced, untraced)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for layer, share in shares.items():
            print(f"share of traced wall time: {layer}: {share:.1%}")
        for layer, share in cpu_shares.items():
            print(f"share of traced process CPU: {layer}: {share:.1%}")
        for kind in OP_KINDS:
            frames = wire_requests(traced, kind)
            if frames:
                print(f"wire requests per {kind}: " + ", ".join(
                    f"{name} {count:.2f}" for name, count in frames.items()))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        dump([span for phase in traced for span in phase.spans],
             out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    attempted = sum(len(phase.records) for phase in phases)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
