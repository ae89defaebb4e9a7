"""The repository's end-to-end benchmark, one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload motif-scan --seed 1 --trace 0
    python3 perfbench/run.py --smoke

Each invocation is a fresh interpreter: ``repro.fsa.compile`` and the
regex caches of ``repro.core.semantics`` are process-global, so a new
session inside an old process would not start cold.  Every evaluation
pins ``workers=1`` (and the daemon ``--workers 1``), so the numbers
measure the program rather than the host's process pool.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, timed by
wrappers the benchmark installs around each layer
(:mod:`perfbench.layers`).  Lines before it are for a reader: every
metric with its unit, per-class latencies, the failure share and the
host.  ``--smoke`` runs every workload briefly in both modes and checks
that each metric ``BENCHMARK.json`` names is emitted with its unit.

Outputs are checked against oracles that do not use the program; an
operation that fails or answers wrongly counts in ``failed``.

End-to-end times are made steady three ways: every time is scaled to a
nominal host speed by a reference workload timed between operations
(:mod:`perfbench.hostspeed`); throughput is the median over cycles or
groups of operations; and each workload's mix of operations is chosen
so that p50 and p90 fall inside one class of operations, not on the
border between two.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "adhoc-paper": "adhoc_paper",
    "motif-scan": "motif_scan",
    "update-mix": "update_mix",
    "service-rw": "service_rw",
}

SMOKE_SECONDS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload briefly and check the metric names",
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(args) -> int:
    import importlib

    from perfbench import harness

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    harness.pin(harness.program_cpu())
    result = module.run(args.seed, args.seconds, bool(args.trace))
    metrics = result.per_layer if args.trace else result.end_to_end
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for key, value in harness.host().items():
        print(f"host.{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value, unit in result.notes:
        print(f"{name} {value:.6g} {unit}")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"failed_share {share:.6g} ratio")
    for failure in result.failures[:5]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def smoke() -> int:
    """Check every workload emits exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "1",
                 "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} --trace {trace}"
            if completed.returncode != 0:
                problems.append(f"{label}: exit {completed.returncode}: "
                                f"{completed.stderr.strip()[-300:]}")
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            emitted = {
                name: entry["unit"]
                for name, entry in result["metrics"].items()
            }
            if emitted != wanted[trace]:
                differing = sorted(
                    set(emitted.items()) ^ set(wanted[trace].items())
                )
                problems.append(
                    f"{label}: (name, unit) pairs not shared with "
                    f"BENCHMARK.json: {differing}"
                )
            if not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed ops")
            print(f"smoke {label}: {len(emitted)} metrics, "
                  f"{result['attempted']} ops, correct={result['correct']}")
    for problem in problems:
        print(f"smoke problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    if args.smoke:
        return smoke()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
