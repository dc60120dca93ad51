"""One end-to-end benchmark over a real ``QueryServer``.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

``--trace 0`` measures what a client sees (the ``end_to_end`` metrics of
``BENCHMARK.json``); ``--trace 1`` replays the same generated operations
through each layer's public functions (the ``per_layer`` metrics).  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("point", "analytic", "churn")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_table(workload: str, trace: int, report) -> None:
    print(f"# perfbench workload={workload} trace={trace}")
    for name, note in report.notes.items():
        if name not in report.metrics:
            print(f"  {name:<34} {'':>14}        {note}")
    for name, (value, unit) in report.metrics.items():
        note = report.notes.get(name, "")
        print(f"  {name:<34} {value:>14.4f} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    import perf_e2e
    import perf_trace

    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            report = perf_trace.run(ROOT, workdir, args.workload, args.seed)
        else:
            runner = perf_e2e.WORKLOADS[args.workload]
            report = asyncio.run(runner(ROOT, workdir, args.seed, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_table(args.workload, args.trace, report)
    missing = [name for name in wanted if name not in report.metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    bad = [
        name for name in wanted if not math.isfinite(report.metrics[name][0])
    ]
    if bad:
        print(f"perfbench: metrics not finite: {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name][0], "unit": report.metrics[name][1]}
            for name in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
