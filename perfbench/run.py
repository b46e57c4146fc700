#!/usr/bin/env python3
"""carleson-lab benchmark.

    python3 perfbench/run.py --workload {carleson-mc,sequence-geometry,cli-oneshot}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Threads are pinned to one (BLAS, OpenMP and
CARLESON_LAB_THREADS) for this process and every child; .pyc files are built
before anything is timed.  The run times set-up (median import of carleson_lab
and carleson_lab.cli over fresh interpreters, plus building the inputs), then
repeats whole passes of the workload for about S seconds, then checks the
first pass against references computed without carleson_lab (``oracles.py``)
and the later passes for identical outputs.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from spans around the library's public functions with
``--trace 1``.  A copy of every run, with the git sha, nproc, versions and
thread settings, goes to ``perfbench/.out/runs/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("carleson-mc", "sequence-geometry", "cli-oneshot")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "carleson_lab" / "__init__.py").is_file():
        print(f"error: no carleson_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    import harness

    harness.pin_environment()
    import measure

    record = measure.run(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.emit(record, args.workload, args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
