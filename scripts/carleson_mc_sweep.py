"""Run one pass of the carleson-mc benchmark's ops per seed and tally their own checks.

    python scripts/carleson_mc_sweep.py --first 0 --last 299 --json scripts/carleson_mc_sweep.json

Each seed builds ``perfbench/wl_carleson_mc.py``'s ops (``build(seed)``), runs
each once in this process with one BLAS thread, and judges it by its own check,
as the benchmark judges a first pass.  The JSON maps each seed with a failing
op to that op's problems, and summarises the z-scores
(estimate - exact) / std_error of the priced estimates (the Berezin and
invariant-measure ops): how many exceed 3 and 4 in magnitude, and the largest.
It holds no timings, so two checkouts that agree write identical files: the
benchmark's false-fail rate at a given checkout, seed by seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402  (found through the path above)

harness.pin_environment()  # before numpy loads

import wl_carleson_mc  # noqa: E402


def sweep(seeds) -> dict:
    failing: dict[str, dict[str, list[str]]] = {}
    z_scores = []
    for seed in seeds:
        ops, tta = wl_carleson_mc.build(seed)
        priced = inspect.getclosurevars(tta).nonlocals["priced"]  # op name -> exact value
        for op in ops:
            try:
                value = op.call()
                problems = op.check(value)
            except Exception as exc:  # a raise fails the op, as in the benchmark's judge
                value, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                failing.setdefault(str(seed), {})[op.name] = problems
            if op.name in priced and value is not None and value[1] > 0.0:
                z_scores.append(((value[0] - priced[op.name]) / value[1], seed, op.name))
    worst = max(z_scores, key=lambda t: abs(t[0]), default=None)
    return {
        "seeds": [seeds[0], seeds[-1]],
        "n_seeds": len(seeds),
        "z_limit": harness.Z_LIMIT,
        "failing": failing,
        "z_summary": {
            "count": len(z_scores),
            "above_3": sum(abs(z) > 3.0 for z, _, _ in z_scores),
            "above_4": sum(abs(z) > 4.0 for z, _, _ in z_scores),
            "max_abs": {"z": worst[0], "seed": worst[1], "op": worst[2]} if worst else None,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=299)
    parser.add_argument("--json", type=Path, default=None, help="write the tally here (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(sweep(list(range(args.first, args.last + 1))), indent=2) + "\n"
    if args.json is None:
        print(text, end="")
    else:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
