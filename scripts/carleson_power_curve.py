"""Tally ``carleson-test``'s verdicts on the power densities (1 - |w|^2)^s dV.

    python scripts/carleson_power_curve.py --first 0 --last 49 --json scripts/carleson_power_curve.json

For each exponent s of ``EXPONENTS`` and dimension n of ``DIMENSIONS``:

- MC rows: each seed runs ``cli.main(["carleson-test", "--measure", ...,
  "--seed", s, "--out", DIR])`` in this process, with one BLAS thread and its
  printed output discarded, at the command's defaults (k_max 12, 20,000
  samples).  The JSON counts the exit codes and each tester's verdicts (the
  Berezin test and the ratio test over its radii), and lists the seeds that
  exit 0.
- Exact rows: the Berezin verdict that ``measures._approach_test`` reaches on
  the closed-form transform (``perfbench/oracles.berezin_power``, std_error 0)
  at the centres of ``boundary_schedule(n, 12)``, with its slope and growth.

The measure is Carleson for the Bergman space exactly when s >= 0: for s < 0
its Berezin transform grows like (1 - |z|^2)^s towards the sphere (Duren and
Weir, Trans. AMS 359, 2007, for the ball).  So every pass at s < 0 is a wrong
verdict.  The JSON holds no timings, so two checkouts that agree write
identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402  (found through the path above)

harness.pin_environment()  # before numpy loads

import numpy as np  # noqa: E402
import oracles  # noqa: E402

from carleson_lab import cli, measures  # noqa: E402

EXPONENTS = (-0.5, -0.2, -0.1, -0.05, -0.02, 0.0, 0.3)
DIMENSIONS = (1, 2)
K_MAX = 12  # carleson-test's default schedule depth


def exact_berezin(n: int, s: float) -> dict:
    """The Berezin verdict on the exact transform along the default schedule."""
    rows = []
    for c in measures.boundary_schedule(n, K_MAX):
        norm = float(np.linalg.norm(c))
        rows.append({"center": c, "d": 1.0 - norm, "value": oracles.berezin_power(n, s, norm), "std_error": 0.0})
    res = measures._approach_test(rows, 0)
    return {"verdict": res.verdict, "slope": res.slope, "slope_se": res.slope_se, "growth": res.growth}


def mc_tally(n: int, s: float, seeds, root: Path) -> dict:
    measure = json.dumps({"dimension": n, "density": {"type": "power", "s": s}})
    exits: dict[str, int] = {}
    verdicts: dict[str, dict[str, int]] = {"berezin": {}, "ratio": {}}
    passing = []
    for seed in seeds:
        out = root / f"n{n}-s{s}-seed{seed}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["carleson-test", "--measure", measure, "--seed", str(seed), "--out", str(out)])
        exits[str(code)] = exits.get(str(code), 0) + 1
        summary = json.loads((out / "summary.json").read_text())
        for tester, tally in verdicts.items():
            verdict = summary["verdicts"][tester]
            tally[verdict] = tally.get(verdict, 0) + 1
        if code == cli.EXIT_PASS:
            passing.append(seed)
    return {"exit_codes": dict(sorted(exits.items())),
            "verdicts": {tester: dict(sorted(tally.items())) for tester, tally in verdicts.items()},
            "passing_seeds": passing}


def sweep(seeds) -> dict:
    curves = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in DIMENSIONS:
            for s in EXPONENTS:
                curves.append({"n": n, "s": s, "carleson": s >= 0.0, "exact_berezin": exact_berezin(n, s),
                               "mc": mc_tally(n, s, seeds, Path(tmp))})
    return {"seeds": [seeds[0], seeds[-1]], "n_seeds": len(seeds), "k_max": K_MAX, "curves": curves}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=49)
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
