"""Run ``carleson-lab verify`` over a range of seeds and tally each row's verdicts.

    PYTHONPATH=src python scripts/verify_sweep.py --first 0 --last 199 --json sweep.json

Each seed runs ``cli.main(["verify", SUITE, "--seed", s, "--out", DIR])`` in this
process, with the printed table discarded.  The JSON lists, per row in table
order, how many seeds failed it and how many left it inconclusive, and for each
seed that exited non-zero its exit code and the rows that did not pass.  It
holds no timings, so two checkouts that agree write identical files.  With
``--keep DIR`` each seed's ``verify_results.{csv,json}`` stay in
``DIR/seed-<s>``, ready to diff against another checkout's.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

from carleson_lab import cli


def sweep(suite: str, seeds, keep: Path | None) -> dict:
    rows: dict[str, dict[str, int]] = {}
    nonzero = []
    with tempfile.TemporaryDirectory() as tmp:
        root = keep or Path(tmp)
        for seed in seeds:
            out = root / f"seed-{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["verify", suite, "--seed", str(seed), "--out", str(out)])
            results = json.loads((out / "verify_results.json").read_text())
            for r in results:
                tally = rows.setdefault(r["name"], {"fail": 0, "inconclusive": 0})
                if r["pass"] is False:
                    tally["fail"] += 1
                elif r["pass"] is None:
                    tally["inconclusive"] += 1
            if code != 0:
                nonzero.append({"seed": seed, "exit_code": code,
                                "rows": [r["name"] for r in results if r["pass"] is not True]})
    return {"suite": suite, "seeds": [seeds[0], seeds[-1]], "n_seeds": len(seeds), "rows": rows,
            "nonzero": nonzero}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--suite", choices=["quick", "full"], default="quick")
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=199)
    parser.add_argument("--json", type=Path, default=None, help="write the tally here (default: stdout)")
    parser.add_argument("--keep", type=Path, default=None, help="keep each seed's artifacts under this directory")
    args = parser.parse_args(argv)
    report = sweep(args.suite, list(range(args.first, args.last + 1)), args.keep)
    text = json.dumps(report, indent=2) + "\n"
    if args.json is None:
        print(text, end="")
    else:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
