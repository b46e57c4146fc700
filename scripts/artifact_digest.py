"""Run a fixed list of CLI calls and record their exit codes and artifacts in one JSON.

    PYTHONPATH=src python scripts/artifact_digest.py --json digest.json
    PYTHONPATH=src python scripts/artifact_digest.py --check scripts/artifact_digest.json

Each call runs ``cli.main(argv + ["--out", DIR])`` in this process, with its
printed output discarded: the README examples, ``verify quick`` and ``full``
at seed 5, and calls that reach the Carleson testers, the Berezin op, shell
fits, the sequence and domain declarations, and the boundary distances and
Kobayashi bounds of the non-ball domains, and malformed input that must exit 3.
The JSON holds, per call, its argv, exit code and every artifact but
``manifest.json``; CSV files as text, JSON files parsed, with
``verify_results.json``'s per-row ``seconds`` left out; a call that exits 3
holds its message instead.  It holds no timings, so two checkouts that agree
write identical files.

``--check GOLDEN`` compares the digest with a committed one (``GOLDEN``) and
exits 1 on any difference, printing each, the first call and field first.
Exit codes, statuses, verdicts, integers and non-numeric CSV cells must be
equal.  Floats may differ by ``REL_TOL`` of the larger magnitude, taken as at
least ``FLOOR``: other numpy builds may round the last digits differently, and
rounding residues (an identity deviation of 3e-16) may differ in every digit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from carleson_lab import cli

VOLUME = '{"dimension": 1, "density": {"type": "power", "s": 0.0}}'
POLE = '{"dimension": 1, "density": {"type": "power", "s": -0.5}}'
ELLIPSOID = '{"type": "ellipsoid", "semi_axes": [1.5, 1.0, 1.2, 0.9]}'
ATOMS_AND_DENSITY = '{"dimension": 1, "atoms": [[[0.5, 0.0], 1.0], [[0.0, 0.9], 0.5]], "density": {"type": "power", "s": 0.5}}'

CALLS = {
    "readme-ball": ["ball", "--params", '{"z0": [0.6, 0.0], "r": 0.5}'],
    "readme-berezin": ["berezin", "--measure", VOLUME, "--params", '{"k_max": 8}', "--samples", "40000"],
    "readme-carleson-test": ["carleson-test", "--measure", POLE],
    "readme-seq-decompose": ["seq", "decompose", "--sequence", '{"type": "ladder", "n": 1, "count": 40}',
                             "--params", '{"r": 0.3}'],
    "readme-cover": ["cover", "--params", '{"n": 1, "epsilon": 0.1, "r": 0.5}'],
    "readme-verify-quick": ["verify", "quick", "--seed", "5"],
    "verify-full": ["verify", "full", "--seed", "5"],
    "carleson-test-n2": ["carleson-test", "--measure", '{"dimension": 2, "density": {"type": "power", "s": 0.5}}',
                         "--seed", "7"],
    "carleson-test-ladder": ["carleson-test", "--sequence", '{"type": "ladder", "n": 1, "count": 30}'],
    "carleson-test-sizes": ["carleson-test", "--measure", ATOMS_AND_DENSITY, "--params",
                            '{"ball_samples": 3000, "global_samples": 5000, "n_polynomials": 4, "k_max": 6}'],
    "berezin-dirac": ["berezin", "--measure", '{"dimension": 1, "atoms": [[[0.5, 0.0], 1.0]], "density": "none"}'],
    "berezin-pole-n2": ["berezin", "--measure", '{"dimension": 2, "density": {"type": "power", "s": -0.5}}'],
    "berezin-probes": ["berezin", "--measure", ATOMS_AND_DENSITY, "--params",
                       '{"probes": [[0.0, 0.0], [0.5, 0.5], [0.9, 0.0], [0.0, -0.99]]}', "--format", "json"],
    "berezin-one-depth": ["berezin", "--measure", '{"dimension": 1, "atoms": [[[0.5, 0.0], 1.0]], "density": "none"}',
                          "--params", '{"probes": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0]]}'],
    "seq-shells-packing": ["seq", "shells", "--sequence", '{"type": "packing", "n": 1, "delta": 0.5, "epsilon": 0.02}'],
    "seq-shells-ladder": ["seq", "shells", "--sequence", '{"type": "ladder", "n": 1, "count": 50}'],
    "seq-analyze-lattice": ["seq", "analyze", "--sequence", '{"type": "lattice", "n": 1}'],
    "seq-analyze-lattice-spacing": ["seq", "analyze", "--sequence",
                                    '{"type": "lattice", "n": 1, "spacing": 0.3, "jitter": 0.1, "seed": 3}'],
    "seq-analyze-packing": ["seq", "analyze", "--sequence", '{"type": "packing", "n": 1}'],
    "perturbed-ball-distance": ["ball", "--domain", '{"type": "perturbed_ball", "dimension": 1}',
                                "--params", '{"op": "boundary_distance", "z": [0.5, 0.1]}'],
    "perturbed-ball-distance-declared": ["ball", "--domain", '{"type": "perturbed_ball", "dimension": 1, '
                                         '"epsilon": 0.1, "bump_width": 0.4, "bump_center": [0.0, 0.7]}',
                                         "--params", '{"op": "boundary_distance", "z": [0.5, 0.1]}'],
    "ellipsoid-distance": ["ball", "--domain", ELLIPSOID, "--params",
                           '{"op": "boundary_distance", "z": [0.3, 0.1, -0.2, 0.4]}'],
    "ellipsoid-kobayashi-bounds": ["ball", "--domain", ELLIPSOID, "--params", '{"op": "kobayashi_bounds", '
                                   '"z": [0.3, 0.1, -0.2, 0.4], "w": [-0.5, 0.2, 0.1, 0.0]}'],
    "perturbed-ball-distance-comparison": ["ball", "--domain", '{"type": "perturbed_ball", "dimension": 2}',
                                           "--params", '{"op": "check_distance_comparison", '
                                           '"z0": [0.5, 0.0, 0.0, 0.3], "samples": 2000}'],
    # malformed input: each exits 3 naming its field, before any work
    "refused-misspelt-declaration-key": ["seq", "analyze", "--sequence", '{"type": "packing", "n": 1, "epsilno": 0.2}'],
    "refused-nan-row": ["seq", "analyze", "--sequence", '{"type": "points", "rows": [[NaN, 0], [0.5, 0]]}'],
    "refused-nan-semi-axis": ["ball", "--domain", '{"type": "ellipsoid", "semi_axes": [NaN, 1.0]}',
                              "--params", '{"op": "boundary_distance", "z": [0.3, 0.1]}'],
    # points outside the ball: the one-point density and kernel refuse them as the distances do
    "refused-ek-density-outside": ["ek", "--params", '{"op": "ek_density", "z": [1.5, 0.0]}'],
    "refused-kernel-outside": ["berezin", "--params", '{"op": "kernel", "z": [1.5, 0.0], "w": [0.5, 0.0]}'],
}


def _artifact(path: Path):
    if path.suffix != ".json":
        return path.read_text()
    data = json.loads(path.read_text())
    if path.name == "verify_results.json":
        data = [{k: v for k, v in row.items() if k != "seconds"} for row in data]
    return data


def digest() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CALLS.items():
            run_dir = Path(tmp) / name
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--out", str(run_dir)])
            files = sorted(p for p in run_dir.glob("*") if p.name != "manifest.json") if run_dir.is_dir() else []
            out[name] = {"argv": argv, "exit_code": code, "artifacts": {p.name: _artifact(p) for p in files}}
            if code == cli.EXIT_USAGE:
                out[name]["error"] = err.getvalue()
    return out


REL_TOL = 1e-9
FLOOR = 1e-6


def _number(cell: str):
    """A CSV cell as an int or a float, or None when it is no number."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return None


def _same(golden, got) -> bool:
    """Equal, or two floats within REL_TOL (a bool or an int is compared exactly)."""
    if type(golden) is float or type(got) is float:
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (golden, got)):
            return False
        if math.isnan(golden) or math.isnan(got):
            return math.isnan(golden) and math.isnan(got)
        return golden == got or abs(golden - got) <= REL_TOL * max(abs(golden), abs(got), FLOOR)
    return type(golden) is type(got) and golden == got


def _csv_diffs(field: str, golden: str, got: str) -> list[tuple[str, object, object]]:
    rows = [list(csv.reader(io.StringIO(text))) for text in (golden, got)]
    if len(rows[0]) != len(rows[1]):
        return [(f"{field}: rows", len(rows[0]), len(rows[1]))]
    out = []
    for i, (want, have) in enumerate(zip(*rows)):
        if len(want) != len(have):
            out.append((f"{field}: row {i} cells", len(want), len(have)))
            continue
        for j, (a, b) in enumerate(zip(want, have)):
            x, y = _number(a), _number(b)
            if not (_same(x, y) if x is not None and y is not None else a == b):
                out.append((f"{field}: row {i} column {j}", a, b))
    return out


def _diffs(field: str, golden, got) -> list[tuple[str, object, object]]:
    """(field, golden value, value) for each difference below ``field``."""
    if isinstance(golden, dict) and isinstance(got, dict):
        out = [(f"{field}/{key}", golden.get(key, "<absent>"), got.get(key, "<absent>"))
               for key in sorted(golden.keys() ^ got.keys())]
        for key in (key for key in golden if key in got):
            diff = _csv_diffs if key.endswith(".csv") else _diffs
            out += diff(f"{field}/{key}", golden[key], got[key])
        return out
    if isinstance(golden, list) and isinstance(got, list):
        if len(golden) != len(got):
            return [(f"{field}: length", len(golden), len(got))]
        return [d for i, (a, b) in enumerate(zip(golden, got)) for d in _diffs(f"{field}/{i}", a, b)]
    return [] if _same(golden, got) else [(field, golden, got)]


def compare(golden: dict, current: dict) -> list[str]:
    """Every difference of ``current`` from ``golden``, call by call in the
    golden's order, as "call/field: golden X, got Y" lines."""
    lines = []
    for name in [*golden, *(name for name in current if name not in golden)]:
        want, have = golden.get(name, "<absent>"), current.get(name, "<absent>")
        lines += [f"{field}: golden {a!r}, got {b!r}" for field, a, b in _diffs(name, want, have)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, default=None, help="write the digest here (default: stdout)")
    parser.add_argument("--check", type=Path, default=None, help="compare the digest with this golden one")
    args = parser.parse_args(argv)
    current = digest()
    text = json.dumps(current, indent=2) + "\n"
    if args.json is not None:
        args.json.write_text(text)
    elif args.check is None:
        print(text, end="")
    if args.check is None:
        return 0
    lines = compare(json.loads(args.check.read_text()), json.loads(text))
    for line in lines:
        print(line, file=sys.stderr)
    print(f"{len(lines)} fields differ from {args.check}" if lines else f"the digest matches {args.check}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
