"""Run a fixed list of CLI calls and record their exit codes and artifacts in one JSON.

    PYTHONPATH=src python scripts/artifact_digest.py --json digest.json

Each call runs ``cli.main(argv + ["--out", DIR])`` in this process, with its
printed output discarded: the README examples, ``verify quick`` and ``full``
at seed 5, and calls that reach the Carleson testers, the Berezin op, shell
fits, the sequence and domain declarations, and the boundary distances and
Kobayashi bounds of the non-ball domains.  The JSON holds, per call, its argv,
exit code and every artifact but ``manifest.json``; CSV files as text, JSON
files parsed, with ``verify_results.json``'s per-row ``seconds`` left out.  It
holds no timings, so two checkouts that agree write identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
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
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(run_dir)])
            files = sorted(p for p in run_dir.glob("*") if p.name != "manifest.json") if run_dir.is_dir() else []
            out[name] = {"argv": argv, "exit_code": code, "artifacts": {p.name: _artifact(p) for p in files}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, default=None, help="write the digest here (default: stdout)")
    args = parser.parse_args(argv)
    text = json.dumps(digest(), indent=2) + "\n"
    if args.json is None:
        print(text, end="")
    else:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
