"""Record the outputs of the sequence-geometry benchmark's ops, seed by seed.

    python scripts/spatial_sweep.py --first 0 --last 49 --json scripts/spatial_sweep.json

Each seed builds ``perfbench/wl_sequence_geometry.py``'s ops (``build(seed)``)
and runs each once in this process with one BLAS thread.  Then the two covers
of the tier-1 covering test, ``greedy_cover(n, 0.1, 0.5, seed=11,
n_probes=10_000)`` for n = 1 and 2, run once.  The JSON holds every output:
integers exactly, floats by ``repr``, and the bytes of a point array (a
packing's points, a cover's centres) by shape, dtype and SHA-256.  It holds no
timings, so two checkouts whose packings, covers, separations and
decompositions agree bit for bit write identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402  (found through the path above)

harness.pin_environment()  # before numpy loads

import numpy as np  # noqa: E402
import wl_sequence_geometry  # noqa: E402

COVERS = tuple((n, 0.1, 0.5, 11, 10_000) for n in (1, 2))  # (n, epsilon, r, seed, probes)


def plain(value):
    """An op's output as JSON: integers exactly, floats by repr, bytes by SHA-256."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bytes):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    raise TypeError(f"no plain form for {type(value).__name__}")


def run_op(op):
    try:
        return plain(op.call())
    except Exception as exc:  # a raise is the op's output, as in the benchmark's judge
        return f"raised {type(exc).__name__}: {exc}"


def sweep(seeds) -> dict:
    from carleson_lab import sequences

    outputs = {}
    for seed in seeds:
        ops, _ = wl_sequence_geometry.build(seed)
        outputs[str(seed)] = {op.name: run_op(op) for op in ops}
    covers = {}
    for n, eps, r, seed, probes in COVERS:
        rep = sequences.greedy_cover(n, eps, r, seed=seed, n_probes=probes)
        centers = np.ascontiguousarray(rep.centers)
        covers[f"greedy_cover n={n} eps={eps} r={r} seed={seed} probes={probes}"] = plain(
            (tuple(sorted(rep.to_json_dict().items())), (centers.shape, str(centers.dtype), centers.tobytes()))
        )
    return {"seeds": [seeds[0], seeds[-1]], "n_seeds": len(seeds), "covers": covers, "outputs": outputs}


def dumps(doc: dict) -> str:
    """JSON with one line per op output, so a changed output is one changed line."""

    def block(entries: dict, indent: str) -> str:
        return ",\n".join(f"{indent}{json.dumps(k)}: {v}" for k, v in entries.items())

    def line(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    leaf = {k: line(v) for k, v in doc["covers"].items()}
    seeds = {seed: "{\n" + block({k: line(v) for k, v in ops.items()}, "      ") + "\n    }"
             for seed, ops in doc["outputs"].items()}
    top = {
        "seeds": json.dumps(doc["seeds"]),
        "n_seeds": json.dumps(doc["n_seeds"]),
        "covers": "{\n" + block(leaf, "    ") + "\n  }",
        "outputs": "{\n" + block(seeds, "    ") + "\n  }",
    }
    return "{\n" + block(top, "  ") + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=49)
    parser.add_argument("--json", type=Path, default=None, help="write the outputs here (default: stdout)")
    args = parser.parse_args(argv)
    text = dumps(sweep(list(range(args.first, args.last + 1))))
    if args.json is None:
        print(text, end="")
    else:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
