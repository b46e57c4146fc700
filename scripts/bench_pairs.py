"""Run the benchmark in two checkouts in alternating pairs and write BENCH_<label>.json.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --label L \\
        --run cli-oneshot:10:801 --run carleson-mc:10:821 [--claim TEXT]

Each ``--run WORKLOAD:PAIRS:FIRST_SEED`` runs the benchmark's command
(``BENCHMARK.json``'s ``command`` with ``--workload WORKLOAD --seed S --seconds
RUN_SECONDS --trace 0``) once in each tree per pair, one run at a time, with
one seed per pair (FIRST_SEED, FIRST_SEED + 1, ...).  The side that goes first
alternates from pair to pair, so drift in a shared host's speed falls on both
sides alike.  Each tree runs its own harness from its own root; this script
changes nothing under ``perfbench/``.

The command, run length and bounds come from the parent tree's
``BENCHMARK.json``, and the script refuses to run when the change tree's file
differs from it, so a change is never judged by rules it wrote itself.

The JSON (written after every run, so an interrupted session keeps its pairs)
holds the label, both trees' git shas, the command, the pairing, every run's
result and, per workload, the share of failed operations on each side and, per
end-to-end metric, the median and interquartile range of each side, how many
pairs the change ran lower, and the relative change of the medians against the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _sha(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "not a git checkout"


def _argv(spec: dict, workload: str, seed, seconds) -> list[str]:
    return [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def _run(tree: Path, argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": proc.stderr.strip().splitlines()[-5:]}
    return {"returncode": proc.returncode, "result": result}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    """Per workload: correct runs and failed ops per side, and per end-to-end
    metric the sides' medians and quartiles over the complete pairs."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload and "metrics" in r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not complete:
            continue
        sides = ("parent", "change")
        out = {
            "correct": {side: sum(bool(p[side].get("correct")) for p in complete) for side in sides},
            "failed_ops": {side: [p[side].get("failed") for p in complete] for side in sides},
            "attempted_ops": {side: [p[side].get("attempted") for p in complete] for side in sides},
        }
        out["failed_share"] = {
            side: (sum(out["failed_ops"][side]) / attempted if (attempted := sum(out["attempted_ops"][side])) else None)
            for side in sides
        }
        for metric in complete[0]["parent"]["metrics"]:
            parent = [p["parent"]["metrics"][metric]["value"] for p in complete]
            change = [p["change"]["metrics"][metric]["value"] for p in complete]
            pm, pq1, pq3 = _quartiles(parent)
            cm, cq1, cq3 = _quartiles(change)
            relative = (cm - pm) / pm if pm else None
            entry = {
                "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
                "change_median": cm, "change_q1": cq1, "change_q3": cq3,
                "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
                "pairs": len(complete),
                "relative_change": relative,
                "change_median_within_parent_iqr": pq1 <= cm <= pq3,
            }
            if metric in bounds:
                entry["bound"] = bounds[metric]
                worse = relative is not None and relative > bounds[metric]
                entry["verdict"] = "worse than its bound" if worse else "within its bound"
            out[metric] = entry
        summary[workload] = out
    return summary


def _run_spec(text: str) -> tuple[str, int, int]:
    try:
        workload, pairs, first_seed = text.split(":")
        return workload, int(pairs), int(first_seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS:FIRST_SEED, got {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--run", type=_run_spec, action="append", required=True, metavar="WORKLOAD:PAIRS:FIRST_SEED")
    parser.add_argument("--claim", default="none", help="the claimed gain, recorded as given")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="where BENCH_<label>.json goes")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no perfbench/run.py")
    spec_text = (trees["parent"] / "BENCHMARK.json").read_text()
    if (trees["change"] / "BENCHMARK.json").read_text() != spec_text:
        parser.error("the two trees' BENCHMARK.json differ; a change is judged by its parent's benchmark")
    spec = json.loads(spec_text)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "label": args.label,
        "git_sha": _sha(trees["change"]),
        "parent_git_sha": _sha(trees["parent"]),
        "command": " ".join(_argv(spec, "W", "S", seconds)),
        "pairing": "parent/change pairs, one run at a time, alternating which side runs first (run_order counts "
                   "the runs of a workload); one seed per pair: "
                   + ", ".join(f"{p} pairs of {w} at seeds {s}-{s + p - 1}" for w, p, s in args.run),
        "host": f"{os.cpu_count()} cores, {platform.system()} {platform.machine()}, Python {platform.python_version()}",
        "claim": args.claim,
        "summary": {},
        "runs": [],
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    first = 0
    for workload, n_pairs, first_seed in args.run:
        order = 0
        for pair in range(n_pairs):
            sides = ("parent", "change") if first % 2 == 0 else ("change", "parent")
            first += 1
            for side in sides:
                run = _run(trees[side], _argv(spec, workload, first_seed + pair, seconds))
                record["runs"].append({"workload": workload, "seed": first_seed + pair, "pair": pair, "side": side,
                                       "seconds": seconds, **run, "run_order": order})
                order += 1
                record["summary"] = summarise(record["runs"], bounds)
                path.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} seed {first_seed + pair} {side}: rc {run['returncode']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
