"""cli-oneshot: the README examples, each as a fresh ``carleson-lab`` process.

One pass, one child at a time, in this order:
- ``ball`` (README example), volume checked against the closed form;
- ``berezin`` of the volume measure (README example), every probe within
  4 std errors of the exact value 1; this call prices mc_tta_s by the
  ``duration_s`` its ``manifest.json`` records (the work after import and
  parsing; set-up measures the import);
- ``carleson-test`` of the power(-0.5) density (README example): exit 1 and
  all three testers agreeing on "fail";
- ``seq decompose`` of the 40-rung ladder (README example), against first-fit
  colouring of the same points;
- ``cover`` in C^1 (README example): nothing uncovered, refined multiplicity
  not below the first one, centres separated at the disjointness threshold;
- ``verify quick --seed 5`` (README example): exit 0 and all 19 rows pass;
- ``seq analyze --sequence '{"type":"ladder"}'``: malformed input must exit 3
  without a traceback (a known fault: fails on every run today);
- ``ball`` again into a second directory: results.csv byte-identical.

``ball``, ``carleson-test``, ``seq decompose``, ``cover`` and the malformed
call get ``--seed`` from the workload seed.  Two examples keep their README
seeds: ``verify quick`` its ``--seed 5``, because at some seeds its
escape-sum-weighted row fails (seed 35 does; see CHANGES.md), and ``berezin``
the default seed 0, because the std errors of its tangential probes are
heavy-tailed across MC seeds and would swamp the time in mc_tta_s.  With
tracing on, children run through ``cli_child.py`` and leave their span totals
in the trace dir (their manifests then record the wrapper's argv).
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from harness import HERE, OUT, ROOT, TARGET_REL, Z_LIMIT, Op

BALL = ["ball", "--params", '{"z0": [0.6, 0.0], "r": 0.5}']
BEREZIN = ["berezin", "--measure", '{"dimension": 1, "density": {"type": "power", "s": 0.0}}',
           "--params", '{"k_max": 8}', "--samples", "40000"]
CARLESON = ["carleson-test", "--measure", '{"dimension": 1, "density": {"type": "power", "s": -0.5}}']
DECOMPOSE = ["seq", "decompose", "--sequence", '{"type": "ladder", "n": 1, "count": 40}', "--params", '{"r": 0.3}']
COVER = ["cover", "--params", '{"n": 1, "epsilon": 0.1, "r": 0.5}']
VERIFY = ["verify", "quick", "--seed", "5"]
MALFORMED = ["seq", "analyze", "--sequence", '{"type": "ladder"}']
VERIFY_ROWS = 19
EXIT_USAGE = 3


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class CliRunner:
    """Starts the children one at a time.  With ``trace_dir`` every child runs
    traced through ``cli_child.py`` and leaves its span totals there."""

    def __init__(self, trace_dir: Path | None):
        self.trace_dir = trace_dir
        self.count = 0

    def __call__(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "carleson_lab.cli", *argv]
        else:
            self.count += 1
            record = self.trace_dir / f"child{self.count:04d}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(record), *argv]
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def _exit(code: int, err: str, want: int) -> list[str]:
    if code == want:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"exit {code}, README says {want} ({tail[0]})"]


def build(seed: int, trace_dir: Path | None):
    """The ops of one pass; ``state["pass"]`` names the pass whose output
    directory they write to."""
    work = OUT / "cli"
    shutil.rmtree(work, ignore_errors=True)
    run = CliRunner(trace_dir)
    seed_args = ["--seed", str(seed)]
    state = {"pass": 0}

    def call(argv: list[str], name: str, seeded: bool = True):
        out_dir = work / f"pass{state['pass']}" / name
        proc = run(argv + (seed_args if seeded else []) + ["--out", str(out_dir)])
        return proc.returncode, proc.stderr, out_dir

    def ball(name="ball"):
        code, err, out_dir = call(BALL, name)
        return code, err, (out_dir / "results.csv").read_bytes() if code == 0 else b""

    def check_ball(value):
        code, err, raw = value[:3]
        problems = _exit(code, err, 0)
        if problems:
            return problems
        rows = list(csv.reader(raw.decode().splitlines()))
        volume = float(next(r for r in rows if r[0] == "volume")[1])
        exact = oracles.metric_ball_volume(1, 0.6, 0.5)
        return [] if abs(volume - exact) <= 1e-12 * exact else [f"volume {volume!r}, closed form {exact!r}"]

    def replay():
        code, err, raw = ball("ball-replay")
        first = work / f"pass{state['pass']}" / "ball" / "results.csv"
        return code, err, raw, first.read_bytes() if first.exists() else b""

    def check_replay(value):
        problems = check_ball(value)
        if not problems and value[2] != value[3]:
            problems.append("replayed results.csv differs from the first run")
        return problems

    def berezin():
        code, err, out_dir = call(BEREZIN, "berezin", seeded=False)
        if code != 0:
            return code, err, (), None
        rows = _rows(out_dir / "results.csv")[1:]
        duration = json.loads((out_dir / "manifest.json").read_text())["duration_s"]
        return code, err, tuple((float(r[1]), float(r[2])) for r in rows), duration

    def check_berezin(value):
        code, err, rows, _ = value
        problems = _exit(code, err, 0)
        if not rows and not problems:
            problems.append("no probe rows")
        for k, (est, se) in enumerate(rows):
            if not se > 0.0 or abs(est - 1.0) > Z_LIMIT * se:
                problems.append(f"probe {k}: {est!r} +- {se!r}, exact 1")
        return problems

    def carleson():
        code, err, out_dir = call(CARLESON, "carleson")
        path = out_dir / "summary.json"
        summary = json.loads(path.read_text()) if path.exists() else {}
        return code, err, summary.get("verdicts"), summary.get("agreement")

    def check_carleson(value):
        code, err, verdicts, agreement = value
        problems = _exit(code, err, 1)
        if verdicts != {"functional": "fail", "berezin": "fail", "ratio": "fail"} or agreement is not True:
            problems.append(f"verdicts {verdicts}, agreement {agreement}; theory says all fail")
        return problems

    def decompose():
        code, err, out_dir = call(DECOMPOSE, "decompose")
        rows = _rows(out_dir / "results.csv")[1:] if code == 0 else []
        return code, err, tuple(int(r[1]) for r in rows)

    def check_decompose(value):
        code, err, colors = value
        want = oracles.first_fit_colors(oracles.ladder_points(1, 40), 0.3).tolist()
        problems = _exit(code, err, 0)
        return problems + ([] if list(colors) == want else [f"classes {list(colors)[:8]}.., first fit {want[:8]}.."])

    def cover():
        code, err, out_dir = call(COVER, "cover")
        if code != 0:
            return code, err, None, ()
        summary = json.loads((out_dir / "summary.json").read_text())
        centers = tuple(tuple(float(x) for x in r) for r in _rows(out_dir / "results.csv")[1:])
        return code, err, summary, centers

    def check_cover(value):
        code, err, summary, centers = value
        problems = _exit(code, err, 0)
        if problems:
            return problems
        if summary["uncovered"] != 0:
            problems.append(f"{summary['uncovered']} probes uncovered")
        if summary["multiplicity_refined"] < summary["multiplicity"]:
            problems.append("refined multiplicity below the first one")
        rows = np.asarray(centers)
        sep = oracles.min_separation(rows[:, 0::2] + 1j * rows[:, 1::2])
        if sep < summary["disjoint_threshold"] * (1.0 - 1e-12):
            problems.append(f"centre separation {sep!r} < {summary['disjoint_threshold']!r}")
        return problems

    def verify():
        code, err, out_dir = call(VERIFY, "verify", seeded=False)
        path = out_dir / "verify_results.json"
        rows = json.loads(path.read_text()) if path.exists() else []
        return code, err, tuple((r["name"], r["pass"]) for r in rows)

    def check_verify(value):
        code, err, rows = value
        problems = _exit(code, err, 0)
        bad = [name for name, ok in rows if ok is not True]
        if len(rows) != VERIFY_ROWS or bad:
            problems.append(f"{len(rows)} rows, not passing: {bad}")
        return problems

    def malformed():
        code, err, _ = call(MALFORMED, "malformed")
        return code, err

    def check_malformed(value):
        code, err = value
        problems = _exit(code, err, EXIT_USAGE)
        if "Traceback" in err:
            problems.append("traceback on stderr")
        return problems

    ops = [
        Op("ball", ball, check_ball),
        Op("berezin", berezin, check_berezin),
        Op("carleson-test", carleson, check_carleson),
        Op("seq decompose", decompose, check_decompose),
        Op("cover", cover, check_cover),
        Op("verify quick", verify, check_verify),
        Op("seq analyze malformed", malformed, check_malformed, known_fault=True),
        Op("ball replay", replay, check_replay),
    ]
    return ops, state


def mc_tta(results) -> float:
    """The berezin call's manifest ``duration_s``, shared equally by its
    probes, times (std_error / 1e-3)^2 per probe (the exact value is 1)."""
    res = next(r for r in results if r.name == "berezin")
    rows, duration = res.value[2:] if res.raised is None else ((), None)
    if not rows:
        return float("nan")
    share = duration / len(rows)
    return sum(share * (se / TARGET_REL) ** 2 for _, se in rows)
