"""Apply each of a fixed list of source mutants to a scratch copy and record what catches it.

    python scripts/mutants.py --json scripts/mutants.json      # the whole tally, about 25 minutes
    python scripts/mutants.py --check                          # only: does every mutant still apply?

A mutant is (name, file, exact old text, new text, the rule it breaks).  Its
old text must occur exactly once in its file, so a refactor that moves or
rewrites a formula breaks the list visibly (``--check`` exits 1 and names it).

The tally copies the tree (``--tree``, by default the checkout that holds this
script) into a scratch directory (``--work``, by default a new temporary one)
and never writes to the tree itself.  It runs the unmutated copy once, then
each mutant alone: the mutant is written into the copy's file, the checks run,
and the file is restored.  The checks are tier-1 (pytest over the copy),
``verify quick --seed 5``, ``verify full --seed 5`` and the artifact digest
against the copy's committed golden.  Bytecode caching is off, so a restored
file is never shadowed by a mutant's cached bytecode.

The JSON lists, per mutant, whether it applies and what catches it: the
tier-1 tests that fail with it and not without it, the verify rows that do not
pass and each suite's exit code, and the digest calls that differ from the
golden.  It holds no timings and no paths, so two checkouts that agree write
identical files.  A mutant whose old text does not occur once in the tree is
recorded as not applying and is not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

# (name, file, old text, new text, the rule it breaks)
MUTANTS = [
    ("pseudo-rho-denominator", "src/carleson_lab/geometry_ball.py",
     "den = (0.5 * (da + db + dd)) ** 2 + p.imag**2", "den = (0.5 * (da + db + dd)) ** 2",
     "|1 - <a, b>|^2 has the imaginary part Im<d, a>^2 in pseudo_rho's denominator"),
    ("mobius-factor-exponent", "src/carleson_lab/geometry_ball.py",
     "return da / np.abs(1.0 - pts @ np.conj(a).T) ** 2", "return da / np.abs(1.0 - pts @ np.conj(a).T) ** 2.001",
     "q_a(z) = (1 - |a|^2) / |1 - <z, a>|^2, a square"),
    ("one-minus-norm-sq", "src/carleson_lab/geometry_ball.py",
     "return 1.0 - _sum_last(z.real * z.real + z.imag * z.imag)",
     "return 1.0 - _sum_last(z.real * z.real + z.imag * z.real)",
     "|z|^2 sums the squares of the real and the imaginary parts"),
    ("ball-volume-exponent", "src/carleson_lab/geometry_ball.py",
     "((1.0 - nz2) / (1.0 - r * r * nz2)) ** (n + 1)", "((1.0 - nz2) / (1.0 - r * r * nz2)) ** n",
     "vol E(z, r) = r^2n ((1 - |z|^2) / (1 - r^2 |z|^2))^(n+1)"),
    ("invariant-volume-exponent", "src/carleson_lab/geometry_ball.py",
     "(rho_sq / (1.0 - rho_sq)) ** n", "(rho_sq / (1.0 - rho_sq)) ** (n + 1)",
     "the invariant volume of a ball of pseudo-radius rho is (rho^2 / (1 - rho^2))^n"),
    ("ek-density-exponent", "src/carleson_lab/invariant_measure.py",
     "** (-(pts.shape[1] + 1.0))", "** (-(pts.shape[1] + 0.5))",
     "the invariant density is (1 - |z|^2)^-(n+1)"),
    ("beta-tilt-normalisation", "src/carleson_lab/integrate.py",
     "** (-self.exponent) / self._norm", "** (-self.exponent)",
     "the Beta tilt's density integrates to one: divide by n B(n, 1 - a)"),
    ("pole-underfit", "src/carleson_lab/integrate.py",
     "BetaRadialComponent(n, 0.75 * pole_order)", "BetaRadialComponent(n, 0.5 * pole_order)",
     "a declared pole of order p is drawn by the Beta tilt of exponent 0.75 p"),
    ("fold-variance-weight", "src/carleson_lab/integrate.py",
     "var += w * w * np.var(vals, ddof=1) / vals.size", "var += w * np.var(vals, ddof=1) / vals.size",
     "the variance of sum_k w_k mean_k is sum_k w_k^2 var_k / c_k"),
    ("dirac-weight", "src/carleson_lab/sequences.py",
     "weights = seq.boundary_distances ** (n + 1)", "weights = seq.boundary_distances ** n",
     "the discrete Carleson measure weighs a point by delta^(n+1)"),
    ("shell-index", "src/carleson_lab/sequences.py",
     "m = np.floor(2.0 * k).astype(int)", "m = np.floor(2.0 * k + 1.0).astype(int)",
     "shell m holds the points at Kobayashi distance in [m/2, (m+1)/2)"),
    ("count-within-band", "src/carleson_lab/sequences.py",
     "band = slack / deepest if deepest > 2.0 * slack else math.inf", "band = 0.0",
     "pairs within the rounding band of the product form go to the distance"),
    ("count-within-strict", "src/carleson_lab/sequences.py",
     "qi[_pair_distance(metric, chunk[qi], near[ci]) < t]", "qi[_pair_distance(metric, chunk[qi], near[ci]) <= t]",
     "a count within radius t counts distances < t, strictly"),
    ("nearest-first-test", "src/carleson_lab/sequences.py",
     "found = _pair_distance(metric, queries, nearest) < t", "found = _pair_distance(metric, queries, nearest) < 1.01 * t",
     "the nearest-first stage decides a query only at distance < t"),
    ("median-middle", "src/carleson_lab/measures.py",
     "return float(s[h] if x.size % 2 else (s[h - 1] + s[h]) / 2.0)", "return float(s[h])",
     "the median of an even count is the mean of the two middle values"),
    ("approach-threshold", "src/carleson_lab/measures.py",
     "SLOPE_THRESHOLD = -0.1", "SLOPE_THRESHOLD = -0.3",
     "the approach rule's slope threshold is -0.1"),
    ("comparison-strict", "src/carleson_lab/reports.py",
     '"<": lambda v, b: v < b', '"<": lambda v, b: v <= b',
     "a gate with comparison < holds only for a value strictly below its bound"),
    ("oracle-placement", "tests/test_integrate.py",
     "return pts if source.base is None else g.ball_automorphism_many(source.base, pts)", "return pts",
     "the per-batch oracle places each batch by its source's base, as the engine does"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
VERIFY = [[sys.executable, "-m", "carleson_lab.cli", "verify", suite, "--seed", "5"] for suite in ("quick", "full")]
# the digest of the copy against the copy's golden: the calls whose artifacts or exit codes differ
DIGEST = """
import json, sys
sys.path.insert(0, "scripts")
import artifact_digest as d
golden = json.load(open("scripts/artifact_digest.json"))
try:
    current = d.digest()
except Exception as exc:
    print(json.dumps({"error": type(exc).__name__}))
else:
    print(json.dumps({"calls": [name for name in golden if d._diffs(name, golden[name], current.get(name, "<absent>"))]}))
"""
TIMEOUT = 1800  # seconds; a check that runs longer is recorded as timed out


def occurrences(tree: Path) -> dict[str, int]:
    """How often each mutant's old text occurs in its file under ``tree``."""
    return {name: (tree / file).read_text().count(old) if (tree / file).is_file() else 0
            for name, file, old, _, _ in MUTANTS}


def _run(argv, cwd: Path) -> subprocess.CompletedProcess | None:
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def _failing_tests(copy: Path) -> list[str] | str:
    report = copy / ".mutant-junit.xml"
    report.unlink(missing_ok=True)
    if _run([*TIER1, f"--junitxml={report}"], copy) is None:
        return "timed out"
    failed = [f"{case.get('classname')}::{case.get('name')}" for case in ET.parse(report).getroot().iter("testcase")
              if case.find("failure") is not None or case.find("error") is not None]
    report.unlink()
    return sorted(failed)


def _verify(copy: Path, argv) -> dict:
    out = copy / ".mutant-verify"
    shutil.rmtree(out, ignore_errors=True)
    proc = _run([*argv, "--out", str(out)], copy)
    if proc is None:
        return {"exit_code": "timed out", "rows": []}
    results = out / "verify_results.json"
    rows = [r["name"] for r in json.loads(results.read_text()) if r["pass"] is not True] if results.is_file() else []
    shutil.rmtree(out, ignore_errors=True)
    return {"exit_code": proc.returncode, "rows": rows}


def _digest(copy: Path) -> list[str] | str:
    proc = _run([sys.executable, "-c", DIGEST], copy)
    if proc is None:
        return "timed out"
    if proc.returncode or not proc.stdout.strip():
        return "crashed"
    result = json.loads(proc.stdout.splitlines()[-1])
    return result.get("calls", f"raised {result.get('error')}")


def _checks(copy: Path) -> dict:
    return {"tests": _failing_tests(copy),
            **{f"verify_{argv[4]}": _verify(copy, argv) for argv in VERIFY},
            "digest": _digest(copy)}


def tally(tree: Path, work: Path) -> dict:
    copy = work / "tree"
    shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.pyc"))
    baseline = _checks(copy)
    counts = occurrences(copy)
    mutants = []
    for name, file, old, new, rule in MUTANTS:
        entry = {"name": name, "file": file, "rule": rule, "applies": counts[name] == 1}
        if entry["applies"]:
            path = copy / file
            original = path.read_text()
            path.write_text(original.replace(old, new))
            try:
                got = _checks(copy)
            finally:
                path.write_text(original)
            tests = got["tests"] if isinstance(got["tests"], str) else sorted(set(got["tests"]) - set(baseline["tests"]))
            verify = {k: v for k, v in got.items() if k.startswith("verify_")}
            entry["caught_by"] = {"tests": tests, **verify, "digest": got["digest"]}
            entry["caught"] = bool(tests) or any(v["exit_code"] != 0 for v in verify.values()) or bool(got["digest"])
        mutants.append(entry)
        print(f"{name}: {'caught' if entry.get('caught') else 'not caught' if entry['applies'] else 'does not apply'}",
              file=sys.stderr)
    return {"baseline": baseline, "mutants": mutants,
            "uncaught": [m["name"] for m in mutants if m["applies"] and not m["caught"]],
            "not_applying": [m["name"] for m in mutants if not m["applies"]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1], help="the tree to mutate")
    parser.add_argument("--work", type=Path, default=None, help="scratch directory for the copy (default: a new one)")
    parser.add_argument("--json", type=Path, default=None, help="write the tally here (default: stdout)")
    parser.add_argument("--check", action="store_true", help="only check that every mutant applies exactly once")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.check:
        bad = {name: count for name, count in occurrences(tree).items() if count != 1}
        for name, count in bad.items():
            print(f"{name}: its old text occurs {count} times, not once", file=sys.stderr)
        print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants apply")
        return 1 if bad else 0
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        if work == tree or tree in work.parents:
            parser.error("the scratch directory must lie outside the tree")
        work.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(work / "tree", ignore_errors=True)
        result = tally(tree, work)
    text = json.dumps(result, indent=1) + "\n"
    if args.json is None:
        print(text, end="")
    else:
        args.json.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
