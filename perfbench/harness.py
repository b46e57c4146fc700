"""Shared machinery: thread pinning, set-up timing, the pass loop, the result line.

Every workload runs in one process that loads the machine alone: the passes
run one after another, and CLI children are started one at a time.
"""

from __future__ import annotations

import compileall
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# one BLAS/OpenMP thread and one MC worker, for this process and every child
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "CARLESON_LAB_THREADS": "1",
}

# fresh interpreters per run whose import time is the median in setup_s
IMPORT_SAMPLES = 7

# modules whose cumulative first-import time the traced run splits out
IMPORT_SPLIT = {
    "numpy": "numpy",
    "scipy_special": "scipy.special",
    "scipy_optimize": "scipy.optimize",
    "scipy_stats": "scipy.stats",
    "jsonschema": "jsonschema",
}


def pin_environment():
    """One BLAS/OpenMP thread and the checkout's sources, for this process
    (before numpy loads) and every child it starts."""
    os.environ.update(PINNED_THREADS)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def compile_sources():
    """Write .pyc files for the package and the benchmark before timing."""
    for path in (SRC, HERE):
        if not compileall.compile_dir(str(path), quiet=1):
            raise RuntimeError(f"byte-compiling {path} failed")


def fresh_import_seconds() -> list[float]:
    """Import time of carleson_lab and carleson_lab.cli in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import carleson_lab, carleson_lab.cli; "
        "print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def import_split() -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import carleson_lab.cli"],
        capture_output=True, text=True, check=True,
    )
    cumulative = {}
    own = 0.0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue
        name = parts[2]
        cumulative.setdefault(name, int(parts[1]) * 1e-6)
        if name.startswith("carleson_lab"):
            own += int(parts[0]) * 1e-6
    split = {label: cumulative.get(mod, 0.0) for label, mod in IMPORT_SPLIT.items()}
    split["carleson_lab_self"] = own
    return split


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Op:
    """One program call of a pass, and how its output is judged.

    ``call`` runs the program and returns a comparable summary of its output;
    ``check`` returns the problems found in that summary (empty when correct).
    A ``known_fault`` op fails on every run today because of a named fault in
    the program: it counts as failed without making the run incorrect.
    """

    name: str
    call: object
    check: object
    known_fault: bool = False


@dataclass
class OpResult:
    name: str
    seconds: float
    value: object
    raised: str | None = None


@dataclass
class PassResult:
    seconds: float
    ops: list[OpResult] = field(default_factory=list)


def run_op(op: Op) -> OpResult:
    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # the op failed; the run goes on and reports it
        return OpResult(op.name, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    return OpResult(op.name, time.perf_counter() - t0, value)


def run_passes(seconds: float, one_pass) -> list[PassResult]:
    """Whole passes for about ``seconds``: a pass is started only while the
    time used plus the median pass so far fits; at least one pass runs."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = one_pass(len(passes))
        passes.append(PassResult(time.perf_counter() - t0, ops))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def judge(ops: list[Op], passes: list[PassResult], check_every_pass: bool = False) -> dict:
    """Attempted and failed op counts over all passes, and the problems found.

    The first pass is checked against the references.  The program is
    deterministic, so later passes must repeat its outputs exactly (or, with
    ``check_every_pass``, are checked in full as well).
    """
    attempted = failed = 0
    unexpected: list[str] = []
    known: list[str] = []
    first: list[list[str]] = []
    for p_idx, p in enumerate(passes):
        for k, (op, res) in enumerate(zip(ops, p.ops)):
            attempted += 1
            if res.raised is not None:
                problems = [res.raised]
            elif p_idx == 0 or check_every_pass:
                problems = op.check(res.value)
            elif repr(res.value) != repr(passes[0].ops[k].value):
                problems = ["output differs from the first pass"]
            else:
                problems = first[k]
            if p_idx == 0:
                first.append(problems)
            if problems:
                failed += 1
                (known if op.known_fault else unexpected).extend(f"{op.name}: {msg}" for msg in problems)
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected, "known": sorted(set(known))}


TARGET_REL = 1e-3  # accuracy at which mc_tta_s prices each estimate
Z_LIMIT = 4.0  # MC estimates must sit within this many std errors of the exact value


def z_check(exact: float):
    """Check of an (estimate, std_error) pair against an exact value."""

    def check(value):
        est, se = value
        if not (math.isfinite(est) and se > 0.0):
            return [f"estimate {est!r} with std_error {se!r}"]
        z = (est - exact) / se
        return [] if abs(z) <= Z_LIMIT else [f"{est!r} is {z:+.2f} std errors from exact {exact!r}"]

    return check


def time_to_accuracy(priced: dict[str, float]):
    """mc_tta_s over one pass: the sum over priced estimates (value, std_error)
    of t_i * (std_error_i / (1e-3 |exact_i|))^2, the time each would need to
    reach 1e-3 relative accuracy at its measured cost per unit variance."""

    def tta(results) -> float:
        total = 0.0
        for res in results:
            if res.name in priced and res.raised is None:
                total += res.seconds * (res.value[1] / (TARGET_REL * abs(priced[res.name]))) ** 2
        return total

    return tta


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def os_threads() -> int | None:
    """Threads of this process as the kernel counts them (1 when BLAS is pinned)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {key: os.environ.get(key) for key in PINNED_THREADS},
        "process_threads": os_threads(),
    }


def emit(record: dict, workload: str, seed: int, trace: int) -> None:
    """Print the environment line and the result line; keep a copy in .out/runs."""
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(runs / f"{stamp}-{workload}-seed{seed}-trace{trace}-{os.getpid()}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    print("# environment " + json.dumps(record["environment"]))
    print("# details " + json.dumps(record["details"]))
    print(json.dumps(record["result"]))
