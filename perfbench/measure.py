"""One benchmark run: set-up, timed passes, checks, metrics."""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import sys
import time

import harness
import tracer as tracing

CLI_COMMANDS = ("ball", "berezin", "carleson-test", "seq-decompose", "cover", "verify", "seq-analyze")


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, on every workload."""
    split = {label: 0.0 for label in harness.IMPORT_SPLIT} | {"carleson_lab_self": 0.0}
    return list(_per_layer({}, 1, 0.0, split, {}))


def _per_layer(stats, passes: int, import_s: float, split: dict[str, float], main_s: dict[str, list[float]]):
    out = tracing.per_layer_metrics(stats, passes)
    out["cli.import_s"] = (import_s, "s")
    for label, secs in split.items():
        out[f"cli.import.{label}_s"] = (secs, "s")
    for cmd in CLI_COMMANDS:
        times = main_s.get(cmd, [])
        out[f"cli.main.{cmd}.s"] = (statistics.fmean(times) if times else 0.0, "s")
    return out


def _in_process(workload: str, seed: int):
    import carleson_lab.cli  # noqa: F401  (warm import: set-up timed it in fresh interpreters)

    module = importlib.import_module({"carleson-mc": "wl_carleson_mc", "sequence-geometry": "wl_sequence_geometry"}[workload])
    t0 = time.perf_counter()
    ops, tta = module.build(seed)
    return ops, tta, time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    harness.compile_sources()
    imports = harness.fresh_import_seconds()
    import_s = statistics.median(imports)
    tracer = tracing.Tracer()
    trace_dir = harness.OUT / "trace" if trace and workload == "cli-oneshot" else None

    if workload == "cli-oneshot":
        import wl_cli_oneshot

        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        ops, state = wl_cli_oneshot.build(seed, trace_dir)
        build_s = time.perf_counter() - t0
        tta = wl_cli_oneshot.mc_tta

        def one_pass(i):
            state["pass"] = i
            return [harness.run_op(op) for op in ops]

        rss_of = resource.RUSAGE_CHILDREN  # the largest child
    else:
        ops, tta, build_s = _in_process(workload, seed)

        def one_pass(i):
            return [harness.run_op(op) for op in ops]

        rss_of = resource.RUSAGE_SELF
        if trace:
            tracer.install()

    passes = harness.run_passes(seconds, one_pass)
    peak = harness.peak_rss_mb(rss_of)
    tracer.uninstall()
    verdict = harness.judge(ops, passes, check_every_pass=workload == "cli-oneshot")
    for problem in verdict["unexpected"]:
        print(f"INCORRECT {problem}", file=sys.stderr)

    pass_times = [p.seconds for p in passes]
    details = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "pass_s": pass_times,
        "import_s": imports,
        "build_s": build_s,
        "op_s": {op.name: statistics.median(p.ops[k].seconds for p in passes) for k, op in enumerate(ops)},
        "known_faults": verdict["known"],
        "unexpected": verdict["unexpected"],
    }
    if not trace:
        ttas = [tta(p.ops) for p in passes]
        details["mc_tta_s"] = ttas
        metrics = {
            "setup_s": (import_s + build_s, "s"),
            "pass_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (peak, "MB"),
            "mc_tta_s": (statistics.median(ttas), "s"),
        }
    else:
        main_s: dict[str, list[float]] = {}
        if trace_dir is not None:
            for path in sorted(trace_dir.glob("child*.json")):
                child = json.loads(path.read_text())
                tracer.merge_json(child["stats"])
                main_s.setdefault(child["command"], []).append(child["main_s"])
        metrics = _per_layer(tracer.stats, len(passes), import_s, harness.import_split(), main_s)
    return {
        "environment": harness.environment(),
        "details": details,
        "result": {
            "correct": not verdict["unexpected"],
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }
