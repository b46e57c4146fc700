"""Spans around carleson_lab's public functions, taken from outside the package.

``Tracer.install()`` replaces each traced function by a timing wrapper in every
loaded ``carleson_lab`` module that holds a reference to it, so calls made
between modules (``from .integrate import integrate_mixture``) and inside a
module (``pseudo_block`` from ``greedy_pack``) are both seen.  Spans are kept
as per-function totals: calls, seconds, self seconds (span minus the traced
spans it contains) and work counts taken from the arguments and results.
Time spent in untraced helpers is charged to the nearest traced caller.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = (
    "geometry_ball",
    "bergman",
    "integrate",
    "measures",
    "sequences",
    "invariant_measure",
    "domains",
    "cli",
)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(x)


def _samples(cfg) -> dict:
    return {"samples": int(cfg.n_samples)}


def _points(a, k, r, dt):
    return {"points": _rows(_arg(a, k, 1, "points"))}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _mixture_work(args, kwargs, result, dt):
    n = int(_arg(args, kwargs, 3, "cfg").n_samples)
    # every component density is evaluated on every sample (computed, not counted)
    return {"samples": n, "component_evals": n * len(_arg(args, kwargs, 1, "components"))}


def _berezin_work(args, kwargs, result, dt):
    mu = _arg(args, kwargs, 0, "mu")
    return {"samples": int(_arg(args, kwargs, 2, "cfg").n_samples) if mu.density is not None else 0}


def _separation_work(args, kwargs, result, dt):
    # kept per point count: the exact and the pruned branch split at 10,000
    m = len(_arg(args, kwargs, 0, "seq"))
    return {f"pairs_at_{m}": m * (m - 1) // 2, f"s_at_{m}": dt}


# module -> function -> work extractor (args, kwargs, result, seconds) -> counts
TRACED = {
    "geometry_ball": {
        "pseudo_distance": None,
        "pseudo_distance_many": _points,
        "ball_automorphism_many": _points,
        "mobius_jacobian_many": _points,
        "kobayashi_ball": None,
        "ball_volume": None,
        "sample_ball_uniform": None,
        "check_lemma_ball_inequality": None,
    },
    "bergman": {
        "berezin_transform": _berezin_work,
        "normalized_kernel_sq_values": None,
        "check_kernel_upper": None,
        "check_kernel_lower": None,
        "check_submean": None,
        "reproducing_check": None,
    },
    "integrate": {
        "integrate_density": lambda a, k, r, dt: _samples(_arg(a, k, 2, "cfg")),
        "integrate_mixture": _mixture_work,
        "sample_unit_ball": None,
    },
    "measures": {
        "measure_of_ball": None,
        "boundary_schedule": None,
        "carleson_ratio_test": None,
        "carleson_berezin_test": None,
        "carleson_functional_test": None,
        "cross_check_equivalence": lambda a, k, r, dt: {"verdicts": 1},
        "bundled_measure_suite": None,
    },
    "sequences": {
        "pseudo_block": lambda a, k, r, dt: {"pairs": _rows(a[0]) * _rows(a[1])},
        "separation_constant": _separation_work,
        "count_in_ball": None,
        "greedy_decompose": None,
        "greedy_pack": lambda a, k, r, dt: {"candidates": _rows(a[0]), "kept": len(r)},
        "greedy_cover": None,
        "dirac_carleson_measure": None,
        "escape_sum": None,
        "shell_counts": None,
    },
    "invariant_measure": {
        "ek_ball_measure": lambda a, k, r, dt: _samples(_arg(a, k, 2, "cfg")),
        "check_ek_bounds": None,
    },
    "domains": {
        "boundary_distance": None,
        "kobayashi_bounds": None,
        "estimate_boundary_constants": None,
        "check_distance_comparison": None,
        "check_defining_fn_inequality": None,
    },
    "cli": {
        "main": None,
        "run": None,
        "verify": None,
    },
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = defaultdict(float)

    def to_json(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_time, "work": dict(self.work)}

    def merge_json(self, raw: dict):
        self.calls += raw["calls"]
        self.total += raw["total"]
        self.self_time += raw["self"]
        for key, val in raw["work"].items():
            self.work[key] += val


class Tracer:
    """Per-function span totals keyed by ``module.function``."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, work):
        stack = self._stack
        stat = self.stats[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
            if work is not None:
                for name, val in work(args, kwargs, result, dt).items():
                    stat.work[name] += val
            return result

        return traced

    def install(self):
        """Wrap every traced function in every loaded carleson_lab module."""
        import importlib
        import sys

        modules = [m for name, m in sys.modules.items() if name.startswith("carleson_lab") and m is not None]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"carleson_lab.{layer}")
            for fname, work in funcs.items():
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original, work)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, attr, val))
                            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def to_json(self) -> dict:
        return {key: st.to_json() for key, st in self.stats.items()}

    def merge_json(self, raw: dict):
        for key, val in raw.items():
            self.stats[key].merge_json(val)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def per_layer_metrics(stats: dict[str, Stat], passes: int) -> dict[str, tuple[float, str]]:
    """The traced run's metrics, name -> (value, unit).

    Counts and self times are per pass; ``greedy_cover.s`` is per call.  A
    layer the workload does not touch reports 0 calls, 0 s and 0 rates.
    """
    def st(key):
        return stats.get(key) or Stat()

    out: dict[str, tuple[float, str]] = {}
    for fname in ("pseudo_distance_many", "ball_automorphism_many", "mobius_jacobian_many"):
        s = st(f"geometry_ball.{fname}")
        out[f"geometry_ball.{fname}.points_per_s"] = (_rate(s.work["points"], s.total), "1/s")
    for key in ("bergman.berezin_transform", "integrate.integrate_mixture", "integrate.integrate_density",
                "invariant_measure.ek_ball_measure"):
        s = st(key)
        out[f"{key}.samples_per_s"] = (_rate(s.work["samples"], s.total), "1/s")
    mix = st("integrate.integrate_mixture")
    out["integrate.integrate_mixture.component_evals_per_sample"] = (
        _rate(mix.work["component_evals"], mix.work["samples"]), "evals/sample")
    cc = st("measures.cross_check_equivalence")
    out["measures.cross_check_equivalence.s_per_verdict"] = (_rate(cc.total, cc.work["verdicts"]), "s")
    for tester in ("carleson_ratio_test", "carleson_berezin_test", "carleson_functional_test"):
        out[f"measures.{tester}.self_s"] = (st(f"measures.{tester}").self_time / passes, "s")
    pb = st("sequences.pseudo_block")
    out["sequences.pseudo_block.calls"] = (pb.calls / passes, "count")
    out["sequences.pseudo_block.pairs_per_call"] = (_rate(pb.work["pairs"], pb.calls), "pairs")
    gp = st("sequences.greedy_pack")
    out["sequences.greedy_pack.candidates_per_s"] = (_rate(gp.work["candidates"], gp.total), "1/s")
    out["sequences.greedy_pack.kept_per_candidate"] = (_rate(gp.work["kept"], gp.work["candidates"]), "ratio")
    sep = st("sequences.separation_constant")
    for m in (10_000, 10_001):
        out[f"sequences.separation_constant.pairs_per_s_at_{m}"] = (
            _rate(sep.work[f"pairs_at_{m}"], sep.work[f"s_at_{m}"]), "1/s")
    gc = st("sequences.greedy_cover")
    out["sequences.greedy_cover.s"] = (_rate(gc.total, gc.calls), "s")
    for key in ("domains.kobayashi_bounds", "domains.boundary_distance"):
        s = st(key)
        out[f"{key}.calls_per_s"] = (_rate(s.calls, s.total), "1/s")
    for layer in LAYERS:
        mine = [s for key, s in stats.items() if key.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(s.calls for s in mine) / passes, "count")
        out[f"{layer}.self_s"] = (sum(s.self_time for s in mine) / passes, "s")
    return out
