"""Experiment runner: every checker and analysis behind one deterministic CLI.

Subcommands: ball, berezin, carleson-test, seq {analyze|decompose|escape|shells},
cover, ek, verify.  Experiments are declared either with flags or a JSON spec
file (schema-validated, unknown keys rejected); each run writes plot-ready CSV
results, a JSON summary, and a manifest recording seed/versions/timings so a
run can be replayed to byte-identical CSV artifacts.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 3 usage or spec error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, bergman, domains, geometry_ball as geom, invariant_measure, measures, sequences
from .errors import CarlesonLabError, OutsideDomainError, ParameterError, ValidationError
from .integrate import MCConfig, integrate_density, sample_unit_ball
from .reports import CheckReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# escape-series target: sum of e^-m / m^2, cross-checked in the test suite
# against a dilogarithm quadrature oracle
LADDER_WEIGHTED_SUM = 0.4087542873488963

MAX_COUNT = 10_000_000  # largest size a run accepts; larger ones fail to allocate, or fill memory

_DIMENSION = {"type": "integer", "minimum": 1}
_COUNT = {"type": "integer", "minimum": 1, "maximum": MAX_COUNT}
_NUMBER = {"type": "number"}
_SEED = {"type": "integer", "minimum": 0}
_ROW = {"type": "array", "items": _NUMBER, "minItems": 1}


def _declaration(kinds: dict, **properties) -> dict:
    """Schema of a ``{"type": kind, ...}`` declaration; ``kinds`` maps each kind
    to (required fields, typed fields)."""
    return {
        "type": "object",
        "required": ["type"],
        "properties": {"type": {"enum": list(kinds)}, **properties},
        "allOf": [
            {"if": {"required": ["type"], "properties": {"type": {"const": kind}}},
             "then": {"required": required, "properties": fields}}
            for kind, (required, fields) in kinds.items()
        ],
    }


SEQUENCE_SCHEMA = _declaration({
    "ladder": (["n"], {"n": _DIMENSION, "count": _COUNT}),
    "packing": (["n"], {"n": _DIMENSION, "delta": _NUMBER, "epsilon": _NUMBER, "seed": _SEED}),
    "lattice": (["n"], {"n": _DIMENSION, "spacing": _NUMBER, "jitter": _NUMBER, "seed": _SEED}),
    "csv": (["path"], {"path": {"type": "string"}}),
    "points": (["rows"], {"rows": {"type": "array", "items": _ROW, "minItems": 1}}),
}, metric={"enum": list(sequences.METRICS)})
DOMAIN_SCHEMA = _declaration({
    "ball": (["dimension"], {"dimension": _DIMENSION}),
    "ellipsoid": (["semi_axes"], {"semi_axes": _ROW}),
    "perturbed_ball": (["dimension"], {"dimension": _DIMENSION, "epsilon": _NUMBER, "bump_center": _ROW,
                                       "bump_width": _NUMBER}),
})
MEASURE_SCHEMA = {
    "type": "object",
    "required": ["dimension"],
    "properties": {
        "dimension": _DIMENSION,
        "atoms": {"type": "array", "items": {"type": "array", "prefixItems": [_ROW, _NUMBER],
                                             "minItems": 2, "maxItems": 2}},
        "density": {"if": {"type": "object"}, "then": _declaration({"power": (["s"], {"s": _NUMBER})}),
                    "else": {"enum": ["none", None]}},
    },
}

SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "operation"],
    "properties": {
        "name": {"type": "string"},
        "operation": {"type": "string"},
        "domain": DOMAIN_SCHEMA,
        "measure": MEASURE_SCHEMA,
        "sequence": SEQUENCE_SCHEMA,
        "parameters": {"type": "object"},
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "seed": _SEED,
                "n_samples": {"type": "integer", "minimum": 100, "maximum": MAX_COUNT},
                "strata": {"type": ["array", "null"], "items": {"type": "number"}},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}, "format": {"enum": ["csv", "json"]}},
        },
    },
}


class UsageError(CarlesonLabError):
    pass


@dataclass
class ExperimentSpec:
    name: str
    operation: str
    domain: dict | None = None
    measure: dict | None = None
    sequence: dict | None = None
    parameters: dict = field(default_factory=dict)
    mc: MCConfig = field(default_factory=MCConfig)
    out_dir: str = "out"
    out_format: str = "csv"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        try:
            jsonschema.validate(raw, SPEC_SCHEMA)
        except jsonschema.ValidationError as exc:
            path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
            raise UsageError(f"spec invalid at {path}: {exc.message}") from exc
        out = raw.get("output", {})
        return cls(
            name=raw["name"],
            operation=raw["operation"],
            domain=raw.get("domain"),
            measure=raw.get("measure"),
            sequence=raw.get("sequence"),
            parameters=raw.get("parameters", {}),
            mc=MCConfig.from_config(raw.get("mc", {})),
            out_dir=out.get("dir", "out"),
            out_format=out.get("format", "csv"),
        )

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: not valid JSON ({exc.msg})") from exc
        except OSError as exc:
            raise UsageError(f"cannot read spec file {path}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class Outcome:
    header: list[str]
    rows: list[list]
    summary: dict
    status: str = "pass"  # pass | fail | inconclusive


def _estimate_outcome(est) -> Outcome:
    """One MC estimate as a results row; the summary also counts excluded samples."""
    value = float(np.real(est.value))
    return Outcome(
        ["value", "std_error", "n_effective"],
        [[value, est.std_error, est.n_effective]],
        {"value": value, "std_error": est.std_error, "n_excluded": est.n_excluded},
    )


def _report_outcome(rep: CheckReport) -> Outcome:
    return Outcome(["statistic", "bound"], [[rep.statistic, rep.bound]], rep.to_json_dict(), rep.verdict)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # np.float64 is a float whose repr is "np.float64(...)"
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


_REQUIRED = object()


def _param(p: dict, key: str, default, kind):
    """``parameters[key]`` read by ``kind``, or ``default`` when it is absent or
    null.  A missing required key (``default=_REQUIRED``) or a value ``kind``
    cannot read is a usage error naming ``parameters/<key>``."""
    if p.get(key) is None and default is not _REQUIRED:
        return default
    try:
        return kind(p[key])
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise UsageError(f"bad parameters/{key} ({type(exc).__name__}: {exc})") from exc


def _count(value) -> int:
    """A size: an integer in [1, MAX_COUNT]."""
    if not 1 <= int(value) <= MAX_COUNT:
        raise ValueError(f"must be in [1, {MAX_COUNT}]")
    return int(value)


def _point(p: dict, key: str, default=_REQUIRED) -> np.ndarray:
    return _param(p, key, default, lambda row: geom.rows_to_points([row])[0])


def _sequence(spec: ExperimentSpec) -> sequences.PointSequence:
    cfg = spec.sequence or {"type": "ladder", "n": 1, "count": 30}
    kind = cfg.get("type")
    metric = cfg.get("metric", "pseudohyperbolic")
    if kind == "ladder":
        return sequences.PointSequence.radial_ladder(int(cfg["n"]), int(cfg.get("count", 50)), metric=metric)
    if kind == "packing":
        return sequences.PointSequence.maximal_packing(
            int(cfg["n"]),
            float(cfg.get("delta", 0.5)),
            float(cfg.get("epsilon", 0.05)),
            seed=int(cfg.get("seed", 0)),
            metric=metric,
        )
    if kind == "lattice":
        return sequences.PointSequence.perturbed_lattice(
            int(cfg["n"]),
            spacing=float(cfg.get("spacing", 0.2)),
            jitter=float(cfg.get("jitter", 0.25)),
            seed=int(cfg.get("seed", 0)),
            metric=metric,
        )
    if kind == "csv":
        return sequences.PointSequence.from_csv(cfg["path"], metric=metric)
    return sequences.PointSequence(points=geom.rows_to_points(cfg["rows"]), metric=metric)  # "points"


def _measure(spec: ExperimentSpec) -> measures.Measure:
    return measures.Measure.from_config(spec.measure or {"dimension": 1, "density": {"type": "power", "s": 0.0}})


def _domain(spec: ExperimentSpec) -> domains.Domain:
    return domains.domain_from_config(
        spec.domain or {"type": "ball", "dimension": _param(spec.parameters, "n", 1, _count)})


def _escape_weight(cfg: dict) -> sequences.EscapeWeight | None:
    if not cfg:
        return None
    if cfg["kind"] == "power":
        return sequences.EscapeWeight.power(float(cfg["s"]))
    if cfg["kind"] == "exp_inverse":
        return sequences.EscapeWeight.exp_inverse()
    raise ValueError(f"unknown escape weight kind {cfg['kind']!r}")


def _values(**named) -> Outcome:
    """One results row of named values, repeated as the summary."""
    return Outcome(list(named), [list(named.values())], named)


# ---------------------------------------------------------------------------
# operations: one function spec -> Outcome per (command, parameters.op)
# ---------------------------------------------------------------------------

def _ball(spec: ExperimentSpec, check: bool = False, sample: bool = False) -> Outcome:
    """Ellipsoid data and volume of B(z0, r); ``check`` adds the quadratic ball
    inequality, ``sample`` uniform samples of the ball."""
    p = spec.parameters
    z0 = _point(p, "z0", np.zeros(1, dtype=complex))
    r = _param(p, "r", 0.5, float)
    ball = geom.kobayashi_ball(z0, r)
    rows = [["volume", geom.ball_volume(z0, r)]]
    summary = {"ball": ball.to_json_dict(), "volume": geom.ball_volume(z0, r)}
    status = "pass"
    if check:
        rep = geom.check_lemma_ball_inequality(z0, r, n_samples=_param(p, "samples", 10_000, _count), seed=spec.mc.seed)
        rows.append(["ball_inequality_min_slack", rep.statistic])
        summary["ball_inequality"] = rep.to_json_dict()
        status = rep.verdict
    if sample:
        pts = geom.sample_ball_uniform(ball, _param(p, "count", 100, _count), spec.mc.seed)
        for row in geom.points_to_rows(pts):
            rows.append(["sample"] + [float(x) for x in row])
    width = max(len(row) for row in rows)
    return Outcome(["field", "value"], [row + [""] * (width - len(row)) for row in rows], summary, status)


def _ball_automorphism(spec: ExperimentSpec) -> Outcome:
    out = geom.ball_automorphism(_point(spec.parameters, "a"), _point(spec.parameters, "z"))
    row = geom.points_to_rows(out[None, :])[0].tolist()
    return Outcome([f"c{k}" for k in range(len(row))], [row], {"image": row})


def _sample_unit_ball(spec: ExperimentSpec) -> Outcome:
    n = _param(spec.parameters, "n", 1, _count)
    count = _param(spec.parameters, "count", 100, _count)
    pts = sample_unit_ball(n, count, spec.mc.seed)
    rows = [list(map(float, row)) for row in geom.points_to_rows(pts)]
    return Outcome([f"c{k}" for k in range(2 * n)], rows, {"count": count, "n": n})


def _boundary_constants(spec: ExperimentSpec) -> Outcome:
    probes = _param(spec.parameters, "probes", _REQUIRED, geom.rows_to_points)
    est = domains.estimate_boundary_constants(_domain(spec), _point(spec.parameters, "z0"), probes)
    rows = [[row["d"], row["lower"], row["upper"]] for row in est.rows]
    return Outcome(["d", "lower", "upper"], rows, {"c0": est.c0, "C0": est.C0})


def _domain_check(spec: ExperimentSpec, checker) -> Outcome:
    p = spec.parameters
    rep = checker(
        _domain(spec), _point(p, "z0"), _param(p, "r", 0.5, float), _param(p, "samples", 2000, _count), spec.mc.seed
    )
    return _report_outcome(rep)


def _berezin_transform(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    mu = _measure(spec)
    centers = _param(p, "probes", None, geom.rows_to_points)
    if centers is None:
        centers = measures.boundary_schedule(mu.dimension, k_max=_param(p, "k_max", 8, _count))
    rows = []
    for c in centers:
        est = bergman.berezin_transform(mu, c, spec.mc)
        rows.append(
            [1.0 - float(np.linalg.norm(c)), float(np.real(est.value)), est.std_error]
            + geom.points_to_rows(c[None, :])[0].tolist()
        )
    header = ["d", "berezin", "std_error"] + [f"c{k}" for k in range(2 * mu.dimension)]
    sup = max(r[1] for r in rows)
    return Outcome(header, rows, {"sup": sup, "n_probes": len(rows)})


def _kernel(spec: ExperimentSpec, normalized: bool = False) -> Outcome:
    z = _point(spec.parameters, "z")
    w = _point(spec.parameters, "w")
    val = bergman.normalized_kernel(w, z) if normalized else bergman.kernel(z, w)
    return _values(re=val.real, im=val.imag)


def _integrate_density(spec: ExperimentSpec) -> Outcome:
    mu = _measure(spec)
    if mu.density is None:
        raise UsageError("integrate_density needs a measure with a density part")
    return _estimate_outcome(integrate_density(mu.density, mu.dimension, spec.mc, boundary_pole_order=mu.pole_order))


def _carleson_test(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    if spec.measure is None and spec.sequence is None:
        raise UsageError("carleson-test needs a measure or a sequence")
    mu = _measure(spec) if spec.measure is not None else sequences.dirac_carleson_measure(_sequence(spec))
    config = measures.CrossCheckConfig(
        r_values=_param(p, "r_values", (0.3, 0.5, 0.7), lambda v: tuple(map(float, v))),
        k_max=_param(p, "k_max", 12, _count),
        ball_samples=max(_param(p, "ball_samples", spec.mc.n_samples // 2, int), 100),
        global_samples=max(_param(p, "global_samples", spec.mc.n_samples, int), 100),
        n_polynomials=_param(p, "n_polynomials", 10, int),
        seed=spec.mc.seed,
    )
    verdict = measures.cross_check_equivalence(mu, config)
    rows = [[*r["center"], r["d"], r["ratio"], r["berezin"]] for r in verdict.schedule_rows()]
    header = [f"c{k}" for k in range(2 * mu.dimension)] + ["d", "ratio", "berezin"]
    status = {"pass": "pass", "fail": "fail"}.get(verdict.overall, "inconclusive")
    return Outcome(header, rows, verdict.to_json_dict(), status)


def _seq_analyze(spec: ExperimentSpec) -> Outcome:
    seq = _sequence(spec)
    sep = sequences.separation_constant(seq) if len(seq) >= 2 else math.nan
    z0 = _point(spec.parameters, "z0", np.zeros(seq.dimension, dtype=complex))
    r = _param(spec.parameters, "r", 0.5, float)
    count = sequences.count_in_ball(seq, z0, r)
    rows = [["count", len(seq)], ["separation", sep], [f"ball_count_r={r}", count]]
    return Outcome(["field", "value"], rows, {"separation": sep, "size": len(seq), "ball_count": count})


def _seq_decompose(spec: ExperimentSpec) -> Outcome:
    r = _param(spec.parameters, "r", 0.3, float)
    dec = sequences.greedy_decompose(_sequence(spec), r)
    rows = [[i, int(c)] for i, c in enumerate(dec.color_of)]
    return Outcome(["index", "class"], rows, {"n_classes": dec.n_colors, "r": r})


def _seq_escape(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    res = sequences.escape_sum(
        _sequence(spec),
        weight=_param(p, "weight", None, _escape_weight),
        exponent=_param(p, "exponent", "n+1", lambda e: e if isinstance(e, str) else int(e)),
    )
    rows = [[m + 1, s] for m, s in enumerate(res.partial_sums)]
    return Outcome(["M", "partial_sum"], rows, {"total": res.total, "last_decade_increment": res.last_decade_increment})


def _seq_shells(spec: ExperimentSpec) -> Outcome:
    res = sequences.shell_counts(_sequence(spec), _point(spec.parameters, "z0", None))
    return Outcome(["m", "N_m"], [[m, c] for m, c in res.rows()], {"slope": res.slope, "slope_se": res.slope_se})


def _cover(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    n = _param(p, "n", 1, _count)
    try:
        rep = sequences.greedy_cover(
            n,
            _param(p, "epsilon", 0.1, float),
            _param(p, "r", 0.5, float),
            seed=spec.mc.seed,
            n_probes=_param(p, "probes", 10_000, _count),
            n_candidates=_param(p, "candidates", None, _count),
        )
    except OverflowError as exc:  # the candidate count is a power of n
        raise UsageError(f"bad parameters/n ({exc}): no candidate net in dimension {n}") from exc
    rows = [list(map(float, row)) for row in geom.points_to_rows(rep.centers)]
    header = [f"c{k}" for k in range(len(rows[0]))] if rows else ["c0"]
    status = "pass" if rep.uncovered == 0 and abs(rep.multiplicity_refined - rep.multiplicity) <= 1 else "fail"
    return Outcome(header, rows, rep.to_json_dict(), status)


# (command, parameters.op) -> operation.  A command's first entry is its
# default op; a command without ops has one entry, op None, and ignores
# parameters.op.  run, its unknown-op error and build_parser read this table.
OPERATIONS = {
    ("ball", "summary"): functools.partial(_ball, check=True, sample=True),
    ("ball", "kobayashi_ball"): _ball,
    ("ball", "ball_volume"): _ball,
    ("ball", "sample_ball_uniform"): functools.partial(_ball, sample=True),
    ("ball", "check_lemma_ball_inequality"): functools.partial(_ball, check=True),
    ("ball", "pseudo_distance"): lambda s: _values(
        **asdict(geom.pseudo_distance(_point(s.parameters, "z"), _point(s.parameters, "w")))),
    ("ball", "ball_automorphism"): _ball_automorphism,
    ("ball", "sample_unit_ball"): _sample_unit_ball,
    ("ball", "boundary_distance"): lambda s: _values(
        boundary_distance=domains.boundary_distance(_domain(s), _point(s.parameters, "z"))),
    ("ball", "kobayashi_bounds"): lambda s: _values(
        **asdict(domains.kobayashi_bounds(_domain(s), _point(s.parameters, "z"), _point(s.parameters, "w")))),
    ("ball", "estimate_boundary_constants"): _boundary_constants,
    ("ball", "check_distance_comparison"): lambda s: _domain_check(s, domains.check_distance_comparison),
    ("ball", "check_defining_fn_inequality"): lambda s: _domain_check(s, domains.check_defining_fn_inequality),
    ("berezin", "berezin_transform"): _berezin_transform,
    ("berezin", "kernel"): _kernel,
    ("berezin", "normalized_kernel"): functools.partial(_kernel, normalized=True),
    ("berezin", "integrate_density"): _integrate_density,
    ("berezin", "check_kernel_upper"): lambda s: _report_outcome(bergman.check_kernel_upper(
        _param(s.parameters, "n", 1, _count), n_points=_param(s.parameters, "points", 2000, _count))),
    ("berezin", "check_kernel_lower"): lambda s: _report_outcome(bergman.check_kernel_lower(
        _param(s.parameters, "n", 1, _count), samples_per_cell=_param(s.parameters, "samples", 2000, _count),
        seed=s.mc.seed)),
    ("berezin", "check_submean"): lambda s: _report_outcome(bergman.check_submean(
        _param(s.parameters, "degree", 2, int), _point(s.parameters, "z0", np.asarray([0.3], dtype=complex)),
        _param(s.parameters, "r", 0.5, float), s.mc, seed=s.mc.seed)),
    ("carleson-test", None): _carleson_test,
    ("seq-analyze", None): _seq_analyze,
    ("seq-decompose", None): _seq_decompose,
    ("seq-escape", None): _seq_escape,
    ("seq-shells", None): _seq_shells,
    ("cover", None): _cover,
    ("ek", "ek_ball_measure"): lambda s: _estimate_outcome(invariant_measure.ek_ball_measure(
        _point(s.parameters, "z0", np.zeros(1, dtype=complex)), _param(s.parameters, "r", 0.5, float), s.mc,
        backend=_param(s.parameters, "backend", "invariant", str))),
    ("ek", "ek_density"): lambda s: _values(density=invariant_measure.ek_density(_point(s.parameters, "z"))),
    ("ek", "check_ek_bounds"): lambda s: _report_outcome(
        invariant_measure.check_ek_bounds(_param(s.parameters, "n", 1, _count), cfg=s.mc)),
}


def _operation(spec: ExperimentSpec):
    """The table entry for ``spec.operation`` and its ``parameters.op``."""
    ops = [op for command, op in OPERATIONS if command == spec.operation]
    op = _param(spec.parameters, "op", ops[0], str) if ops and ops[0] else None
    if (spec.operation, op) not in OPERATIONS:
        what = f"{spec.operation} op {op!r}" if ops else f"operation {spec.operation!r}"
        valid = ops or dict.fromkeys(command for command, _ in OPERATIONS)
        raise UsageError(f"unknown {what}; valid: {', '.join(valid)}")
    return OPERATIONS[spec.operation, op]


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment spec: write results, summary, and manifest."""
    started = time.time()
    outcome = _operation(spec)(spec)
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.out_format == "csv":
        results_path = out_dir / "results.csv"
        write_csv(results_path, outcome.header, outcome.rows)
    else:
        results_path = out_dir / "results.json"
        with open(results_path, "w") as fh:
            json.dump({"header": outcome.header, "rows": outcome.rows}, fh, indent=2, default=_json_default)
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump({"name": spec.name, "status": outcome.status, **outcome.summary}, fh, indent=2, default=_json_default)
    exit_code = {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(outcome.status, EXIT_INCONCLUSIVE)
    _write_manifest(out_dir, spec, [str(results_path), str(summary_path)], started, exit_code)
    return exit_code


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


def _write_manifest(out_dir: Path, spec: ExperimentSpec, artifacts, started, exit_code):
    duration_s = time.time() - started
    versions = {"carleson-lab": __version__, "python": sys.version.split()[0], "numpy": np.__version__}
    if "scipy" in sys.modules:  # a run that never loaded scipy cannot depend on it
        versions["scipy"] = sys.modules["scipy"].__version__
    manifest = {
        "name": spec.name,
        "operation": spec.operation,
        "seed": spec.mc.seed,
        "mc": spec.mc.to_json_dict(),
        "argv": sys.argv,
        "versions": versions,
        "duration_s": duration_s,
        "artifacts": artifacts,
        "exit_code": exit_code,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


# ---------------------------------------------------------------------------
# verify: the per-result pass/fail table
# ---------------------------------------------------------------------------

def _row_kernel_reproducing(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    cases = [([0.0], (1,)), ([0.3], (2,)), ([0.0, 0.5], (1, 0)), ([0.3, 0.0], (0, 2))]
    worst = 0.0
    for z, alpha in cases:
        est, expected = bergman.reproducing_check(z, alpha, cfg)
        worst = max(worst, abs(est.value - expected) / (3 * est.std_error + 1e-12))
    return CheckReport("kernel-reproducing", worst, 1.0, worst <= 1.0, len(cases) * budget["mc"], 0.0, {"seed": seed})


def _row_volume_sandwich(budget, seed) -> CheckReport:
    worst_low, worst_high = math.inf, 0.0
    checked = 0
    for n in (1, 2, 3):
        for t in (0.0, 0.3, 0.6, 0.9):
            z0 = np.zeros(n, dtype=complex)
            z0[0] = t
            for r in (0.2, 0.5, 0.8):
                vol = geom.ball_volume(z0, r)
                d = 1.0 - t
                ratio = vol / (r ** (2 * n) * d ** (n + 1))
                worst_low = min(worst_low, ratio)
                worst_high = max(worst_high, ratio * ((1 - r * r) / 2.0) ** (n + 1))
                checked += 1
    # sandwich: 1 <= vol / (r^2n d^(n+1)) <= (2 / (1 - r^2))^(n+1)
    ok = worst_low >= 1.0 - 1e-12 and worst_high <= 1.0 + 1e-12
    # Monte Carlo cross-check on a few cells
    rng = np.random.default_rng(seed)
    for n, t, r in ((1, 0.6, 0.5), (2, 0.3, 0.7)):
        z0 = np.zeros(n, dtype=complex)
        z0[0] = t
        pts = geom.uniform_round_ball(rng, n, budget["mc"])
        frac = float(np.mean(geom.pseudo_distance_many(z0, pts) < r))
        vol = geom.ball_volume(z0, r)
        if abs(frac - vol) > 3 * math.sqrt(vol * (1 - vol) / budget["mc"]) + 1e-12:
            ok = False
    return CheckReport("volume-sandwich", worst_low, 1.0, ok, checked + 2 * budget["mc"], 0.0, {"seed": seed})


def _row_distance_comparison(budget, seed) -> CheckReport:
    worst = 0.0
    for n in (1, 2):
        dom = domains.BallDomain(n)
        for t in (0.0, 0.5, 0.9):
            z0 = np.zeros(n, dtype=complex)
            z0[0] = t
            for r in (0.3, 0.5, 0.7):
                rep = domains.check_distance_comparison(dom, z0, r, budget["samples"], seed)
                worst = max(worst, rep.statistic)
    return CheckReport("distance-comparison", worst, 4.0, worst <= 4.0, budget["samples"] * 18, 0.0, {"seed": seed})


def _row_ball_inequality(budget, seed) -> CheckReport:
    rng = np.random.default_rng(seed)
    worst = math.inf
    total = 0
    for k in range(budget["cells"]):
        n = int(rng.integers(1, 4))
        z0 = geom.uniform_round_ball(rng, n, 1)[0] * 0.97
        r = float(rng.uniform(0.05, 0.95))
        rep = geom.check_lemma_ball_inequality(z0, r, n_samples=budget["samples"], seed=seed + k)
        worst = min(worst, rep.statistic)
        total += budget["samples"]
    return CheckReport("ball-inequality", worst, 0.0, worst > 0.0, total, 0.0, {"seed": seed})


def _row_defining_fn(budget, seed) -> CheckReport:
    fits = []
    for r in (0.2, 0.5, 0.8):
        rep = domains.check_defining_fn_inequality(domains.BallDomain(1), [0.7], r, budget["samples"], seed)
        fits.append(rep.statistic / (1 - r * r))
    ell = domains.EllipsoidDomain([1.5, 1.0])
    rep_e = domains.check_defining_fn_inequality(ell, [0.3 + 0.1j], 0.4, max(budget["samples"] // 4, 100), seed)
    spread = max(fits) / min(fits)
    ok = min(fits) > 0 and rep_e.statistic > 0 and spread < 10.0
    return CheckReport("defining-fn-bound", spread, 10.0, ok, budget["samples"] * 4, 0.0, {"fits": fits})


def _row_covering(budget, seed) -> CheckReport:
    dims = (1, 2) if budget.get("both_dims") else (1,)
    worst_drift = 0
    uncovered = 0
    total = 0
    mult = {}
    for n in dims:
        rep = sequences.greedy_cover(n, 0.1, 0.5, seed=seed, n_probes=budget["probes"])
        worst_drift = max(worst_drift, abs(rep.multiplicity_refined - rep.multiplicity))
        uncovered += rep.uncovered
        total += rep.n_probes * 4
        mult[n] = rep.multiplicity
    ok = uncovered == 0 and worst_drift <= 1
    return CheckReport("covering-multiplicity", worst_drift, 1.0, ok, total, 0.0, {"multiplicity": mult})


def _row_submean_ball(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    worst = math.inf
    inconclusive = False
    for k, (z0, r) in enumerate((([0.3], 0.5), ([0.0, 0.5], 0.4), ([0.7], 0.6))):
        rep = bergman.check_submean(2, z0, r, cfg, seed=seed + k)
        if rep.passed is None:
            inconclusive = True
        worst = min(worst, rep.statistic)
    passed: bool | None = worst > 0.0
    if inconclusive and worst <= 0:
        passed = None
    return CheckReport("submean-ball", worst, 0.0, passed, 3 * budget["mc"], 0.0, {"seed": seed})


def _row_submean_mean(budget, seed) -> CheckReport:
    # mean-comparison constant fitted on metric balls stays below the derived
    # (8 / (1 - r^2))^(n+1) envelope
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    worst = 0.0
    for k, (z0, r) in enumerate((([0.3], 0.5), ([0.6], 0.3), ([0.0, 0.4], 0.5))):
        rep = bergman.check_submean(2, z0, r, cfg, seed=seed + 17 + k)
        n = len(z0)
        bound = (8.0 / (1 - r * r)) ** (n + 1)
        worst = max(worst, rep.details["fitted_mean_constant"] / bound)
    return CheckReport("submean-mean-comparison", worst, 1.0, worst <= 1.0, 3 * budget["mc"], 0.0, {"seed": seed})


def _row_submean_neighbor(budget, seed) -> CheckReport:
    # chi on B(z0, r) is controlled by the mean over B(z0, (1+r)/2)
    rng = np.random.default_rng(seed)
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    worst = 0.0
    for z0_l, r in (([0.3], 0.4), ([0.5], 0.5)):
        z0 = np.asarray(z0_l, dtype=complex)
        n = z0.size
        big = 0.5 * (1 + r)
        alphas, coeffs = bergman.random_polynomial(n, 2, rng)

        def chi(pts):
            return np.abs(bergman.evaluate_polynomial(alphas, coeffs, pts)) ** 2

        inner = geom.sample_ball_uniform(geom.kobayashi_ball(z0, r), 512, rng)
        sup_chi = float(np.max(chi(inner)))
        est = integrate_density(chi, geom.kobayashi_ball(z0, big), cfg)
        fitted = sup_chi * geom.ball_volume(z0, r) / float(np.real(est.value))
        worst = max(worst, fitted)
    ok = math.isfinite(worst) and worst > 0.0
    return CheckReport("submean-neighbor", worst, math.inf, ok, 2 * budget["mc"], 0.0, {"seed": seed})


def _row_kernel_upper(budget, seed) -> CheckReport:
    worst = 0.0
    dev = 0.0
    for n in (1, 2, 3):
        rep = bergman.check_kernel_upper(n, n_points=budget["points"])
        worst = max(worst, rep.statistic)
        dev = max(dev, rep.details["identity_deviation"])
    ok = worst <= 1.0 + 1e-12 and dev < 1e-12
    return CheckReport("kernel-upper", worst, 1.0, ok, 3 * budget["points"], 0.0, {"identity_deviation": dev})


def _row_kernel_lower_raw(budget, seed) -> CheckReport:
    # |K(z, z0)| d(z0)^(n+1) >= ((1-r) sqrt(1+r) / 4)^(n+1) on metric balls
    worst = math.inf
    total = 0
    cell = 0
    for n in (1, 2):
        for depth in (1e-3, 1e-2, 0.1):
            z0 = np.zeros(n, dtype=complex)
            z0[0] = 1.0 - depth
            for r in (0.3, 0.5, 0.7):
                ball = geom.kobayashi_ball(z0, r)
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cell,)))
                pts = geom.sample_ball_uniform(ball, budget["samples"], rng)
                kabs = np.abs(bergman.kernel_values(z0, pts))
                floor = ((1 - r) * math.sqrt(1 + r) / 4.0) ** (n + 1)
                worst = min(worst, float(np.min(kabs) * depth ** (n + 1) / floor))
                total += budget["samples"]
                cell += 1
    return CheckReport("kernel-lower", worst, 1.0, worst >= 1.0, total, 0.0, {"seed": seed})


def _row_kernel_lower_normalized(budget, seed) -> CheckReport:
    worst = math.inf
    violations = 0
    total = 0
    for n in (1, 2):
        rep = bergman.check_kernel_lower(n, samples_per_cell=budget["samples"], seed=seed)
        worst = min(worst, rep.statistic)
        violations += rep.details["violations"]
        total += rep.n_samples
    return CheckReport(
        "normalized-kernel-lower", worst, 1.0, violations == 0, total, 0.0, {"violations": violations}
    )


def _row_carleson_equivalence(budget, seed) -> CheckReport:
    config = measures.CrossCheckConfig(
        k_max=budget["k_max"],
        ball_samples=budget["ball_mc"],
        global_samples=budget["global_mc"],
        n_polynomials=budget["polys"],
        seed=seed,
    )
    suite = measures.bundled_measure_suite(1)
    if not budget.get("full_suite"):
        suite = [s for s in suite if s[0] in ("lebesgue", "power(-0.5)", "dirac-ladder")]
    expected = {
        "lebesgue": "pass",
        "power(-0.5)": "fail",
        "power(+0.5)": "pass",
        "power(+1)": "pass",
        "dirac-ladder": "pass",
    }
    bad = []
    disagreements = 0
    for name, mu in suite:
        verdict = measures.cross_check_equivalence(mu, config)
        if not verdict.agreement:
            disagreements += 1
        if verdict.overall != expected[name]:
            bad.append({"measure": name, "got": verdict.overall, "want": expected[name]})
    ok = not bad and disagreements == 0
    return CheckReport(
        "carleson-equivalence",
        float(len(bad) + disagreements),
        0.0,
        ok,
        len(suite),
        0.0,
        {"mismatches": bad, "suite_size": len(suite)},
    )


def _row_greedy_decomposition(budget, seed) -> CheckReport:
    rng = np.random.default_rng(seed)
    worst_sep = math.inf
    total = 0
    for _ in range(budget["clouds"]):
        pts = geom.uniform_round_ball(rng, 1, budget["cloud_size"]) * 0.98
        seq = sequences.PointSequence(points=pts)
        r = 0.3
        dec = sequences.greedy_decompose(seq, r)
        bound = 0
        for cls in dec.classes():
            sub = pts[cls]
            if len(sub) >= 2:
                rho = sequences.pseudo_block(sub, sub)
                np.fill_diagonal(rho, 1.0)
                worst_sep = min(worst_sep, float(rho.min()) / r)
        bound = max(sequences.count_in_ball(seq, p, r) for p in pts)
        if dec.n_colors > bound:
            worst_sep = 0.0
        total += len(pts)
    return CheckReport("greedy-decomposition", worst_sep, 1.0, worst_sep >= 1.0, total, 0.0, {"seed": seed})


def _bundled_sequences(budget, seed):
    ball2_eps = budget["ball2_eps"] if budget.get("ball2_packing") else None
    return _build_bundled_sequences(budget["disk_eps"], ball2_eps, seed)


@functools.lru_cache(maxsize=1)
def _build_bundled_sequences(disk_eps, ball2_eps, seed):
    """The sequences three verify rows share, built once per run."""
    out = [
        ("ladder-disk", sequences.PointSequence.radial_ladder(1, 50)),
        ("ladder-ball2", sequences.PointSequence.radial_ladder(2, 30)),
        ("packing-disk", sequences.PointSequence.maximal_packing(1, 0.5, disk_eps, seed=seed)),
    ]
    if ball2_eps is not None:
        out.append(("packing-ball2", sequences.PointSequence.maximal_packing(2, 0.9, ball2_eps, seed=seed)))
    return tuple(out)


def _row_discrete_chain(budget, seed) -> CheckReport:
    config = measures.CrossCheckConfig(
        k_max=budget["k_max"], ball_samples=budget["ball_mc"], global_samples=budget["global_mc"],
        n_polynomials=4, seed=seed,
    )
    failures = []
    for name, seq in _bundled_sequences(budget, seed):
        mu = sequences.dirac_carleson_measure(seq)
        verdict = measures.cross_check_equivalence(mu, config)
        if verdict.overall != "pass" or not verdict.agreement:
            failures.append({"sequence": name, "verdicts": verdict.verdicts})
        # ball counts stay finite and stable under probe refinement
        probes = list(seq.points[:: max(len(seq) // 16, 1)])
        counts = [sequences.count_in_ball(seq, p, 0.5) for p in probes]
        if max(counts) > 10_000:
            failures.append({"sequence": name, "count": max(counts)})
    return CheckReport(
        "discrete-carleson-chain", float(len(failures)), 0.0, not failures, 0, 0.0, {"failures": failures}
    )


def _row_escape_full(budget, seed) -> CheckReport:
    lad = sequences.PointSequence.radial_ladder(1, 50)
    res = sequences.escape_sum(lad, exponent="n+1")
    mass_err = abs(res.total - 1.0 / (math.e**2 - 1.0))
    ok = mass_err < 1e-6 and res.last_decade_increment < 1e-6
    lad2 = sequences.PointSequence.radial_ladder(2, 30)
    res2 = sequences.escape_sum(lad2, exponent="n+1")
    ok = ok and res2.last_decade_increment < 1e-6
    return CheckReport("escape-sum-full", mass_err, 1e-6, ok, 80, 0.0, {"increment": res.last_decade_increment})


def _row_escape_volume(budget, seed) -> CheckReport:
    worst = 0.0
    for name, seq in _bundled_sequences(budget, seed):
        res = sequences.escape_sum(seq, weight=sequences.EscapeWeight.power(2.0), exponent="2n")
        if not math.isfinite(res.total):
            worst = math.inf
        worst = max(worst, res.last_decade_increment / max(res.total, 1e-300))
    return CheckReport("escape-sum-volume", worst, 0.5, worst < 0.5, 0, 0.0, {"seed": seed})


def _row_invariant_measure(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    est = invariant_measure.ek_ball_measure([0.0], 0.5, cfg)
    exact_ok = abs(est.value - 1.0 / 3.0) <= 3 * est.std_error
    rep = invariant_measure.check_ek_bounds(1, cfg=cfg)
    ok = exact_ok and rep.passed is True
    return CheckReport(
        "invariant-ball-measure", rep.statistic, rep.bound, ok, rep.n_samples + est.n_effective, est.std_error,
        {"disk_half_value": float(np.real(est.value))},
    )


def _row_escape_weighted(budget, seed) -> CheckReport:
    lad = sequences.PointSequence.radial_ladder(1, 50)
    res = sequences.escape_sum(lad, weight=sequences.EscapeWeight.power(2.0), exponent="n")
    err = abs(res.total - LADDER_WEIGHTED_SUM)
    ok = err < 1e-4
    slopes = {}
    for name, seq in _bundled_sequences(budget, seed):
        if name == "packing-ball2":
            # at desk scale a two-dimensional packing reaches too few shells
            # for the fit to leave its small-count transient; skipped here,
            # still exercised by the Carleson-chain row
            continue
        sc = sequences.shell_counts(seq)
        slopes[name] = sc.slope
        if math.isfinite(sc.slope) and sc.slope > seq.dimension + 0.2:
            ok = False
    return CheckReport("escape-sum-weighted", err, 1e-4, ok, len(lad), 0.0, {"slopes": slopes})


VERIFY_ROWS = [
    _row_kernel_reproducing,
    _row_volume_sandwich,
    _row_distance_comparison,
    _row_ball_inequality,
    _row_defining_fn,
    _row_covering,
    _row_submean_ball,
    _row_submean_mean,
    _row_submean_neighbor,
    _row_kernel_upper,
    _row_kernel_lower_raw,
    _row_kernel_lower_normalized,
    _row_carleson_equivalence,
    _row_greedy_decomposition,
    _row_discrete_chain,
    _row_escape_full,
    _row_escape_volume,
    _row_invariant_measure,
    _row_escape_weighted,
]

QUICK_BUDGET = {
    "mc": 20_000,
    "samples": 1_000,
    "points": 2_000,
    "cells": 10,
    "probes": 3_000,
    "k_max": 8,
    "ball_mc": 2_000,
    "global_mc": 4_000,
    "polys": 3,
    "clouds": 10,
    "cloud_size": 200,
    "disk_eps": 0.02,
    "ball2_packing": False,
    "ball2_eps": 0.05,
    "full_suite": False,
}

FULL_BUDGET = {
    "mc": 60_000,
    "samples": 4_000,
    "points": 4_000,
    "cells": 30,
    "probes": 5_000,
    "k_max": 12,
    "ball_mc": 8_000,
    "global_mc": 16_000,
    "polys": 8,
    "clouds": 50,
    "cloud_size": 500,
    "disk_eps": 1e-3,
    "ball2_packing": True,
    "ball2_eps": 0.008,
    "full_suite": True,
}


def verify(suite: str, seed: int, out_dir: str | None) -> int:
    budget = QUICK_BUDGET if suite == "quick" else FULL_BUDGET
    reports: list[CheckReport] = []
    print(f"verification suite: {suite} (seed {seed})")
    print(f"{'check':28s} {'status':13s} {'statistic':>14s} {'bound':>12s}")
    for row_fn in VERIFY_ROWS:
        rep = row_fn(budget, seed)
        reports.append(rep)
        print(f"{rep.name:28s} {rep.verdict.upper():13s} {rep.statistic:14.6g} {rep.bound:12.6g}")
    n_fail = sum(1 for r in reports if r.passed is False)
    n_inc = sum(1 for r in reports if r.passed is None)
    print(f"{len(reports)} checks: {len(reports) - n_fail - n_inc} pass, {n_fail} fail, {n_inc} inconclusive")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "verify_results.csv",
            ["name", "status", "statistic", "bound", "std_error", "n_samples"],
            [[r.name, r.verdict, r.statistic, r.bound, r.std_error, r.n_samples] for r in reports],
        )
        with open(out / "verify_results.json", "w") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2, default=_json_default)
    if n_fail:
        return EXIT_FAIL
    if n_inc:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carleson-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", type=str, default=None, help="JSON experiment spec file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20_000)
        p.add_argument("--out", type=str, default="out")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--params", type=str, default=None, help="inline JSON for operation parameters")
        p.add_argument("--measure", type=str, default=None, help="inline JSON measure declaration")
        p.add_argument("--domain", type=str, default=None, help="inline JSON domain declaration")
        p.add_argument("--sequence", type=str, default=None, help="inline JSON sequence declaration")

    seq = sub.add_parser("seq").add_subparsers(dest="seq_mode", required=True)
    for command in dict.fromkeys(command for command, _ in OPERATIONS):
        group = seq if command.startswith("seq-") else sub
        common(group.add_parser(command.removeprefix("seq-")))

    ver = sub.add_parser("verify")
    ver.add_argument("suite", choices=["quick", "full"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", type=str, default=None)
    return parser


def _spec_from_args(args, operation: str) -> ExperimentSpec:
    if args.spec:
        spec = ExperimentSpec.load(args.spec)
        if spec.operation != operation:
            raise UsageError(
                f"spec operation {spec.operation!r} does not match subcommand {operation!r}"
            )
        return spec

    def inline(text):
        if text is None:
            return None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"inline JSON invalid at {exc.lineno}:{exc.colno}: {exc.msg}") from exc

    raw = {
        "name": operation,
        "operation": operation,
        "parameters": inline(args.params) or {},
        "mc": {"seed": args.seed, "n_samples": args.samples},
        "output": {"dir": args.out, "format": args.format},
    }
    for key, text in (("measure", args.measure), ("domain", args.domain), ("sequence", args.sequence)):
        val = inline(text)
        if val is not None:
            raw[key] = val
    return ExperimentSpec.from_dict(raw)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # a spec-driven run's input causes its parameter, validation and domain errors; in verify they are faults
    input_errors = (ParameterError, ValidationError, OutsideDomainError) if args.command != "verify" else ()
    try:
        if args.command == "verify":
            if args.seed < 0:
                raise UsageError(f"bad --seed {args.seed}: must be a non-negative integer")
            return verify(args.suite, args.seed, args.out)
        operation = args.command if args.command != "seq" else f"seq-{args.seq_mode}"
        spec = _spec_from_args(args, operation)
        return run(spec)
    except (UsageError, *input_errors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CarlesonLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
