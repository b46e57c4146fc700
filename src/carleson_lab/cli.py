"""Experiment runner: every checker and analysis behind one deterministic CLI.

Subcommands: ball, berezin, carleson-test, seq {analyze|decompose|escape|shells},
cover, ek, and verify (the table of :mod:`carleson_lab.verify`).  Experiments
are declared either with flags or a JSON spec file (every field read by one
strict reader, unknown keys rejected in every object, a point CSV read with the
spec); each run writes plot-ready CSV results, a JSON summary, and a manifest
recording seed/versions/timings so a run can be replayed to byte-identical CSV
artifacts.

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
from typing import Callable

import numpy as np

from . import __version__, bergman, domains, geometry_ball as geom, invariant_measure, measures, sequences
from .errors import MAX_VALUES, CarlesonLabError, OutsideDomainError, ParameterError, ValidationError
from .integrate import MCConfig, integrate_density, sample_unit_ball
from .reports import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, CheckReport, json_default, write_csv
from .verify import run_suite as verify

EXIT_USAGE = 3

MAX_COUNT = 10_000_000  # largest size a run accepts; larger ones fail to allocate, or fill memory
MAX_POLYNOMIALS = 1_000  # carleson-test: one global MC integral each, ~8 ms at 20,000 samples in C^1
MAX_DEGREE = 32  # check_submean: C(n + degree, n) monomials per sample, 561 in C^2 (~0.4 s)


class UsageError(CarlesonLabError):
    pass


# ---------------------------------------------------------------------------
# reading input: one read-tracked object, Fields, and a few strict kinds
# ---------------------------------------------------------------------------

_REQUIRED = object()


class Fields(dict):
    """One JSON object of a run's input, null read as {}.  It records each key
    :meth:`read` reads, and :meth:`close` refuses any other key, so the keys an
    object takes are the keys its reader reads."""

    def __init__(self, value, path: str):
        if not isinstance(value, (dict, type(None))):
            raise UsageError(f"bad {path} (expected an object, got {type(value).__name__})")
        super().__init__(value or {})
        self.path = path
        self.seen: set[str] = set()

    def read(self, key: str, default, kind):
        """``self[key]`` read by ``kind``, or ``default`` when it is absent or null.
        A missing required key (``default=_REQUIRED``) or a value ``kind`` refuses
        is a usage error naming ``<path>/<key>``."""
        self.seen.add(key)
        if self.get(key) is None and default is not _REQUIRED:
            return default
        try:
            return kind(self[key])
        except (TypeError, ValueError, LookupError, OverflowError, OSError, csv.Error) as exc:
            # the library's errors are ValueErrors; OSError and csv.Error come from a point CSV
            raise UsageError(f"bad {self.path}/{key} ({type(exc).__name__}: {exc})") from exc

    def object(self, key: str) -> "Fields":
        """The object at ``key``, read as Fields of its own named ``key``."""
        self.seen.add(key)
        return Fields(self.get(key), key)

    def close(self, what: str) -> None:
        """Refuse a key that was not read; a null value counts as absent."""
        for key, value in self.items():
            if value is not None and key not in self.seen:
                raise UsageError(f"bad {self.path}/{key} ({what} does not read it)")


def _given(read, **kinds) -> dict:
    """Each key of ``kinds`` that is given, by ``read(key, None, kind)``; a key
    left out or null is not passed on, so the constructor's own default applies."""
    values = {key: read(key, None, kind) for key, kind in kinds.items()}
    return {key: value for key, value in values.items() if value is not None}


def _integer(lo: float = -math.inf, hi: float = math.inf):
    """Kind: an integer in [lo, hi]; an integral float such as 1.0 counts, as in JSON."""
    def integer(value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
            raise TypeError(f"expected an integer, got {value!r}")
        if not lo <= value <= hi:
            raise ValueError(f"must be in [{lo}, {hi}]")
        return int(value)
    return integer


_count = _integer(1, MAX_COUNT)  # a size or a dimension
_samples = _integer(100, MAX_COUNT)  # a Monte Carlo sample count
_seed = _integer(0)


def _number(value) -> float:
    """Kind: a finite number; a bool, a numeric string, NaN or an infinity is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _choice(*values: str):
    """Kind: one of ``values``."""
    def choice(value) -> str:
        if value not in values:
            raise ValueError(f"{value!r} is not one of {', '.join(values)}")
        return value
    return choice


def _numbers(value) -> list[float]:
    """Kind: a non-empty list of numbers."""
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a non-empty list, got {value!r}")
    return [_number(x) for x in value]


def _points(value) -> np.ndarray:
    """Kind: points, a non-empty list of rows of re/im pairs, all of one length."""
    if not isinstance(value, list) or not value:
        raise TypeError(f"expected a non-empty list of rows, got {value!r}")
    rows = [_numbers(row) for row in value]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows differ in length")
    return geom.rows_to_points(rows)


def _csv_points(path) -> np.ndarray:
    """Kind: the points of a CSV file, a header line and then one row of re/im
    pairs a line (as :func:`reports.write_csv` writes them), read as :func:`_points`."""
    with open(_string(path), newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    return _points([[float(cell) for cell in row] for row in rows])


def _point_row(value) -> np.ndarray:
    """Kind: one point, a row of re/im pairs."""
    return _points([value])[0]


def _atoms(value) -> tuple:
    """Kind: atoms ``[[row, weight], ...]``, as their points and their weights."""
    if not isinstance(value, list) or not all(isinstance(atom, list) and len(atom) == 2 for atom in value):
        raise TypeError(f"expected a list of [row, weight] pairs, got {value!r}")
    return _points([row for row, _ in value]) if value else (), [_number(weight) for _, weight in value]


def _density(value) -> measures.PowerDensity | None:
    """Kind: a measure's density, "none" or ``{"type": "power", "s": ...}``."""
    if value == "none":
        return None
    cfg = Fields(value, "measure/density")
    kind = cfg.read("type", _REQUIRED, _choice("power"))
    density = measures.PowerDensity(cfg.read("s", _REQUIRED, _number))
    cfg.close(f"measure/density type {kind!r}")
    return density


def _escape_weight(value) -> sequences.EscapeWeight:
    """Kind: an escape weight, ``{"kind": "power", "s": ...}`` or ``{"kind": "exp_inverse"}``."""
    cfg = Fields(value, "parameters/weight")
    kind = cfg.read("kind", _REQUIRED, _choice("power", "exp_inverse"))
    weight = (sequences.EscapeWeight.power(cfg.read("s", _REQUIRED, _number)) if kind == "power"
              else sequences.EscapeWeight.exp_inverse())
    cfg.close(f"parameters/weight kind {kind!r}")
    return weight


# A declaration is read and closed when the spec is, and built when an operation
# asks: each reader returns a function of no arguments that builds the object.

def _fits(path: str, key: str, values: int, what: str) -> None:
    """Refuse a build of more than MAX_VALUES values, naming ``<path>/<key>``."""
    if values > MAX_VALUES:
        raise UsageError(f"bad {path}/{key} ({what} hold {values:,} values, above the ceiling of {MAX_VALUES:,})")


def _read_domain(value) -> Callable[[], domains.Domain]:
    cfg = Fields(value, "domain")
    kind = cfg.read("type", _REQUIRED, _choice("ball", "ellipsoid", "perturbed_ball"))
    if kind == "ellipsoid":
        axes = cfg.read("semi_axes", _REQUIRED, _numbers)
        _fits("domain", "semi_axes", domains.projection_values(len(axes) // 2), "the boundary projection's systems")
        build = functools.partial(domains.EllipsoidDomain, axes)
    elif kind == "ball":
        build = functools.partial(domains.BallDomain, cfg.read("dimension", _REQUIRED, _count))
    else:
        dimension = cfg.read("dimension", _REQUIRED, _count)
        _fits("domain", "dimension", domains.projection_values(dimension), "the boundary projection's systems")
        build = functools.partial(domains.PerturbedBallDomain, dimension,
                                  **_given(cfg.read, epsilon=_number, bump_center=_point_row, bump_width=_number))
    cfg.close(f"domain type {kind!r}")
    return build


def _read_measure(value) -> Callable[[], measures.Measure]:
    cfg = Fields(value, "measure")
    build = functools.partial(measures.Measure, cfg.read("dimension", _REQUIRED, _count),
                              *cfg.read("atoms", ((), ()), _atoms), cfg.read("density", None, _density))
    cfg.close("measure")
    return build


def _read_sequence(value) -> Callable[[], sequences.PointSequence]:
    cfg = Fields(value, "sequence")
    kind = cfg.read("type", _REQUIRED, _choice("ladder", "packing", "lattice", "csv", "points"))
    metric = cfg.read("metric", "pseudohyperbolic", _choice(*sequences.METRICS))
    seq = sequences.PointSequence
    if kind in ("csv", "points"):
        points = cfg.read("path", _REQUIRED, _csv_points) if kind == "csv" else cfg.read("rows", _REQUIRED, _points)
        build = functools.partial(seq, points=points, metric=metric)
    elif kind == "ladder":
        n, count = cfg.read("n", _REQUIRED, _count), cfg.read("count", 50, _count)
        _fits("sequence", "n", n * count, f"{count:,} ladder points in dimension {n:,}")
        build = functools.partial(seq.radial_ladder, n, count, metric=metric)
    elif kind == "packing":
        build = functools.partial(_net, "sequence", seq.maximal_packing, cfg.read("n", _REQUIRED, _count),
                                  cfg.read("delta", 0.5, _number), cfg.read("epsilon", 0.05, _number),
                                  metric=metric, **_given(cfg.read, seed=_seed))
    else:
        build = functools.partial(seq.perturbed_lattice, cfg.read("n", _REQUIRED, _count), metric=metric,
                                  **_given(cfg.read, spacing=_number, jitter=_number, seed=_seed))
    cfg.close(f"sequence type {kind!r}")
    return build


def _net(path: str, build, n: int, *args, **kwargs):
    """``build(n, *args, **kwargs)``, a packing or a cover.  Its candidate count
    is a power of the dimension n, and its candidates hold 2n + 1 coordinates
    each, so a count that overflows or exceeds MAX_VALUES names ``<path>/n``."""
    try:
        return build(n, *args, **kwargs)
    except OverflowError as exc:
        raise UsageError(f"bad {path}/n ({exc}): no candidate net in dimension {n}") from exc


_DECLARATIONS = {"domain": _read_domain, "measure": _read_measure, "sequence": _read_sequence}


@dataclass
class ExperimentSpec:
    """One run.  Its declarations are held read but unbuilt: calling one
    builds its domain, measure or sequence."""

    name: str
    operation: str
    domain: Callable[[], domains.Domain] | None = None
    measure: Callable[[], measures.Measure] | None = None
    sequence: Callable[[], sequences.PointSequence] | None = None
    parameters: Fields = field(default_factory=dict)
    mc: MCConfig = field(default_factory=MCConfig)
    out_dir: str = "out"
    out_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.parameters, Fields):
            self.parameters = Fields(self.parameters, "parameters")

    @classmethod
    def from_dict(cls, raw) -> "ExperimentSpec":
        """Read a JSON spec.  Every object in it but ``parameters`` is read and
        closed here, declarations included, so malformed input and a key no
        reader reads fail before any work; ``parameters`` close in :func:`run`."""
        spec = Fields(raw, "spec")
        mc, out = spec.object("mc"), spec.object("output")
        result = cls(
            name=spec.read("name", _REQUIRED, _string),
            operation=spec.read("operation", _REQUIRED, _string),
            parameters=spec.object("parameters"),
            mc=MCConfig(**_given(mc.read, seed=_seed, n_samples=_samples)),
            out_dir=out.read("dir", "out", _string),
            out_format=out.read("format", "csv", _choice("csv", "json")),
            **{key: spec.read(key, None, reader) for key, reader in _DECLARATIONS.items()},
        )
        for fields in (mc, out, spec):
            fields.close(fields.path)
        return result

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


def _point(p: Fields, key: str, default=_REQUIRED) -> np.ndarray:
    return p.read(key, default, _point_row)


def _sequence(spec: ExperimentSpec) -> sequences.PointSequence:
    return spec.sequence() if spec.sequence else sequences.PointSequence.radial_ladder(1, 30)


def _measure(spec: ExperimentSpec) -> measures.Measure:
    mu = spec.measure() if spec.measure else measures.Measure.with_power_density(1, 0.0)
    samples = spec.mc.n_samples
    _fits("measure", "dimension", samples * mu.dimension, f"{samples:,} samples in dimension {mu.dimension:,}")
    return mu


def _domain(spec: ExperimentSpec) -> domains.Domain:
    return spec.domain() if spec.domain else domains.BallDomain(spec.parameters.read("n", 1, _count))


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
    r = p.read("r", 0.5, _number)
    ball = geom.kobayashi_ball(z0, r)
    rows = [["volume", geom.ball_volume(z0, r)]]
    summary = {"ball": ball.to_json_dict(), "volume": geom.ball_volume(z0, r)}
    status = "pass"
    if check:
        rep = geom.check_lemma_ball_inequality(z0, r, n_samples=p.read("samples", 10_000, _count), seed=spec.mc.seed)
        rows.append(["ball_inequality_min_slack", rep.statistic])
        summary["ball_inequality"] = rep.to_json_dict()
        status = rep.verdict
    if sample:
        pts = geom.sample_ball_uniform(ball, p.read("count", 100, _count), spec.mc.seed)
        for row in geom.points_to_rows(pts):
            rows.append(["sample"] + [float(x) for x in row])
    width = max(len(row) for row in rows)
    return Outcome(["field", "value"], [row + [""] * (width - len(row)) for row in rows], summary, status)


def _ball_automorphism(spec: ExperimentSpec) -> Outcome:
    out = geom.ball_automorphism(_point(spec.parameters, "a"), _point(spec.parameters, "z"))
    row = geom.points_to_rows(out[None, :])[0].tolist()
    return Outcome([f"c{k}" for k in range(len(row))], [row], {"image": row})


def _sample_unit_ball(spec: ExperimentSpec) -> Outcome:
    n = spec.parameters.read("n", 1, _count)
    count = spec.parameters.read("count", 100, _count)
    pts = sample_unit_ball(n, count, spec.mc.seed)
    rows = [list(map(float, row)) for row in geom.points_to_rows(pts)]
    return Outcome([f"c{k}" for k in range(2 * n)], rows, {"count": count, "n": n})


def _boundary_constants(spec: ExperimentSpec) -> Outcome:
    probes = spec.parameters.read("probes", _REQUIRED, _points)
    est = domains.estimate_boundary_constants(_domain(spec), _point(spec.parameters, "z0"), probes)
    rows = [[row["d"], row["lower"], row["upper"]] for row in est.rows]
    return Outcome(["d", "lower", "upper"], rows, {"c0": est.c0, "C0": est.C0})


def _domain_check(spec: ExperimentSpec, checker) -> Outcome:
    p = spec.parameters
    rep = checker(
        _domain(spec), _point(p, "z0"), p.read("r", 0.5, _number), p.read("samples", 2000, _count), spec.mc.seed
    )
    return _report_outcome(rep)


def _schedule(p: Fields, n: int, default: int) -> list[np.ndarray]:
    """The boundary schedule to the depth 2^-k_max that ``parameters/k_max``
    asks for.  The schedule refuses a centre within 1e-12 of the sphere (k_max
    >= 40); that is named as the field here, as ``p.read`` does not pass a
    default through its kind."""
    k_max = p.read("k_max", default, _count)
    try:
        return measures.boundary_schedule(n, k_max)
    except OutsideDomainError as exc:
        raise UsageError(f"bad parameters/k_max ({k_max}: {exc})") from exc


def _berezin_transform(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    mu = _measure(spec)
    centers = p.read("probes", None, _points)
    if centers is None:
        centers = _schedule(p, mu.dimension, 8)
    res = measures.carleson_berezin_test(mu, centers, spec.mc)
    rows = [[r["d"], r["value"], r["std_error"], *geom.points_to_rows(r["center"][None, :])[0].tolist()]
            for r in res.rows]
    header = ["d", "berezin", "std_error"] + [f"c{k}" for k in range(2 * mu.dimension)]
    return Outcome(header, rows, {"sup": res.sup.value, "n_probes": len(rows)})


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
    n = mu.dimension
    centers = _schedule(p, n, 12)
    config = measures.CrossCheckConfig(
        r_values=p.read("r_values", (0.3, 0.5, 0.7), lambda v: tuple(_numbers(v))),
        k_max=len(centers) // 2,  # two centres a depth
        ball_samples=p.read("ball_samples", max(spec.mc.n_samples // 2, 100), _samples),
        global_samples=p.read("global_samples", spec.mc.n_samples, _samples),
        n_polynomials=p.read("n_polynomials", 10, _integer(0, MAX_POLYNOMIALS)),
        seed=spec.mc.seed,
    )
    for key in ("ball_samples", "global_samples"):
        _fits("parameters", key, getattr(config, key) * n, f"{getattr(config, key):,} samples in dimension {n:,}")
    # the ratio test divides by ball volumes, which fall with the dimension and the depth
    r = min(config.r_values)
    for path, center in (("measure/dimension" if spec.measure else "sequence/n", centers[1]),
                         ("parameters/k_max", centers[-1])):
        if geom.ball_volume(center, r) == 0.0:
            raise UsageError(f"bad {path} (a metric ball of radius {r} at depth "
                             f"{1.0 - float(np.linalg.norm(center)):.3g} in dimension {n:,} has volume 0.0 in doubles)")
    verdict = measures.cross_check_equivalence(mu, config)
    rows = [[*r["center"], r["d"], r["ratio"], r["berezin"]] for r in verdict.schedule_rows()]
    header = [f"c{k}" for k in range(2 * mu.dimension)] + ["d", "ratio", "berezin"]
    status = {"pass": "pass", "fail": "fail"}.get(verdict.overall, "inconclusive")
    return Outcome(header, rows, verdict.to_json_dict(), status)


def _seq_analyze(spec: ExperimentSpec) -> Outcome:
    seq = _sequence(spec)
    sep = sequences.separation_constant(seq) if len(seq) >= 2 else math.nan
    z0 = _point(spec.parameters, "z0", np.zeros(seq.dimension, dtype=complex))
    r = spec.parameters.read("r", 0.5, _number)
    count = sequences.count_in_ball(seq, z0, r)
    rows = [["count", len(seq)], ["separation", sep], [f"ball_count_r={r}", count]]
    return Outcome(["field", "value"], rows, {"separation": sep, "size": len(seq), "ball_count": count})


def _seq_decompose(spec: ExperimentSpec) -> Outcome:
    r = spec.parameters.read("r", 0.3, _number)
    dec = sequences.greedy_decompose(_sequence(spec), r)
    rows = [[i, int(c)] for i, c in enumerate(dec.color_of)]
    return Outcome(["index", "class"], rows, {"n_classes": dec.n_colors, "r": r})


def _seq_escape(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    res = sequences.escape_sum(
        _sequence(spec),
        weight=p.read("weight", None, _escape_weight),
        exponent=p.read("exponent", "n+1", lambda e: e if isinstance(e, str) else _integer()(e)),
    )
    rows = [[m + 1, s] for m, s in enumerate(res.partial_sums)]
    return Outcome(["M", "partial_sum"], rows, {"total": res.total, "last_decade_increment": res.last_decade_increment})


def _seq_shells(spec: ExperimentSpec) -> Outcome:
    res = sequences.shell_counts(_sequence(spec), _point(spec.parameters, "z0", None))
    return Outcome(["m", "N_m"], [[m, c] for m, c in res.rows()], {"slope": res.slope, "slope_se": res.slope_se})


def _cover(spec: ExperimentSpec) -> Outcome:
    p = spec.parameters
    rep = _net(
        "parameters",
        sequences.greedy_cover,
        p.read("n", 1, _count),
        p.read("epsilon", 0.1, _number),
        p.read("r", 0.5, _number),
        seed=spec.mc.seed,
        n_probes=p.read("probes", 10_000, _count),
        n_candidates=p.read("candidates", None, _count),
    )
    rows = [list(map(float, row)) for row in geom.points_to_rows(rep.centers)]
    header = [f"c{k}" for k in range(len(rows[0]))] if rows else ["c0"]
    # the cover's fields, then the verdict's gates, so the exit code follows from the artifact
    check = rep.report()
    gates = {k: v for k, v in check.to_json_dict().items() if k not in ("name", "details")}
    return Outcome(header, rows, {**rep.to_json_dict(), **gates}, check.verdict)


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
        s.parameters.read("n", 1, _count), n_points=s.parameters.read("points", 2000, _count))),
    ("berezin", "check_kernel_lower"): lambda s: _report_outcome(bergman.check_kernel_lower(
        s.parameters.read("n", 1, _count), samples_per_cell=s.parameters.read("samples", 2000, _count),
        seed=s.mc.seed)),
    ("berezin", "check_submean"): lambda s: _report_outcome(bergman.check_submean(
        s.parameters.read("degree", 2, _integer(0, MAX_DEGREE)),
        _point(s.parameters, "z0", np.asarray([0.3], dtype=complex)),
        s.parameters.read("r", 0.5, _number), s.mc, seed=s.mc.seed)),
    ("carleson-test", None): _carleson_test,
    ("seq-analyze", None): _seq_analyze,
    ("seq-decompose", None): _seq_decompose,
    ("seq-escape", None): _seq_escape,
    ("seq-shells", None): _seq_shells,
    ("cover", None): _cover,
    ("ek", "ek_ball_measure"): lambda s: _estimate_outcome(invariant_measure.ek_ball_measure(
        _point(s.parameters, "z0", np.zeros(1, dtype=complex)), s.parameters.read("r", 0.5, _number), s.mc)),
    ("ek", "ek_density"): lambda s: _values(density=invariant_measure.ek_density(_point(s.parameters, "z"))),
    ("ek", "check_ek_bounds"): lambda s: _report_outcome(
        invariant_measure.check_ek_bounds(s.parameters.read("n", 1, _count), cfg=s.mc)),
}


# The declarations a table entry reads, the one it prefers first.  Any other
# declaration given is refused before the operation runs.
READS = {
    **{("ball", op): ("domain",) for op in ("boundary_distance", "kobayashi_bounds", "estimate_boundary_constants",
                                             "check_distance_comparison", "check_defining_fn_inequality")},
    ("berezin", "berezin_transform"): ("measure",),
    ("berezin", "integrate_density"): ("measure",),
    ("carleson-test", None): ("measure", "sequence"),
    **{(f"seq-{mode}", None): ("sequence",) for mode in ("analyze", "decompose", "escape", "shells")},
}


def _operation(spec: ExperimentSpec):
    """The table entry for ``spec.operation`` and its ``parameters.op``, once
    every declaration given is one that the entry reads, and its name in errors."""
    ops = [op for command, op in OPERATIONS if command == spec.operation]
    op = spec.parameters.read("op", ops[0], _string) if ops and ops[0] else None
    if (spec.operation, op) not in OPERATIONS:
        what = f"{spec.operation} op {op!r}" if ops else f"operation {spec.operation!r}"
        valid = ops or dict.fromkeys(command for command, _ in OPERATIONS)
        raise UsageError(f"unknown {what}; valid: {', '.join(valid)}")
    what = f"{spec.operation} op {op!r}" if op else spec.operation
    given = [key for key in _DECLARATIONS if getattr(spec, key) is not None]
    read = next((key for key in READS.get((spec.operation, op), ()) if key in given), None)
    for key in given:
        if key != read:
            beside = f" beside a {read}" if read else ""
            raise UsageError(f"bad {key} ({what} does not read a {key}{beside})")
    return what, OPERATIONS[spec.operation, op]


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment spec: write results, summary, and manifest.  A
    parameter that the operation has not read when it returns is refused,
    before any artifact is written."""
    started = time.time()
    what, operation = _operation(spec)
    outcome = operation(spec)
    spec.parameters.close(what)
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.out_format == "csv":
        results_path = out_dir / "results.csv"
        write_csv(results_path, outcome.header, outcome.rows)
    else:
        results_path = out_dir / "results.json"
        with open(results_path, "w") as fh:
            json.dump({"header": outcome.header, "rows": outcome.rows}, fh, indent=2, default=json_default)
    summary_path = out_dir / "summary.json"
    with open(summary_path, "w") as fh:
        json.dump({"name": spec.name, "status": outcome.status, **outcome.summary}, fh, indent=2, default=json_default)
    exit_code = {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(outcome.status, EXIT_INCONCLUSIVE)
    _write_manifest(out_dir, spec, [str(results_path), str(summary_path)], started, exit_code)
    return exit_code


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
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carleson-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # a flag left out is None, read as absent: the spec reader's own default applies
        p.add_argument("--spec", type=str, help="JSON experiment spec file; no other flag is read beside it")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--out", type=str)
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--params", type=str, help="inline JSON for operation parameters")
        p.add_argument("--measure", type=str, help="inline JSON measure declaration")
        p.add_argument("--domain", type=str, help="inline JSON domain declaration")
        p.add_argument("--sequence", type=str, help="inline JSON sequence declaration")

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
    if args.spec is not None:
        for flag, value in vars(args).items():
            if value is not None and flag not in ("command", "seq_mode", "spec"):
                raise UsageError(f"bad --{flag} (a run given by --spec reads no other flag)")
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
        "parameters": inline(args.params),
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
