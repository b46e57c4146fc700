"""Deterministic Monte Carlo engine for the unit ball and its metric ellipsoids.

Every estimate is a pure function of (seed, n_samples, substreams): substream
generators are derived with counter-style spawn keys, and partial results are
reduced with fixed-order compensated summation, so worker scheduling never
changes an output bit.

``integrate_density`` stratifies the ball into radial shells (or maps them
affinely onto a metric ellipsoid); ``integrate_mixture`` is multiple-importance
sampling whose balance-heuristic denominator evaluates a ladder of pullback
components about one base point in a single fused pass.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn

from . import geometry_ball as geom
from .errors import AnalysisError, ParameterError

THREAD_ENV_VAR = "CARLESON_LAB_THREADS"

# Fraction of non-finite integrand evaluations tolerated (excluded with a
# warning); anything above this aborts the estimate.
BAD_SAMPLE_TOLERANCE = 1e-4

__all__ = [
    "MCConfig",
    "EstimateWithError",
    "sample_unit_ball",
    "integrate_density",
    "integrate_mixture",
    "UniformBallComponent",
    "BetaRadialComponent",
    "PullbackBallComponent",
]


@dataclass(frozen=True)
class MCConfig:
    """Reproducible Monte Carlo budget.

    ``strata`` optionally lists ascending radii in (0, 1) partitioning the ball
    into radial shells; by default eight equal-volume shells are used for
    pole-free integrands.
    """

    seed: int = 0
    n_samples: int = 20_000
    substreams: int = 4
    strata: tuple[float, ...] | None = None

    def rng_for(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=tuple(int(k) for k in key))
        )

    def with_samples(self, n_samples: int) -> "MCConfig":
        return MCConfig(self.seed, int(n_samples), self.substreams, self.strata)

    def to_json_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "n_samples": int(self.n_samples),
            "substreams": int(self.substreams),
            "strata": list(self.strata) if self.strata is not None else None,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "MCConfig":
        strata = cfg.get("strata")
        return cls(
            seed=int(cfg.get("seed", 0)),
            n_samples=int(cfg.get("n_samples", 20_000)),
            substreams=int(cfg.get("substreams", 4)),
            strata=tuple(strata) if strata else None,
        )


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with its estimated standard error."""

    value: complex | float
    std_error: float
    n_effective: int

    def interval(self, k: float = 3.0) -> tuple[float, float]:
        v = float(np.real(self.value))
        return (v - k * self.std_error, v + k * self.std_error)


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get(THREAD_ENV_VAR, "1")))
    except ValueError:
        return 1


def _map_ordered(fn, items: list) -> list:
    k = worker_count()
    if k <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, items))


def _apportion(total: int, weights) -> list[int]:
    """Deterministic largest-remainder apportionment of ``total`` samples."""
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    raw = total * w
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    order = sorted(range(len(w)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:short]:
        base[i] += 1
    return [int(b) for b in base]


def sample_unit_ball(n: int, count: int, seed) -> np.ndarray:
    """Uniform samples (w.r.t. normalised volume) from the unit ball of C^n."""
    if count < 1:
        raise ParameterError(f"sample count must be >= 1, got {count!r}")
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n!r}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return geom.uniform_round_ball(rng, n, count)


def _sample_round_shell(rng, n, count, u_lo, u_hi):
    """Uniform samples in the radial shell with volume fractions [u_lo, u_hi)."""
    g = rng.standard_normal((count, 2 * n))
    frac = u_lo + (u_hi - u_lo) * rng.random(count)
    return geom._scale_directions(g, frac ** (1.0 / (2 * n)))


class _Moments:
    """Fixed-order accumulator of sums / squared sums over substream batches."""

    def __init__(self):
        self.sums_re: list[float] = []
        self.sums_im: list[float] = []
        self.sums_sq: list[float] = []
        self.counts: list[int] = []
        self.bad = 0

    def add_batch(self, values: np.ndarray):
        vals = np.asarray(values)
        finite = np.isfinite(vals) if not np.iscomplexobj(vals) else np.isfinite(vals.real) & np.isfinite(vals.imag)
        self.bad += int(vals.size - np.count_nonzero(finite))
        vals = vals[finite]
        if np.iscomplexobj(vals):
            self.sums_re.append(math.fsum(vals.real))
            self.sums_im.append(math.fsum(vals.imag))
            self.sums_sq.append(math.fsum(vals.real**2) + math.fsum(vals.imag**2))
        else:
            self.sums_re.append(math.fsum(vals))
            self.sums_im.append(0.0)
            self.sums_sq.append(math.fsum(np.asarray(vals, dtype=float) ** 2))
        self.counts.append(int(vals.size))

    @property
    def count(self) -> int:
        return sum(self.counts)

    def mean(self) -> complex:
        c = self.count
        return complex(math.fsum(self.sums_re) / c, math.fsum(self.sums_im) / c)

    def variance(self) -> float:
        """Sample variance; for complex data the re/im variances are summed."""
        c = self.count
        if c < 2:
            return 0.0
        m = self.mean()
        second = math.fsum(self.sums_sq) / c
        var = (second - abs(m) ** 2) * c / (c - 1)
        return max(var, 0.0)


def _check_bad(moments_list, total_requested):
    bad = sum(m.bad for m in moments_list)
    if bad == 0:
        return
    if bad > BAD_SAMPLE_TOLERANCE * total_requested:
        raise AnalysisError(
            f"{bad} of {total_requested} integrand evaluations were non-finite"
        )
    warnings.warn(f"excluded {bad} non-finite integrand samples", RuntimeWarning, stacklevel=3)


def _strata_fractions(cfg: MCConfig, n: int) -> list[tuple[float, float]]:
    if cfg.strata is None:
        edges = np.linspace(0.0, 1.0, 9)
    else:
        radii = np.asarray(cfg.strata, dtype=float)
        if np.any(radii <= 0.0) or np.any(radii >= 1.0) or np.any(np.diff(radii) <= 0.0):
            raise ParameterError("strata radii must be strictly increasing in (0, 1)")
        edges = np.concatenate([[0.0], radii ** (2 * n), [1.0]])
    return list(zip(edges[:-1], edges[1:]))


def integrate_density(f, region, cfg: MCConfig, boundary_pole_order: float = 0.0) -> EstimateWithError:
    """Monte Carlo integral of ``f`` against normalised volume on a region.

    ``region`` is either an integer n (the unit ball of C^n) or a
    :class:`~carleson_lab.geometry_ball.KobayashiBall` ellipsoid.  ``f`` maps an
    (m, n) array of points to m real or complex values.

    A declared ``boundary_pole_order`` p in (0, 1) switches the ball case to a
    Beta-radial importance scheme whose proposal deliberately underfits the pole
    (exponent 0.75 * p): weights then have finite variance without collapsing
    the estimate onto its analytic normalisation.
    """
    if cfg.n_samples < 100:
        raise ParameterError("error bars need n_samples >= 100")
    if isinstance(region, (int, np.integer)):
        n = int(region)
        if n < 1:
            raise ParameterError("dimension must be >= 1")
        to_region = None
        volume = 1.0
    elif isinstance(region, geom.KobayashiBall):
        n = region.dimension
        to_region = region
        volume = region.volume
        boundary_pole_order = 0.0  # ellipsoids are compactly interior
    else:
        raise ParameterError(f"region must be a dimension or a KobayashiBall, got {type(region)!r}")

    if boundary_pole_order > 0.0:
        if boundary_pole_order >= 1.0:
            raise ParameterError("boundary pole order must be < 1 for a finite integral")
        return _integrate_beta(f, n, cfg, boundary_pole_order)

    shells = _strata_fractions(cfg, n)
    weights = [hi - lo for lo, hi in shells]
    counts = _apportion(cfg.n_samples, weights)
    counts = [max(c, 2) for c in counts]

    tasks = []
    for k, ((lo, hi), ck) in enumerate(zip(shells, counts)):
        per = _apportion(ck, [1.0] * cfg.substreams)
        for s, cs in enumerate(per):
            if cs > 0:
                tasks.append((k, s, cs, lo, hi))

    def run(task):
        k, s, cs, lo, hi = task
        rng = cfg.rng_for(k, s)
        pts = _sample_round_shell(rng, n, cs, lo, hi)
        if to_region is not None:
            pts = geom.map_round_to_ellipsoid(to_region, pts)
        return k, np.asarray(f(pts))

    results = _map_ordered(run, tasks)
    per_stratum = [_Moments() for _ in shells]
    for k, vals in results:
        per_stratum[k].add_batch(vals)
    _check_bad(per_stratum, cfg.n_samples)

    value = 0.0 + 0.0j
    var = 0.0
    n_eff = 0
    for (w, mom) in zip(weights, per_stratum):
        value += w * mom.mean()
        var += w * w * mom.variance() / max(mom.count, 1)
        n_eff += mom.count
    value = value * volume
    std_error = math.sqrt(var) * volume
    if abs(value.imag) == 0.0:
        value = value.real
    return EstimateWithError(value=value, std_error=std_error, n_effective=n_eff)


def _integrate_beta(f, n, cfg, pole):
    q = 0.75 * pole
    norm = n * beta_fn(n, 1.0 - q)
    per = _apportion(cfg.n_samples, [1.0] * cfg.substreams)

    def run(task):
        s, cs = task
        rng = cfg.rng_for(s)
        u = rng.beta(n, 1.0 - q, size=cs)
        pts = geom._scale_directions(rng.standard_normal((cs, 2 * n)), np.sqrt(u))
        weight = norm * (1.0 - u) ** q
        return np.asarray(f(pts)) * weight

    results = _map_ordered(run, [(s, cs) for s, cs in enumerate(per) if cs > 0])
    mom = _Moments()
    for vals in results:
        mom.add_batch(vals)
    _check_bad([mom], cfg.n_samples)
    value = mom.mean()
    std_error = math.sqrt(mom.variance() / max(mom.count, 1))
    if abs(value.imag) == 0.0:
        value = value.real
    return EstimateWithError(value=value, std_error=std_error, n_effective=mom.count)


class UniformBallComponent:
    """Mixture component: uniform distribution on the unit ball (density 1)."""

    def __init__(self, n: int):
        self.n = int(n)

    def sample(self, rng, count):
        return geom.uniform_round_ball(rng, self.n, count)

    def density(self, pts):
        return np.ones(len(pts))


class BetaRadialComponent:
    """Radially tilted component: ||z||^2 ~ Beta(n, 1 - exponent)."""

    def __init__(self, n: int, exponent: float):
        if not 0.0 <= exponent < 1.0:
            raise ParameterError("radial tilt exponent must be in [0, 1)")
        self.n = int(n)
        self.exponent = float(exponent)
        self._norm = self.n * beta_fn(self.n, 1.0 - self.exponent)

    def sample(self, rng, count):
        u = rng.beta(self.n, 1.0 - self.exponent, size=count)
        return geom._scale_directions(rng.standard_normal((count, 2 * self.n)), np.sqrt(u))

    def density(self, pts):
        u = np.einsum("ij,ij->i", pts, np.conj(pts)).real
        return (1.0 - u) ** (-self.exponent) / self._norm


class PullbackBallComponent:
    """Moebius image of the uniform law on a centred ball of pseudo-radius t.

    Samples concentrate on the metric ball of radius t around ``z``; the
    density is the automorphism Jacobian over t^(2n) on that ball.
    """

    def __init__(self, z: np.ndarray, t: float):
        self.z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if not 0.0 < t < 1.0:
            raise ParameterError("pullback radius must be in (0, 1)")
        self.t = float(t)

    def sample(self, rng, count):
        n = self.z.size
        w = _sample_round_shell(rng, n, count, 0.0, self.t ** (2 * n))
        return geom.ball_automorphism_many(self.z, w)

    def density(self, pts):
        n = self.z.size
        inside = geom.pseudo_distance_many(self.z, pts) < self.t
        jac = geom.mobius_jacobian_many(self.z, pts)
        return jac * inside / self.t ** (2 * n)


def _mixture_density(components, pis):
    """Balance-heuristic denominator: pts -> sum over c of pis[c] * density_c(pts).

    Pullback components about one base point z are fused.  Their densities
    differ only in the indicator rho(z, w) < t_j and the factor 1 / t_j^(2n),
    so rho and the Moebius Jacobian are computed once per point and
    sum_j pi_j 1[rho < t_j] / t_j^(2n) is read from a suffix sum over the
    ascending radii at searchsorted(t, rho, side="right").
    """
    plain = []
    ladders: dict[bytes, tuple[np.ndarray, list[tuple[float, float]]]] = {}
    for pi, comp in zip(pis, components):
        if isinstance(comp, PullbackBallComponent):
            ladders.setdefault(comp.z.tobytes(), (comp.z, []))[1].append((comp.t, pi))
        else:
            plain.append((pi, comp))
    fused = []
    for z, rungs in ladders.values():
        t, pi = (np.array(col) for col in zip(*sorted(rungs)))
        suffix = np.append(np.cumsum((pi / t ** (2 * z.size))[::-1])[::-1], 0.0)
        fused.append((z, t, suffix))

    def density(pts):
        dens = np.zeros(len(pts))
        for pi, comp in plain:
            dens += pi * comp.density(pts)
        for z, t, suffix in fused:
            rho = geom.pseudo_distance_many(z, pts)
            dens += geom.mobius_jacobian_many(z, pts) * suffix[np.searchsorted(t, rho, side="right")]
        return dens

    return density


def integrate_mixture(f, components, weights, cfg: MCConfig) -> EstimateWithError:
    """Multiple-importance-sampling integral of ``f`` d(volume) over the unit ball.

    Allocation across components is deterministic and proportional to
    ``weights``; the balance-heuristic denominator sums all component
    densities, so overlapping components are handled correctly.  Pullback
    components sharing a base point enter that sum through one fused
    evaluation (see :func:`_mixture_density`); sampling is per component.
    """
    if cfg.n_samples < 100:
        raise ParameterError("error bars need n_samples >= 100")
    w = np.asarray(weights, dtype=float)
    if len(components) != len(w) or np.any(w <= 0.0):
        raise ParameterError("need one positive weight per component")
    counts = [max(c, 2) for c in _apportion(cfg.n_samples, w)]
    total = sum(counts)
    pis = np.array([c / total for c in counts])

    density = _mixture_density(components, pis)

    tasks = []
    for c_idx, ck in enumerate(counts):
        per = _apportion(ck, [1.0] * cfg.substreams)
        for s, cs in enumerate(per):
            if cs > 0:
                tasks.append((c_idx, s, cs))

    def run(task):
        c_idx, s, cs = task
        rng = cfg.rng_for(c_idx, s)
        pts = components[c_idx].sample(rng, cs)
        return c_idx, np.asarray(f(pts)) / density(pts)

    results = _map_ordered(run, tasks)
    per_comp = [_Moments() for _ in components]
    for c_idx, vals in results:
        per_comp[c_idx].add_batch(vals)
    _check_bad(per_comp, total)

    value = 0.0
    var = 0.0
    n_eff = 0
    for pi, mom in zip(pis, per_comp):
        value += pi * mom.mean().real
        var += pi * pi * mom.variance() / max(mom.count, 1)
        n_eff += mom.count
    return EstimateWithError(value=value, std_error=math.sqrt(var), n_effective=n_eff)
