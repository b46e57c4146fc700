"""Deterministic Monte Carlo engine for the unit ball and its metric ellipsoids.

Every estimate is a pure function of (seed, n_samples): each group of samples
(a radial shell or a mixture component) is drawn from generators derived with
counter-style spawn keys, in one fixed sequential order.

``integrate_density`` stratifies the ball into radial shells;
``integrate_mixture`` is multiple-importance sampling whose balance-heuristic
denominator evaluates a ladder of pullback components about one base point in a
single fused pass.  A stratified estimate is the balance-heuristic estimate
whose components are disjoint shells, so both share one keyed draw and one fold.
A grid of metric balls (``integrate_over_balls``) draws its round-ball sample
once, maps it onto each ball and evaluates each ball once over the whole draw.
Unit-ball estimates evaluate per batch: at their 320k-sample budgets a whole
draw at once ran 10-45% slower, its temporaries falling out of cache.
The Beta tilt's normalisation is a closed form, so no estimate loads scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded lazily by numpy; load it with the module, not in the first draw

from . import geometry_ball as geom
from .errors import AnalysisError, ParameterError

# Fraction of non-finite integrand evaluations tolerated (excluded with a
# warning); anything above this aborts the estimate.
BAD_SAMPLE_TOLERANCE = 1e-4

# Each group's samples are drawn in this many batches keyed (group, batch).
# It is fixed, not a tuning knob: any other split re-draws every estimate, and
# four keeps the draws behind every pinned seed bit for bit.  A ball grid
# joins the batches; unit-ball estimates evaluate each batch (cache, above).
BATCHES_PER_GROUP = 4

__all__ = [
    "MCConfig",
    "EstimateWithError",
    "sample_unit_ball",
    "integrate_density",
    "integrate_over_balls",
    "integrate_mixture",
    "UniformBallComponent",
    "BetaRadialComponent",
    "PullbackBallComponent",
]


@dataclass(frozen=True)
class MCConfig:
    """Reproducible Monte Carlo budget."""

    seed: int = 0
    n_samples: int = 20_000

    def rng_for(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed), spawn_key=tuple(int(k) for k in key))
        )

    def to_json_dict(self) -> dict:
        return {"seed": int(self.seed), "n_samples": int(self.n_samples)}


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with its estimated standard error.

    ``n_excluded`` counts the non-finite integrand samples left out of it.
    """

    value: complex | float
    std_error: float
    n_effective: int
    n_excluded: int = 0


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
    return geom.uniform_round_ball(np.random.default_rng(seed), n, count)  # a Generator is used as it is


# the ball's radial shells, eight of equal volume, as [lo, hi) volume fractions
_SHELL_EDGES = np.linspace(0.0, 1.0, 9)
_SHELLS = list(zip(_SHELL_EDGES[:-1], _SHELL_EDGES[1:]))


def _keyed_draw(draw, counts, cfg: MCConfig):
    """Yield group k's ``counts[k]`` values (integrand values or points), joined in
    order from ``BATCHES_PER_GROUP`` batches: ``draw(k, cfg.rng_for(k, s), m)``
    makes the m values of batch s."""
    if cfg.n_samples < 100:
        raise ParameterError("error bars need n_samples >= 100")
    for k, ck in enumerate(counts):
        yield np.concatenate([np.asarray(draw(k, cfg.rng_for(k, s), m))
                              for s, m in enumerate(_apportion(ck, [1.0] * BATCHES_PER_GROUP)) if m > 0])


def _fold(groups, weights) -> EstimateWithError:
    """Fold each group's integrand values into one estimate.

    Non-finite values are excluded (see ``BAD_SAMPLE_TOLERANCE``), each group as
    it arrives, so a drawn group is filtered while in cache and then dropped.
    The estimate is sum_k w_k mean_k and its variance sum_k w_k^2 var_k / c_k,
    with c_k the finite count and var_k the two-pass sample variance (of the
    real plus the imaginary part).
    """
    sizes, groups = zip(*((vals.size, vals[np.isfinite(vals)]) for vals in groups))
    total = sum(sizes)
    bad = total - sum(vals.size for vals in groups)
    if bad > BAD_SAMPLE_TOLERANCE * total:
        raise AnalysisError(f"{bad} of {total} integrand evaluations were non-finite")
    if bad:
        warnings.warn(f"excluded {bad} non-finite integrand samples", RuntimeWarning, stacklevel=3)

    value = 0j
    var = 0.0
    for w, vals in zip(weights, groups):
        value += w * np.mean(vals)
        if vals.size > 1:
            var += w * w * np.var(vals, ddof=1) / vals.size
    if value.imag == 0.0:
        value = value.real
    return EstimateWithError(value=value, std_error=math.sqrt(var), n_effective=total - bad, n_excluded=bad)


def _shells(cfg: MCConfig):
    """Radial shells of the ball, their volume fractions and sample counts."""
    fractions = [hi - lo for lo, hi in _SHELLS]
    return _SHELLS, fractions, [max(c, 2) for c in _apportion(cfg.n_samples, fractions)]


def integrate_density(f, region, cfg: MCConfig, boundary_pole_order: float = 0.0) -> EstimateWithError:
    """Monte Carlo integral of ``f`` against normalised volume on the unit ball
    of C^n, n = ``region``; ``f`` maps an (m, n) array of points to m real or
    complex values.  Metric balls go to :func:`integrate_over_balls`.

    A declared ``boundary_pole_order`` p in (0, 1) makes the estimate a
    one-component mixture (:func:`integrate_mixture`) whose Beta-radial
    proposal deliberately underfits the pole (exponent 0.75 * p): weights then
    have finite variance without collapsing the estimate onto its analytic
    normalisation.
    """
    if not isinstance(region, (int, np.integer)):
        raise ParameterError(f"region must be a dimension, got {type(region)!r}")
    n = int(region)
    if n < 1:
        raise ParameterError("dimension must be >= 1")
    if boundary_pole_order > 0.0:
        if boundary_pole_order >= 1.0:
            raise ParameterError("boundary pole order must be < 1 for a finite integral")
        return integrate_mixture(f, [BetaRadialComponent(n, 0.75 * boundary_pole_order)], [1.0], cfg)

    shells, fractions, counts = _shells(cfg)
    draw = _keyed_draw(lambda k, rng, m: f(geom.uniform_round_shell(rng, n, m, *shells[k])), counts, cfg)
    return _fold(draw, fractions)


def integrate_over_balls(f, balls, cfg: MCConfig) -> list[EstimateWithError]:
    """Monte Carlo integrals of ``f`` against normalised volume on each of a list
    of :class:`~carleson_lab.geometry_ball.KobayashiBall` of one dimension.

    The keyed stratified round-ball sample is drawn once and mapped onto every
    ball, so each estimate equals the one its ball gets alone and the balls
    share common random numbers.  ``f`` sees each ball's whole draw at once.
    """
    if not balls:
        return []
    n = balls[0].dimension
    shells, fractions, counts = _shells(cfg)
    draw = _keyed_draw(lambda k, rng, m: geom.uniform_round_shell(rng, n, m, *shells[k]), counts, cfg)
    points = np.concatenate(list(draw))
    cuts = np.cumsum(counts)[:-1]
    estimates = []
    for ball in balls:
        values = np.asarray(f(geom.map_round_to_ellipsoid(ball, points)))
        estimates.append(_fold(np.split(values, cuts), [ball.volume * w for w in fractions]))
    return estimates


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
        # n B(n, 1 - exponent), for an integer n a closed form
        self._norm = math.factorial(self.n) / math.prod(1.0 - self.exponent + k for k in range(self.n))

    def sample(self, rng, count):
        u = rng.beta(self.n, 1.0 - self.exponent, size=count)
        return geom._scale_directions(rng.standard_normal((count, 2 * self.n)), np.sqrt(u))

    def density(self, pts):
        return geom.one_minus_norm_sq(pts) ** (-self.exponent) / self._norm


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
        w = geom.uniform_round_shell(rng, n, count, 0.0, self.t ** (2 * n))
        return geom.ball_automorphism_many(self.z, w)

    def density(self, pts):
        n = self.z.size
        q = geom.mobius_factor(self.z, pts)
        inside = geom.one_minus_norm_sq(pts) * q > 1.0 - self.t * self.t  # rho(z, w) < t
        return q ** (n + 1) * inside / self.t ** (2 * n)


def _mixture_density(components, pis):
    """Balance-heuristic denominator: pts -> sum over c of pis[c] * density_c(pts).

    Pullback components about one base point z are fused.  Their densities
    differ only in the indicator rho(z, w) < t_j and the factor 1 / t_j^(2n),
    so the product form q_z(w) is computed once per point: the Moebius
    Jacobian is q^(n+1), rho < t_j is 1 - rho^2 = delta_w q > 1 - t_j^2, and
    sum_j pi_j 1[rho < t_j] / t_j^(2n) is read from a suffix sum over the
    ascending radii at searchsorted(t^2 - 1, -delta_w q, side="right").
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
        fused.append((z, t * t - 1.0, suffix))

    def density(pts):
        dens = np.zeros(len(pts))
        for pi, comp in plain:
            dens += pi * comp.density(pts)
        for z, edges, suffix in fused:
            q = geom.mobius_factor(z, pts)
            rung = np.searchsorted(edges, -geom.one_minus_norm_sq(pts) * q, side="right")
            dens += q ** (z.size + 1) * suffix[rung]
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
    w = np.asarray(weights, dtype=float)
    if len(components) != len(w) or np.any(w <= 0.0):
        raise ParameterError("need one positive weight per component")
    counts = [max(c, 2) for c in _apportion(cfg.n_samples, w)]
    total = sum(counts)
    pis = np.array([c / total for c in counts])

    density = _mixture_density(components, pis)

    def draw(k, rng, m):
        pts = components[k].sample(rng, m)
        return np.asarray(f(pts)) / density(pts)

    return _fold(_keyed_draw(draw, counts, cfg), pis)
