"""Deterministic Monte Carlo engine for the unit ball and its metric ellipsoids.

Every estimate is a pure function of (seed, n_samples): each group of samples
(a radial shell or a mixture component) is drawn in batches from generators
derived with counter-style spawn keys, in one fixed sequential order.

Only the random numbers are drawn per batch.  The arithmetic runs per block:
consecutive batches with one placement (none, or the Moebius map about one
base point) join a block of at most ``BLOCK_SAMPLES`` samples, whose
directions are scaled, placed, integrated and weighed in one pass before its
values split back into their groups.  Every step is elementwise or a
matrix-vector product, so a value does not depend on the block it lands in.

``integrate_density`` stratifies the ball into radial shells;
``integrate_mixture`` is multiple-importance sampling whose balance-heuristic
denominator evaluates a ladder of pullback components about one base point in a
single fused pass.  A stratified estimate is the balance-heuristic estimate
whose components are disjoint shells, so both share one keyed draw and one fold.
A grid of metric balls (``integrate_over_balls``) draws its round-ball sample
once, maps it onto each ball and evaluates each ball once over the whole draw.
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
# four keeps the draws behind every pinned seed bit for bit.
BATCHES_PER_GROUP = 4

# The most samples one block evaluates.  A tuning knob that moves no bit: it
# only sets how many small batches share one pass, while a batch above it
# (320k-sample budgets) stays a block of its own and in cache.
BLOCK_SAMPLES = 2**13

__all__ = [
    "MCConfig",
    "EstimateWithError",
    "SampleBlock",
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


def _batch_sizes(count: int) -> list[int]:
    """A group's ``BATCHES_PER_GROUP`` batch sizes: equal shares, the first
    ``count % BATCHES_PER_GROUP`` one larger (largest remainder, ties by index)."""
    q, r = divmod(count, BATCHES_PER_GROUP)
    return [q + (s < r) for s in range(BATCHES_PER_GROUP)]


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


class SampleBlock:
    """A block of sample points with the per-point quantities that an integrand
    and a mixture density share, each computed at most once: delta = 1 - |w|^2
    and, per base point z, q_z(w) and the Moebius Jacobian q_z^(n+1)."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self._delta = None
        self._mobius: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def delta(self) -> np.ndarray:
        if self._delta is None:
            self._delta = geom.one_minus_norm_sq(self.points)
        return self._delta

    def mobius(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(q_z, q_z^(n+1)) at the block's points, by :func:`~carleson_lab.geometry_ball.mobius_factor`."""
        key = z.tobytes()
        if key not in self._mobius:
            q = geom.mobius_factor(z, self.points)
            self._mobius[key] = q, q ** (z.size + 1)
        return self._mobius[key]


def _join(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _blocks(batches, keys):
    """Cut the (group, batch, size) list into blocks: runs of consecutive batches
    whose groups have one placement key, of at most ``BLOCK_SAMPLES`` samples
    unless a batch alone holds more."""
    start, size = 0, 0
    for i, (k, _, m) in enumerate(batches):
        if i > start and (keys[k] != keys[batches[start][0]] or size + m > BLOCK_SAMPLES):
            yield batches[start:i]
            start, size = i, 0
        size += m
    yield batches[start:]


def _keyed_values(sources, counts, cfg: MCConfig, evaluate):
    """Yield group k's ``counts[k]`` values, group by group.

    Batch s of group k draws ``sources[k].draw(cfg.rng_for(k, s), m)``, the
    direction normals and radii of its m points.  A block of batches whose
    sources share a ``base`` (None, or the base point of a Moebius placement)
    is scaled and placed in one pass, and ``evaluate`` maps its points to one
    value (or row) per point.
    """
    if cfg.n_samples < 100:
        raise ParameterError("error bars need n_samples >= 100")
    keys = [None if src.base is None else src.base.tobytes() for src in sources]
    batches = [(k, s, m) for k, ck in enumerate(counts) for s, m in enumerate(_batch_sizes(ck)) if m]
    group, pieces = 0, []
    for block in _blocks(batches, keys):
        g, radii = (_join(col) for col in zip(*(sources[k].draw(cfg.rng_for(k, s), m) for k, s, m in block)))
        pts = geom._scale_directions(g, radii)
        base = sources[block[0][0]].base
        values = evaluate(pts if base is None else geom.ball_automorphism_many(base, pts))
        for (k, _, _), part in zip(block, np.split(values, np.cumsum([m for _, _, m in block])[:-1])):
            if k != group:
                yield _join(pieces)
                group, pieces = k, []
            pieces.append(part)
    yield _join(pieces)


def _finite(vals: np.ndarray) -> np.ndarray:
    ok = np.isfinite(vals)
    return vals if ok.all() else vals[ok]


def _fold(groups, weights) -> EstimateWithError:
    """Fold each group's integrand values into one estimate.

    Non-finite values are excluded (see ``BAD_SAMPLE_TOLERANCE``), each group as
    it arrives.  The estimate is sum_k w_k mean_k and its variance
    sum_k w_k^2 var_k / c_k, with c_k the finite count and var_k the two-pass
    sample variance (of the real plus the imaginary part).
    """
    sizes, groups = zip(*((vals.size, _finite(vals)) for vals in groups))
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


class _RoundShell:
    """Uniform law on the volume fractions [lo, hi) of the round ball of C^n,
    placed by the Moebius map about ``base`` unless that is None.

    Every source of samples has these two members: ``draw(rng, count)``, the
    random part of a sample, and ``base``, its placement.
    """

    base = None

    def __init__(self, n: int, lo: float = 0.0, hi: float = 1.0):
        self.n, self.lo, self.hi = int(n), lo, hi

    def draw(self, rng, count):
        return geom.round_shell_draw(rng, self.n, count, self.lo, self.hi)


def _shells(n: int, cfg: MCConfig):
    """Radial shells of the ball, their volume fractions and sample counts."""
    fractions = [hi - lo for lo, hi in _SHELLS]
    counts = [max(c, 2) for c in _apportion(cfg.n_samples, fractions)]
    return [_RoundShell(n, lo, hi) for lo, hi in _SHELLS], fractions, counts


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
        beta = BetaRadialComponent(n, 0.75 * boundary_pole_order)
        return integrate_mixture(lambda block: f(block.points), [beta], [1.0], cfg)

    shells, fractions, counts = _shells(n, cfg)
    return _fold(_keyed_values(shells, counts, cfg, lambda pts: np.asarray(f(pts))), fractions)


def integrate_over_balls(f, balls, cfg: MCConfig) -> list[EstimateWithError]:
    """Monte Carlo integrals of ``f`` against normalised volume on each of a list
    of :class:`~carleson_lab.geometry_ball.KobayashiBall` of one dimension.

    The keyed stratified round-ball sample is drawn once and mapped onto every
    ball, so each estimate equals the one its ball gets alone and the balls
    share common random numbers.  ``f`` sees each ball's whole draw at once.
    """
    if not balls:
        return []
    shells, fractions, counts = _shells(balls[0].dimension, cfg)
    points = np.concatenate(list(_keyed_values(shells, counts, cfg, lambda pts: pts)))
    cuts = np.cumsum(counts)[:-1]
    estimates = []
    for ball in balls:
        values = np.asarray(f(geom.map_round_to_ellipsoid(ball, points)))
        volume = ball.volume
        estimates.append(_fold(np.split(values, cuts), [volume * w for w in fractions]))
    return estimates


class UniformBallComponent(_RoundShell):
    """Mixture component: uniform distribution on the unit ball (density 1)."""

    def __init__(self, n: int):
        super().__init__(n)

    def sample(self, rng, count):
        return geom.uniform_round_ball(rng, self.n, count)

    def density(self, pts):
        return np.ones(len(pts))


class BetaRadialComponent:
    """Radially tilted component: ||z||^2 ~ Beta(n, 1 - exponent)."""

    base = None

    def __init__(self, n: int, exponent: float):
        if not 0.0 <= exponent < 1.0:
            raise ParameterError("radial tilt exponent must be in [0, 1)")
        self.n = int(n)
        self.exponent = float(exponent)
        # n B(n, 1 - exponent), for an integer n a closed form
        self._norm = math.factorial(self.n) / math.prod(1.0 - self.exponent + k for k in range(self.n))

    def draw(self, rng, count):
        u = rng.beta(self.n, 1.0 - self.exponent, size=count)
        return rng.standard_normal((count, 2 * self.n)), np.sqrt(u)

    def sample(self, rng, count):
        return geom._scale_directions(*self.draw(rng, count))

    def density(self, pts):
        return geom.one_minus_norm_sq(pts) ** (-self.exponent) / self._norm


class PullbackBallComponent(_RoundShell):
    """Moebius image of the uniform law on a centred ball of pseudo-radius t.

    Samples concentrate on the metric ball of radius t around ``z``; the
    density is the automorphism Jacobian over t^(2n) on that ball.
    """

    def __init__(self, z: np.ndarray, t: float):
        self.z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if not 0.0 < t < 1.0:
            raise ParameterError("pullback radius must be in (0, 1)")
        self.t = float(t)
        super().__init__(self.z.size, 0.0, self.t ** (2 * self.z.size))
        self.base = self.z

    def sample(self, rng, count):
        return geom.ball_automorphism_many(self.z, geom.uniform_round_shell(rng, self.n, count, self.lo, self.hi))

    def density(self, pts):
        n = self.z.size
        q = geom.mobius_factor(self.z, pts)
        inside = geom.one_minus_norm_sq(pts) * q > 1.0 - self.t * self.t  # rho(z, w) < t
        return q ** (n + 1) * inside / self.t ** (2 * n)


def _mixture_density(components, pis):
    """Balance-heuristic denominator: block -> sum over c of pis[c] * density_c.

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

    def density(block: SampleBlock):
        dens = np.zeros(len(block.points))
        for pi, comp in plain:
            dens += pi * comp.density(block.points)
        for z, edges, suffix in fused:
            q, jac = block.mobius(z)
            rung = np.searchsorted(edges, -block.delta * q, side="right")
            dens += jac * suffix[rung]
        return dens

    return density


def integrate_mixture(f, components, weights, cfg: MCConfig) -> EstimateWithError:
    """Multiple-importance-sampling integral of ``f`` d(volume) over the unit ball;
    ``f`` maps a :class:`SampleBlock` to one real or complex value per point, and
    so shares delta and the Moebius factors with the mixture density.

    Allocation across components is deterministic and proportional to
    ``weights``; the balance-heuristic denominator sums all component
    densities, so overlapping components are handled correctly.  Pullback
    components sharing a base point enter that sum through one fused
    evaluation (see :func:`_mixture_density`); each component draws its own
    keyed batches.
    """
    w = np.asarray(weights, dtype=float)
    if len(components) != len(w) or np.any(w <= 0.0):
        raise ParameterError("need one positive weight per component")
    counts = [max(c, 2) for c in _apportion(cfg.n_samples, w)]
    total = sum(counts)
    pis = np.array([c / total for c in counts])

    density = _mixture_density(components, pis)

    def evaluate(pts):
        block = SampleBlock(pts)
        return np.asarray(f(block)) / density(block)

    return _fold(_keyed_values(components, counts, cfg, evaluate), pis)
