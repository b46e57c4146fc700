"""Bounded domains given by smooth defining functions.

A domain is {psi > 0} with non-vanishing gradient on the boundary.  The module
provides boundary distances, certified inscribed radii, two-sided Kobayashi
distance bounds built from inscribed/circumscribed Euclidean balls (never point
estimates: the invariant distance of a general domain is delivered as an
interval), and the comparison-inequality checkers that accompany them.

Built-in domains: axis-aligned real ellipsoids in the 2n real coordinates, the
unit ball as the ellipsoid with unit semi-axes (exact geometry), and a smoothly
perturbed ball.  Each gives psi, its gradient and its Hessian in closed form
over real rows; the non-ball boundary distances come from one batched Newton
projection onto {psi = 0} (:func:`_project_to_boundary`), in numpy alone: the
module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry_ball as geom
from .errors import OutsideDomainError, ParameterError
from .reports import CheckReport

__all__ = [
    "Domain",
    "BallDomain",
    "EllipsoidDomain",
    "PerturbedBallDomain",
    "DistanceBounds",
    "BoundaryEstimate",
    "boundary_distance",
    "kobayashi_bounds",
    "estimate_boundary_constants",
    "check_distance_comparison",
    "check_defining_fn_inequality",
]


@dataclass(frozen=True)
class DistanceBounds:
    """Two-sided bounds on the Kobayashi distance; upper may be inf when no
    inscribed chain could be certified."""

    lower: float
    upper: float


@dataclass(frozen=True)
class BoundaryEstimate:
    """Empirical constants c0 <= C0 in the boundary expansion
    k(z0, z) = -0.5 log d(z, boundary) + O(1)."""

    c0: float
    C0: float
    rows: tuple


class Domain:
    """Base class.  Each domain gives the psi-row protocol, which the boundary
    projection reads: ``psi_rows(x)``, ``psi_gradient_rows(x)`` and
    ``psi_hessian_rows(x)``, psi and its real gradient (..., 2n) and Hessian
    (..., 2n, 2n) at real rows x (..., 2n) in :func:`geom.points_to_rows`
    order, and ``lipschitz_bound()``, an upper bound for ||grad psi|| on the
    domain closure."""

    dimension: int
    bounding_radius: float  # the domain lies in the Euclidean ball of this radius about the origin

    def psi(self, z) -> float:
        return float(self.psi_values(self._points(np.reshape(z, (1, -1))))[0])

    def _points(self, points) -> np.ndarray:
        """``points`` as an (m, n) complex array of this domain's dimension."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ParameterError(f"a point of this domain has {self.dimension} coordinates, not {pts.shape[-1]}")
        return pts

    def psi_values(self, points) -> np.ndarray:
        return self.psi_rows(geom.points_to_rows(points))

    def holomorphic_gradient(self, z) -> np.ndarray:
        """Wirtinger gradient (d psi / d z_k)_k = (d/dx_k - i d/dy_k) psi / 2."""
        g = self.psi_gradient_rows(geom.points_to_rows(self._points(np.reshape(z, (1, -1))))[0])
        return 0.5 * (g[0::2] - 1j * g[1::2])

    @property
    def center(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.complex128)

    def boundary_distances(self, points) -> np.ndarray:
        """Euclidean distances from interior points (m, n) to the boundary, by
        one batched projection onto {psi = 0} (:func:`_project_to_boundary`)."""
        return _project_to_boundary(self, geom.points_to_rows(self._interior(points)))

    def _interior(self, points) -> np.ndarray:
        pts = self._points(points)
        if not np.all(self.psi_values(pts) > 0.0):
            raise OutsideDomainError("point is not interior to the domain")
        return pts

    def certified_inner_radius(self, z) -> float:
        """Cheap lower bound on the boundary distance (psi / Lipschitz by default)."""
        val = self.psi(z)
        if val <= 0.0:
            return 0.0
        return val / self.lipschitz_bound()


class EllipsoidDomain(Domain):
    """Axis-aligned real ellipsoid: psi = 1 - sum_i x_i^2 / a_i^2 over the 2n
    real coordinates (re_1, im_1, ..., re_n, im_n)."""

    def __init__(self, semi_axes):
        axes = np.asarray(semi_axes, dtype=float).reshape(-1)
        if axes.size % 2 != 0 or axes.size == 0:
            raise ParameterError("need 2n semi-axes (one per real coordinate)")
        if np.any(axes <= 0.0) or not np.all(np.isfinite(axes)):
            raise ParameterError("semi-axes must be positive and finite")
        self.semi_axes = axes
        self.dimension = axes.size // 2
        self.bounding_radius = float(np.max(axes))

    def psi_rows(self, x):
        return 1.0 - np.sum((x / self.semi_axes) ** 2, axis=-1)

    def psi_gradient_rows(self, x):
        return -2.0 * x / self.semi_axes**2

    def psi_hessian_rows(self, x):
        return np.broadcast_to(np.diag(-2.0 / self.semi_axes**2), x.shape + x.shape[-1:])

    def lipschitz_bound(self):
        return 2.0 * math.sqrt(float(np.sum(1.0 / self.semi_axes**2)))

    def certified_inner_radius(self, z):
        if self.psi(z) <= 0.0:
            return 0.0
        # the projection is accurate to ~1e-12; shave a hair to stay a lower bound
        return boundary_distance(self, z) * (1.0 - 1e-9)


class BallDomain(EllipsoidDomain):
    """The unit ball, the ellipsoid with unit semi-axes, psi = 1 - ||z||^2:
    its boundary distances and inner radii are exact."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        super().__init__(np.ones(2 * int(dimension)))

    def lipschitz_bound(self):
        return 2.0

    def boundary_distances(self, points):
        return 1.0 - np.linalg.norm(self._interior(points), axis=1)

    def certified_inner_radius(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        return max(1.0 - float(np.linalg.norm(z)), 0.0)


class PerturbedBallDomain(Domain):
    """Ball dented by a smooth Gaussian bump:
    psi = 1 - ||z||^2 - epsilon * exp(-||z - b||^2 / width^2)."""

    def __init__(self, dimension: int, epsilon: float = 0.05, bump_center=None, bump_width: float = 0.5):
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        if not 0.0 <= epsilon < 0.5:
            raise ParameterError("perturbation size must be small (0 <= eps < 0.5)")
        if bump_width <= 0.0:
            raise ParameterError("bump width must be positive")
        self.dimension = int(dimension)
        self.epsilon = float(epsilon)
        self.bump_width = float(bump_width)
        if bump_center is None:
            b = np.zeros(dimension, dtype=np.complex128)
            b[0] = 0.8
        else:
            b = geom.as_point(bump_center)
            if b.size != dimension:
                raise ParameterError("bump center dimension mismatch")
        self.bump_center = b
        self.bump_row = geom.points_to_rows(b)[0]
        self.bounding_radius = 1.0

    def _bump(self, x):
        """x - b and exp(-|x - b|^2 / w^2) at real rows x."""
        diff = x - self.bump_row
        return diff, np.exp(-np.sum(diff * diff, axis=-1) / self.bump_width**2)

    def psi_rows(self, x):
        return 1.0 - np.sum(x * x, axis=-1) - self.epsilon * self._bump(x)[1]

    def psi_gradient_rows(self, x):
        diff, bump = self._bump(x)
        return -2.0 * x + (2.0 * self.epsilon * bump / self.bump_width**2)[..., None] * diff

    def psi_hessian_rows(self, x):
        # -2 I + c (I - 2 (x - b)(x - b)^T / w^2), c = 2 epsilon bump / w^2
        diff, bump = self._bump(x)
        c = 2.0 * self.epsilon * bump / self.bump_width**2
        eye = np.eye(diff.shape[-1])
        outer = diff[..., :, None] * diff[..., None, :]
        return (c - 2.0)[..., None, None] * eye - (2.0 * c / self.bump_width**2)[..., None, None] * outer

    def lipschitz_bound(self):
        w = self.bump_width
        return 2.2 + self.epsilon * math.sqrt(2.0) / (w * math.sqrt(math.e))


# ---------------------------------------------------------------------------
# boundary distance machinery
# ---------------------------------------------------------------------------

_CHUNK_VALUES = 1 << 22  # float64 values in one chunk of the projection's batch (32 MiB)


def projection_values(dimension: int) -> int:
    """Values the boundary projection holds per point in complex dimension n:
    2(2n + 1) rays, each with a (2n + 1)^2 Newton matrix."""
    return 2 * (2 * dimension + 1) ** 3


def _project_to_boundary(domain: Domain, z_rows: np.ndarray) -> np.ndarray:
    """Distances from interior real rows z (k, 2n) to {psi = 0}, certified on both sides.

    Each z casts rays (radial, along -grad psi(z), and along +-each axis), marched
    to their first sign change of psi and bisected there.  Each hit starts Newton
    on the KKT system x - z = lam grad psi(x), psi(x) = 0 of a nearest boundary
    point, Jacobian [[I - lam H, -grad psi], [grad psi^T, 0]], with one batched
    solve per step.  The ray hits and the Newton end points with |psi| < 1e-12
    lie on the boundary, so the least |x - z| among them bounds the distance
    from above; psi(z) / lipschitz_bound() bounds it from below.  Points go in
    chunks of about _CHUNK_VALUES values, so memory stays bounded.
    """
    chunk = max(1, _CHUNK_VALUES // projection_values(z_rows.shape[1] // 2))
    return np.concatenate([_project_chunk(domain, z_rows[i:i + chunk]) for i in range(0, len(z_rows), chunk)])


def _project_chunk(domain: Domain, z: np.ndarray) -> np.ndarray:
    k, m = z.shape
    eye = np.eye(m)
    rays = np.concatenate([z[:, None, :], -domain.psi_gradient_rows(z)[:, None, :],
                           np.broadcast_to(eye, (k, m, m)), np.broadcast_to(-eye, (k, m, m))], axis=1)
    norms = np.linalg.norm(rays, axis=2, keepdims=True)
    rays = np.divide(rays, norms, out=np.zeros_like(rays), where=norms > 0.0)  # z = 0 has no radial ray
    zs = np.broadcast_to(z[:, None, :], rays.shape)
    # march each ray out of the bounding ball to its first sign change, then bisect it
    lo = np.zeros(rays.shape[:2])
    hi = np.full(rays.shape[:2], np.inf)
    for s in np.linspace(0.0, 2.0 * domain.bounding_radius, 65)[1:]:
        open_ = np.isinf(hi)
        out = domain.psi_rows(zs + s * rays) <= 0.0
        hi[open_ & out] = s
        lo[open_ & ~out] = s
        if not np.isinf(hi).any():
            break
    hit = np.isfinite(hi)
    lo[~hit] = hi[~hit] = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        out = domain.psi_rows(zs + mid[..., None] * rays) <= 0.0
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    best = np.where(hit, hi, np.inf)
    # Newton on the KKT system from every hit, at most 40 steps; a row stops once its step is below 1e-14
    zb = zs[hit]
    x = zb + hi[hit][:, None] * rays[hit]
    g = domain.psi_gradient_rows(x)
    lam = np.einsum("bi,bi->b", x - zb, g) / np.einsum("bi,bi->b", g, g)
    active = np.arange(len(x))
    jac = np.zeros((len(x), m + 1, m + 1))
    for _ in range(40):
        if active.size == 0:
            break
        xa, la, ja = x[active], lam[active], jac[:active.size]
        g = domain.psi_gradient_rows(xa)
        ja[:, :m, :m] = eye - la[:, None, None] * domain.psi_hessian_rows(xa)
        ja[:, :m, m] = -g
        ja[:, m, :m] = g
        res = np.concatenate([xa - zb[active] - la[:, None] * g, domain.psi_rows(xa)[:, None]], axis=1)
        try:
            step = np.linalg.solve(ja, -res[..., None])[..., 0]
        except np.linalg.LinAlgError:  # z at a centre of curvature: a singular system has a least-norm step
            step = (np.linalg.pinv(ja) @ -res[..., None])[..., 0]
        x[active] += step[:, :m]
        lam[active] += step[:, m]
        active = active[np.max(np.abs(step), axis=1) > 1e-14]
    on_boundary = np.abs(domain.psi_rows(x)) < 1e-12
    best[hit] = np.minimum(best[hit], np.where(on_boundary, np.linalg.norm(x - zb, axis=1), np.inf))
    lower = domain.psi_rows(z) / domain.lipschitz_bound()
    return np.maximum(best.min(axis=1), lower)


def boundary_distance(domain: Domain, z) -> float:
    """Euclidean distance from an interior point to the boundary of the domain,
    the one-point case of ``domain.boundary_distances``."""
    return float(domain.boundary_distances(geom.as_point(z)[None, :])[0])


# ---------------------------------------------------------------------------
# Kobayashi distance bounds
# ---------------------------------------------------------------------------

def _scaled_ball_distance(c: np.ndarray, radius: float, z: np.ndarray, w: np.ndarray) -> float:
    """Kobayashi distance of the Euclidean ball B(c, radius) between z, w inside it."""
    zs = (z - c) / radius
    ws = (w - c) / radius
    rho = float(geom.pseudo_distance_many(zs, ws[None, :])[0])
    return math.atanh(min(rho, geom.RHO_CAP))


_CHAIN_STEP = 0.5  # each hop of the chain spans this fraction of its inscribed ball's radius
_CHAIN_MAX_STEPS = 20_000


def _chain_upper(domain: Domain, z: np.ndarray, w: np.ndarray) -> float:
    """Upper bound via a chain of inscribed Euclidean balls along the segment."""
    total = 0.0
    p = z.copy()
    for _ in range(_CHAIN_MAX_STEPS):
        gap = w - p
        dist = float(np.linalg.norm(gap))
        if dist == 0.0:
            return total
        rad = domain.certified_inner_radius(p)
        if rad <= 0.0:
            return math.inf
        hop = min(dist, _CHAIN_STEP * rad)
        total += math.atanh(min(hop / rad, geom.RHO_CAP))
        p = p + (hop / dist) * gap
        if hop == dist:
            return total
    return math.inf


def kobayashi_bounds(domain: Domain, z, w) -> DistanceBounds:
    """Sandwich the Kobayashi distance of a domain between ball distances.

    The lower bound comes from a circumscribed ball (the distance decreases
    under inclusion); upper bounds come from any inscribed ball containing both
    points and from a greedy inscribed-ball chain along the segment.  For the
    unit-ball domain the two sides coincide with the exact distance.
    """
    z, w = (domain._interior(np.reshape(p, (1, -1)))[0] for p in (z, w))
    lower = _scaled_ball_distance(domain.center, domain.bounding_radius, z, w)
    upper = math.inf
    mid = 0.5 * (z + w)
    for c in (domain.center, mid, z, w):
        rad = domain.certified_inner_radius(c)
        need = max(float(np.linalg.norm(z - c)), float(np.linalg.norm(w - c)))
        if rad > need:
            upper = min(upper, _scaled_ball_distance(c, rad, z, w))
    upper = min(upper, _chain_upper(domain, z, w))
    if math.isfinite(upper):
        upper = max(upper, lower)
    return DistanceBounds(lower=lower, upper=upper)


def estimate_boundary_constants(domain: Domain, z0, probes) -> BoundaryEstimate:
    """Fit the additive constants in k(z0, z) ~ -0.5 log d(z) from probe points.

    c0 is the smallest lower-bound offset, C0 the largest upper-bound offset;
    exact distances would give the optimal constants, bounds give a certified
    enclosure.
    """
    probe_list = [geom.as_point(p) for p in probes]
    if len(probe_list) < 2:
        raise ParameterError("need at least two probe points")
    bounds = [kobayashi_bounds(domain, z0, p) for p in probe_list]
    rows = []
    c0 = math.inf
    C0 = -math.inf
    for b, d in zip(bounds, domain.boundary_distances(probe_list)):
        d = float(d)
        lo_term = b.lower + 0.5 * math.log(d)
        hi_term = b.upper + 0.5 * math.log(d) if math.isfinite(b.upper) else math.inf
        c0 = min(c0, lo_term)
        C0 = max(C0, hi_term)
        rows.append({"d": d, "lower": b.lower, "upper": b.upper, "lo_term": lo_term, "hi_term": hi_term})
    return BoundaryEstimate(c0=c0, C0=C0, rows=tuple(rows))


def _sample_metric_ball(domain: Domain, z0: np.ndarray, r: float, count: int, seed) -> np.ndarray:
    """Points certified to lie in the metric ball B_D(z0, r).

    Exact ellipsoid sampling on the ball domain; on a general domain, a
    Euclidean ball of radius r * certified_inner_radius(z0), which the
    inclusion-decreasing property places inside the metric ball.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    if isinstance(domain, BallDomain):
        return geom.sample_ball_uniform(geom.kobayashi_ball(z0, r), count, rng)
    rad = domain.certified_inner_radius(z0)
    if rad <= 0.0:
        raise OutsideDomainError("base point is not interior")
    w = geom.uniform_round_ball(rng, domain.dimension, count)
    return z0 + (r * rad) * w


def check_distance_comparison(domain: Domain, z0, r: float, n_samples: int = 2000, seed: int = 0) -> CheckReport:
    """Boundary-distance comparability over a metric ball.

    Fits the smallest C2 with d(z)/d(z0) and d(z0)/d(z) <= C2/(1-r) over samples
    of B_D(z0, r); for strongly convex domains C2 = 4 is expected to suffice.
    """
    z0 = geom.as_point(z0)
    if not (0.0 < r < 1.0):
        raise ParameterError("radius must be in (0, 1)")
    pts = _sample_metric_ball(domain, z0, r, n_samples, seed)
    d0 = boundary_distance(domain, z0)
    dz = domain.boundary_distances(pts)
    ratio = np.maximum(dz / d0, d0 / dz)
    c2 = float((1.0 - r) * np.max(ratio))
    return CheckReport(
        name="distance-comparison",
        statistic=c2,
        comparison="<=",
        bound=4.0,
        n_samples=int(n_samples),
        std_error=0.0,
        details={"r": float(r), "d0": d0, "seed": int(seed)},
    )


def check_defining_fn_inequality(domain: Domain, z0, r: float, n_samples: int = 2000, seed: int = 0) -> CheckReport:
    """Boundary distance controls the quadratic/differential gauge on metric balls.

    Reports the largest empirical c with d(z0) >= c * (||z - z0||^2 +
    |dpsi_{z0}(z - z0)|) over samples of B_D(z0, r); only |dpsi| enters, so the
    result does not depend on a sign/conjugation convention.
    """
    z0 = geom.as_point(z0)
    if not (0.0 < r < 1.0):
        raise ParameterError("radius must be in (0, 1)")
    pts = _sample_metric_ball(domain, z0, r, n_samples, seed)
    grad = domain.holomorphic_gradient(z0)
    d0 = boundary_distance(domain, z0)
    diff = pts - z0
    gauge = np.einsum("ij,ij->i", diff, np.conj(diff)).real + np.abs(diff @ grad)
    mask = gauge > 1e-30
    if not np.any(mask):
        c_fit = math.inf
    else:
        c_fit = float(np.min(d0 / gauge[mask]))
    return CheckReport(
        name="defining-fn-bound",
        statistic=c_fit,
        comparison=">",
        bound=0.0,
        n_samples=int(n_samples),
        std_error=0.0,
        details={"r": float(r), "d0": d0, "seed": int(seed)},
    )
