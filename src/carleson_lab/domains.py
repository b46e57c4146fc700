"""Bounded domains given by smooth defining functions.

A domain is {psi > 0} with non-vanishing gradient on the boundary.  The module
provides boundary distances, certified inscribed radii, two-sided Kobayashi
distance bounds built from inscribed/circumscribed Euclidean balls (never point
estimates: the invariant distance of a general domain is delivered as an
interval), and the comparison-inequality checkers that accompany them.

Built-in domains: the unit ball (exact geometry), axis-aligned real ellipsoids
in the 2n real coordinates, and a smoothly perturbed ball.
scipy is imported at its call site: a command loads only the scipy it calls.
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
    "fd_holomorphic_gradient",
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
    """Base class; subclasses provide psi, its holomorphic gradient, and geometry hints."""

    dimension: int
    bounding_radius: float
    inner_radius: float

    def psi(self, z) -> float:
        z = np.asarray(z, dtype=np.complex128)
        if z.shape != (self.dimension,):
            raise ParameterError(f"a point of this domain has {self.dimension} coordinates, not {z.size}")
        return float(self.psi_values(z[None, :])[0])

    def psi_values(self, points) -> np.ndarray:
        raise NotImplementedError

    def holomorphic_gradient(self, z) -> np.ndarray | None:
        """Wirtinger gradient (d psi / d z_k)_k, or None to fall back on differences."""
        return None

    def lipschitz_bound(self) -> float:
        """Upper bound for ||grad psi|| on the domain closure."""
        raise NotImplementedError

    @property
    def center(self) -> np.ndarray:
        return np.zeros(self.dimension, dtype=np.complex128)

    def contains(self, z) -> bool:
        return self.psi(z) > 0.0

    def boundary_distance(self, z) -> float:
        raise NotImplementedError

    def certified_inner_radius(self, z) -> float:
        """Cheap lower bound on the boundary distance (psi / Lipschitz by default)."""
        val = self.psi(z)
        if val <= 0.0:
            return 0.0
        return val / self.lipschitz_bound()


class BallDomain(Domain):
    """The unit ball, psi = 1 - ||z||^2: every service is exact."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        self.dimension = int(dimension)
        self.bounding_radius = 1.0
        self.inner_radius = 1.0

    def psi_values(self, points):
        return geom.one_minus_norm_sq(np.atleast_2d(points))

    def holomorphic_gradient(self, z):
        return -np.conj(np.asarray(z, dtype=np.complex128).reshape(-1))

    def lipschitz_bound(self):
        return 2.0

    def boundary_distance(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        d = 1.0 - float(np.linalg.norm(z))
        if d <= 0.0:
            raise OutsideDomainError("point is not interior to the unit ball")
        return d

    def certified_inner_radius(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        return max(1.0 - float(np.linalg.norm(z)), 0.0)


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
        self.inner_radius = float(np.min(axes) ** 2 / np.max(axes))

    def _real(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
        return geom.points_to_rows(pts)

    def psi_values(self, points):
        x = self._real(points)
        return 1.0 - np.sum((x / self.semi_axes) ** 2, axis=1)

    def holomorphic_gradient(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        ax = self.semi_axes[0::2]
        ay = self.semi_axes[1::2]
        # (d/dx - i d/dy)/2 applied to -x^2/ax^2 - y^2/ay^2
        return -z.real / ax**2 + 1j * z.imag / ay**2

    def lipschitz_bound(self):
        return 2.0 * math.sqrt(float(np.sum(1.0 / self.semi_axes**2)))

    def boundary_distance(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if self.psi(z) <= 0.0:
            raise OutsideDomainError("point is not interior to the ellipsoid")
        x = geom.points_to_rows(z[None, :])[0]
        d = _ellipsoid_distance(self.semi_axes, x)
        if d is None:
            d = _multistart_boundary_distance(self, z)
        return d

    def certified_inner_radius(self, z):
        if self.psi(z) <= 0.0:
            return 0.0
        # the secular solve is accurate to ~1e-12; shave a hair to stay a lower bound
        return self.boundary_distance(z) * (1.0 - 1e-9)


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
        self.bounding_radius = 1.0
        self.inner_radius = 0.25

    def _bump(self, pts):
        diff = pts - self.bump_center
        return np.exp(-np.einsum("ij,ij->i", diff, np.conj(diff)).real / self.bump_width**2)

    def psi_values(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
        return geom.one_minus_norm_sq(pts) - self.epsilon * self._bump(pts)

    def holomorphic_gradient(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        diff = z - self.bump_center
        bump = float(self._bump(z[None, :])[0])
        # d/dz_k of ||z - b||^2 is conj(z_k - b_k)
        return -np.conj(z) + self.epsilon * bump / self.bump_width**2 * np.conj(diff)

    def lipschitz_bound(self):
        w = self.bump_width
        return 2.2 + self.epsilon * math.sqrt(2.0) / (w * math.sqrt(math.e))

    def boundary_distance(self, z):
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        if self.psi(z) <= 0.0:
            raise OutsideDomainError("point is not interior to the domain")
        return _multistart_boundary_distance(self, z)


# ---------------------------------------------------------------------------
# boundary distance machinery
# ---------------------------------------------------------------------------

def _ellipsoid_distance(semi_axes: np.ndarray, x: np.ndarray) -> float | None:
    """Distance from an interior point to the ellipsoid sum x_i^2/a_i^2 = 1.

    Solves the secular equation of the nearest-point projection; returns None
    in the degenerate axis cases, which the multistart fallback then covers.
    """
    from scipy.optimize import brentq
    a2 = semi_axes.astype(float) ** 2
    s = float(np.sum(x**2 / a2))
    if s >= 1.0:
        return 0.0
    if np.allclose(x, 0.0):
        return float(np.min(semi_axes))

    def secular(t):
        return float(np.sum(a2 * x**2 / (a2 + t) ** 2)) - 1.0

    t_lo = -float(np.min(a2[x != 0.0])) if np.any(x != 0.0) else -float(np.min(a2))
    lo = t_lo * (1.0 - 1e-12)
    if secular(lo) <= 0.0:
        return None
    t_star = brentq(secular, lo, 0.0, xtol=1e-15, rtol=1e-14)
    nearest = a2 * x / (a2 + t_star)
    d = float(np.linalg.norm(nearest - x))
    # the secular root can be a saddle when the point sits on a symmetry axis
    if np.any(x == 0.0) and np.any(-a2[x == 0.0] > t_star):
        return None
    return d


def _ray_boundary_point(domain: Domain, z: np.ndarray, direction: np.ndarray) -> np.ndarray | None:
    """March along a real-2n direction until psi changes sign, then bisect."""
    from scipy.optimize import brentq
    u = direction / np.linalg.norm(direction)
    z_rows = geom.points_to_rows(z[None, :])[0]

    def psi_at(s):
        pt = geom.rows_to_points([(z_rows + s * u)])[0]
        return domain.psi(pt)

    s_hi = 2.5 * domain.bounding_radius
    lo, hi = 0.0, None
    for s in np.linspace(1e-6, s_hi, 64):
        if psi_at(s) <= 0.0:
            hi = s
            break
        lo = s
    if hi is None:
        return None
    s_star = brentq(psi_at, lo, hi, xtol=1e-13)
    return z_rows + s_star * u


def _multistart_boundary_distance(domain: Domain, z: np.ndarray) -> float:
    """Multi-start constrained minimisation of ||x - z|| over {psi = 0}."""
    from scipy.optimize import minimize
    m = 2 * domain.dimension
    z_rows = geom.points_to_rows(z[None, :])[0]
    rng = np.random.default_rng(1234)  # fixed: the routine must be deterministic
    directions = [np.eye(m)[i] * sgn for i in range(m) for sgn in (1.0, -1.0)]
    directions += [rng.standard_normal(m) for _ in range(6)]
    best = math.inf

    def objective(x):
        return float(np.sum((x - z_rows) ** 2))

    def constraint(x):
        return domain.psi(geom.rows_to_points([x])[0])

    for u in directions:
        start = _ray_boundary_point(domain, z, np.asarray(u))
        if start is None:
            continue
        best = min(best, float(np.linalg.norm(start - z_rows)))
        res = minimize(
            objective,
            start,
            method="SLSQP",
            constraints=[{"type": "eq", "fun": constraint}],
            options={"maxiter": 80, "ftol": 1e-14},
        )
        if res.success and abs(constraint(res.x)) < 1e-8:
            best = min(best, math.sqrt(max(res.fun, 0.0)))
    if not math.isfinite(best):
        raise OutsideDomainError("could not locate the domain boundary from this point")
    return best


def boundary_distance(domain: Domain, z) -> float:
    """Euclidean distance from an interior point to the boundary of the domain."""
    z = geom.as_point(z)
    if domain.psi(z) <= 0.0:
        raise OutsideDomainError("point is not interior to the domain")
    return domain.boundary_distance(z)


# ---------------------------------------------------------------------------
# Kobayashi distance bounds
# ---------------------------------------------------------------------------

def _scaled_ball_distance(c: np.ndarray, radius: float, z: np.ndarray, w: np.ndarray) -> float:
    """Kobayashi distance of the Euclidean ball B(c, radius) between z, w inside it."""
    zs = (z - c) / radius
    ws = (w - c) / radius
    rho = float(geom.pseudo_distance_many(zs, ws[None, :])[0])
    return math.atanh(min(rho, 1.0 - 1e-16))


def _chain_upper(domain: Domain, z: np.ndarray, w: np.ndarray, step: float = 0.5, max_steps: int = 20_000) -> float:
    """Upper bound via a chain of inscribed Euclidean balls along the segment."""
    total = 0.0
    p = z.copy()
    for _ in range(max_steps):
        gap = w - p
        dist = float(np.linalg.norm(gap))
        if dist == 0.0:
            return total
        rad = domain.certified_inner_radius(p)
        if rad <= 0.0:
            return math.inf
        hop = min(dist, step * rad)
        total += math.atanh(min(hop / rad, 1.0 - 1e-16))
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
    z = geom.as_point(z)
    w = geom.as_point(w)
    for pt, name in ((z, "first point"), (w, "second point")):
        if domain.psi(pt) <= 0.0:
            raise OutsideDomainError(f"{name} is not interior to the domain")
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
    z0 = geom.as_point(z0)
    probe_list = [geom.as_point(p) for p in probes]
    if len(probe_list) < 2:
        raise ParameterError("need at least two probe points")
    rows = []
    c0 = math.inf
    C0 = -math.inf
    for p in probe_list:
        b = kobayashi_bounds(domain, z0, p)
        d = boundary_distance(domain, p)
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if isinstance(domain, BallDomain):
        ball = geom.kobayashi_ball(z0, r)
        return geom.sample_ball_uniform(ball, count, rng)
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
    if isinstance(domain, BallDomain):
        dz = 1.0 - np.linalg.norm(pts, axis=1)
    else:
        dz = np.array([domain.boundary_distance(p) for p in pts])
    ratio = np.maximum(dz / d0, d0 / dz)
    c2 = float((1.0 - r) * np.max(ratio))
    return CheckReport(
        name="distance-comparison",
        statistic=c2,
        bound=4.0,
        passed=bool(c2 <= 4.0),
        n_samples=int(n_samples),
        std_error=0.0,
        details={"r": float(r), "d0": d0, "seed": int(seed)},
    )


def fd_holomorphic_gradient(domain: Domain, z, h: float | None = None) -> np.ndarray:
    """Central-difference Wirtinger gradient (d/dx - i d/dy)/2 of psi."""
    z = geom.as_point(z)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(z)))
    grad = np.zeros(z.size, dtype=np.complex128)
    for k in range(z.size):
        ex = np.zeros(z.size, dtype=np.complex128)
        ex[k] = h
        dx = (domain.psi(z + ex) - domain.psi(z - ex)) / (2.0 * h)
        ey = np.zeros(z.size, dtype=np.complex128)
        ey[k] = 1j * h
        dy = (domain.psi(z + ey) - domain.psi(z - ey)) / (2.0 * h)
        grad[k] = 0.5 * (dx - 1j * dy)
    return grad


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
    if grad is None:
        grad = fd_holomorphic_gradient(domain, z0)
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
        bound=0.0,
        passed=bool(c_fit > 0.0),
        n_samples=int(n_samples),
        std_error=0.0,
        details={"r": float(r), "d0": d0, "seed": int(seed)},
    )
