"""Invariant geometry of the unit ball of C^n.

Pseudohyperbolic and Kobayashi distances, Moebius automorphisms, metric balls
as explicit Euclidean ellipsoids, their volumes, and rejection-free uniform
sampling inside them.  The ellipsoid serves sampling and reach; its equation,
which the distance contradicts in the last bits at the metric sphere, decides
no membership.

Every distance in the package comes from one of two forms defined here
(delta = 1 - |.|^2; Rudin, Function Theory in the Unit Ball of C^n, 2.2.2):
  * :func:`pseudo_rho`, rho itself, cancellation-free, and the membership rule
    (w in B(z, r) iff pseudo_rho(z, w) < r): the distance functions below,
    :meth:`KobayashiBall.contains`, ``sequences.pseudo_block`` and the sequence
    layer's separation, packing, decomposition, ball and shell counts use it.
  * :func:`mobius_factor`, the product form q_a(z) = delta_a / |1 - <z, a>|^2:
    1 - rho(a, z)^2 = delta_z q_a(z), and q_a^(n+1) is the Moebius Jacobian and
    |k_a|^2.  It decides rho(a, z) < t as delta_z q_a(z) > 1 - t^2 only in the
    mixture densities of ``integrate``; ``sequences._count_within`` lets it
    settle only pairs outside a rounding band about 1 - t^2.
The difference form costs two to three times as much per pair; the product
form loses relative accuracy in rho when rho is small, which a comparison
against a fixed radius, or a Jacobian, does not need.

Conventions used throughout the package:
  * points are complex vectors with Euclidean norm < 1,
  * the Hermitian pairing is <z, w> = sum_k z_k * conj(w_k),
  * Lebesgue volume is normalised so the whole unit ball has measure 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomainError, ParameterError, ValidationError
from .reports import CheckReport

# Base points this close to the unit sphere are rejected instead of
# extrapolated: every formula in this module degenerates there.
BOUNDARY_MARGIN = 1e-12
# the cap on a pseudohyperbolic distance, so its Kobayashi arctanh stays finite
RHO_CAP = 1.0 - 1e-16

__all__ = [
    "BOUNDARY_MARGIN",
    "RHO_CAP",
    "DistancePair",
    "KobayashiBall",
    "as_point",
    "interior_point",
    "ball_points",
    "herm_inner",
    "norm_sq",
    "pseudo_distance",
    "pseudo_distance_many",
    "pseudo_rho",
    "one_minus_norm_sq",
    "mobius_factor",
    "ball_automorphism",
    "ball_automorphism_many",
    "mobius_jacobian_many",
    "kobayashi_ball",
    "metric_ball_reach",
    "ball_volume",
    "map_round_to_ellipsoid",
    "sample_ball_uniform",
    "check_lemma_ball_inequality",
    "points_to_rows",
    "rows_to_points",
]


def as_point(coords) -> np.ndarray:
    """Coerce coordinates to a 1-d complex vector, rejecting non-finite input."""
    z = np.asarray(coords, dtype=np.complex128).reshape(-1)
    if z.size == 0:
        raise ValidationError("a point needs at least one coordinate")
    if not np.all(np.isfinite(z)):
        raise ValidationError("point coordinates must be finite")
    return z


def norm_sq(z: np.ndarray) -> float:
    return float(np.real(np.vdot(z, z)))


def herm_inner(z: np.ndarray, w: np.ndarray) -> complex:
    """Compensated <z, w> = sum_k z_k * conj(w_k).

    Real and imaginary parts are exact sums of products, so swapping the
    arguments conjugates the result bit for bit.
    """
    re = math.fsum(np.concatenate([z.real * w.real, z.imag * w.imag]))
    im = math.fsum(np.concatenate([z.imag * w.real, -z.real * w.imag]))
    return complex(re, im)


def interior_point(coords, dimension: int | None = None, name: str = "point") -> np.ndarray:
    """The argument of a one-point formula: :func:`as_point`, of ``dimension``
    coordinates when one is given, inside the sphere by BOUNDARY_MARGIN."""
    z = as_point(coords)
    if dimension is not None and z.size != dimension:
        raise ParameterError(f"{name} has {z.size} coordinates, not {dimension}")
    nz = float(np.linalg.norm(z))
    if nz >= 1.0 - BOUNDARY_MARGIN:
        raise OutsideDomainError(f"{name} must lie strictly inside the unit ball "
                                 f"(||z|| = {nz:.17g} >= 1 - {BOUNDARY_MARGIN:g})")
    return z


def ball_points(points, dimension: int | None = None, name: str = "points") -> np.ndarray:
    """A point set as an (m, n) complex array: n >= 1 (``dimension`` if given),
    finite coordinates, refused before any norm is taken, and |z| < 1.  No margin:
    a set may hold points within BOUNDARY_MARGIN of the sphere, as a ladder's deep rungs."""
    try:
        pts = np.asarray(points, dtype=np.complex128)
    except (ValueError, TypeError) as exc:  # ragged rows, or entries that are not numbers
        raise ValidationError(f"{name} must be rows of numbers, one length each ({exc})") from None
    if dimension and pts.ndim == 1 and not pts.size:  # [] with a dimension: the empty set of it
        pts = pts.reshape(0, dimension)
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or not pts.shape[1] or pts.shape[1] != (dimension or pts.shape[1]):
        raise ValidationError(f"bad shape {pts.shape} for {name}: a point has {dimension or 'one or more'} coordinates")
    if not (np.all(np.isfinite(pts)) and np.all(np.linalg.norm(pts, axis=1) < 1.0)):
        raise ValidationError(f"{name} must be finite and lie inside the unit ball")
    return pts


@dataclass(frozen=True)
class DistancePair:
    """Pseudohyperbolic distance rho in [0,1) and its Kobayashi value arctanh(rho)."""

    pseudo: float
    kobayashi: float


@dataclass(frozen=True, eq=False)
class KobayashiBall:
    """Metric ball {rho(base, .) < pseudo_radius} with its Euclidean ellipsoid.

    The ellipsoid is a round disk of radius ``radial_axis`` on the complex line
    through the base point and a round ball of radius ``transverse_axis`` on the
    orthogonal complement, both centred at ``center``.  It is kept for sampling
    and reporting; :meth:`contains` decides membership by the distance.
    """

    base: np.ndarray
    pseudo_radius: float
    center: np.ndarray
    radial_axis: float
    transverse_axis: float

    @property
    def dimension(self) -> int:
        return int(self.base.size)

    def radial_direction(self) -> np.ndarray:
        nb = np.linalg.norm(self.base)
        if nb < 1e-12:  # at the origin every complex line is radial: take e_1
            e = np.zeros(self.dimension, dtype=np.complex128)
            e[0] = 1.0
            return e
        return self.base / nb

    def contains(self, points) -> np.ndarray:
        """pseudo_rho(base, w) < pseudo_radius for each row w of an (m, n) array."""
        return pseudo_rho(self.base, np.atleast_2d(points)) < self.pseudo_radius

    @property
    def volume(self) -> float:
        return ball_volume(self.base, self.pseudo_radius)

    def to_json_dict(self) -> dict:
        return {
            "base": points_to_rows(self.base[None, :])[0].tolist(),
            "r": self.pseudo_radius,
            "center": points_to_rows(self.center[None, :])[0].tolist(),
            "radial_axis": self.radial_axis,
            "transverse_axis": self.transverse_axis,
        }


def _sum_last(x: np.ndarray) -> np.ndarray:
    """x[..., 0] + x[..., 1] + ... in that order: over a short last axis, bit for
    bit what a reduction over it gives, without its per-row cost."""
    parts = [x[..., k] for k in range(x.shape[-1])] or [np.zeros(x.shape[:-1])]
    return functools.reduce(np.add, parts)


def one_minus_norm_sq(points) -> np.ndarray:
    """delta = 1 - |z|^2 over the last axis of ``points``."""
    z = np.asarray(points, dtype=np.complex128)
    return 1.0 - _sum_last(z.real * z.real + z.imag * z.imag)


def pseudo_rho(a, b) -> np.ndarray:
    """Pseudohyperbolic distance between a[..., :] and b[..., :], broadcast over
    the leading axes.  Trusts the caller on interiority.

    With d = a - b, 1 - <a, b> = (delta_a + delta_b + |d|^2) / 2 - i Im<d, a>, so
    rho^2 = (delta_a |d|^2 + |<d, a>|^2) / (((delta_a + delta_b + |d|^2) / 2)^2 + Im<d, a>^2):
    sums of non-negatives, so close pairs keep full relative accuracy.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    d = a - b
    dd = np.einsum("...i,...i->...", d, np.conj(d)).real
    p = np.einsum("...i,...i->...", d, np.conj(a))
    da = one_minus_norm_sq(a)
    db = one_minus_norm_sq(b)
    num = da * dd + (p.real**2 + p.imag**2)
    den = (0.5 * (da + db + dd)) ** 2 + p.imag**2
    return np.sqrt(np.minimum(num / den, 1.0))


def pseudo_distance(z, w) -> DistancePair:
    """Pseudohyperbolic distance between two interior points, by :func:`pseudo_rho`,
    capped at RHO_CAP.  The Kobayashi distance is arctanh(rho).
    """
    z = interior_point(z, name="first point")
    w = interior_point(w, z.size, "second point")
    rho = min(float(pseudo_rho(z, w)), RHO_CAP)
    return DistancePair(pseudo=rho, kobayashi=math.atanh(rho))


def pseudo_distance_many(z0: np.ndarray, points) -> np.ndarray:
    """Pseudohyperbolic distance from ``z0`` to each row of ``points``."""
    return pseudo_rho(np.asarray(z0).reshape(-1), np.atleast_2d(points))


def ball_automorphism_many(a: np.ndarray, points) -> np.ndarray:
    """Apply the involutive automorphism swapping 0 and ``a`` to rows of ``points``."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    na2 = norm_sq(a)
    if na2 < 1e-30:
        return -pts
    ip = pts @ np.conj(a)
    proj = np.multiply.outer(ip / na2, a)
    s = math.sqrt(1.0 - na2)
    return (a[None, :] - proj - s * (pts - proj)) / (1.0 - ip)[:, None]


def ball_automorphism(a, z) -> np.ndarray:
    """Involutive Moebius automorphism phi_a of the ball: phi_a(0) = a, phi_a(a) = 0.

    The convention is pinned by the involution phi_a(phi_a(z)) = z; it preserves
    the pseudohyperbolic distance.
    """
    a = interior_point(a, name="automorphism parameter")
    z = interior_point(z, a.size)
    return ball_automorphism_many(a, z[None, :])[0]


def mobius_factor(a, points) -> np.ndarray:
    """The product form q_a(z) = (1 - |a|^2) / |1 - <z, a>|^2 at each row z of ``points``.

    1 - rho(a, z)^2 = (1 - |z|^2) q_a(z).  A 1-d ``a`` gives one value per row;
    the rows of a 2-d ``a`` give an (m, k) block, one column per row of ``a``.
    """
    a = np.asarray(a, dtype=np.complex128)
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    da = 1.0 - norm_sq(a) if a.ndim == 1 else one_minus_norm_sq(a)
    return da / np.abs(1.0 - pts @ np.conj(a).T) ** 2


def mobius_jacobian_many(a: np.ndarray, points) -> np.ndarray:
    """|real Jacobian determinant| of the automorphism phi_a at each row of ``points``.

    Equals q_a^(n+1) (:func:`mobius_factor`); this is also the transition
    density used when pushing uniform samples forward through phi_a.
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    return mobius_factor(a, points) ** (a.size + 1)


def kobayashi_ball(z0, r: float) -> KobayashiBall:
    """Ellipsoid data of the metric ball of pseudohyperbolic radius ``r`` about ``z0``."""
    if not (0.0 < r < 1.0):
        raise ParameterError(f"pseudohyperbolic radius must be in (0, 1), got {r!r}")
    z0 = interior_point(z0, name="base point")
    nz2 = norm_sq(z0)
    _, denom, radial, transverse = _ball_axes(nz2, r)
    return KobayashiBall(
        base=z0,
        pseudo_radius=float(r),
        center=((1.0 - r * r) / denom) * z0,
        radial_axis=radial,
        transverse_axis=float(transverse),
    )


def _ball_axes(nz2, r: float):
    """delta = 1 - |z|^2, denom = 1 - r^2 |z|^2, and the radial and transverse
    axes r delta / denom and r sqrt(delta / denom) of the metric r-ball about z."""
    delta = 1.0 - nz2
    denom = 1.0 - r * r * nz2
    return delta, denom, r * delta / denom, r * np.sqrt(delta / denom)


def metric_ball_reach(points, r: float) -> np.ndarray:
    """Euclidean radius about each row of ``points`` that holds its metric ball
    of pseudohyperbolic radius ``r``.

    The ball is the ellipsoid of :func:`kobayashi_ball`, so it lies within
    |z - center| + a of z, where a is the transverse axis for n >= 2 and the
    radial axis for n = 1 (a disk, for which the reach is attained).  For
    n >= 2 it exceeds the true reach by less than 30% (at most 1.28x at
    r = 0.9).  A relative margin of 1e-9 absorbs rounding.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    nz2 = np.einsum("ij,ij->i", pts, np.conj(pts)).real
    delta, denom, radial, transverse = _ball_axes(nz2, r)
    axis = radial if pts.shape[1] == 1 else transverse
    return (1.0 + 1e-9) * (np.sqrt(nz2) * (r * r * delta / denom) + axis)


def ball_volume(z0, r: float) -> float:
    """Normalised volume r^(2n) * ((1 - ||z0||^2) / (1 - r^2 ||z0||^2))^(n+1)."""
    if not (0.0 < r < 1.0):
        raise ParameterError(f"pseudohyperbolic radius must be in (0, 1), got {r!r}")
    z0 = interior_point(z0, name="base point")
    n = z0.size
    nz2 = norm_sq(z0)
    return r ** (2 * n) * ((1.0 - nz2) / (1.0 - r * r * nz2)) ** (n + 1)


def _scale_directions(g: np.ndarray, radii) -> np.ndarray:
    """Points of C^n at ``radii`` along the directions of the (count, 2n) draw ``g``.

    ``g`` holds standard normals, so the directions are uniform on the sphere;
    a zero row stays at the origin.
    """
    m, n = g.shape[0], g.shape[1] // 2
    dirs = np.empty((m, n), dtype=np.complex128)
    dirs.real = g[:, :n]
    dirs.imag = g[:, n:]
    # the squares linalg.norm takes, (conj(z) z).real: the complex product may
    # round them by a fused multiply-add, where re*re + im*im would not
    norms = np.sqrt(_sum_last((dirs.conj() * dirs).real))
    norms[norms == 0.0] = 1.0
    scaled = dirs.view(np.float64).reshape(m, 2 * n)  # re, im interleaved: one flat multiply
    scaled *= (radii / norms)[:, None]
    return dirs


def round_shell_draw(rng: np.random.Generator, n: int, count: int, lo: float, hi: float):
    """The random part of :func:`uniform_round_shell`: the (count, 2n) standard
    normals of the directions and the radii, ready for :func:`_scale_directions`."""
    g = rng.standard_normal((count, 2 * n))
    return g, (lo + (hi - lo) * rng.random(count)) ** (1.0 / (2 * n))


def uniform_round_shell(rng: np.random.Generator, n: int, count: int, lo: float, hi: float) -> np.ndarray:
    """Uniform samples in the shell of the round unit ball of C^n (= R^(2n))
    that holds the volume fractions [lo, hi): the package's one uniform draw."""
    return _scale_directions(*round_shell_draw(rng, n, count, lo, hi))


def uniform_round_ball(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Uniform samples from the round unit ball of C^n, the shell [0, 1)."""
    return uniform_round_shell(rng, n, count, 0.0, 1.0)


def map_round_to_ellipsoid(ball: KobayashiBall, round_points: np.ndarray) -> np.ndarray:
    """Affine image of round-ball samples in the ellipsoid of ``ball``."""
    e = ball.radial_direction()
    p = round_points @ np.conj(e)
    perp = round_points - np.multiply.outer(p, e)
    return ball.center + ball.radial_axis * np.multiply.outer(p, e) + ball.transverse_axis * perp


def sample_ball_uniform(ball: KobayashiBall, count: int, seed) -> np.ndarray:
    """Uniform (w.r.t. volume) samples inside a Kobayashi ball, rejection-free.

    Deterministic function of (seed, count).
    """
    if count < 1:
        raise ParameterError(f"sample count must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    return map_round_to_ellipsoid(ball, uniform_round_ball(rng, ball.dimension, count))


def check_lemma_ball_inequality(z0, r: float, n_samples: int = 10_000, seed: int = 0) -> CheckReport:
    """Sampled check of the quadratic lower bound for 1 - ||z0||^2 on a metric ball.

    Verifies 1 - ||z0||^2 > (1 - r^2)/4 * (||z - z0||^2 + |<z - z0, z0>|)
    at uniform samples of the ball; PASS iff the minimum slack is positive.
    """
    z0 = as_point(z0)
    ball = kobayashi_ball(z0, r)
    pts = sample_ball_uniform(ball, n_samples, seed)
    diff = pts - z0
    quad = np.einsum("ij,ij->i", diff, np.conj(diff)).real
    pairing = np.abs(diff @ np.conj(z0))
    lhs = 1.0 - norm_sq(z0)
    rhs = (1.0 - r * r) / 4.0 * (quad + pairing)
    slack = float(np.min(lhs - rhs))
    return CheckReport(
        name="ball-inequality",
        statistic=slack,
        comparison=">",
        bound=0.0,
        n_samples=int(n_samples),
        std_error=0.0,
        details={"seed": int(seed), "r": float(r), "base_norm": float(np.linalg.norm(z0))},
    )


def points_to_rows(points) -> np.ndarray:
    """Serialise (m, n) complex points to (m, 2n) real rows: re1, im1, ..., re_n, im_n."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    m, n = pts.shape
    rows = np.empty((m, 2 * n), dtype=np.float64)
    rows[:, 0::2] = pts.real
    rows[:, 1::2] = pts.imag
    return rows


def rows_to_points(rows) -> np.ndarray:
    """Inverse of :func:`points_to_rows`."""
    arr = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if arr.shape[1] % 2 != 0:
        raise ValidationError("point rows must have an even number of columns (re/im pairs)")
    return arr[:, 0::2] + 1j * arr[:, 1::2]
