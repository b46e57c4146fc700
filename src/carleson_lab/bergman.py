"""Bergman kernel of the unit ball, Berezin transform, and kernel-estimate checkers.

Under the normalisation vol(ball) = 1 the kernel takes the constant-free closed
form K(z, w) = (1 - <z, w>)^-(n+1).  The closed form is not taken on faith: the
test suite validates it against the reproducing property and the diagonal
identity by quadrature (see :func:`reproducing_check`, :func:`diagonal_check`).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from . import geometry_ball as geom
from .errors import ParameterError
from .integrate import (
    EstimateWithError,
    MCConfig,
    PullbackBallComponent,
    UniformBallComponent,
    _pole_tilt,
    integrate_density,
    integrate_mixture,
    integrate_over_balls,
)
from .reports import CheckReport

__all__ = [
    "kernel",
    "kernel_values",
    "normalized_kernel",
    "normalized_kernel_sq_values",
    "berezin_transform",
    "check_kernel_upper",
    "check_kernel_lower",
    "check_submean",
    "reproducing_check",
    "diagonal_check",
    "monomial_exponents",
    "monomial_norm_sq",
    "evaluate_polynomial",
    "polynomial_norm_sq",
    "random_polynomial",
]

def kernel(z, w) -> complex:
    """Bergman kernel K(z, w) = (1 - <z, w>)^-(n+1), Hermitian in (z, w).

    Both points lie inside the ball by BOUNDARY_MARGIN, so |1 - <z, w>| >=
    1 - |z||w| > 2e-12.  The inner product uses compensated summation so
    conjugate symmetry is exact bit for bit and cancellation near the diagonal
    boundary stays controlled.
    """
    z = geom.interior_point(z, name="first point")
    w = geom.interior_point(w, z.size, "second point")
    return (1.0 - geom.herm_inner(z, w)) ** (-(z.size + 1))


def kernel_values(z, points) -> np.ndarray:
    """Vectorised K(z, zeta) over rows zeta of ``points`` (first slot fixed)."""
    z = np.asarray(z, dtype=np.complex128).reshape(-1)
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    n = z.size
    ip = np.conj(pts @ np.conj(z))  # <z, zeta_i>
    return (1.0 - ip) ** (-(n + 1))


def normalized_kernel(z0, z) -> complex:
    """k_{z0}(z) = K(z, z0) / sqrt(K(z0, z0)); unit L^2 norm as a function of z."""
    return kernel(z, z0) / math.sqrt(kernel(z0, z0).real)


def normalized_kernel_sq_values(z0, points) -> np.ndarray:
    """|k_{z0}(zeta)|^2 = ((1 - ||z0||^2) / |1 - <zeta, z0>|^2)^(n+1), vectorised:
    the Moebius Jacobian of phi_{z0} at zeta."""
    return geom.mobius_jacobian_many(z0, points)


def _berezin_components(z: np.ndarray, pole_order: float):
    """Mixture proposal adapted to the |k_z|^2 concentration near z.

    A uniform component keeps the tail covered; a ladder of Moebius-pushforward
    balls (geometrically refined towards the boundary, i.e. an importance layer
    growing like the inverse boundary distance) captures the kernel mass; a
    Beta-radial component is added when the measure density has a declared
    boundary pole.  Every rung shares the base point z, so
    :func:`~carleson_lab.integrate.integrate_mixture` evaluates the whole
    ladder's density with one distance and one Jacobian per sample.
    """
    n = z.size
    d = max(1.0 - float(np.linalg.norm(z)), 1e-12)
    depth = int(np.clip(math.ceil(math.log(1.0 / d**2, 4.0)) + 2, 6, 22))
    comps: list = [UniformBallComponent(n)]
    weights = [0.25]
    if pole_order > 0.0:
        comps.append(_pole_tilt(n, pole_order))
        weights.append(0.15)
    ladder = [math.sqrt(1.0 - 4.0 ** (-j)) for j in range(1, depth + 1)]
    share = (1.0 - sum(weights)) / len(ladder)
    for t in ladder:
        comps.append(PullbackBallComponent(z, t))
        weights.append(share)
    return comps, weights


def berezin_transform(mu, z, cfg: MCConfig) -> EstimateWithError:
    """Berezin transform B mu(z) = integral of |k_z|^2 d(mu).

    Atoms are summed exactly; an absolutely continuous part is integrated by
    importance-sampled Monte Carlo with a reported standard error.
    """
    z = geom.interior_point(z, mu.dimension, "probe point")
    atom_part = 0.0
    n_atoms = 0
    if mu.n_atoms:
        vals = normalized_kernel_sq_values(z, mu.atom_points) * mu.atom_weights
        atom_part = math.fsum(vals)
        n_atoms = mu.n_atoms
    if mu.density is None:
        return EstimateWithError(value=atom_part, std_error=0.0, n_effective=n_atoms)
    comps, weights = _berezin_components(z, mu.pole_order)

    def integrand(block):
        # |k_z|^2 = q_z^(n+1) and delta, shared with the ladder's fused density
        return block.mobius(z)[1] * mu.density.of_delta(block.delta)

    est = integrate_mixture(integrand, comps, weights, cfg)
    return EstimateWithError(
        value=atom_part + est.value, std_error=est.std_error, n_effective=est.n_effective,
        n_excluded=est.n_excluded,
    )


def check_kernel_upper(n: int, n_points: int = 2000) -> CheckReport:
    """Diagonal upper estimate: K(z, z) d(z)^(n+1) <= 1 on a dense radial grid
    down to depth 1e-6.

    In the ball the product has the closed form (1 + ||z||)^-(n+1); the maximal
    value 1 is attained at the origin.  A second gate holds the product within
    1e-12 of that form (rounding reads about 3e-15).
    """
    t = np.linspace(0.0, 1.0 - 1e-6, n_points)
    # K(z, z) d^(n+1) = (d / (1 - t^2))^(n+1), with the factored 1 - t^2 =
    # (1-t)(1+t), which keeps full accuracy down to the boundary.  The ratio is
    # taken before the power: K(z, z) alone overflows at depth 1e-6 from n = 54
    d = 1.0 - t
    product = (d / (d * (1.0 + t))) ** (n + 1)
    closed = (1.0 + t) ** (-(n + 1))
    stat = float(np.max(product))
    return CheckReport(
        name="kernel-upper",
        statistic=stat,
        comparison="<=",
        bound=1.0 + 1e-12,
        n_samples=int(n_points),
        std_error=0.0,
        details={"dimension": n, "argmax_radius": float(t[int(np.argmax(product))])},
        gates=[("identity_deviation", np.max(np.abs(product - closed)), "<", 1e-12)],
    )


def kernel_lower_bound(r: float, n: int) -> float:
    """Derived floor for |k_{z0}|^2 d(z0)^(n+1) on metric balls of radius r."""
    return ((1.0 - r) ** 2 * (1.0 + r) / 16.0) ** (n + 1)


# the cells of check_kernel_lower: base points (1 - depth) u, metric radii r
KERNEL_LOWER_DEPTHS = (1e-3, 1e-2, 0.1, 0.3, 0.5)
KERNEL_LOWER_RADII = (0.3, 0.5, 0.7)


def check_kernel_lower(n: int, samples_per_cell: int = 10_000, seed: int = 0) -> CheckReport:
    """Normalised-kernel lower estimate on metric balls, sampled per (z0, r) cell
    of KERNEL_LOWER_DEPTHS x KERNEL_LOWER_RADII.

    Checks |k_{z0}(z)|^2 * d(z0)^(n+1) >= ((1-r)^2 (1+r) / 16)^(n+1) at every
    sample; the statistic is the worst ratio to the bound, gated at >= 1, and a
    second gate holds the count of violations at 0.
    """
    directions = [np.eye(n, dtype=complex)[0]]
    if n > 1:
        directions.append(np.ones(n, dtype=complex) / math.sqrt(n))
    worst = math.inf
    cells = []
    violations = 0
    total = 0
    cell_idx = 0
    for u in directions:
        for d in KERNEL_LOWER_DEPTHS:
            z0 = (1.0 - d) * u
            for r in KERNEL_LOWER_RADII:
                ball = geom.kobayashi_ball(z0, r)
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(cell_idx,)))
                pts = geom.sample_ball_uniform(ball, samples_per_cell, rng)
                prod = normalized_kernel_sq_values(z0, pts) * d ** (n + 1)
                bound = kernel_lower_bound(r, n)
                ratio = float(np.min(prod) / bound)
                violations += int(np.count_nonzero(prod < bound))
                total += samples_per_cell
                worst = min(worst, ratio)
                cells.append({"depth": d, "r": r, "min_ratio": ratio})
                cell_idx += 1
    return CheckReport(
        name="normalized-kernel-lower",
        statistic=worst,
        comparison=">=",
        bound=1.0,
        n_samples=total,
        std_error=0.0,
        details={"dimension": n, "cells": cells, "seed": seed},
        gates=[("violations", violations, "==", 0)],
    )


def check_submean(
    degree: int,
    z0,
    r: float,
    cfg: MCConfig,
    seed: int = 0,
) -> CheckReport:
    """Submean inequality for |f|^2 (f a random polynomial) on a metric ball.

    Asserts chi(z0) <= 4^(n+1) / (r^(2n) d(z0)^(n+1)) * integral of chi over the
    ball, with chi = |f|^2 plurisubharmonic.  If the Monte Carlo error exceeds
    10% of the slack the verdict is inconclusive rather than failed.  The
    details carry the fitted mean-comparison constant chi(z0) vol(B) / integral.
    """
    z0 = geom.as_point(z0)
    n = z0.size
    d = 1.0 - float(np.linalg.norm(z0))
    rng = np.random.default_rng(seed)
    alphas, coeffs = random_polynomial(n, degree, rng)
    chi0 = float(np.abs(evaluate_polynomial(alphas, coeffs, z0[None, :])[0]) ** 2)
    ball = geom.kobayashi_ball(z0, r)

    def chi(pts):
        return np.abs(evaluate_polynomial(alphas, coeffs, pts)) ** 2

    est = integrate_over_balls(chi, [ball], cfg)[0]
    const = 4.0 ** (n + 1) / (r ** (2 * n) * d ** (n + 1))
    rhs = const * est.value
    rhs_err = const * est.std_error
    slack = rhs - chi0
    fitted = chi0 * ball.volume / est.value if est.value > 0 else math.inf
    return CheckReport(
        name="submean-ball",
        statistic=float(slack),
        comparison=">",
        bound=0.0,
        n_samples=est.n_effective,
        std_error=float(rhs_err),
        details={
            "degree": degree,
            "r": float(r),
            "chi_at_base": chi0,
            "fitted_mean_constant": float(fitted),
            "seed": seed,
        },
        inconclusive=rhs_err > 0.1 * max(abs(slack), 1e-300),
    )


def reproducing_check(z, alpha, cfg: MCConfig) -> tuple[EstimateWithError, complex]:
    """Monte Carlo of integral K(z, zeta) zeta^alpha d(vol) against the exact z^alpha."""
    z = geom.interior_point(z)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != z.size:
        raise ParameterError("multi-index length must match the dimension")

    def integrand(pts):
        return kernel_values(z, pts) * evaluate_polynomial([alpha], [1.0], pts)

    est = integrate_density(integrand, z.size, cfg)
    expected = complex(np.prod([z[k] ** a for k, a in enumerate(alpha)]))
    return est, expected


def diagonal_check(z, cfg: MCConfig) -> tuple[EstimateWithError, float]:
    """Monte Carlo of integral |K(z, zeta)|^2 d(vol) against the exact K(z, z)."""
    z = geom.interior_point(z)

    def integrand(pts):
        return np.abs(kernel_values(z, pts)) ** 2

    est = integrate_density(integrand, z.size, cfg)
    return est, kernel(z, z).real


# ---------------------------------------------------------------------------
# small polynomial toolkit (orthogonal monomial basis under normalised volume)
# ---------------------------------------------------------------------------

def monomial_exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with |alpha| <= degree, by total degree then lex."""
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        if total == 0:
            out.append((0,) * n)
            continue
        for combo in combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return sorted(set(out), key=lambda a: (sum(a), a))


def monomial_norm_sq(alpha, n: int) -> float:
    """Exact squared L^2 norm of zeta^alpha: n! alpha! / (n + |alpha|)!."""
    alpha = tuple(int(a) for a in alpha)
    num = math.factorial(n)
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(n + sum(alpha))


def evaluate_polynomial(alphas, coeffs, points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    out = np.zeros(len(pts), dtype=np.complex128)
    for alpha, c in zip(alphas, coeffs):
        mono = np.ones(len(pts), dtype=np.complex128)
        for k, a in enumerate(alpha):
            if a:
                mono = mono * pts[:, k] ** a
        out += c * mono
    return out


def polynomial_norm_sq(alphas, coeffs, n: int) -> float:
    """Exact ||f||_2^2 via monomial orthogonality."""
    return math.fsum(abs(c) ** 2 * monomial_norm_sq(a, n) for a, c in zip(alphas, coeffs))


def random_polynomial(n: int, degree: int, rng: np.random.Generator):
    """Random polynomial with standard complex Gaussian coefficients."""
    alphas = monomial_exponents(n, degree)
    coeffs = rng.standard_normal(len(alphas)) + 1j * rng.standard_normal(len(alphas))
    return alphas, coeffs
