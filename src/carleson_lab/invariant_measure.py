"""Invariant volume density of the ball and measures of metric balls.

The density is taken from the closed Jacobian of the ball automorphisms,
(1 - ||z||^2)^-(n+1); the defining infimum over holomorphic maps is not
computable and is demoted to a sampled sanity check in the tests.
"""

from __future__ import annotations

import numpy as np

from . import geometry_ball as geom
from .integrate import EstimateWithError, MCConfig, integrate_density
from .reports import CheckReport

__all__ = [
    "ek_density",
    "ek_density_values",
    "ek_ball_measure",
    "check_ek_bounds",
]


def ek_density(z) -> float:
    """Invariant volume density (1 - ||z||^2)^-(n+1) at an interior point."""
    z = geom.interior_point(z)
    return (1.0 - geom.norm_sq(z)) ** (-(z.size + 1))


def ek_density_values(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    return geom.one_minus_norm_sq(pts) ** (-(pts.shape[1] + 1.0))


def ek_ball_measure(z0, r: float, cfg: MCConfig) -> EstimateWithError:
    """Invariant measure of the metric ball B(z0, r) by Monte Carlo.

    The automorphism phi_z0 maps the round ball {|u| < r} onto B(z0, r), so the
    measure is the integral of f(phi_z0(u)) J_z0(u) over |u| < r, with J_z0 the
    real Jacobian of phi_z0; it is integrated as r^(2n) g(r v) over the unit
    ball, radially stratified.  This is an exact change of variables for any
    integrand f; for the invariant density it makes the integrand
    (1 - |u|^2)^-(n+1) at every z0, whose variance does not grow with depth.
    """
    ball = geom.kobayashi_ball(z0, r)
    n = ball.dimension
    scale = r ** (2 * n)

    def pulled_back(v):
        u = r * v
        jac = geom.mobius_jacobian_many(ball.base, u)
        return scale * ek_density_values(geom.ball_automorphism_many(ball.base, u)) * jac

    return integrate_density(pulled_back, n, cfg)


# the grid of check_ek_bounds: base points (1 - depth) e_1, metric radii r
EK_DEPTHS = (1.0, 0.5, 0.1)
EK_RADII = (0.3, 0.6, 0.9)
EK_Z_BOUND = 4.0  # P(|Z| > 4) = 6.3e-5 for one normal test
EK_INVARIANCE_BOUND = 1e-9  # rounding reads 2-4e-16; a wrong pullback reads O(1)


def check_ek_bounds(n: int, cfg: MCConfig | None = None) -> CheckReport:
    """Invariant measures of metric balls B(z0, r) against the closed form
    (r^2 / (1 - r^2))^n, over EK_DEPTHS x EK_RADII.

    The measure is the same at every base point, which is the two-sided
    growth bound in exact form.  Two gates: per cell the z-score
    (value - exact) / std_error, whose largest magnitude is the statistic
    against EK_Z_BOUND; and per radius the relative spread of the depths'
    values, at most EK_INVARIANCE_BOUND.  The pulled-back integrand does not
    depend on the base point, so the depths share one draw and at most three
    distinct z-tests run: by the union bound the false-fail rate is at most
    3 x 6.3e-5 = 2e-4 per run.  A cell with std_error > 0.1 x value makes the
    verdict inconclusive.
    """
    cfg = cfg or MCConfig(seed=3, n_samples=40_000)
    cells = []
    total = 0
    inconclusive = False
    for depth in EK_DEPTHS:
        z0 = np.zeros(n, dtype=np.complex128)
        z0[0] = 1.0 - depth
        for r in EK_RADII:
            est = ek_ball_measure(z0, r, cfg)
            value = float(np.real(est.value))
            z = (value - (r * r / (1.0 - r * r)) ** n) / est.std_error
            total += est.n_effective
            if est.std_error > 0.1 * value:
                inconclusive = True
            cells.append({"depth": depth, "r": r, "value": value, "std_error": est.std_error, "z": z})
    worst_z = max(abs(c["z"]) for c in cells)
    spread = 0.0
    for r in EK_RADII:
        vals = [c["value"] for c in cells if c["r"] == r]
        spread = max(spread, (max(vals) - min(vals)) / max(vals))
    return CheckReport(
        name="invariant-ball-measure",
        statistic=float(worst_z),
        comparison="<=",
        bound=EK_Z_BOUND,
        n_samples=total,
        std_error=0.0,
        details={"dimension": n, "cells": cells},
        gates=[("invariance_spread", spread, "<=", EK_INVARIANCE_BOUND)],
        inconclusive=inconclusive,
    )
