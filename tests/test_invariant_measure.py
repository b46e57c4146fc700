import math

import numpy as np
import pytest
from scipy.integrate import quad

from carleson_lab import geometry_ball as g
from carleson_lab import invariant_measure as ik
from carleson_lab.errors import OutsideDomainError
from carleson_lab.integrate import MCConfig


CFG = MCConfig(seed=21, n_samples=80_000)


def numeric_real_jacobian(fn, z, h: float = 1e-6) -> float:
    """|det| of the real 2n x 2n Jacobian of a map C^n -> C^n by central differences."""
    z = g.as_point(z)
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


def test_density_at_origin_is_one():
    assert ik.ek_density(np.zeros(3)) == 1.0


def test_density_closed_value():
    assert ik.ek_density([0.6]) == pytest.approx((1 - 0.36) ** -2, rel=1e-14)
    assert ik.ek_density([0.6]) == pytest.approx(2.441406, abs=1e-6)


def test_density_boundary_guard():
    with pytest.raises(OutsideDomainError):
        ik.ek_density([1.0 - 1e-15])


def test_density_sandwich_against_boundary_distance():
    # 2^-(n+1) / d^(n+1) <= density <= 1 / d^(n+1)
    rng = np.random.default_rng(0)
    for n in (1, 2):
        pts = g.uniform_round_ball(rng, n, 200) * 0.999
        d = 1.0 - np.linalg.norm(pts, axis=1)
        dens = ik.ek_density_values(pts)
        assert np.all(dens <= d ** -(n + 1.0) + 1e-9)
        assert np.all(dens >= 2.0 ** -(n + 1) * d ** -(n + 1.0) - 1e-9)


def test_density_is_reciprocal_automorphism_jacobian():
    # numeric real Jacobian of the automorphism centred at z, evaluated at 0
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = g.uniform_round_ball(rng, 2, 1)[0] * 0.8
        jac = numeric_real_jacobian(lambda w, _z=z: g.ball_automorphism_many(_z, w[None, :])[0], np.zeros(2))
        assert 1.0 / jac == pytest.approx(ik.ek_density(z), rel=1e-5)


def test_density_is_infimum_over_competitor_maps():
    # competitors f = phi_z after a linear contraction have larger reciprocal Jacobians
    rng = np.random.default_rng(2)
    z = np.array([0.5, 0.1j])
    for _ in range(8):
        lam = float(rng.uniform(0.2, 1.0))
        theta = float(rng.uniform(0, 2 * math.pi))
        scale = lam * np.exp(1j * theta)

        def competitor(w, _z=z, _s=scale):
            return g.ball_automorphism_many(_z, (_s * w)[None, :])[0]

        jac = numeric_real_jacobian(competitor, np.zeros(2))
        assert 1.0 / jac >= ik.ek_density(z) * (1 - 1e-6)


def test_ball_measure_exact_value_disk():
    est = ik.ek_ball_measure([0.0], 0.5, CFG)
    assert abs(est.value - 1.0 / 3.0) <= 3 * est.std_error
    # quadrature oracle for the radial integral
    oracle = quad(lambda t: 2 * t * (1 - t * t) ** -2, 0, 0.5)[0]
    assert oracle == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_ball_measure_closed_form_vs_quadrature():
    # kappa(B(0, r)) = (r^2 / (1 - r^2))^n, cross-checked by quadrature
    for n, r in ((1, 0.7), (2, 0.5)):
        oracle = quad(lambda t: 2 * n * t ** (2 * n - 1) * (1 - t * t) ** -(n + 1), 0, r)[0]
        assert oracle == pytest.approx((r * r / (1 - r * r)) ** n, rel=1e-9)
        est = ik.ek_ball_measure(np.zeros(n), r, CFG)
        assert abs(est.value - oracle) <= 3 * est.std_error


def test_ball_measure_moebius_invariance():
    base = ik.ek_ball_measure(np.zeros(1), 0.5, CFG)
    for c in ([0.3], [0.5j], [0.7]):
        est = ik.ek_ball_measure(c, 0.5, CFG)
        assert abs(est.value - base.value) <= 3 * math.hypot(est.std_error, base.std_error)


@pytest.mark.parametrize("n", [1, 2])
def test_ball_measure_exact_near_boundary(n):
    # the invariant measure of B(z, r) is (r^2 / (1 - r^2))^n at every centre
    r = 0.5
    z0 = np.zeros(n)
    z0[0] = 0.999
    exact = (r * r / (1 - r * r)) ** n
    est = ik.ek_ball_measure(z0, r, CFG)
    assert est.std_error < 1e-3 * exact
    assert abs(est.value - exact) <= 4 * est.std_error


def _exponent_n_density(points):
    # a density of exponent n instead of n + 1: not invariant
    pts = np.atleast_2d(points)
    return (1.0 - np.einsum("ij,ij->i", pts, np.conj(pts)).real) ** (-float(pts.shape[1]))


def test_non_invariant_density_is_not_flattened(monkeypatch):
    # the Moebius pullback must keep the mutant's dependence on the centre visible
    monkeypatch.setattr(ik, "ek_density_values", _exponent_n_density)
    centre = ik.ek_ball_measure([0.0], 0.5, CFG)
    deep = ik.ek_ball_measure([0.9], 0.5, CFG)
    assert abs(centre.value - deep.value) > 10 * math.hypot(centre.std_error, deep.std_error)


def test_ball_measure_small_radius_limit():
    # r -> 0: measure ~ density(z0) * volume(ellipsoid)
    z0 = np.array([0.4])
    r = 0.02
    est = ik.ek_ball_measure(z0, r, MCConfig(seed=5, n_samples=20_000))
    approx = ik.ek_density(z0) * g.ball_volume(z0, r)
    assert est.value == pytest.approx(approx, rel=0.01)


def test_bounds_report():
    rep = ik.check_ek_bounds(1, cfg=MCConfig(seed=7, n_samples=30_000))
    assert rep.passed is True
    assert rep.statistic <= rep.bound == ik.EK_Z_BOUND
    assert len(rep.details["cells"]) == 9
    # the depths share one draw: equal values up to rounding
    (what, spread, comparison, bound), = rep.gates
    assert (what, comparison, bound) == ("invariance_spread", "<=", ik.EK_INVARIANCE_BOUND)
    assert spread <= ik.EK_INVARIANCE_BOUND


@pytest.mark.parametrize("n", [1, 2])
def test_bounds_report_fails_a_non_invariant_density(monkeypatch, n):
    monkeypatch.setattr(ik, "ek_density_values", _exponent_n_density)
    rep = ik.check_ek_bounds(n)
    assert rep.passed is False
    assert rep.statistic > rep.bound
    (what, spread, _, _), = rep.gates
    assert what == "invariance_spread" and spread > 0.1
