import json
import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn, hyp2f1

from carleson_lab import bergman as bg
from carleson_lab import cli
from carleson_lab import geometry_ball as g
from carleson_lab import measures as ms
from carleson_lab.errors import OutsideDomainError
from carleson_lab.integrate import MCConfig


CFG = MCConfig(seed=101, n_samples=60_000)


def test_kernel_at_origin_is_one():
    z = np.array([0.3 + 0.4j, -0.2])
    assert bg.kernel(z, np.zeros(2)) == 1.0 + 0.0j


def test_kernel_diagonal_value():
    assert bg.kernel([0.6], [0.6]).real == pytest.approx((1 - 0.36) ** -2, rel=1e-14)
    assert bg.kernel([0.6], [0.6]).real == pytest.approx(2.441406, abs=1e-6)


def test_kernel_hermitian_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z = g.uniform_round_ball(rng, 2, 1)[0] * 0.99
        w = g.uniform_round_ball(rng, 2, 1)[0] * 0.99
        assert bg.kernel(z, w) == np.conj(bg.kernel(w, z))


def test_kernel_boundary_contact_guard():
    # both points lie within BOUNDARY_MARGIN of the sphere: outside the domain
    with pytest.raises(OutsideDomainError):
        bg.kernel([1.0 - 1e-14], [1.0 - 1e-14])


def test_kernel_values_matches_scalar():
    rng = np.random.default_rng(1)
    z = np.array([0.2, 0.3j])
    pts = g.uniform_round_ball(rng, 2, 64) * 0.9
    vals = bg.kernel_values(z, pts)
    for i in range(8):
        assert vals[i] == pytest.approx(bg.kernel(z, pts[i]), rel=1e-12)


def test_normalized_kernel_basics():
    # k_0 is identically 1
    assert bg.normalized_kernel(np.zeros(2), [0.4, 0.1j]) == 1.0 + 0.0j
    # |k_{z0}(z0)|^2 = K(z0, z0)
    v = bg.normalized_kernel([0.6], [0.6])
    assert abs(v) ** 2 == pytest.approx(2.441406, abs=1e-6)


def test_normalized_kernel_unit_mass():
    # MC of integral |k_{z0}|^2 d(vol) = 1
    z0 = np.array([0.5, 0.2j])
    est_fn = lambda pts: bg.normalized_kernel_sq_values(z0, pts)
    from carleson_lab.integrate import integrate_density

    est = integrate_density(est_fn, 2, CFG)
    assert abs(est.value - 1.0) < 3 * est.std_error


# -- reproducing property and diagonal identity ------------------------------

@pytest.mark.parametrize(
    "z,alpha",
    [
        ([0.0], (0,)),
        ([0.0], (1,)),
        ([0.3], (2,)),
        ([0.0, 0.0], (1, 1)),
        ([0.3, 0.0], (0, 2)),
        ([0.0, 0.5], (1, 0)),
    ],
)
def test_reproducing_property(z, alpha):
    est, expected = bg.reproducing_check(z, alpha, CFG)
    assert abs(est.value - expected) <= 3 * est.std_error + 1e-12


def test_reproducing_monomial_is_the_polynomial_toolkit_monomial():
    # the reproducing check evaluates zeta^alpha as a one-term polynomial,
    # bit for bit the product of coordinate powers it used to build
    pts = g.uniform_round_ball(np.random.default_rng(2), 3, 500)
    for alpha in ((0, 0, 0), (1, 0, 0), (0, 2, 1), (3, 1, 2)):
        mono = np.ones(len(pts), dtype=np.complex128)
        for k, a in enumerate(alpha):
            if a:
                mono = mono * pts[:, k] ** a
        assert np.array_equal(bg.evaluate_polynomial([alpha], [1.0], pts), mono)


def test_diagonal_identity():
    for z in ([0.0], [0.3], [0.5, 0.2j]):
        est, expected = bg.diagonal_check(z, MCConfig(seed=7, n_samples=120_000))
        assert abs(est.value - expected) <= 3 * est.std_error + 1e-12


# -- Berezin transform -------------------------------------------------------

def test_berezin_of_volume_is_one():
    nu = ms.Measure.lebesgue(2)
    for d in (0.5, 0.1):
        est = bg.berezin_transform(nu, [1 - d, 0.0], CFG)
        assert abs(est.value - 1.0) <= 3 * est.std_error


def test_berezin_of_dirac_closed_form():
    mu = ms.Measure.dirac([0.0])
    est = bg.berezin_transform(mu, [0.6], CFG)
    assert est.std_error == 0.0
    assert est.value == pytest.approx(0.4096, abs=1e-12)
    # maximised at the origin
    assert bg.berezin_transform(mu, [0.0], CFG).value == pytest.approx(1.0)


def test_berezin_radial_density_at_origin():
    # density (1 - |zeta|^2), n=1: B mu(0) = int_0^1 (1 - t^2) 2t dt = 1/2
    mu = ms.Measure.with_power_density(1, 1.0)
    est = bg.berezin_transform(mu, [0.0], CFG)
    assert abs(est.value - 0.5) <= 3 * est.std_error


@pytest.mark.parametrize("n, s, z_norm", [(2, 0.5, 0.9), (1, 1.0, 0.5), (2, 1.0, 0.999)])
def test_berezin_power_density_matches_closed_form(n, s, z_norm):
    # Forelli-Rudin: B[(1 - |w|^2)^s](z) = n B(n, s+1) (1 - |z|^2)^s 2F1(s, s; n+1+s; |z|^2)
    x = z_norm * z_norm
    exact = n * beta_fn(n, s + 1.0) * (1.0 - x) ** s * hyp2f1(s, s, n + 1.0 + s, x)
    z = np.zeros(n, dtype=complex)
    z[0] = z_norm
    est = bg.berezin_transform(ms.Measure.with_power_density(n, s), z, CFG)
    assert est.std_error < 0.01 * exact
    assert abs(est.value - exact) <= 4 * est.std_error


def test_berezin_additivity_on_atoms():
    mu1 = ms.Measure.dirac([0.2], 0.7)
    mu2 = ms.Measure.dirac([0.1j], 1.1)
    z = [0.3]
    a = bg.berezin_transform(mu1, z, CFG).value
    b = bg.berezin_transform(mu2, z, CFG).value
    both = bg.berezin_transform(ms.Measure.from_atoms([[0.2], [0.1j]], [0.7, 1.1]), z, CFG).value
    assert both == pytest.approx(a + b, rel=1e-14)


# -- kernel estimate checkers -------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_upper_closed_form(n):
    rep = bg.check_kernel_upper(n, n_points=4000)
    assert rep.passed
    assert rep.statistic == pytest.approx(1.0, abs=1e-12)
    (what, deviation, comparison, bound), = rep.gates
    assert (what, comparison, bound) == ("identity_deviation", "<", 1e-12) and deviation < 1e-12
    assert rep.details["argmax_radius"] == 0.0


@pytest.mark.parametrize("n", [54, 100, 200])
def test_kernel_upper_in_high_dimension(n, tmp_path):
    # the diagonal kernel alone overflows at depth 1e-6 from n = 54; the
    # product does not, and still meets its closed form
    rep = bg.check_kernel_upper(n)
    assert rep.passed and rep.statistic == 1.0
    assert rep.gates[0][1] < 1e-12
    params = json.dumps({"op": "check_kernel_upper", "n": n})
    assert cli.main(["berezin", "--params", params, "--out", str(tmp_path / "o")]) == 0


def test_kernel_upper_spot_value():
    # z = 0.9, n = 1: product = (0.1 / 0.19)^2
    n = 1
    prod = (1 - 0.81) ** -2 * 0.1**2
    assert prod == pytest.approx((0.1 / 0.19) ** 2, rel=1e-12)
    assert prod < 1.0


def test_kernel_lower_bound_value():
    assert bg.kernel_lower_bound(0.5, 1) == pytest.approx((0.25 * 1.5 / 16) ** 2, rel=1e-12)
    assert bg.kernel_lower_bound(0.5, 1) == pytest.approx(0.000549, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_lower_no_violations(n):
    rep = bg.check_kernel_lower(n, samples_per_cell=2_000, seed=5)
    assert rep.passed
    assert rep.gates == [("violations", 0.0, "==", 0.0)]
    assert rep.statistic >= 1.0


def test_kernel_lower_origin_case():
    # z0 = 0: |k_0|^2 * 1 = 1 >= bound for every r
    for r in (0.3, 0.5, 0.7):
        assert 1.0 >= bg.kernel_lower_bound(r, 1)


# -- submean -----------------------------------------------------------------

def test_submean_constant_function():
    # chi == 1: inequality reduces to vol(B) >= r^(2n) d^(n+1) / 4^(n+1)
    z0 = np.array([0.3])
    r = 0.5
    n = 1
    d = 0.7
    assert g.ball_volume(z0, r) >= r ** (2 * n) * d ** (n + 1) / 4 ** (n + 1)


def test_submean_vanishing_at_base():
    # f(z) = z1 at z0 = 0: chi(z0) = 0, trivially below the mean
    alphas = [(1,)]
    coeffs = np.array([1.0 + 0j])
    chi0 = abs(bg.evaluate_polynomial(alphas, coeffs, np.zeros((1, 1)))[0]) ** 2
    assert chi0 == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_submean_random_polynomials(seed):
    rep = bg.check_submean(2, [0.3], 0.5, MCConfig(seed=seed, n_samples=20_000), seed=seed)
    assert rep.passed is not False  # pass or inconclusive, never a violation
    assert rep.details["fitted_mean_constant"] >= 0.0


def test_submean_mc_oracle_large_sample():
    # f(z) = 1 + z1 at z0 = 0.3, r = 0.5: high-sample MC confirms the bound
    rep = bg.check_submean(1, [0.3], 0.5, MCConfig(seed=3, n_samples=100_000), seed=11)
    assert rep.passed


# -- polynomial toolkit -------------------------------------------------------

def test_monomial_exponents_counts():
    assert len(bg.monomial_exponents(1, 2)) == 3
    assert len(bg.monomial_exponents(2, 2)) == 6


def test_monomial_norms_dim_one():
    # int |z|^(2a) = a! / (1 + a)! = 1 / (a + 1)
    assert bg.monomial_norm_sq((0,), 1) == pytest.approx(1.0)
    assert bg.monomial_norm_sq((1,), 1) == pytest.approx(0.5)
    assert bg.monomial_norm_sq((2,), 1) == pytest.approx(1.0 / 3.0)


def test_monomial_norm_against_monte_carlo():
    # n = 2, alpha = (1, 1): 2! 1! 1! / 4! = 1/12, cross-checked by direct MC
    assert bg.monomial_norm_sq((1, 1), 2) == pytest.approx(1.0 / 12.0)
    rng = np.random.default_rng(2)
    pts = g.uniform_round_ball(rng, 2, 200_000)
    vals = np.abs(pts[:, 0] * pts[:, 1]) ** 2
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - 1.0 / 12.0) < 3 * se


def test_polynomial_norm_matches_mc():
    rng = np.random.default_rng(9)
    alphas, coeffs = bg.random_polynomial(2, 2, rng)
    exact = bg.polynomial_norm_sq(alphas, coeffs, 2)
    pts = g.uniform_round_ball(rng, 2, 150_000)
    vals = np.abs(bg.evaluate_polynomial(alphas, coeffs, pts)) ** 2
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 3 * se
