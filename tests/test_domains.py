import math

import numpy as np
import pytest

from carleson_lab import cli
from carleson_lab import domains as dm
from carleson_lab import geometry_ball as g
from carleson_lab.errors import OutsideDomainError, ParameterError


BALL1 = dm.BallDomain(1)
BALL2 = dm.BallDomain(2)


# -- boundary distance --------------------------------------------------------

def test_ball_boundary_distance_exact():
    assert dm.boundary_distance(BALL2, np.zeros(2)) == 1.0
    assert dm.boundary_distance(BALL1, [0.6]) == pytest.approx(0.4, rel=1e-15)


def test_points_must_have_the_domain_dimension():
    for dom in (BALL1, dm.EllipsoidDomain([1.5, 1.0, 1.2, 0.9]), dm.PerturbedBallDomain(2, epsilon=0.1)):
        wrong = np.zeros(dom.dimension + 1)
        with pytest.raises(ParameterError):
            dm.boundary_distance(dom, wrong)
        with pytest.raises(ParameterError):
            dm.kobayashi_bounds(dom, wrong, wrong)


def test_boundary_distance_rejects_exterior():
    with pytest.raises(OutsideDomainError):
        dm.boundary_distance(BALL1, [1.1])


def test_ellipsoid_distance_center_hits_minor_axis():
    # real slice {1 - x^2/4 - y^2 > 0}: nearest boundary from 0 is the minor axis
    ell = dm.EllipsoidDomain([2.0, 1.0])
    assert dm.boundary_distance(ell, [0.0]) == pytest.approx(1.0, abs=1e-9)


def test_ellipsoid_distance_off_axis_analytic():
    # point (0.5, 0) in the ellipse x^2/4 + y^2 = 1: min distance at cos(theta) = 1/3
    ell = dm.EllipsoidDomain([2.0, 1.0])
    d = dm.boundary_distance(ell, [0.5])
    exact = math.sqrt((2 / 3 - 0.5) ** 2 + 1 - 1 / 9)
    assert d == pytest.approx(exact, abs=1e-8)


# A multistart oracle, kept here as the reference for the batched projection:
# SLSQP minimisation of |x - z|^2 subject to psi(x) = 0, started from ray hits.

def _ray_hit(domain, z_rows, u) -> float:
    """Distance from z along the direction u to its first sign change of psi
    (a march of 64 steps, then brentq), or inf."""
    from scipy.optimize import brentq
    u = u / np.linalg.norm(u)

    def psi_at(s):
        return domain.psi(g.rows_to_points([z_rows + s * u])[0])

    lo = 0.0
    for s in np.linspace(1e-6, 2.5 * domain.bounding_radius, 64):
        if psi_at(s) <= 0.0:
            return brentq(psi_at, lo, s, xtol=1e-16, rtol=8.9e-16)
        lo = s
    return math.inf


def _multistart_distance(domain, z) -> tuple[float, float]:
    """The least |x - z| over the ray hits and the SLSQP minimisers started
    from them (rays along +-each axis and six fixed random directions), and
    the least ray hit alone."""
    from scipy.optimize import minimize
    m = 2 * domain.dimension
    z_rows = g.points_to_rows(np.asarray(z)[None, :])[0]
    rng = np.random.default_rng(1234)
    rays = [sgn * np.eye(m)[i] for i in range(m) for sgn in (1.0, -1.0)] + [rng.standard_normal(m) for _ in range(6)]
    hits = [_ray_hit(domain, z_rows, u) for u in rays]
    best = min(hits)
    for u, s in zip(rays, hits):
        # in units of the ray hit about z, so that the search has unit scale at every depth
        res = minimize(lambda y: (float(y @ y), 2.0 * y), u / np.linalg.norm(u), jac=True, method="SLSQP",
                       constraints=[{"type": "eq", "fun": lambda y: domain.psi(g.rows_to_points([z_rows + s * y])[0])}],
                       options={"maxiter": 200, "ftol": 1e-16})
        x = z_rows + s * res.x
        if res.success and abs(domain.psi(g.rows_to_points([x])[0])) < 1e-15:
            best = min(best, float(np.linalg.norm(x - z_rows)))
    return best, min(hits)


def _assert_matches_oracle(domain, points):
    dist = domain.boundary_distances(points)
    for z, d in zip(points, dist):
        assert d == dm.boundary_distance(domain, z)
        oracle, ray = _multistart_distance(domain, z)
        assert d == pytest.approx(oracle, rel=1e-12, abs=0.0), z
        assert domain.psi(z) / domain.lipschitz_bound() <= d <= ray * (1.0 + 1e-12), z


def test_ellipsoid_distance_against_multistart_oracle():
    ell = dm.EllipsoidDomain([1.5, 1.0, 2.0, 0.8])
    rng = np.random.default_rng(3)
    points = [z for z in (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) * 0.15 if ell.psi(z) > 0]
    _assert_matches_oracle(ell, np.array(points))


@pytest.mark.parametrize("n", [1, 2])
def test_perturbed_ball_distance_against_multistart_oracle(n):
    pb = dm.PerturbedBallDomain(n, epsilon=0.1)
    rng = np.random.default_rng(n)
    b = pb.bump_center
    points = [*g.uniform_round_ball(rng, n, 4) * 0.95, *(b + 0.1 * g.uniform_round_ball(rng, n, 3))]
    # depth < 1e-3, towards the bump and away from it
    for u in (b + 0.3 * g.uniform_round_ball(rng, n, 2), -b + 0.3 * g.uniform_round_ball(rng, n, 1)):
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        for ui in u:
            edge = _ray_hit(pb, np.zeros(2 * n), g.points_to_rows(ui[None, :])[0])
            points += [(edge - depth) * ui for depth in (5e-4, 2e-4)]
    points = np.array(points)
    assert np.all(pb.psi_values(points) > 0.0)
    _assert_matches_oracle(pb, points)


def test_projection_handles_the_centre_of_curvature():
    # from the centre of the unperturbed ball every boundary point is nearest:
    # the Newton systems are singular there, and the ray hits give the distance
    ball = dm.PerturbedBallDomain(2, epsilon=0.0)
    assert dm.boundary_distance(ball, np.zeros(2)) == pytest.approx(1.0, rel=1e-15)


def _fd_holomorphic_gradient(domain, z) -> np.ndarray:
    """Central-difference Wirtinger gradient (d/dx - i d/dy)/2 of psi, the
    reference for the closed forms."""
    z = g.as_point(z)
    h = 1e-6 * (1.0 + float(np.linalg.norm(z)))
    grad = np.zeros(z.size, dtype=np.complex128)
    for k in range(z.size):
        e = np.zeros(z.size, dtype=np.complex128)
        e[k] = h
        dx = (domain.psi(z + e) - domain.psi(z - e)) / (2.0 * h)
        dy = (domain.psi(z + 1j * e) - domain.psi(z - 1j * e)) / (2.0 * h)
        grad[k] = 0.5 * (dx - 1j * dy)
    return grad


def test_perturbed_ball_gradient_matches_differences():
    pb = dm.PerturbedBallDomain(2, epsilon=0.05, bump_width=0.6)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = g.uniform_round_ball(rng, 2, 1)[0] * 0.7
        ana = pb.holomorphic_gradient(z)
        num = _fd_holomorphic_gradient(pb, z)
        assert np.max(np.abs(ana - num)) < 1e-6


def test_ellipsoid_gradient_matches_differences():
    ell = dm.EllipsoidDomain([1.5, 1.0])
    z = np.array([0.3 + 0.2j])
    assert np.max(np.abs(ell.holomorphic_gradient(z) - _fd_holomorphic_gradient(ell, z))) < 1e-7


@pytest.mark.parametrize("dom", [dm.EllipsoidDomain([1.5, 1.0, 2.0, 0.8]),
                                 dm.PerturbedBallDomain(2, epsilon=0.3, bump_center=[0.5, 0.2j], bump_width=0.4),
                                 BALL2])
def test_psi_row_derivatives_match_differences(dom):
    # the boundary projection's Newton steps read these closed forms
    x = np.random.default_rng(4).uniform(-0.5, 0.5, (3, 4))
    h = 1e-6
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        grad_k = (dom.psi_rows(x + e) - dom.psi_rows(x - e)) / (2 * h)
        hess_k = (dom.psi_gradient_rows(x + e) - dom.psi_gradient_rows(x - e)) / (2 * h)
        assert np.max(np.abs(dom.psi_gradient_rows(x)[:, k] - grad_k)) < 1e-8
        assert np.max(np.abs(dom.psi_hessian_rows(x)[:, k, :] - hess_k)) < 1e-7


def test_certified_radius_is_lower_bound():
    for dom in (BALL2, dm.EllipsoidDomain([1.5, 1.0, 2.0, 0.8]), dm.PerturbedBallDomain(1)):
        rng = np.random.default_rng(7)
        for _ in range(8):
            z = (rng.standard_normal(dom.dimension) + 1j * rng.standard_normal(dom.dimension)) * 0.2
            if dom.psi(z) <= 0:
                continue
            assert dom.certified_inner_radius(z) <= dm.boundary_distance(dom, z) + 1e-12


# -- kobayashi bounds ---------------------------------------------------------

def test_ball_bounds_collapse_to_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z, w = g.uniform_round_ball(rng, 2, 2) * 0.95
        b = dm.kobayashi_bounds(BALL2, z, w)
        exact = g.pseudo_distance(z, w).kobayashi
        assert b.lower == pytest.approx(exact, abs=1e-10)
        assert b.upper == pytest.approx(exact, abs=1e-10)


def test_bounds_ordering_and_monotonicity():
    ell = dm.EllipsoidDomain([2.0, 1.0])
    z, w = np.array([0.2 + 0.1j]), np.array([-0.4 + 0.3j])
    b = dm.kobayashi_bounds(ell, z, w)
    assert 0 <= b.lower <= b.upper
    # lower bound equals the distance of the circumscribed ball
    circ = g.pseudo_distance(z / 2.0, w / 2.0).kobayashi
    assert b.lower == pytest.approx(circ, abs=1e-12)


def test_chain_upper_bounds_lower():
    ell = dm.EllipsoidDomain([2.0, 1.0])
    z, w = np.array([1.2 + 0.1j]), np.array([-1.1 - 0.4j])
    upper = dm._chain_upper(ell, z, w)
    lower = dm.kobayashi_bounds(ell, z, w).lower
    assert math.isfinite(upper) and lower <= upper


def test_bounds_reject_exterior_points():
    with pytest.raises(OutsideDomainError):
        dm.kobayashi_bounds(BALL1, [0.5], [1.5])


# -- boundary constants -------------------------------------------------------

def test_boundary_constants_ball_radial_probes():
    probes = [[t] for t in (1e-4, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9)]
    est = dm.estimate_boundary_constants(BALL1, [0.0], probes)
    assert est.c0 == pytest.approx(0.0, abs=1e-3)
    assert est.C0 == pytest.approx(0.5 * math.log(2.0), abs=1e-3)
    assert est.C0 - est.c0 <= 0.5 * math.log(2.0) + 1e-9


def test_boundary_constants_identical_probes_degenerate():
    est = dm.estimate_boundary_constants(BALL1, [0.0], [[0.5], [0.5]])
    assert est.c0 == pytest.approx(est.C0, abs=1e-12)


def test_boundary_constants_need_two_probes():
    with pytest.raises(ParameterError):
        dm.estimate_boundary_constants(BALL1, [0.0], [[0.5]])


def test_boundary_constants_stabilise():
    # estimates along t -> 1 settle: Cauchy within 1e-3 over the last decade
    tail = [1 - 10.0**-k for k in range(4, 10)]
    est_a = dm.estimate_boundary_constants(BALL1, [0.0], [[t] for t in tail[:-1]])
    est_b = dm.estimate_boundary_constants(BALL1, [0.0], [[t] for t in tail])
    assert abs(est_a.C0 - est_b.C0) < 1e-3


# -- comparison checkers ------------------------------------------------------

def test_distance_comparison_origin_c2_is_one():
    rep = dm.check_distance_comparison(BALL1, [0.0], 0.5, 3000, 0)
    assert rep.statistic == pytest.approx(1.0, abs=5e-3)
    assert rep.passed


@pytest.mark.parametrize("z0,r", [([0.3], 0.3), ([0.6], 0.5), ([0.8], 0.7), ([0.5, 0.3j], 0.5)])
def test_distance_comparison_ball_grid_under_four(z0, r):
    dom = dm.BallDomain(len(z0))
    rep = dm.check_distance_comparison(dom, z0, r, 10_000, 1)
    assert rep.passed, rep.statistic


def test_defining_fn_inequality_ball():
    rep = dm.check_defining_fn_inequality(BALL1, [0.6], 0.5, 3000, 0)
    assert rep.passed
    assert rep.statistic > 0


def test_defining_fn_constant_tracks_one_minus_r_sq():
    # the (1-r^2)-normalised fits must stay positive and within a decade:
    # sharp per-r constants sit above the c*(1-r^2) envelope, with an extra
    # 1/r transient at small r
    fits = {}
    for r in (0.2, 0.5, 0.8):
        rep = dm.check_defining_fn_inequality(BALL1, [0.7], r, 8000, 2)
        fits[r] = rep.statistic / (1 - r * r)
    vals = list(fits.values())
    assert min(vals) > 0.0
    assert max(vals) / min(vals) < 10.0, fits


def test_defining_fn_inequality_ellipsoid():
    ell = dm.EllipsoidDomain([2.0, 1.0])
    rep = dm.check_defining_fn_inequality(ell, [0.4 + 0.2j], 0.4, 500, 3)
    assert rep.passed


# -- declarations --------------------------------------------------------------

def _declared_domain(decl):
    return cli.ExperimentSpec.from_dict({"name": "x", "operation": "ball", "domain": decl}).domain()


def test_declared_domains_are_the_direct_domains():
    # a domain declared to the CLI is built from the fields it declares, the
    # constructor's defaults filling the rest
    for decl, direct in (
        ({"type": "ball", "dimension": 2}, BALL2),
        ({"type": "ellipsoid", "semi_axes": [1.5, 1.0]}, dm.EllipsoidDomain([1.5, 1.0])),
        ({"type": "perturbed_ball", "dimension": 1, "epsilon": 0.03}, dm.PerturbedBallDomain(1, 0.03)),
        ({"type": "perturbed_ball", "dimension": 1, "epsilon": 0.1, "bump_center": [0.0, 0.7], "bump_width": 0.4},
         dm.PerturbedBallDomain(1, 0.1, [0.7j], 0.4)),
    ):
        built = _declared_domain(decl)
        assert type(built) is type(direct) and vars(built).keys() == vars(direct).keys()
        for key, value in vars(direct).items():
            assert np.array_equal(vars(built)[key], value), (decl, key)


def test_declared_domain_unknown_type_is_a_usage_error():
    with pytest.raises(cli.UsageError, match="bad domain/type"):
        _declared_domain({"type": "torus"})
