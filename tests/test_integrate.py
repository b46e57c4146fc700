import math

import numpy as np
import pytest

from carleson_lab import bergman as bg
from carleson_lab import geometry_ball as g
from carleson_lab import integrate as mc
from carleson_lab import measures as ms
from carleson_lab.errors import AnalysisError, ParameterError
from carleson_lab.invariant_measure import ek_ball_measure, ek_density_values
from carleson_lab.integrate import (
    BetaRadialComponent,
    MCConfig,
    PullbackBallComponent,
    UniformBallComponent,
    integrate_density,
    integrate_mixture,
    integrate_over_balls,
    sample_unit_ball,
)


def norm_sq_rows(pts):
    return np.einsum("ij,ij->i", pts, np.conj(pts)).real


# -- sampling ----------------------------------------------------------------

def test_unit_ball_samples_interior_and_deterministic():
    a = sample_unit_ball(2, 5000, 9)
    b = sample_unit_ball(2, 5000, 9)
    assert np.array_equal(a, b)
    assert np.all(np.linalg.norm(a, axis=1) < 1.0)


def test_unit_ball_norm_sq_mean():
    # E ||z||^2 = n / (n+1)
    for n in (1, 2, 3):
        pts = sample_unit_ball(n, 100_000, n)
        vals = norm_sq_rows(pts)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(vals.mean() - n / (n + 1)) < 3 * se


def test_unit_ball_radius_law():
    # P(||z|| <= t) = t^(2n)
    pts = sample_unit_ball(2, 50_000, 4)
    t = 0.7
    frac = np.mean(np.linalg.norm(pts, axis=1) <= t)
    p = t**4
    assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / len(pts))


def test_sample_count_validation():
    with pytest.raises(ParameterError):
        sample_unit_ball(1, 0, 0)


# -- integrate_density -------------------------------------------------------

def test_constant_integrand_is_exact():
    est = integrate_density(lambda p: np.ones(len(p)), 2, MCConfig(seed=0, n_samples=2000))
    assert est.value == pytest.approx(1.0, abs=1e-15)
    assert est.std_error == 0.0


def test_radial_integrand_dim_one():
    # integral of (1 - |z|^2) over the disk = 1/2
    est = integrate_density(lambda p: 1.0 - norm_sq_rows(p), 1, MCConfig(seed=1, n_samples=40_000))
    assert abs(est.value - 0.5) < 3 * est.std_error + 1e-12


def test_ellipsoid_region_with_constant_gives_volume():
    ball = g.kobayashi_ball([0.6], 0.5)
    est = integrate_over_balls(lambda p: np.ones(len(p)), [ball], MCConfig(seed=2, n_samples=2000))[0]
    assert est.value == pytest.approx(g.ball_volume([0.6], 0.5), rel=1e-12)
    assert est.std_error == 0.0


def test_ellipsoid_region_nonconstant():
    # integral over a metric ball at the origin of |z|^2 (n=1):
    # = int_0^r t^2 2t dt = r^4 / 2
    ball = g.kobayashi_ball(np.zeros(1), 0.5)
    est = integrate_over_balls(lambda p: norm_sq_rows(p), [ball], MCConfig(seed=3, n_samples=60_000))[0]
    assert abs(est.value - 0.5**4 / 2) < 3 * est.std_error


def test_integrate_density_takes_a_dimension_only():
    # metric balls go to integrate_over_balls
    with pytest.raises(ParameterError, match="region must be a dimension"):
        integrate_density(lambda p: np.ones(len(p)), g.kobayashi_ball([0.6], 0.5), MCConfig(seed=2, n_samples=2000))


def test_min_samples_enforced():
    with pytest.raises(ParameterError):
        integrate_density(lambda p: np.ones(len(p)), 1, MCConfig(seed=0, n_samples=50))


def test_pole_importance_matches_exact_mass():
    # integral of (1 - |z|^2)^(-1/2) over the disk: u = t^2, = int_0^1 (1-u)^(-1/2) du = 2
    def f(p):
        return (1.0 - norm_sq_rows(p)) ** (-0.5)

    est = integrate_density(f, 1, MCConfig(seed=6, n_samples=80_000), boundary_pole_order=0.5)
    assert est.std_error < 0.02
    assert abs(est.value - 2.0) < 3 * est.std_error


def test_pole_order_validation():
    with pytest.raises(ParameterError):
        integrate_density(lambda p: np.ones(len(p)), 1, MCConfig(seed=0, n_samples=1000), boundary_pole_order=1.0)


def test_complex_integrand():
    # integral of z over the disk vanishes by symmetry
    est = integrate_density(lambda p: p[:, 0], 1, MCConfig(seed=7, n_samples=40_000))
    assert abs(est.value) < 4 * est.std_error + 1e-3


def test_nonfinite_samples_raise():
    def bad(p):
        out = np.ones(len(p))
        out[::7] = np.inf
        return out

    with pytest.raises(AnalysisError):
        integrate_density(bad, 1, MCConfig(seed=8, n_samples=2000))


def test_repeated_call_is_bit_identical():
    cfg = MCConfig(seed=10, n_samples=10_000)
    f = lambda p: 1.0 - norm_sq_rows(p)
    a = integrate_density(f, 2, cfg)
    b = integrate_density(f, 2, cfg)
    assert a.value == b.value and a.std_error == b.std_error


def test_std_error_is_shift_invariant():
    # same draws, integrands differing by a constant: only the reducer can
    # tell them apart, and a variance taken as E[x^2] - E[x]^2 cancels
    cfg = MCConfig(seed=4, n_samples=20_000)
    f = lambda p: 1.0 - norm_sq_rows(p)
    base = integrate_density(f, 1, cfg)
    shifted = integrate_density(lambda p: 1e8 + f(p), 1, cfg)
    assert shifted.std_error == pytest.approx(base.std_error, rel=1e-8)


def test_excluded_samples_are_counted():
    sizes = []

    def one_bad(p):
        out = 1.0 - norm_sq_rows(p)
        if not sizes:
            out[0] = np.inf
        sizes.append(len(p))
        return out

    with pytest.warns(RuntimeWarning, match="excluded 1 non-finite"):
        est = integrate_density(one_bad, 1, MCConfig(seed=8, n_samples=20_000))
    assert sum(sizes) == 20_000
    assert est.n_excluded == 1
    assert est.n_effective == 19_999


def test_calibration_coverage():
    # known integral, 200 repetitions: the 3-sigma interval must cover >= 95%
    hits = 0
    truth = 0.5
    for seed in range(200):
        est = integrate_density(
            lambda p: 1.0 - norm_sq_rows(p), 1, MCConfig(seed=seed, n_samples=2000)
        )
        hits += abs(est.value - truth) <= 3.0 * est.std_error
    assert hits >= 190


# -- ball grids against the per-batch layout ---------------------------------

def _per_batch_ball_estimate(f, ball, cfg):
    """Oracle: the stratified ball estimator drawn, mapped and evaluated batch by
    batch (four keyed batches per shell), as before grids shared one draw.
    Returns (value, std_error, n_effective, n_excluded)."""
    n = ball.dimension
    shells = mc._SHELLS
    fractions = [hi - lo for lo, hi in shells]
    counts = [max(c, 2) for c in mc._apportion(cfg.n_samples, fractions)]
    value, var, bad = 0j, 0.0, 0
    for k, ck in enumerate(counts):
        vals = np.concatenate([
            f(g.map_round_to_ellipsoid(ball, g.uniform_round_shell(cfg.rng_for(k, s), n, m, *shells[k])))
            for s, m in enumerate(mc._apportion(ck, [1.0] * 4)) if m > 0
        ])
        vals = vals[np.isfinite(vals)]
        bad += ck - vals.size
        w = ball.volume * fractions[k]
        value += w * np.mean(vals)
        var += w * w * np.var(vals, ddof=1) / vals.size
    return (value.real if value.imag == 0.0 else value), math.sqrt(var), sum(counts) - bad, bad


def _fields(est):
    return est.value, est.std_error, est.n_effective, est.n_excluded


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_grid_matches_per_batch_layout(n):
    balls = [g.kobayashi_ball(c, 0.5) for c in ms.boundary_schedule(n, 8)]
    for s in (-0.5, 0.0, 1.0):
        density = ms.PowerDensity(s)
        cfg = MCConfig(seed=10 + n, n_samples=3000)
        grid = integrate_over_balls(density, balls, cfg)
        assert [_fields(est) for est in grid] == [_per_batch_ball_estimate(density, b, cfg) for b in balls]


def test_ball_grid_with_atoms_and_custom_strata():
    balls = [g.kobayashi_ball(c, 0.7) for c in ms.boundary_schedule(2, 6)]
    atoms = ms.Measure.from_atoms([b.center for b in balls[::3]], [0.5, 1.0, 2.0, 0.25])
    mu = ms.Measure(2, atoms.atom_points, atoms.atom_weights, ms.PowerDensity(0.5))
    cfg = MCConfig(seed=3, n_samples=2000)
    masses = ms.measure_of_ball(mu, balls, cfg)
    with_atoms = 0
    for ball, est in zip(balls, masses):
        value, se, n_eff, bad = _per_batch_ball_estimate(mu.density, ball, cfg)
        atom_part = math.fsum(atoms.atom_weights[ball.contains(atoms.atom_points)])
        with_atoms += atom_part > 0.0
        assert _fields(est) == (atom_part + value, se, n_eff, bad)
        assert est == ms.measure_of_ball(mu, ball, cfg)
    assert with_atoms >= 4


def test_grid_of_one_equals_its_ball_in_a_grid_of_sixteen():
    balls = [g.kobayashi_ball(c, 0.3) for c in ms.boundary_schedule(2, 8)]
    assert len(balls) == 16
    f = lambda p: 1.0 + norm_sq_rows(p) ** 2
    cfg = MCConfig(seed=9, n_samples=12_000)
    for ball, est in zip(balls, integrate_over_balls(f, balls, cfg)):
        assert est == integrate_over_balls(f, [ball], cfg)[0]
        assert _fields(est) == _per_batch_ball_estimate(f, ball, cfg)


def _nan_on_sliver(frac):
    # NaN on a sliver picked by the point's value, so a batch and the whole
    # draw mark the same samples
    def f(p):
        out = 1.0 - norm_sq_rows(p)
        out[(1e6 * np.abs(p[:, 0])) % 1.0 < frac] = np.nan
        return out

    return f


def test_ball_grid_excludes_nonfinite_like_per_batch_layout():
    balls = [g.kobayashi_ball(c, 0.5) for c in ms.boundary_schedule(1, 4)]
    cfg = MCConfig(seed=2, n_samples=40_000)
    tolerated = mc.BAD_SAMPLE_TOLERANCE * cfg.n_samples
    f = _nan_on_sliver(4e-5)
    refs = [_per_batch_ball_estimate(f, b, cfg) for b in balls]
    excluded = [ref[3] for ref in refs]
    assert any(excluded) and max(excluded) <= tolerated, excluded
    for ball, ref in zip(balls, refs):
        if ref[3]:
            with pytest.warns(RuntimeWarning, match=f"excluded {ref[3]} non-finite"):
                assert _fields(integrate_over_balls(f, [ball], cfg)[0]) == ref
        else:
            assert _fields(integrate_over_balls(f, [ball], cfg)[0]) == ref
    with pytest.warns(RuntimeWarning, match="non-finite"):
        assert [_fields(est) for est in integrate_over_balls(f, balls, cfg)] == refs
    # above the tolerance the estimate aborts, in a grid as alone
    f = _nan_on_sliver(1e-2)
    assert min(_per_batch_ball_estimate(f, b, cfg)[3] for b in balls) > tolerated
    with pytest.raises(AnalysisError, match="of 40000 integrand evaluations were non-finite"):
        integrate_over_balls(f, balls, cfg)
    with pytest.raises(AnalysisError):
        integrate_over_balls(f, balls[:1], cfg)


# -- mixture sampler ---------------------------------------------------------

def test_component_densities_integrate_to_one():
    # each proposal density must be a probability density w.r.t. volume
    rng = np.random.default_rng(0)
    pts = g.uniform_round_ball(rng, 2, 200_000)
    for comp in (
        BetaRadialComponent(2, 0.375),
        PullbackBallComponent(np.array([0.5, 0.1j]), 0.8),
        UniformBallComponent(2),
    ):
        vals = comp.density(pts)
        mean = vals.mean()
        se = vals.std() / math.sqrt(len(vals))
        assert abs(mean - 1.0) < 4 * se + 1e-9


def test_beta_tilt_normalisation_is_the_beta_function():
    from scipy.special import beta

    for n in range(1, 9):
        for a in (0.0, 0.375, 0.75, 0.99):
            assert BetaRadialComponent(n, a)._norm == pytest.approx(n * beta(n, 1.0 - a), rel=1e-14)


def test_mixture_estimates_known_integral():
    z = np.array([0.9, 0.0])
    comps = [UniformBallComponent(2), PullbackBallComponent(z, 0.9)]

    def f(block):
        return 1.0 - norm_sq_rows(block.points)

    est = integrate_mixture(f, comps, [0.5, 0.5], MCConfig(seed=3, n_samples=40_000))
    # E (1 - ||z||^2) over B^2 = 1/3
    assert abs(est.value - 1.0 / 3.0) < 3 * est.std_error


def test_mixture_keeps_imaginary_part():
    # integral of i (1 - |z|^2) over the disk = i / 2
    comps = [UniformBallComponent(1), PullbackBallComponent(np.array([0.5]), 0.6)]
    cfg = MCConfig(seed=4, n_samples=20_000)
    est = integrate_mixture(lambda b: 1j * (1.0 - norm_sq_rows(b.points)), comps, [0.5, 0.5], cfg)
    assert abs(est.value - 0.5j) < 4 * est.std_error


def test_mixture_weight_validation():
    comps = [UniformBallComponent(1)]
    with pytest.raises(ParameterError):
        integrate_mixture(lambda b: np.ones(len(b.points)), comps, [0.5, 0.5], MCConfig(seed=0, n_samples=1000))


def test_fused_mixture_density_matches_componentwise_sum():
    # the fused pullback-ladder denominator against the plain sum of densities,
    # on samples of every Berezin component and on points exactly on a rung's
    # edge, where the compared quantity 1 - rho^2 = delta_w q_z(w) equals
    # 1 - t^2; they are searched for on radial lines, ulp by ulp, through the
    # edge point phi_z(t e) turned by a few small phases
    z = 0.999 * np.array([0.6, 0.8j])
    comps, weights = bg._berezin_components(z, 0.5)
    pis = np.asarray(weights) / np.sum(weights)
    rng = np.random.default_rng(0)
    pts = [comp.sample(rng, 500) for comp in comps]
    e = z / np.linalg.norm(z)
    radii = [comp.t for comp in comps if isinstance(comp, PullbackBallComponent)]
    on_edge = 0
    for t in radii:
        s0 = float(np.vdot(e, g.ball_automorphism_many(z, (t * e)[None, :])[0]).real)
        radial = s0 + np.arange(-1500, 1501) * np.spacing(s0)
        line = np.multiply.outer(np.multiply.outer(np.exp(2e-9j * np.arange(64)), radial).ravel(), e)
        hits = line[g.one_minus_norm_sq(line) * g.mobius_factor(z, line) == 1.0 - t * t]
        on_edge += len(hits) > 0
        pts.append(hits)
    assert on_edge >= len(radii) // 2
    pts = np.concatenate(pts)
    plain = np.zeros(len(pts))
    for pi, comp in zip(pis, comps):
        plain += pi * comp.density(pts)
    fused = mc._mixture_density(comps, pis)(mc.SampleBlock(pts))
    np.testing.assert_allclose(fused, plain, rtol=1e-12, atol=0.0)


# -- blocked arithmetic against the per-batch layout -------------------------
#
# The oracles below draw and evaluate every keyed batch on its own, as the
# engine did before consecutive batches shared one block of arithmetic, and
# fold the groups in the reference way; the engine must agree bit for bit.

def _oracle_fold(groups, weights):
    value, var, total, bad = 0j, 0.0, 0, 0
    for w, vals in zip(weights, groups):
        total += vals.size
        finite = vals[np.isfinite(vals)]
        bad += vals.size - finite.size
        value += w * np.mean(finite)
        var += w * w * np.var(finite, ddof=1) / finite.size
    return (value.real if value.imag == 0.0 else value), math.sqrt(var), total - bad, bad


def _per_batch_groups(batch_values, counts, cfg):
    """Group k's values: batch s of m samples is ``batch_values(k, cfg.rng_for(k, s), m)``."""
    return [np.concatenate([batch_values(k, cfg.rng_for(k, s), m)
                            for s, m in enumerate(mc._apportion(ck, [1.0] * 4)) if m > 0])
            for k, ck in enumerate(counts)]


def _per_batch_density_estimate(f, n, cfg):
    fractions = [hi - lo for lo, hi in mc._SHELLS]
    counts = [max(c, 2) for c in mc._apportion(cfg.n_samples, fractions)]
    groups = _per_batch_groups(lambda k, rng, m: f(g.uniform_round_shell(rng, n, m, *mc._SHELLS[k])), counts, cfg)
    return _oracle_fold(groups, fractions)


def _per_batch_mixture_density(components, pis):
    """The balance-heuristic denominator of a point array, pullback ladders fused."""
    plain, ladders = [], {}
    for pi, comp in zip(pis, components):
        if isinstance(comp, PullbackBallComponent):
            ladders.setdefault(comp.z.tobytes(), (comp.z, []))[1].append((comp.t, pi))
        else:
            plain.append((pi, comp))

    def density(pts):
        dens = np.zeros(len(pts))
        for pi, comp in plain:
            dens += pi * comp.density(pts)
        for z, rungs in ladders.values():
            t, pi = (np.array(col) for col in zip(*sorted(rungs)))
            suffix = np.append(np.cumsum((pi / t ** (2 * z.size))[::-1])[::-1], 0.0)
            q = g.mobius_factor(z, pts)
            rung = np.searchsorted(t * t - 1.0, -g.one_minus_norm_sq(pts) * q, side="right")
            dens += q ** (z.size + 1) * suffix[rung]
        return dens

    return density


def _per_batch_mixture_estimate(f, components, weights, cfg):
    counts = [max(c, 2) for c in mc._apportion(cfg.n_samples, np.asarray(weights, dtype=float))]
    pis = np.array([c / sum(counts) for c in counts])
    density = _per_batch_mixture_density(components, pis)

    def batch_values(k, rng, m):
        pts = components[k].sample(rng, m)
        return np.asarray(f(pts)) / density(pts)

    return _oracle_fold(_per_batch_groups(batch_values, counts, cfg), pis)


def _per_batch_berezin(mu, z, cfg):
    atoms = math.fsum(bg.normalized_kernel_sq_values(z, mu.atom_points) * mu.atom_weights)
    comps, weights = bg._berezin_components(z, mu.pole_order)
    value, se, n_eff, bad = _per_batch_mixture_estimate(
        lambda pts: bg.normalized_kernel_sq_values(z, pts) * mu.density(pts), comps, weights, cfg)
    return atoms + value, se, n_eff, bad


def _per_batch_ek(z0, r, cfg):
    n = z0.size

    def pulled_back(v):
        u = r * v
        return r ** (2 * n) * ek_density_values(g.ball_automorphism_many(z0, u)) * g.mobius_jacobian_many(z0, u)

    return _per_batch_density_estimate(pulled_back, n, cfg)


def _deep_point(n, depth):
    z = np.zeros(n, dtype=complex)
    z[0] = 0.8 * (1.0 - depth)
    z[-1] += 0.6j * (1.0 - depth)
    return z


# budgets per dimension: the common 2,000 and 40,000 samples, and in C^2 the
# 320,000-sample budget whose shell batches each stay a block of their own
_BUDGETS = [(n, N) for n in (1, 2, 3) for N in (2000, 40_000)] + [(2, 320_000)]


@pytest.mark.parametrize("n,budget", _BUDGETS)
def test_blocked_estimates_match_per_batch_layout(n, budget):
    cfg = MCConfig(seed=20 + n, n_samples=budget)
    z = _deep_point(n, 1e-3)
    f = lambda p: np.abs(1.0 - p @ np.conj(z)) ** -2 + 1j * p[:, -1].real
    assert _fields(integrate_density(f, n, cfg)) == _per_batch_density_estimate(f, n, cfg)
    pole = lambda p: ms.PowerDensity(-0.5)(p) * np.abs(p[:, 0])
    assert (_fields(integrate_density(pole, n, cfg, boundary_pole_order=0.5))
            == _per_batch_mixture_estimate(pole, [BetaRadialComponent(n, 0.375)], [1.0], cfg))
    comps = ([UniformBallComponent(n), BetaRadialComponent(n, 0.3)]
             + [PullbackBallComponent(z, t) for t in (0.5, 0.9, 0.99)] + [PullbackBallComponent(-z / 2, 0.7)])
    weights = [0.3, 0.1, 0.15, 0.15, 0.2, 0.1]
    assert (_fields(integrate_mixture(lambda b: f(b.points), comps, weights, cfg))
            == _per_batch_mixture_estimate(f, comps, weights, cfg))
    assert _fields(ek_ball_measure(z, 0.6, cfg)) == _per_batch_ek(z, 0.6, cfg)
    atoms = ms.Measure.from_atoms([z / 2, -z / 3], [0.5, 2.0])
    for s in (-0.5, 0.0, 1.0):
        mu = ms.Measure(n, atoms.atom_points, atoms.atom_weights, ms.PowerDensity(s))
        for probe in (z, _deep_point(n, 1e-6)):
            assert _fields(bg.berezin_transform(mu, probe, cfg)) == _per_batch_berezin(mu, probe, cfg)


@pytest.mark.parametrize("block", [1, 200, 3000])
def test_block_boundaries_inside_groups_move_no_bit(monkeypatch, block):
    # 200 and 3,000 samples cut blocks inside shells and ladder rungs, and a
    # one-sample block leaves every batch a block of its own
    monkeypatch.setattr(mc, "BLOCK_SAMPLES", block)
    cfg = MCConfig(seed=5, n_samples=2000)
    z = _deep_point(2, 1e-2)
    mu = ms.Measure.with_power_density(2, -0.5)
    f = lambda p: 1.0 / (1.0 - p[:, 0].real)
    assert _fields(integrate_density(f, 2, cfg)) == _per_batch_density_estimate(f, 2, cfg)
    assert _fields(ek_ball_measure(z, 0.3, cfg)) == _per_batch_ek(z, 0.3, cfg)
    assert _fields(bg.berezin_transform(mu, z, cfg)) == _per_batch_berezin(mu, z, cfg)


def test_blocked_estimates_exclude_nonfinite_like_per_batch_layout():
    cfg = MCConfig(seed=2, n_samples=40_000)
    f = _nan_on_sliver(4e-5)
    ref = _per_batch_density_estimate(f, 1, cfg)
    assert 0 < ref[3] <= mc.BAD_SAMPLE_TOLERANCE * cfg.n_samples
    with pytest.warns(RuntimeWarning, match=f"excluded {ref[3]} non-finite"):
        assert _fields(integrate_density(f, 1, cfg)) == ref
    comps = [UniformBallComponent(1), PullbackBallComponent(np.array([0.9]), 0.8)]
    ref = _per_batch_mixture_estimate(f, comps, [0.5, 0.5], cfg)
    assert ref[3] > 0
    with pytest.warns(RuntimeWarning, match=f"excluded {ref[3]} non-finite"):
        assert _fields(integrate_mixture(lambda b: f(b.points), comps, [0.5, 0.5], cfg)) == ref


def test_batch_sizes_are_the_largest_remainder_split():
    for count in range(200):
        assert mc._batch_sizes(count) == mc._apportion(count, [1.0] * mc.BATCHES_PER_GROUP)
