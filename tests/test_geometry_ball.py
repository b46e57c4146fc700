import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from carleson_lab import geometry_ball as g
from carleson_lab.errors import OutsideDomainError, ParameterError, ValidationError
from textbook_rho import rho_mp, rho_rows


def unit_ball_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return g.uniform_round_ball(rng, n, count)


# -- pseudo_distance ---------------------------------------------------------

def test_distance_from_origin_is_norm():
    dp = g.pseudo_distance([0.0], [0.5])
    assert dp.pseudo == pytest.approx(0.5, abs=1e-15)
    assert dp.kobayashi == pytest.approx(0.549306, abs=1e-6)


def test_distance_identity_is_zero():
    z = np.array([0.3 + 0.2j, -0.1j])
    dp = g.pseudo_distance(z, z)
    assert dp.pseudo == 0.0
    assert dp.kobayashi == 0.0


def test_distance_matches_moebius_quotient_dim_one():
    # ladder neighbours: oracle is the one-dimensional Moebius quotient
    z, w = 0.632121, 0.864665
    oracle = abs((z - w) / (1 - z * w))
    dp = g.pseudo_distance([z], [w])
    assert dp.pseudo == pytest.approx(oracle, abs=1e-12)
    assert dp.pseudo == pytest.approx(0.512858, abs=1e-6)


def test_distance_close_pairs_match_50_digits():
    # |z| <= 0.999 and |z - w| ~ 1e-6, where 1 - (1-|z|^2)(1-|w|^2)/|1-<z,w>|^2
    # cancels to a relative error of about 1e-4
    rng = np.random.default_rng(14)
    for n in (1, 2):
        z = g.uniform_round_ball(rng, n, 100)
        z *= (0.999 * rng.random(100) ** 0.1 / np.linalg.norm(z, axis=1))[:, None]
        w = z + 1e-6 * g.uniform_round_ball(rng, n, 100)
        exact = np.array([rho_mp(a, b) for a, b in zip(z, w)])
        pair = np.array([g.pseudo_distance(a, b).pseudo for a, b in zip(z, w)])
        many = np.array([g.pseudo_distance_many(a, b[None, :])[0] for a, b in zip(z, w)])
        assert np.max(np.abs(pair - exact) / exact) <= 1e-12
        assert np.max(np.abs(many - exact) / exact) <= 1e-12
        # one base point against a cloud of close points
        cloud = w - z + z[0]
        exact = np.array([rho_mp(z[0], b) for b in cloud])
        assert np.max(np.abs(g.pseudo_distance_many(z[0], cloud) - exact) / exact) <= 1e-12


def test_distance_rejects_exterior():
    with pytest.raises(OutsideDomainError):
        g.pseudo_distance([1.0], [0.2])
    with pytest.raises(ValidationError):
        g.pseudo_distance([np.nan], [0.2])


def test_tanh_arctanh_roundtrip():
    rho = np.linspace(0.0, 1.0 - 1e-6, 1000)
    back = np.tanh(np.arctanh(rho))
    assert np.max(np.abs(back - rho)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_metric_properties_random_triples(seed, n):
    pts = unit_ball_points(n, 3, seed) * 0.999
    a, b, c = pts
    dab = g.pseudo_distance(a, b).pseudo
    dba = g.pseudo_distance(b, a).pseudo
    assert dab == pytest.approx(dba, abs=1e-15)
    dac = g.pseudo_distance(a, c).pseudo
    dcb = g.pseudo_distance(c, b).pseudo
    assert dab <= dac + dcb + 1e-12


def test_triangle_inequality_bulk():
    # 10^5 random triples per dimension, slack floor -1e-12
    for n in (1, 2, 3):
        rng = np.random.default_rng(n)
        a = g.uniform_round_ball(rng, n, 100_000) * 0.999
        b = g.uniform_round_ball(rng, n, 100_000) * 0.999
        c = g.uniform_round_ball(rng, n, 100_000) * 0.999
        slack = rho_rows(a, c) + rho_rows(c, b) - rho_rows(a, b)
        assert float(slack.min()) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_distance_dominates_half_euclidean(seed, n):
    # the Euclidean prefilters in the sequence analytics rely on this bound
    pts = unit_ball_points(n, 2, seed) * 0.9999
    a, b = pts
    rho = g.pseudo_distance(a, b).pseudo
    assert rho >= 0.5 * np.linalg.norm(a - b) - 1e-12


# -- automorphism ------------------------------------------------------------

def test_automorphism_sends_origin_to_parameter():
    a = np.array([0.4 + 0.1j, -0.2j])
    out = g.ball_automorphism(a, np.zeros(2))
    assert np.allclose(out, a, atol=1e-15)


def test_automorphism_at_zero_is_minus_identity():
    z = np.array([0.3, 0.1 - 0.2j])
    out = g.ball_automorphism(np.zeros(2), z)
    assert np.allclose(out, -z, atol=0)
    # rho is preserved by the unitary case too
    w = np.array([0.1, 0.5j])
    d1 = g.pseudo_distance(z, w).pseudo
    d2 = g.pseudo_distance(-z, -w).pseudo
    assert d1 == pytest.approx(d2, abs=1e-15)


def test_automorphism_moebius_formula_dim_one():
    out = g.ball_automorphism([0.5], [0.2])
    assert out[0] == pytest.approx((0.5 - 0.2) / (1 - 0.1), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_automorphism_involution_and_invariance(seed, n):
    pts = unit_ball_points(n, 3, seed) * 0.99
    a, z, w = pts
    back = g.ball_automorphism(a, g.ball_automorphism(a, z))
    assert np.linalg.norm(back - z) < 1e-10
    d_before = g.pseudo_distance(z, w).pseudo
    d_after = g.pseudo_distance(g.ball_automorphism(a, z), g.ball_automorphism(a, w)).pseudo
    assert d_after == pytest.approx(d_before, abs=1e-10)


def test_automorphism_rejects_exterior():
    with pytest.raises(OutsideDomainError):
        g.ball_automorphism([1.2], [0.1])


# -- kobayashi_ball ----------------------------------------------------------

def test_ball_at_origin_is_round():
    b = g.kobayashi_ball(np.zeros(2), 0.4)
    assert np.allclose(b.center, 0.0)
    assert b.radial_axis == pytest.approx(0.4)
    assert b.transverse_axis == pytest.approx(0.4)


def test_ball_ellipsoid_data_dim_one():
    b = g.kobayashi_ball([0.6], 0.5)
    assert b.center[0].real == pytest.approx(0.494505, abs=1e-6)
    assert b.radial_axis == pytest.approx(0.351648, abs=1e-6)


def test_ball_transverse_axis_dim_two():
    b = g.kobayashi_ball([0.6, 0.0], 0.5)
    # r * sqrt((1 - |z0|^2) / (1 - r^2 |z0|^2))
    assert b.transverse_axis == pytest.approx(0.5 * math.sqrt(0.64 / 0.91), abs=1e-12)
    assert b.radial_axis <= b.transverse_axis


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_axes_are_the_reach_axes(n):
    # metric_ball_reach is |z - center| plus an axis of kobayashi_ball's
    # ellipsoid: the radial one in C^1, the transverse one above
    rng = np.random.default_rng(n)
    for z0 in g.uniform_round_ball(rng, n, 20) * 0.999:
        for r in (0.1, 0.5, 0.9):
            b = g.kobayashi_ball(z0, r)
            axis = b.radial_axis if n == 1 else b.transverse_axis
            want = (1.0 + 1e-9) * (float(np.linalg.norm(z0 - b.center)) + axis)
            assert g.metric_ball_reach(z0[None, :], r)[0] == pytest.approx(want, rel=1e-13)


def test_ball_rejects_bad_radius():
    with pytest.raises(ParameterError):
        g.kobayashi_ball([0.1], 1.0)
    with pytest.raises(ParameterError):
        g.kobayashi_ball([0.1], 0.0)


def test_ball_rejects_near_boundary_base():
    with pytest.raises(OutsideDomainError):
        g.kobayashi_ball([1.0 - 1e-13], 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.1, 0.9))
def test_membership_duality(seed, n, r):
    # membership is the distance, at every point: on the metric sphere and
    # within an ulp or two of it too, where the ellipsoid equation disagreed
    rng = np.random.default_rng(seed)
    z0 = g.uniform_round_ball(rng, n, 1)[0] * 0.95
    ball = g.kobayashi_ball(z0, r)
    # phi_z0 maps the centred sphere of radius s onto the metric sphere rho(z0, .) = s
    units = g.uniform_round_shell(rng, n, 64, 1.0, 1.0)  # the shell [1, 1): unit directions
    radii = r * np.array([1 - 1e-15, 1 - 1e-16, 1.0, 1 + 1e-16, 1 + 1e-15])
    sphere = np.concatenate([g.ball_automorphism_many(z0, s * units) for s in radii])
    pts = np.concatenate([g.uniform_round_ball(rng, n, 256) * 0.999, sphere])
    assert np.array_equal(ball.contains(pts), g.pseudo_rho(z0, pts) < r)
    # every member stays inside the unit ball
    assert np.all(np.linalg.norm(pts[ball.contains(pts)], axis=1) < 1.0)


# -- ball_volume -------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_volume_at_origin_is_r_power(n, r):
    assert g.ball_volume(np.zeros(n), r) == pytest.approx(r ** (2 * n), rel=1e-12)


def test_volume_formula_dim_one():
    assert g.ball_volume([0.6], 0.5) == pytest.approx(0.25 * (0.64 / 0.91) ** 2, rel=1e-12)
    assert g.ball_volume([0.6], 0.5) == pytest.approx(0.123657, abs=1e-6)


def test_volume_exhausts_ball_as_r_grows():
    assert g.ball_volume(np.zeros(2), 1 - 1e-9) == pytest.approx(1.0, abs=1e-6)


# -- sampling ----------------------------------------------------------------

def test_samples_inside_round_ball():
    ball = g.kobayashi_ball(np.zeros(2), 0.5)
    pts = g.sample_ball_uniform(ball, 10_000, 0)
    assert np.all(np.linalg.norm(pts, axis=1) < 0.5)


def test_sampler_rejects_zero_count():
    ball = g.kobayashi_ball([0.1], 0.5)
    with pytest.raises(ParameterError):
        g.sample_ball_uniform(ball, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_ball_draw_is_the_whole_shell(n):
    # the uniform ball draw is the shell draw on [0, 1), bit for bit, and both
    # are the direction-and-radius draw the ball sampler always made
    draws = [g.uniform_round_ball(np.random.default_rng(9), n, 1000),
             g.uniform_round_shell(np.random.default_rng(9), n, 1000, 0.0, 1.0)]
    rng = np.random.default_rng(9)
    gauss = rng.standard_normal((1000, 2 * n))
    dirs = gauss[:, :n] + 1j * gauss[:, n:]
    draws.append(dirs * (rng.random(1000) ** (1.0 / (2 * n)) / np.linalg.norm(dirs, axis=1))[:, None])
    assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
    # a shell's points hold its volume fractions
    frac = np.linalg.norm(g.uniform_round_shell(np.random.default_rng(9), n, 1000, 0.25, 0.5), axis=1) ** (2 * n)
    assert 0.25 <= frac.min() and frac.max() < 0.5 + 1e-12


def test_sampler_deterministic():
    ball = g.kobayashi_ball([0.3 + 0.2j], 0.6)
    a = g.sample_ball_uniform(ball, 500, 42)
    b = g.sample_ball_uniform(ball, 500, 42)
    assert np.array_equal(a, b)


def test_sampler_symmetric_about_center():
    ball = g.kobayashi_ball([0.6], 0.5)
    pts = g.sample_ball_uniform(ball, 40_000, 3)
    frac = np.mean(pts[:, 0].real > ball.center[0].real)
    sigma = 0.5 / math.sqrt(len(pts))
    assert abs(frac - 0.5) < 3 * sigma


def test_sampler_membership_and_octant_uniformity():
    ball = g.kobayashi_ball([0.4, 0.1j], 0.5)
    pts = g.sample_ball_uniform(ball, 32_000, 7)
    assert np.all(g.pseudo_distance_many(ball.base, pts) < ball.pseudo_radius + 1e-12)
    # map back to the round frame; octants of the first two real coordinates
    e = ball.radial_direction()
    v = pts - ball.center
    p = v @ np.conj(e)
    perp = v - np.multiply.outer(p, e)
    w = np.multiply.outer(p / ball.radial_axis, e) + perp / ball.transverse_axis
    bits = (w[:, 0].real > 0).astype(int) * 4 + (w[:, 0].imag > 0).astype(int) * 2 + (
        w[:, 1].real > 0
    ).astype(int)
    counts = np.bincount(bits, minlength=8)
    assert chisquare(counts).pvalue > 0.01


def test_volume_against_membership_monte_carlo():
    # independent cross-check: sample the unit ball, count by distance
    rng = np.random.default_rng(11)
    n, z0, r = 2, np.array([0.5, 0.2j]), 0.6
    pts = g.uniform_round_ball(rng, n, 100_000)
    inside = g.pseudo_distance_many(z0, pts) < r
    vol = g.ball_volume(z0, r)
    sigma = math.sqrt(vol * (1 - vol) / len(pts))
    assert abs(np.mean(inside) - vol) < 3 * sigma


# -- lemma checker -----------------------------------------------------------

def test_ball_inequality_hand_example():
    # z0=0.6, z=0.7, r=0.2: slack = 0.64 - 0.0168
    z0 = np.array([0.6])
    z = np.array([0.7])
    lhs = 1 - 0.36
    rhs = (1 - 0.04) / 4 * (abs(0.1) ** 2 + abs(0.1 * 0.6))
    assert rhs == pytest.approx(0.0168, abs=1e-12)
    assert lhs > rhs
    rep = g.check_lemma_ball_inequality(z0, 0.2, n_samples=5000, seed=0)
    assert rep.passed


def test_ball_inequality_origin_always_passes():
    rep = g.check_lemma_ball_inequality(np.zeros(2), 0.7, n_samples=5000, seed=1)
    assert rep.passed


def test_ball_inequality_many_random_balls():
    rng = np.random.default_rng(5)
    for k in range(25):
        z0 = g.uniform_round_ball(rng, int(rng.integers(1, 4)), 1)[0] * 0.97
        r = float(rng.uniform(0.05, 0.95))
        rep = g.check_lemma_ball_inequality(z0, r, n_samples=4000, seed=k)
        assert rep.passed, (z0, r)


# -- short-axis kernels --------------------------------------------------------

def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_minus_norm_sq_is_the_einsum_bit_for_bit(n):
    # the expression one_minus_norm_sq replaced, on the shapes its callers pass:
    # rows, a single point, broadcast pair blocks and strided views
    rng = np.random.default_rng(n)
    z = g.uniform_round_ball(rng, n, 20_000) * np.exp(rng.uniform(-30.0, 0.0, (20_000, 1)))
    z[:1000] *= 0.999999 / np.linalg.norm(z[:1000], axis=1)[:, None]
    for pts in (z, z[7], z[:1], z[:200, None, :] - z[None, 200:500, :], z[::3], z.reshape(40, 500, n)):
        want = 1.0 - np.einsum("...i,...i->...", pts, np.conj(pts)).real
        assert same_bits(g.one_minus_norm_sq(pts), want), np.shape(pts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scale_directions_is_the_norm_expression_bit_for_bit(n):
    # the expression _scale_directions replaced: directions g[:, :n] + 1j g[:, n:],
    # scaled by radii / linalg.norm; zero rows stay at the origin
    rng = np.random.default_rng(10 + n)
    draw = rng.standard_normal((20_000, 2 * n)) * np.exp(rng.uniform(-30.0, 30.0, (20_000, 1)))
    draw[:5] = 0.0
    radii = rng.random(20_000)
    dirs = draw[:, :n] + 1j * draw[:, n:]
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    assert same_bits(g._scale_directions(draw, radii), dirs * (radii / norms)[:, None])
    assert g._scale_directions(draw[:0], radii[:0]).shape == (0, n)


# -- serialisation -----------------------------------------------------------

def test_point_row_roundtrip():
    pts = np.array([[0.1 + 0.2j, -0.3j], [0.0, 0.5]])
    rows = g.points_to_rows(pts)
    assert rows.shape == (2, 4)
    assert np.array_equal(g.rows_to_points(rows), pts)


def test_ball_json_shape():
    d = g.kobayashi_ball([0.6], 0.5).to_json_dict()
    assert set(d) == {"base", "r", "center", "radial_axis", "transverse_axis"}


# -- the point rules -----------------------------------------------------------

def _routed():
    """Each entry routed through a point rule, as (call of the checked point, a
    point of the wrong dimension for it): another dimension than the 1-d context
    it is called in, or no coordinates where the entry takes any."""
    from carleson_lab import bergman, domains, invariant_measure, measures, sequences
    from carleson_lab.integrate import MCConfig

    cfg = MCConfig(n_samples=100)
    ladder = sequences.PointSequence.radial_ladder(1, 10)
    atoms = measures.Measure.from_atoms([[0.5]], [1.0])
    return {
        "pseudo_distance": (lambda p: g.pseudo_distance([0.1], p), [0.1, 0.1]),
        "ball_automorphism": (lambda p: g.ball_automorphism([0.1], p), [0.1, 0.1]),
        "kobayashi_ball": (lambda p: g.kobayashi_ball(p, 0.5), []),
        "ball_volume": (lambda p: g.ball_volume(p, 0.5), []),
        "kernel": (lambda p: bergman.kernel([0.1], p), [0.1, 0.1]),
        "berezin_transform-density": (lambda p: bergman.berezin_transform(measures.Measure.lebesgue(1), p, cfg),
                                      [0.1, 0.1]),
        "berezin_transform-atoms": (lambda p: bergman.berezin_transform(atoms, p, cfg), [0.1, 0.1]),
        "reproducing_check": (lambda p: bergman.reproducing_check(p, (1,), cfg), []),
        "diagonal_check": (lambda p: bergman.diagonal_check(p, cfg), []),
        "ek_density": (invariant_measure.ek_density, []),
        "PointSequence": (lambda p: sequences.PointSequence(points=[p]), []),
        "Measure": (lambda p: measures.Measure(1, [p], [1.0]), [0.1, 0.1]),
        "count_in_ball": (lambda p: sequences.count_in_ball(ladder, p, 0.5), [0.1, 0.1]),
        "shell_counts": (lambda p: sequences.shell_counts(ladder, p), [0.1, 0.1]),
        "kobayashi_bounds": (lambda p: domains.kobayashi_bounds(domains.BallDomain(1), [0.1], p), [0.1, 0.1]),
    }


@pytest.mark.parametrize("point", ["wrong-dimension", "outside"])
@pytest.mark.parametrize("entry", sorted(_routed()))
def test_every_routed_entry_refuses_a_wrong_point(entry, point):
    call, wrong = _routed()[entry]
    call([0.3])  # the context itself is well formed
    with pytest.raises((ParameterError, ValidationError, OutsideDomainError)):
        call(wrong if point == "wrong-dimension" else [1.5])


def test_boundary_schedule_refuses_a_centre_within_the_margin():
    from carleson_lab import measures

    assert len(measures.boundary_schedule(1, 39)) == 78
    with pytest.raises(OutsideDomainError, match="a centre at depth 2\\^-40 "):
        measures.boundary_schedule(1, 40)


def test_the_point_set_rule_has_no_margin():
    # rungs from m = 28 on lie within BOUNDARY_MARGIN of the sphere; a sequence
    # holds them, and one of them may be the base point of a count or a shell fit
    from carleson_lab import sequences

    seq = sequences.PointSequence.radial_ladder(1, 50)
    z0 = seq.points[39]  # rung 40
    assert 1.0 - abs(z0[0]) < g.BOUNDARY_MARGIN
    with pytest.raises(OutsideDomainError):
        g.interior_point(z0)
    assert sequences.count_in_ball(seq, z0, 0.5) >= 1
    assert sequences.shell_counts(seq, z0).counts.sum() == 50


def test_ragged_point_lists_are_input_errors():
    # rows of two lengths, or entries that are not numbers, make no array: the
    # point-set rule names the set
    from carleson_lab import measures, sequences

    for bad in ([[0.1], [0.1, 0.1]], [[{}]], [["a"]]):
        for call, name in ((lambda: sequences.PointSequence(points=bad), "sequence points"),
                           (lambda: measures.Measure.from_atoms(bad, [1.0] * len(bad)), "atoms"),
                           (lambda: measures.Measure(1, bad, [1.0] * len(bad)), "atoms")):
            with pytest.raises(ValidationError, match=f"^{name} must be rows of numbers"):
                call()
    with pytest.raises(ValidationError, match="must be finite"):  # None reads as nan
        sequences.PointSequence(points=[[None]])
    # with a dimension, [] is the empty set of that dimension; no rows of another width are not
    assert g.ball_points([], 3).shape == (0, 3)
    with pytest.raises(ValidationError, match="bad shape"):
        g.ball_points(np.zeros((0, 2)), 3)
