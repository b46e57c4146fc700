import math

import numpy as np
import pytest

from carleson_lab import bergman, cli
from carleson_lab import geometry_ball as g
from carleson_lab import measures as ms
from carleson_lab.errors import ParameterError, ValidationError
from carleson_lab.integrate import EstimateWithError, MCConfig, integrate_density


CFG = MCConfig(seed=11, n_samples=20_000)


# -- Measure model ------------------------------------------------------------

def test_negative_atom_weight_rejected():
    with pytest.raises(ValidationError):
        ms.Measure.from_atoms([[0.1]], [-1.0])


def test_atoms_outside_ball_rejected():
    with pytest.raises(ValidationError):
        ms.Measure.from_atoms([[1.2]], [1.0])


def test_bundled_dirac_ladder_is_pinned():
    # the suite's ladder is the sequence generator's; its atoms and weights are
    # pinned bit for bit to the rungs (1 - e^-m) e_1, capped inside the ball,
    # with weights e^-m(n+1), so cross-check verdicts on it cannot move
    m = np.arange(1, 51, dtype=float)
    radii = np.minimum(-np.expm1(-m), np.nextafter(1.0, 0.0))
    for n in (1, 2):
        mu = dict(ms.bundled_measure_suite(n))["dirac-ladder"]
        u = np.zeros(n, dtype=np.complex128)
        u[0] = 1.0
        assert np.array_equal(mu.atom_points, radii[:, None] * u)
        assert np.array_equal(mu.atom_weights, np.exp(-m) ** (n + 1))
        assert mu.density is None


def _density_mass(mu, cfg):
    return integrate_density(mu.density, mu.dimension, cfg, boundary_pole_order=mu.pole_order)


def test_total_mass_of_volume_is_one():
    est = _density_mass(ms.Measure.lebesgue(2), CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_total_mass_power_density_dim_one():
    # integral of (1 - t^2)^s over the disk = 1 / (1 + s)
    for s in (-0.5, 0.5, 1.0):
        est = _density_mass(ms.Measure.with_power_density(1, s), MCConfig(seed=4, n_samples=60_000))
        assert abs(est.value - 1.0 / (1.0 + s)) < 3 * est.std_error + 1e-12, s


def test_power_density_is_one_exponent():
    # a density is (1 - |w|^2)^s, bit for bit the one-term sum 1.0 * delta**s
    # it replaced, and its pole order is max(0, -s)
    w = g.uniform_round_ball(np.random.default_rng(5), 2, 500) * 0.999
    delta = np.maximum(g.one_minus_norm_sq(w), 0.0)
    for s, pole in ((-0.75, 0.75), (-0.5, 0.5), (0.0, 0.0), (1.5, 0.0)):
        measure = ms.Measure(2, [[0.1, 0.2j]], [2.0], ms.PowerDensity(s))
        assert measure.pole_order == pole and measure.n_atoms == 1
        assert np.array_equal(measure.density(w), 1.0 * delta**s)
        np.testing.assert_allclose(measure.density(w), (1.0 - np.sum(np.abs(w) ** 2, axis=1)) ** s,
                                   rtol=1e-12, atol=0.0)
    # the density of s = 0 is 1 everywhere, at the origin too
    assert np.array_equal(ms.PowerDensity(0.0)(np.zeros((3, 2))), np.ones(3))
    # a density is a value, not a callable
    with pytest.raises(ValidationError):
        ms.Measure(1, [], [], lambda p: np.ones(len(p)))


def test_measure_refuses_non_finite_atoms_and_no_dimension():
    # NaN is not at least 1, so the unit-ball check alone let a NaN coordinate pass
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValidationError, match="finite"):
            ms.Measure(1, [[bad]], [1.0])
    for dimension, points in ((0, []), (0, [[]]), (1, [[]])):
        with pytest.raises(ValidationError):
            ms.Measure(dimension, points, [1.0] if points else [])


def _declared_measure(decl):
    return cli.ExperimentSpec.from_dict({"name": "x", "operation": "berezin", "measure": decl}).measure()


def test_declared_measure_is_the_direct_measure():
    mu = _declared_measure({"dimension": 1, "atoms": [[[0.1, 0.2], 0.5]], "density": {"type": "power", "s": -0.5}})
    direct = ms.Measure(1, np.array([[0.1 + 0.2j]]), np.array([0.5]), ms.PowerDensity(-0.5))
    assert mu.dimension == direct.dimension and mu.density == direct.density and mu.pole_order == 0.5
    assert np.array_equal(mu.atom_points, direct.atom_points)
    assert np.array_equal(mu.atom_weights, direct.atom_weights)
    # no atoms and no density: an empty measure of the declared dimension
    bare = _declared_measure({"dimension": 2, "density": "none"})
    assert bare.atom_points.shape == (0, 2) and bare.n_atoms == 0 and bare.density is None


# -- measure_of_ball ----------------------------------------------------------

def test_ball_mass_of_volume_matches_volume():
    ball = g.kobayashi_ball([0.5], 0.4)
    est = ms.measure_of_ball(ms.Measure.lebesgue(1), ball, CFG)
    assert abs(est.value - ball.volume) < 3 * est.std_error + 1e-12


def test_ball_mass_counts_atoms_exactly():
    ball0 = g.kobayashi_ball(np.zeros(1), 0.4)
    mu = ms.Measure.dirac([0.0])
    assert ms.measure_of_ball(mu, ball0, CFG).value == 1.0
    # rho(0, 0.6) = 0.6 > 0.2: the atom is outside that ball
    ball6 = g.kobayashi_ball([0.6], 0.2)
    assert ms.measure_of_ball(mu, ball6, CFG).value == 0.0


def test_ball_mass_additive():
    ball = g.kobayashi_ball([0.2], 0.5)
    mu1 = ms.Measure.dirac([0.1], 0.4)
    mu2 = ms.Measure.lebesgue(1)
    a = ms.measure_of_ball(mu1, ball, CFG)
    b = ms.measure_of_ball(mu2, ball, CFG)
    both = ms.measure_of_ball(ms.Measure(1, mu1.atom_points, mu1.atom_weights, mu2.density), ball, CFG)
    assert both.value == pytest.approx(a.value + b.value, rel=1e-10)


# -- schedules ----------------------------------------------------------------

def test_boundary_schedule_depths():
    centers = ms.boundary_schedule(2, k_max=5)
    assert len(centers) == 10  # radial + tangential per depth
    radial = centers[0::2]
    for k, c in enumerate(radial, start=1):
        assert 1.0 - np.linalg.norm(c) == pytest.approx(2.0**-k, rel=1e-12)
    # all interior
    assert all(np.linalg.norm(c) < 1 for c in centers)


# -- ratio test ---------------------------------------------------------------

def test_ratio_test_volume_is_flat():
    res = ms.carleson_ratio_test(ms.Measure.lebesgue(1), 0.5, ms.boundary_schedule(1, 8), CFG)
    assert res.verdict == "pass"
    for row in res.rows:
        assert row["value"] == pytest.approx(1.0, abs=1e-12)
    assert res.slope == pytest.approx(0.0, abs=1e-9)


def test_ratio_test_divergent_density():
    mu = ms.Measure.with_power_density(1, -0.5)
    res = ms.carleson_ratio_test(mu, 0.5, ms.boundary_schedule(1, 12), MCConfig(seed=2, n_samples=20_000))
    assert res.verdict == "fail"
    assert res.slope == pytest.approx(-0.5, abs=0.15)


def test_ratio_test_subunit_density_passes():
    mu = ms.Measure.with_power_density(1, 0.5)
    res = ms.carleson_ratio_test(mu, 0.5, ms.boundary_schedule(1, 12), CFG)
    assert res.verdict == "pass"
    assert max(row["value"] for row in res.rows) <= 1.0 + 1e-6


def test_ratio_test_validates_radius():
    with pytest.raises(ParameterError):
        ms.carleson_ratio_test(ms.Measure.lebesgue(1), 1.2, ms.boundary_schedule(1, 4), CFG)


# -- berezin test -------------------------------------------------------------

def test_berezin_test_volume():
    res = ms.carleson_berezin_test(ms.Measure.lebesgue(1), ms.boundary_schedule(1, 8), CFG)
    assert res.verdict == "pass"
    assert abs(res.sup.value - 1.0) < 4 * res.sup.std_error + 0.02


def test_berezin_test_dirac_sup_at_origin():
    mu = ms.Measure.dirac([0.0])
    probes = [np.zeros(1)] + ms.boundary_schedule(1, 8)
    res = ms.carleson_berezin_test(mu, probes, CFG)
    assert res.sup.value == pytest.approx(1.0, abs=1e-12)
    assert res.verdict == "pass"


def test_berezin_test_divergent_density():
    mu = ms.Measure.with_power_density(1, -0.5)
    res = ms.carleson_berezin_test(mu, ms.boundary_schedule(1, 12), MCConfig(seed=5, n_samples=30_000))
    assert res.verdict == "fail"


def test_berezin_test_probes_at_one_depth():
    # probes at one depth leave no line to fit: the rows and sup stand, the slope is nan
    res = ms.carleson_berezin_test(ms.Measure.dirac([0.0]), [[0.5], [0.5j], [-0.5]], CFG)
    assert [row["value"] for row in res.rows] == pytest.approx([0.5625] * 3, rel=1e-12)
    assert res.sup.value == res.rows[0]["value"]
    assert math.isnan(res.slope) and math.isnan(res.slope_se)


def test_no_fitted_line_is_inconclusive():
    # the deep rows equal the median (growth 1), which passes a fitted line;
    # with no line to fit, there is no verdict
    res = ms.carleson_berezin_test(ms.Measure.dirac([0.0]), [[0.5], [0.5j], [-0.5]], MCConfig(seed=0, n_samples=1000))
    assert math.isnan(res.slope) and res.growth == 1.0
    assert res.verdict == "inconclusive"


# -- functional test ----------------------------------------------------------

def test_functional_constant_for_volume_is_one():
    mu = ms.Measure.lebesgue(1)
    kernels = ms.carleson_berezin_test(mu, ms.boundary_schedule(1, 8), CFG)
    constant = ms.carleson_functional_test(mu, kernels, CFG, seed=3)
    assert kernels.verdict == "pass"
    assert constant.value < 1.2


def test_functional_dirac_kernel_ratios():
    # mu = delta_0, f = k_z: ratio = |k_z(0)|^2 = (1 - ||z||^2)^(n+1) <= 1
    mu = ms.Measure.dirac([0.0])
    kernels = ms.carleson_berezin_test(mu, ms.boundary_schedule(1, 6), CFG)
    for row in kernels.rows:
        assert row["value"] <= 1.0 + 1e-12
    assert ms.carleson_functional_test(mu, kernels, CFG, n_polynomials=0).value <= 1.0 + 1e-12


def test_functional_kernel_rows_are_the_berezin_rows():
    # the ratio of k_c is the Berezin transform at c, so over the kernel family
    # alone the embedding constant is the Berezin test's sup, field for field;
    # the Berezin rows are pinned against direct transforms
    mu = ms.Measure.with_power_density(1, 0.5)
    centers = ms.boundary_schedule(1, 6)
    kernels = ms.carleson_berezin_test(mu, centers, CFG)
    want = []
    for c in centers:
        est = bergman.berezin_transform(mu, c, CFG)
        want.append((1.0 - float(np.linalg.norm(c)), float(np.real(est.value)), est.std_error))
    assert [(r["d"], r["value"], r["std_error"]) for r in kernels.rows] == want
    assert ms.carleson_functional_test(mu, kernels, CFG, n_polynomials=0, seed=1) == kernels.sup
    # with polynomials, the constant is the larger of that sup and the polynomial
    # ratios: integral |p|^2 dmu / ||p||^2, each one MC integral at cfg
    rng = np.random.default_rng(1)
    ratios = []
    for _ in range(2):
        alphas, coeffs = bergman.random_polynomial(1, 2, rng)
        est = integrate_density(lambda p: np.abs(bergman.evaluate_polynomial(alphas, coeffs, p)) ** 2 * mu.density(p),
                                1, CFG, boundary_pole_order=mu.pole_order)
        norm_sq = bergman.polynomial_norm_sq(alphas, coeffs, 1)
        ratios.append(EstimateWithError(float(np.real(est.value)) / norm_sq, est.std_error / norm_sq, CFG.n_samples))
    constant = ms.carleson_functional_test(mu, kernels, CFG, n_polynomials=2, seed=1)
    assert constant == max([kernels.sup, *ratios], key=lambda e: e.value)


# -- cross-check --------------------------------------------------------------

def fast_config():
    return ms.CrossCheckConfig(k_max=10, ball_samples=4_000, global_samples=8_000, n_polynomials=4)


def test_cross_check_volume_passes_and_agrees():
    verdict = ms.cross_check_equivalence(ms.Measure.lebesgue(1), fast_config())
    assert verdict.agreement
    assert verdict.overall == "pass"
    assert verdict.defect is None


def test_cross_check_divergent_fails_and_agrees():
    verdict = ms.cross_check_equivalence(ms.Measure.with_power_density(1, -0.5), fast_config())
    assert verdict.agreement
    assert verdict.overall == "fail"


def test_verdict_derives_agreement_from_the_verdicts():
    # agreement, defect and overall are read off the two votes, never stored beside them
    split = ms.CarlesonVerdict({"berezin": "pass", "ratio": "fail"}, {}, None, None)
    assert not split.agreement and split.overall == "inconclusive"
    assert split.defect == "conclusive tests disagree: berezin=pass, ratio=fail"
    partial = ms.CarlesonVerdict({"berezin": "inconclusive", "ratio": "fail"}, {}, None, None)
    assert partial.agreement and partial.defect is None and partial.overall == "fail"
    neither = ms.CarlesonVerdict({"berezin": "inconclusive", "ratio": "inconclusive"}, {}, None, None)
    assert neither.agreement and neither.overall == "inconclusive"


def test_cross_check_json_and_rows():
    verdict = ms.cross_check_equivalence(ms.Measure.lebesgue(1), fast_config())
    d = verdict.to_json_dict()
    assert set(d) == {"berezin_sup", "ratio_sup", "functional_constant", "verdicts", "agreement", "defect",
                      "overall"}
    # two votes; the written "functional" key repeats the Berezin vote, first, as the parent wrote it
    assert list(verdict.verdicts) == ["berezin", "ratio"]
    assert list(d["verdicts"].items()) == [("functional", verdict.verdicts["berezin"]), *verdict.verdicts.items()]
    # each sup is the largest row value of its own test
    assert set(d["ratio_sup"]) == {str(r) for r in fast_config().r_values}
    for r, res in verdict.ratio_results.items():
        assert d["ratio_sup"][str(r)] == max(row["value"] for row in res.rows)
    assert d["berezin_sup"]["value"] == max(row["value"] for row in verdict.berezin_result.rows)
    # the embedding constant is the functional test's over the Berezin rows and the polynomials
    cfg = fast_config()
    constant = ms.carleson_functional_test(ms.Measure.lebesgue(1), verdict.berezin_result, cfg.global_cfg(),
                                           n_polynomials=cfg.n_polynomials, seed=cfg.seed)
    assert verdict.functional_constant == constant
    assert d["functional_constant"] == {"value": constant.value, "std_error": constant.std_error}
    assert constant.value >= d["berezin_sup"]["value"]
    rows = verdict.schedule_rows()
    assert rows and set(rows[0]) == {"center", "d", "ratio", "berezin"}


def test_verdict_scale_invariance():
    # scaling the measure scales the statistics but not the verdicts
    ladder = dict(ms.bundled_measure_suite(1))["dirac-ladder"]
    base = ms.cross_check_equivalence(ladder, fast_config())
    scaled = ms.cross_check_equivalence(ms.Measure.from_atoms(ladder.atom_points, 7.0 * ladder.atom_weights),
                                        fast_config())
    assert scaled.verdicts == base.verdicts
    assert scaled.berezin_sup.value == pytest.approx(7.0 * base.berezin_sup.value, rel=1e-9)
    assert scaled.functional_constant.value == pytest.approx(7.0 * base.functional_constant.value, rel=1e-9)
    for r, sup in base.ratio_sup.items():
        assert scaled.ratio_sup[r] == pytest.approx(7.0 * sup, rel=1e-9)


def test_atomic_statistics_scale_exactly():
    mu = ms.Measure.from_atoms([[0.1], [0.3]], [1.0, 0.5])
    ball = g.kobayashi_ball([0.2], 0.5)
    tripled = ms.Measure.from_atoms([[0.1], [0.3]], [3.0, 1.5])
    base = ms.measure_of_ball(mu, ball, CFG).value
    scaled = ms.measure_of_ball(tripled, ball, CFG).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-15)
    b1 = ms.carleson_berezin_test(mu, ms.boundary_schedule(1, 5), CFG)
    b3 = ms.carleson_berezin_test(tripled, ms.boundary_schedule(1, 5), CFG)
    assert b3.sup.value == pytest.approx(3.0 * b1.sup.value, rel=1e-12)
    assert b3.verdict == b1.verdict


def test_bundled_suite_composition():
    suite = ms.bundled_measure_suite(1)
    names = [name for name, _ in suite]
    assert "lebesgue" in names and "dirac-ladder" in names
    assert sum(1 for n in names if n.startswith("power")) == 3
