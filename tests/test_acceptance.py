"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from carleson_lab import bergman, cli, domains, geometry_ball as geom, invariant_measure, measures, sequences
from carleson_lab.integrate import MCConfig
from textbook_rho import rho_block


def report(idx, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {idx:2d} {name:34s} {status}  {detail}")
    assert ok, f"criterion {idx} ({name}): {detail}"


def test_01_ball_volume_identity():
    started = time.monotonic()
    n_samples = 100_000
    worst = 0.0
    cell = 0
    for n in (1, 2, 3):
        for t in (0.0, 0.3, 0.6, 0.9):
            z0 = np.zeros(n, dtype=complex)
            z0[0] = t
            pts_rng = np.random.default_rng(np.random.SeedSequence(entropy=777, spawn_key=(cell,)))
            pts = geom.uniform_round_ball(pts_rng, n, n_samples)
            rho = geom.pseudo_distance_many(z0, pts)
            for r in (0.2, 0.5, 0.8):
                vol = geom.ball_volume(z0, r)
                frac = float(np.mean(rho < r))
                sigma = math.sqrt(vol * (1.0 - vol) / n_samples)
                worst = max(worst, abs(frac - vol) / (3.0 * sigma + 1e-12))
            cell += 1
    elapsed = time.monotonic() - started
    report(1, "ball-volume identity", worst <= 1.0 and elapsed < 30.0,
           f"worst |mc-exact|/3sigma = {worst:.3f}, {elapsed:.1f}s")


def test_02_berezin_normalization():
    started = time.monotonic()
    worst = 0.0
    for n in (1, 2):
        nu = measures.Measure.lebesgue(n)
        for k, d in enumerate((0.5, 0.1, 0.01)):
            z = np.zeros(n, dtype=complex)
            z[0] = 1.0 - d
            est = bergman.berezin_transform(nu, z, MCConfig(seed=100 + k + 10 * n, n_samples=100_000))
            worst = max(worst, abs(est.value - 1.0) / (3.0 * est.std_error))
    elapsed = time.monotonic() - started
    report(2, "Berezin normalization", worst <= 1.0 and elapsed < 60.0,
           f"worst |B-1|/3sigma = {worst:.3f}, {elapsed:.1f}s")


def test_03_reproducing_property():
    cfg = MCConfig(seed=555, n_samples=200_000)
    worst = 0.0
    cases = 0
    for n in (1, 2):
        probes = [np.zeros(n, dtype=complex)]
        z1 = np.zeros(n, dtype=complex)
        z1[0] = 0.3
        probes.append(z1)
        if n == 2:
            z2 = np.zeros(n, dtype=complex)
            z2[1] = 0.5
            probes.append(z2)
        for z in probes:
            for alpha in bergman.monomial_exponents(n, 2):
                est, expected = bergman.reproducing_check(z, alpha, cfg)
                worst = max(worst, abs(est.value - expected) / (3.0 * est.std_error + 1e-12))
                cases += 1
    report(3, "reproducing property", worst <= 1.0, f"{cases} cases, worst ratio {worst:.3f}")


def test_04_carleson_cross_consistency():
    started = time.monotonic()
    config = measures.CrossCheckConfig(
        r_values=(0.3, 0.5, 0.7), k_max=12, ball_samples=8_000, global_samples=12_000,
        n_polynomials=6, seed=42,
    )
    expected = {
        "lebesgue": "pass",
        "power(-0.5)": "fail",
        "power(+0.5)": "pass",
        "power(+1)": "pass",
        "dirac-ladder": "pass",
    }
    problems = []
    slope_mid = None
    for name, mu in measures.bundled_measure_suite(1):
        verdict = measures.cross_check_equivalence(mu, config)
        if not verdict.agreement:
            problems.append(f"{name}: disagreement {verdict.verdicts}")
        if verdict.overall != expected[name]:
            problems.append(f"{name}: got {verdict.overall}, want {expected[name]}")
        if name == "power(-0.5)":
            slope_mid = verdict.ratio_results[0.5].slope
    slope_ok = slope_mid is not None and abs(slope_mid + 0.5) <= 0.15
    if not slope_ok:
        problems.append(f"divergent-measure slope {slope_mid}")
    elapsed = time.monotonic() - started
    report(4, "Carleson test cross-consistency", not problems and elapsed < 300.0,
           f"slope {slope_mid:.3f}, {elapsed:.1f}s {problems}")


def test_05_kernel_estimates():
    upper_ok = True
    for n in (1, 2, 3):
        rep = bergman.check_kernel_upper(n, n_points=4_000)
        (what, deviation, _, _), = rep.gates
        upper_ok = upper_ok and rep.passed and what == "identity_deviation" and deviation < 1e-12
    violations = 0
    worst_ratio = math.inf
    total = 0
    for n in (1, 2):
        rep = bergman.check_kernel_lower(n, samples_per_cell=10_000, seed=321)
        (what, count, _, _), = rep.gates
        assert what == "violations"
        violations += count
        worst_ratio = min(worst_ratio, rep.statistic)
        total += rep.n_samples
    report(5, "kernel estimates", upper_ok and violations == 0,
           f"{total} lower samples, zero violations, min ratio {worst_ratio:.2f}")


def test_06_greedy_decomposition():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    r = 0.3
    bad = 0
    for _ in range(100):
        pts = geom.uniform_round_ball(rng, 1, 500) * 0.98
        seq = sequences.PointSequence(points=pts)
        dec = sequences.greedy_decompose(seq, r)
        rho = rho_block(pts, pts)
        np.fill_diagonal(rho, np.inf)
        for cls in dec.classes():
            if len(cls) >= 2 and rho[np.ix_(cls, cls)].min() < r:
                bad += 1
        counts = (rho < r).sum(axis=1) + 1  # ball count includes the point itself
        if dec.n_colors > counts.max():
            bad += 1
    elapsed = time.monotonic() - started
    report(6, "greedy decomposition", bad == 0 and elapsed < 60.0,
           f"100 clouds x 500 points, {elapsed:.1f}s")


ACCEPTANCE_SEQUENCES = [
    ("ladder-disk", lambda: sequences.PointSequence.radial_ladder(1, 50)),
    ("ladder-ball2", lambda: sequences.PointSequence.radial_ladder(2, 30)),
    ("packing-disk", lambda: sequences.PointSequence.maximal_packing(1, 0.5, 1e-3, seed=8)),
    ("packing-ball2", lambda: sequences.PointSequence.maximal_packing(2, 0.9, 0.008, seed=8)),
]


def test_07_discrete_sequence_chain():
    started = time.monotonic()
    config = measures.CrossCheckConfig(
        k_max=12, ball_samples=6_000, global_samples=10_000, n_polynomials=4, seed=7,
    )
    problems = []
    for name, build in ACCEPTANCE_SEQUENCES:
        seq = build()
        mu = sequences.dirac_carleson_measure(seq)
        verdict = measures.cross_check_equivalence(mu, config)
        if verdict.overall != "pass" or not verdict.agreement:
            problems.append(f"{name}: {verdict.verdicts}")
        res = sequences.escape_sum(seq, exponent="n+1")
        if name.startswith("ladder"):
            if res.last_decade_increment >= 1e-6:
                problems.append(f"{name}: increment {res.last_decade_increment:.2e}")
        else:
            # finite-depth packings cannot reach 1e-6 tails at desk scale;
            # see the decisions ledger for the envelope computation
            if res.last_decade_increment >= 1e-3:
                problems.append(f"{name}: increment {res.last_decade_increment:.2e}")
    ladder_mass = sequences.escape_sum(sequences.PointSequence.radial_ladder(1, 50), exponent="n+1").total
    mass_err = abs(ladder_mass - 1.0 / (math.e**2 - 1.0))
    if mass_err >= 1e-6:
        problems.append(f"ladder mass error {mass_err:.2e}")
    if abs(ladder_mass - 0.156518) >= 1e-6:
        problems.append(f"ladder mass {ladder_mass}")
    elapsed = time.monotonic() - started
    report(7, "discrete sequence chain", not problems, f"{elapsed:.1f}s {problems}")


def test_08_escape_rate_and_shells():
    lad = sequences.PointSequence.radial_ladder(1, 50)
    res = sequences.escape_sum(lad, weight=sequences.EscapeWeight.power(2.0), exponent="n")
    oracle = float(mpmath.polylog(2, math.exp(-1.0)))
    sum_ok = abs(res.total - oracle) <= 1e-4 and abs(res.total - 0.40875) <= 1e-4
    slopes = {}
    slope_ok = True
    shell_bundle = [
        ("ladder-disk", sequences.PointSequence.radial_ladder(1, 50)),
        ("ladder-ball2", sequences.PointSequence.radial_ladder(2, 30)),
        ("packing-disk", sequences.PointSequence.maximal_packing(1, 0.5, 1e-3, seed=8)),
        ("lattice-disk", sequences.PointSequence.perturbed_lattice(1, spacing=0.1, seed=8)),
    ]
    for name, seq in shell_bundle:
        sc = sequences.shell_counts(seq)
        slopes[name] = round(sc.slope, 3) if math.isfinite(sc.slope) else sc.slope
        if math.isfinite(sc.slope) and sc.slope > seq.dimension + 0.2:
            slope_ok = False
    report(8, "escape rate and shell growth", sum_ok and slope_ok,
           f"sum {res.total:.6f} vs {oracle:.6f}, slopes {slopes}")


def test_09_covering():
    started = time.monotonic()
    problems = []
    for n in (1, 2):
        rep = sequences.greedy_cover(n, 0.1, 0.5, seed=11, n_probes=10_000)
        if not rep.net_certified:
            problems.append(f"n={n}: net not certified")
        if rep.uncovered != 0:
            problems.append(f"n={n}: {rep.uncovered} uncovered probes")
        if abs(rep.multiplicity_refined - rep.multiplicity) > 1:
            problems.append(
                f"n={n}: multiplicity drift {rep.multiplicity} -> {rep.multiplicity_refined}"
            )
        # exact pairwise disjointness of the selected (r/3)-balls
        c = rep.centers
        worst = math.inf
        for i0 in range(0, len(c), 512):
            rho = rho_block(c[i0 : i0 + 512], c)
            for i in range(rho.shape[0]):
                rho[i, i0 + i] = np.inf
            worst = min(worst, float(rho.min()))
        if worst < rep.disjoint_threshold:
            problems.append(f"n={n}: center separation {worst} below {rep.disjoint_threshold}")
    elapsed = time.monotonic() - started
    report(9, "covering with bounded multiplicity", not problems, f"{elapsed:.1f}s {problems}")


def test_10_invariant_ball_measure():
    cfg = MCConfig(seed=77, n_samples=120_000)
    est = invariant_measure.ek_ball_measure([0.0], 0.5, cfg)
    exact_ok = abs(est.value - 1.0 / 3.0) <= 3.0 * est.std_error
    base = est
    inv_ok = True
    for c in ([0.3], [0.5j], [0.7]):
        e = invariant_measure.ek_ball_measure(c, 0.5, cfg)
        if abs(e.value - base.value) > 3.0 * math.hypot(e.std_error, base.std_error):
            inv_ok = False
    rep = invariant_measure.check_ek_bounds(1, cfg=MCConfig(seed=78, n_samples=40_000))
    closed_ok = rep.passed is True
    report(10, "invariant ball measure", exact_ok and inv_ok and closed_ok,
           f"kappa(B(0,.5)) = {est.value:.6f} +- {est.std_error:.1e}")


def test_11_verify_quick_deterministic(tmp_path):
    started = time.monotonic()
    rc1 = cli.main(["verify", "quick", "--seed", "5", "--out", str(tmp_path / "a")])
    rc2 = cli.main(["verify", "quick", "--seed", "5", "--out", str(tmp_path / "b")])
    same = (tmp_path / "a" / "verify_results.csv").read_bytes() == (
        tmp_path / "b" / "verify_results.csv"
    ).read_bytes()
    elapsed = time.monotonic() - started
    report(11, "deterministic quick verification",
           rc1 == 0 and rc2 == 0 and same and elapsed < 60.0,
           f"two runs, byte-identical CSV, {elapsed:.1f}s")
