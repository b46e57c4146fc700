"""The verification table: one pass/fail row per result of the paper.

Each row runs library checkers at a suite's budget and seed and folds their
reports into one :class:`CheckReport` by stating its gates, never a verdict:
the report passes iff every gate holds.  A row that runs one checker over
several cases takes the worst statistic against the checker's bound and each
case's further gates, named by case (:func:`_over_cases`); a row adds a gate of
its own only where it tests more than the checker decides.  :func:`run_suite`
prints the table and writes ``verify_results.{csv,json}``, which record every
gate, so each verdict can be re-derived from them.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bergman, domains, geometry_ball as geom, invariant_measure, measures, sequences
from .integrate import MCConfig, integrate_over_balls
from .reports import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, CheckReport, json_default, write_csv

# escape-series target: sum of e^-m / m^2, cross-checked in the test suite
# against a dilogarithm quadrature oracle
LADDER_WEIGHTED_SUM = 0.4087542873488963

# the cross-check verdict each bundled measure must reach
CARLESON_EXPECTED = {
    "lebesgue": "pass",
    "power(-0.5)": "fail",
    "power(+0.5)": "pass",
    "power(+1)": "pass",
    "dirac-ladder": "pass",
}


def _axis_point(n: int, t: float) -> np.ndarray:
    """(t, 0, ..., 0) in C^n."""
    z0 = np.zeros(n, dtype=complex)
    z0[0] = t
    return z0


def _over_cases(name: str, cases: dict[str, CheckReport], details: dict) -> CheckReport:
    """One row from a checker run over several cases, keyed by their labels: the
    worst of their statistics against the checker's bound (the largest against
    an upper bound; np.max and np.min keep a NaN), and each case's further gates
    with its label appended."""
    reps = list(cases.values())
    worst = np.max if "<" in reps[0].comparison else np.min
    return CheckReport(
        name, worst([r.statistic for r in reps]), reps[0].comparison, reps[0].bound, sum(r.n_samples for r in reps),
        0.0, details, [(f"{what} {label}", *gate) for label, r in cases.items() for what, *gate in r.gates],
    )


def _row_kernel_reproducing(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    cases = []
    drawn = 0
    for z, alpha in (([0.0], (1,)), ([0.3], (2,)), ([0.0, 0.5], (1, 0)), ([0.3, 0.0], (0, 2))):
        est, expected = bergman.reproducing_check(z, alpha, cfg)
        cases.append({"z": z, "alpha": alpha, "ratio": abs(est.value - expected) / (3 * est.std_error + 1e-12)})
        drawn += est.n_effective
    worst = max(c["ratio"] for c in cases)
    return CheckReport("kernel-reproducing", worst, "<=", 1.0, drawn, 0.0, {"seed": seed, "cases": cases})


def _row_volume_sandwich(budget, seed) -> CheckReport:
    worst_low, worst_high = math.inf, 0.0
    checked = 0
    for n in (1, 2, 3):
        for t in (0.0, 0.3, 0.6, 0.9):
            z0 = _axis_point(n, t)
            for r in (0.2, 0.5, 0.8):
                ratio = geom.ball_volume(z0, r) / (r ** (2 * n) * (1.0 - t) ** (n + 1))
                worst_low = min(worst_low, ratio)
                worst_high = max(worst_high, ratio * ((1 - r * r) / 2.0) ** (n + 1))
                checked += 1
    # sandwich: 1 <= vol / (r^2n d^(n+1)) <= (2 / (1 - r^2))^(n+1)
    gates = [("upper", worst_high, "<=", 1.0 + 1e-12)]
    # Monte Carlo cross-check on a few cells: the hit fraction lies within
    # three binomial standard errors of the volume
    rng = np.random.default_rng(seed)
    for n, t, r in ((1, 0.6, 0.5), (2, 0.3, 0.7)):
        z0 = _axis_point(n, t)
        pts = geom.uniform_round_ball(rng, n, budget["mc"])
        frac = float(np.mean(geom.pseudo_distance_many(z0, pts) < r))
        vol = geom.ball_volume(z0, r)
        gates.append((f"miss n={n} t={t} r={r}", abs(frac - vol), "<=",
                      3 * math.sqrt(vol * (1 - vol) / budget["mc"]) + 1e-12))
    return CheckReport(
        "volume-sandwich", worst_low, ">=", 1.0 - 1e-12, checked + 2 * budget["mc"], 0.0, {"seed": seed}, gates,
    )


def _row_distance_comparison(budget, seed) -> CheckReport:
    reps = {f"n={n} t={t} r={r}": domains.check_distance_comparison(
        domains.BallDomain(n), _axis_point(n, t), r, budget["samples"], seed)
        for n in (1, 2) for t in (0.0, 0.5, 0.9) for r in (0.3, 0.5, 0.7)}
    return _over_cases("distance-comparison", reps, {"seed": seed})


def _row_ball_inequality(budget, seed) -> CheckReport:
    rng = np.random.default_rng(seed)
    reps = {}
    for k in range(budget["cells"]):
        n = int(rng.integers(1, 4))
        z0 = geom.uniform_round_ball(rng, n, 1)[0] * 0.97
        r = float(rng.uniform(0.05, 0.95))
        reps[f"cell={k}"] = geom.check_lemma_ball_inequality(z0, r, n_samples=budget["samples"], seed=seed + k)
    return _over_cases("ball-inequality", reps, {"seed": seed})


def _row_defining_fn(budget, seed) -> CheckReport:
    # the fitted constant scales like 1 - r^2: its spread over r stays within a decade
    radii = (0.2, 0.5, 0.8)
    reps = [domains.check_defining_fn_inequality(domains.BallDomain(1), [0.7], r, budget["samples"], seed)
            for r in radii]
    fits = [rep.statistic / (1 - r * r) for rep, r in zip(reps, radii)]
    ell = domains.EllipsoidDomain([1.5, 1.0])
    reps.append(domains.check_defining_fn_inequality(ell, [0.3 + 0.1j], 0.4, max(budget["samples"] // 4, 100), seed))
    spread = max(fits) / min(fits)
    labels = [f"ball r={r}" for r in radii] + ["ellipsoid r=0.4"]
    return CheckReport(
        "defining-fn-bound", spread, "<", 10.0, sum(rep.n_samples for rep in reps), 0.0, {"fits": fits},
        [(f"c_fit {label}", rep.statistic, rep.comparison, rep.bound) for label, rep in zip(labels, reps)],
    )


def _row_covering(budget, seed) -> CheckReport:
    return sequences.greedy_cover(1, 0.1, 0.5, seed=seed, n_probes=budget["probes"]).report()


def _row_submean_ball(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    reps = [bergman.check_submean(2, z0, r, cfg, seed=seed + k)
            for k, (z0, r) in enumerate((([0.3], 0.5), ([0.0, 0.5], 0.4), ([0.7], 0.6)))]
    worst = min(rep.statistic for rep in reps)
    # a noisy case cannot fail the row: a non-positive worst slack beside any
    # inconclusive case leaves the row inconclusive
    return CheckReport(
        "submean-ball", worst, reps[0].comparison, reps[0].bound, sum(rep.n_samples for rep in reps), 0.0,
        {"seed": seed}, inconclusive=worst <= 0 and any(rep.inconclusive for rep in reps),
    )


def _row_submean_mean(budget, seed) -> CheckReport:
    # mean-comparison constant fitted on metric balls stays below the derived
    # (8 / (1 - r^2))^(n+1) envelope
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    worst = 0.0
    drawn = 0
    for k, (z0, r) in enumerate((([0.3], 0.5), ([0.6], 0.3), ([0.0, 0.4], 0.5))):
        rep = bergman.check_submean(2, z0, r, cfg, seed=seed + 17 + k)
        bound = (8.0 / (1 - r * r)) ** (len(z0) + 1)
        worst = max(worst, rep.details["fitted_mean_constant"] / bound)
        drawn += rep.n_samples
    return CheckReport("submean-mean-comparison", worst, "<=", 1.0, drawn, 0.0, {"seed": seed})


def _row_submean_neighbor(budget, seed) -> CheckReport:
    # chi on B(z0, r) is controlled by the mean over B(z0, (1+r)/2)
    rng = np.random.default_rng(seed)
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    worst = 0.0
    drawn = 0
    for z0_l, r in (([0.3], 0.4), ([0.5], 0.5)):
        z0 = np.asarray(z0_l, dtype=complex)
        alphas, coeffs = bergman.random_polynomial(z0.size, 2, rng)

        def chi(pts):
            return np.abs(bergman.evaluate_polynomial(alphas, coeffs, pts)) ** 2

        inner = geom.sample_ball_uniform(geom.kobayashi_ball(z0, r), 512, rng)
        sup_chi = float(np.max(chi(inner)))
        est = integrate_over_balls(chi, [geom.kobayashi_ball(z0, 0.5 * (1 + r))], cfg)[0]
        worst = max(worst, sup_chi * geom.ball_volume(z0, r) / float(np.real(est.value)))
        drawn += len(inner) + est.n_effective
    return CheckReport("submean-neighbor", worst, "<", math.inf, drawn, 0.0, {"seed": seed},
                       [("positive", worst, ">", 0.0)])


def _row_kernel_upper(budget, seed) -> CheckReport:
    reps = {f"n={n}": bergman.check_kernel_upper(n, n_points=budget["points"]) for n in (1, 2, 3)}
    return _over_cases("kernel-upper", reps, {})


def _row_kernel_lower(budget, seed) -> CheckReport:
    # |K(z, z0)| d(z0)^(n+1) >= sqrt(kernel_lower_bound(r, n)) on the cells of
    # check_kernel_lower.  There |z0| = 1 - d, so |k_z0|^2 = |K(., z0)|^2 (d (2 - d))^(n+1)
    # and a cell's squared ratio is its normalised one over (2 - d)^(n+1).
    ratios = []
    total = 0
    for n in (1, 2):
        rep = bergman.check_kernel_lower(n, samples_per_cell=budget["samples"], seed=seed)
        ratios += [math.sqrt(c["min_ratio"] / (2.0 - c["depth"]) ** (n + 1)) for c in rep.details["cells"]]
        total += rep.n_samples
    return CheckReport("kernel-lower", min(ratios), rep.comparison, rep.bound, total, 0.0, {"seed": seed})


def _row_kernel_lower_normalized(budget, seed) -> CheckReport:
    reps = {f"n={n}": bergman.check_kernel_lower(n, samples_per_cell=budget["samples"], seed=seed) for n in (1, 2)}
    return _over_cases("normalized-kernel-lower", reps, {})


def _row_carleson_equivalence(budget, seed) -> CheckReport:
    config = replace(budget["cross_check"], seed=seed)
    suite = [(name, mu) for name, mu in measures.bundled_measure_suite(1) if name in budget["measures"]]
    bad = []
    disagreements = 0
    drawn = 0
    for name, mu in suite:
        verdict = measures.cross_check_equivalence(mu, config)
        disagreements += not verdict.agreement
        if verdict.overall != CARLESON_EXPECTED[name]:
            bad.append({"measure": name, "got": verdict.overall, "want": CARLESON_EXPECTED[name]})
        if mu.density is not None:  # a draw per ratio radius, Berezin probe and test polynomial; atoms draw none
            drawn += (len(config.r_values) * config.ball_samples
                      + (len(verdict.berezin_result.rows) + config.n_polynomials) * config.global_samples)
    return CheckReport(
        "carleson-equivalence", len(bad) + disagreements, "==", 0.0, drawn, 0.0,
        {"mismatches": bad, "suite_size": len(suite)},
    )


def _row_greedy_decomposition(budget, seed) -> CheckReport:
    rng = np.random.default_rng(seed)
    r = 0.3
    worst_sep = math.inf
    over_count = 0
    for _ in range(budget["clouds"]):
        pts = geom.uniform_round_ball(rng, 1, budget["cloud_size"]) * 0.98
        seq = sequences.PointSequence(points=pts)
        dec = sequences.greedy_decompose(seq, r)
        for cls in dec.classes():
            if len(cls) >= 2:
                rho = sequences.pseudo_block(pts[cls], pts[cls])
                np.fill_diagonal(rho, 1.0)
                worst_sep = min(worst_sep, float(rho.min()) / r)
        # no more classes than the fullest r-ball about a point holds points
        over_count += dec.n_colors > int(sequences.count_in_balls(seq, pts, r).max())
    return CheckReport(
        "greedy-decomposition", worst_sep, ">=", 1.0, budget["clouds"] * budget["cloud_size"], 0.0, {"seed": seed},
        [("clouds_over_ball_count", over_count, "==", 0)],
    )


@functools.lru_cache(maxsize=1)
def _bundled_sequences(disk_eps, ball2_eps, seed) -> tuple:
    """The (name, sequence) pairs four rows share, built once per run; the
    two-dimensional packing only when ``ball2_eps`` is set."""
    out = [
        ("ladder-disk", sequences.PointSequence.radial_ladder(1, 50)),
        ("ladder-ball2", sequences.PointSequence.radial_ladder(2, 30)),
        ("packing-disk", sequences.PointSequence.maximal_packing(1, 0.5, disk_eps, seed=seed)),
    ]
    if ball2_eps is not None:
        out.append(("packing-ball2", sequences.PointSequence.maximal_packing(2, 0.9, ball2_eps, seed=seed)))
    return tuple(out)


def _row_discrete_chain(budget, seed) -> CheckReport:
    config = replace(budget["cross_check"], n_polynomials=4, seed=seed)
    failures = []
    bundle = _bundled_sequences(budget["disk_eps"], budget["ball2_eps"], seed)
    for name, seq in bundle:
        verdict = measures.cross_check_equivalence(sequences.dirac_carleson_measure(seq), config)
        if verdict.overall != "pass" or not verdict.agreement:
            failures.append({"sequence": name, "verdicts": verdict.verdicts})
        # ball counts stay finite and stable under probe refinement
        probes = seq.points[:: max(len(seq) // 16, 1)]
        most = int(sequences.count_in_balls(seq, probes, 0.5).max())
        if most > 10_000:
            failures.append({"sequence": name, "count": most})
    # Dirac measures draw no samples: the row tests the sequences' points
    return CheckReport(
        "discrete-carleson-chain", len(failures), "==", 0.0, sum(len(seq) for _, seq in bundle), 0.0,
        {"failures": failures},
    )


def _row_escape_full(budget, seed) -> CheckReport:
    bundle = dict(_bundled_sequences(budget["disk_eps"], budget["ball2_eps"], seed))
    disk, ball2 = bundle["ladder-disk"], bundle["ladder-ball2"]
    res = sequences.escape_sum(disk, exponent="n+1")
    res2 = sequences.escape_sum(ball2, exponent="n+1")
    mass_err = abs(res.total - 1.0 / (math.e**2 - 1.0))
    return CheckReport(
        "escape-sum-full", mass_err, "<", 1e-6, len(disk) + len(ball2), 0.0, {},
        [("increment", res.last_decade_increment, "<", 1e-6), ("increment_ball2", res2.last_decade_increment, "<", 1e-6)],
    )


def _row_escape_volume(budget, seed) -> CheckReport:
    worst = 0.0
    bundle = _bundled_sequences(budget["disk_eps"], budget["ball2_eps"], seed)
    for name, seq in bundle:
        res = sequences.escape_sum(seq, weight=sequences.EscapeWeight.power(2.0), exponent="2n")
        if not math.isfinite(res.total):
            worst = math.inf
        worst = max(worst, res.last_decade_increment / max(res.total, 1e-300))
    return CheckReport(
        "escape-sum-volume", worst, "<", 0.5, sum(len(seq) for _, seq in bundle), 0.0, {"seed": seed}
    )


def _row_invariant_measure(budget, seed) -> CheckReport:
    cfg = MCConfig(seed=seed, n_samples=budget["mc"])
    est = invariant_measure.ek_ball_measure([0.0], 0.5, cfg)
    miss = abs(est.value - 1.0 / 3.0)  # kappa(B(0, 1/2)) = 1/3 exactly
    rep = invariant_measure.check_ek_bounds(1, cfg=cfg)
    # an inconclusive check_ek_bounds fails the row: its gate is that no cell was too noisy
    return CheckReport(
        "invariant-ball-measure", rep.statistic, rep.comparison, rep.bound, rep.n_samples + est.n_effective,
        est.std_error, {"disk_half_value": float(np.real(est.value)), "exact_z": float(miss / est.std_error),
                         "ek_bounds": rep.verdict},
        [*rep.gates, ("ek_bounds_inconclusive", rep.inconclusive, "==", 0), ("miss", miss, "<=", 3 * est.std_error)],
    )


def _row_escape_weighted(budget, seed) -> CheckReport:
    bundle = _bundled_sequences(budget["disk_eps"], budget["ball2_eps"], seed)
    lad = dict(bundle)["ladder-disk"]
    res = sequences.escape_sum(lad, weight=sequences.EscapeWeight.power(2.0), exponent="n")
    err = abs(res.total - LADDER_WEIGHTED_SUM)
    shells, gates = {}, []
    for name, seq in bundle:
        if name == "packing-ball2":
            # at desk scale a two-dimensional packing reaches too few shells
            # for the fit to leave its small-count transient; skipped here,
            # still exercised by the Carleson-chain row
            continue
        sc = sequences.shell_counts(seq)
        shells[name] = {"slope_se": sc.slope_se}
        if math.isfinite(sc.slope):  # a sequence too short for a fit is not gated
            gates.append((f"slope {name}", sc.slope, "<=", seq.dimension + 0.2))
    return CheckReport("escape-sum-weighted", err, "<", 1e-4, len(lad), 0.0, {"shells": shells}, gates)


VERIFY_ROWS = [
    _row_kernel_reproducing,
    _row_volume_sandwich,
    _row_distance_comparison,
    _row_ball_inequality,
    _row_defining_fn,
    _row_covering,
    _row_submean_ball,
    _row_submean_mean,
    _row_submean_neighbor,
    _row_kernel_upper,
    _row_kernel_lower,
    _row_kernel_lower_normalized,
    _row_carleson_equivalence,
    _row_greedy_decomposition,
    _row_discrete_chain,
    _row_escape_full,
    _row_escape_volume,
    _row_invariant_measure,
    _row_escape_weighted,
]

QUICK_BUDGET = {
    "mc": 20_000,
    "samples": 1_000,
    "points": 2_000,
    "cells": 10,
    "probes": 3_000,
    "cross_check": measures.CrossCheckConfig(k_max=8, ball_samples=2_000, global_samples=4_000, n_polynomials=3),
    "measures": ("lebesgue", "power(-0.5)", "dirac-ladder"),
    "clouds": 10,
    "cloud_size": 200,
    "disk_eps": 0.02,
    "ball2_eps": None,
}

FULL_BUDGET = {
    "mc": 60_000,
    "samples": 4_000,
    "points": 4_000,
    "cells": 30,
    "probes": 5_000,
    "cross_check": measures.CrossCheckConfig(k_max=12, ball_samples=8_000, global_samples=16_000, n_polynomials=8),
    "measures": tuple(CARLESON_EXPECTED),
    "clouds": 50,
    "cloud_size": 500,
    "disk_eps": 1e-3,
    "ball2_eps": 0.008,
}


def run_suite(suite: str, seed: int, out_dir: str | None) -> int:
    """Run every row at the ``quick`` or ``full`` budget and print the table.
    With ``out_dir``, write ``verify_results.csv`` and ``verify_results.json``;
    the JSON adds each row's wall seconds.  Returns the exit code."""
    budget = QUICK_BUDGET if suite == "quick" else FULL_BUDGET
    reports: list[CheckReport] = []
    seconds: list[float] = []
    print(f"verification suite: {suite} (seed {seed})")
    print(f"{'check':28s} {'status':13s} {'statistic':>14s} {'':2s} {'bound':>12s}")
    for row_fn in VERIFY_ROWS:
        started = time.perf_counter()
        rep = row_fn(budget, seed)
        seconds.append(time.perf_counter() - started)
        reports.append(rep)
        print(f"{rep.name:28s} {rep.verdict.upper():13s} {rep.statistic:14.6g} {rep.comparison:2s} {rep.bound:12.6g}")
    n_fail = sum(1 for r in reports if r.passed is False)
    n_inc = sum(1 for r in reports if r.passed is None)
    print(f"{len(reports)} checks: {len(reports) - n_fail - n_inc} pass, {n_fail} fail, {n_inc} inconclusive")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "verify_results.csv",
            ["name", "status", "statistic", "comparison", "bound", "std_error", "n_samples"],
            [[r.name, r.verdict, r.statistic, r.comparison, r.bound, r.std_error, r.n_samples] for r in reports],
        )
        with open(out / "verify_results.json", "w") as fh:
            json.dump([{**r.to_json_dict(), "seconds": s} for r, s in zip(reports, seconds)], fh, indent=2,
                      default=json_default)
    if n_fail:
        return EXIT_FAIL
    if n_inc:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS
