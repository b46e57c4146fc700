"""carleson-mc: the Monte Carlo path, in process.

One pass:
- ``cross_check_equivalence`` over ``bundled_measure_suite(n)`` for n = 1, 2
  (ten verdicts, checked against the theory);
- ``berezin_transform`` of power densities (1 - |w|^2)^s, s in {0.5, 1}, at
  probes of norm 0.99, 0.999 in random directions (checked against the closed
  form).  The pole density s = -0.5 is left out: its importance weights have
  unbounded variance, so its std_error understates the error and the
  4-std-error check fails on some seeds (see CHANGES.md);
- ``ek_ball_measure`` at probes out to norm 0.999, checked against
  (r^2/(1-r^2))^n;
- ``measure_of_ball`` of the volume measure, checked to 1e-12 against the
  metric-ball volume (its integrand is constant, so this one is exact).

mc_tta_s prices the Berezin estimates of s = 0.5, 1 and the ek estimates.
Their budgets are large enough that the fixed cost of a call (mixture set-up,
one task per component and substream) is about a tenth of its time, so
mc_tta_s prices the cost per sample rather than that overhead.

Probe directions and every MC seed come from ``--seed``.
"""

from __future__ import annotations

import numpy as np

import oracles
from harness import Op, time_to_accuracy, z_check

EXPECTED_VERDICTS = {
    "lebesgue": "pass",
    "power(-0.5)": "fail",
    "power(+0.5)": "pass",
    "power(+1)": "pass",
    "dirac-ladder": "pass",
}
# k_max 8 as in verify quick: at 6 the ratio test calls the dirac ladder "fail"
CROSS_CHECK = {"k_max": 8, "ball_samples": 1_000, "global_samples": 2_000, "n_polynomials": 2}
BEREZIN_S = (0.5, 1.0)
BEREZIN_NORMS = (0.99, 0.999)
EK_RADII = (0.3, 0.7)
EK_NORMS = (0.0, 0.99, 0.999)
VOLUME_RADII = (0.3, 0.7)
VOLUME_NORMS = (0.9, 0.999)
BEREZIN_SAMPLES = 320_000
EK_SAMPLES = 320_000


def _direction(rng, n: int, norm: float) -> np.ndarray:
    g = rng.standard_normal(2 * n)
    u = g[:n] + 1j * g[n:]
    return norm * u / np.linalg.norm(u)


def _exact_check(exact: float):
    def check(value):
        est = value[0]
        return [] if abs(est - exact) <= 1e-12 * exact else [f"{est!r} vs closed form {exact!r}"]

    return check


def _verdict_check(name: str):
    def check(value):
        overall, agreement, verdicts = value
        if overall != EXPECTED_VERDICTS[name] or not agreement:
            return [f"verdict {overall} (agreement {agreement}, {verdicts}), expected {EXPECTED_VERDICTS[name]}"]
        return []

    return check


def build(seed: int):
    """Inputs from the seed: the ops of one pass and, for mc_tta_s, the exact
    value of each priced estimate."""
    from carleson_lab import bergman, geometry_ball, invariant_measure, measures
    from carleson_lab.integrate import MCConfig

    rng = np.random.default_rng([seed, 1])

    def mc(samples):
        return MCConfig(seed=int(rng.integers(2**31)), n_samples=samples)

    def estimate(module, fname: str, *args):
        # looked up at call time, so a traced run sees the wrapped function
        def call():
            est = getattr(module, fname)(*args)
            return (float(np.real(est.value)), float(est.std_error))

        return call

    ops: list[Op] = []
    priced: dict[str, float] = {}

    cross = measures.CrossCheckConfig(seed=int(rng.integers(2**31)), **CROSS_CHECK)
    for n in (1, 2):
        for name, mu in measures.bundled_measure_suite(n):
            def call(mu=mu):
                v = measures.cross_check_equivalence(mu, cross)
                return (v.overall, bool(v.agreement), dict(v.verdicts))

            ops.append(Op(f"cross_check n={n} {name}", call, _verdict_check(name)))

    for n in (1, 2):
        for s in BEREZIN_S:
            mu = measures.Measure.with_power_density(n, s)
            for norm in BEREZIN_NORMS:
                name = f"berezin n={n} s={s:+g} |z|={norm}"
                exact = oracles.berezin_power(n, s, norm)
                ops.append(Op(name, estimate(bergman, "berezin_transform", mu, _direction(rng, n, norm), mc(BEREZIN_SAMPLES)),
                              z_check(exact)))
                priced[name] = exact

    for n in (1, 2):
        for r in EK_RADII:
            exact = oracles.invariant_ball_measure(n, r)
            for norm in EK_NORMS:
                name = f"ek_ball_measure n={n} r={r} |z|={norm}"
                ops.append(Op(name, estimate(invariant_measure, "ek_ball_measure", _direction(rng, n, norm), r, mc(EK_SAMPLES)),
                              z_check(exact)))
                priced[name] = exact

    lebesgue = {n: measures.Measure.lebesgue(n) for n in (1, 2)}
    for n in (1, 2):
        for r in VOLUME_RADII:
            for norm in VOLUME_NORMS:
                name = f"measure_of_ball n={n} r={r} |z|={norm}"
                exact = oracles.metric_ball_volume(n, norm, r)
                ball = geometry_ball.kobayashi_ball(_direction(rng, n, norm), r)
                ops.append(Op(name, estimate(measures, "measure_of_ball", lebesgue[n], ball, mc(1_000)), _exact_check(exact)))
    return ops, time_to_accuracy(priced)

