"""The benchmark's reference values, checked against mpmath.

Each closed form in ``oracles.py`` is compared with an mpmath quadrature (or a
high-precision direct evaluation) at a few points; the brute-force references
are compared with naive all-pairs loops on small inputs.

    python -m pytest -q perfbench/test_perfbench_oracles.py
"""

from __future__ import annotations

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def _disk_quad(f, radius=1) -> float:
    """(1/pi) * integral of f(u) over the disk |u| < radius, u = t e^(i theta)."""
    with mpmath.workdps(15):
        val = mpmath.quad(lambda t, th: f(t * mpmath.expj(th)) * t, [0, radius], [0, 2 * mpmath.pi])
        return float(val / mpmath.pi)


@pytest.mark.parametrize("n,s,z", [(1, -0.5, 0.9), (1, 0.5, 0.5), (1, 1.0, 0.99), (1, 0.0, 0.7), (2, -0.5, 0.6), (2, 1.0, 0.8)])
def test_berezin_power(n, s, z):
    # Moebius change of variables with z = (z, 0, ..): B[(1-|w|^2)^s](z) is the
    # volume integral of ((1-z^2)(1-|u|^2) / |1 - z u_1|^2)^s.  In C^2 the
    # first coordinate u_1 has density (2/pi)(1-|u_1|^2) on the disk and
    # |u_2|^2 / (1-|u_1|^2) is uniform on [0, 1], which integrates to 1/(s+1).
    def f(u):
        base = (1 - z * z) * (1 - abs(u) ** 2) / abs(1 - z * u) ** 2
        if n == 1:
            return base**s
        return 2 * (1 - abs(u) ** 2) * base**s / (s + 1)

    assert oracles.berezin_power(n, s, z) == pytest.approx(_disk_quad(f), rel=1e-7)


@pytest.mark.parametrize("n,r", [(1, 0.5), (2, 0.3), (3, 0.7)])
def test_invariant_ball_measure_radial(n, r):
    # at the origin: int_0^r (1 - t^2)^-(n+1) d(t^2n)
    with mpmath.workdps(20):
        val = mpmath.quad(lambda t: (1 - t * t) ** (-(n + 1)) * 2 * n * t ** (2 * n - 1), [0, r])
    assert oracles.invariant_ball_measure(n, r) == pytest.approx(float(val), rel=1e-12)


@pytest.mark.parametrize("a,r", [(0.5, 0.5), (0.95, 0.3)])
def test_invariant_ball_measure_off_centre(a, r):
    # B(a, r) = phi_a({|u| < r}); pull back the density through phi_a
    def f(u):
        w = (a - u) / (1 - a * u)
        jac = ((1 - a * a) / abs(1 - a * u) ** 2) ** 2
        return (1 - abs(w) ** 2) ** -2 * jac

    assert oracles.invariant_ball_measure(1, r) == pytest.approx(_disk_quad(f, r), rel=1e-10)


@pytest.mark.parametrize("a,r", [(0.6, 0.5), (0.99, 0.7), (0.0, 0.4)])
def test_metric_ball_volume_disk(a, r):
    def jac(u):
        return ((1 - a * a) / abs(1 - a * u) ** 2) ** 2

    assert oracles.metric_ball_volume(1, a, r) == pytest.approx(_disk_quad(jac, r), rel=1e-10)


def _mp_rho(x, y):
    return (y - x) / (1 - x * y)


@pytest.mark.parametrize("count", [30, 50, 200])
def test_ladder_separation(count):
    with mpmath.workdps(120):
        rungs = [1 - mpmath.exp(-m) for m in range(1, count + 1)]
        exact = min(_mp_rho(rungs[i], rungs[j]) for i in range(count) for j in range(i + 1, min(i + 3, count)))
    assert oracles.ladder_separation(count) == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("n,count", [(1, 50), (2, 30)])
def test_ladder_escape_sum(n, count):
    with mpmath.workdps(30):
        exact = mpmath.nsum(lambda m: mpmath.exp(-(n + 1) * m), [1, count])
    assert oracles.ladder_escape_sum(n, count) == pytest.approx(float(exact), rel=1e-14)
    if n == 1:
        assert oracles.ladder_escape_sum(1, 10_000) == pytest.approx(1.0 / (math.e**2 - 1.0), rel=1e-15)


def test_ladder_shell_counts():
    count = 60
    with mpmath.workdps(80):
        shells = [int(mpmath.floor(2 * mpmath.atanh(1 - mpmath.exp(-m)))) for m in range(1, count + 1)]
    expected = np.bincount(shells)
    assert np.array_equal(oracles.ladder_shell_counts(count), expected)


def _cloud(seed, n, m, rmax=0.95):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, 2 * n))
    u = g[:, :n] + 1j * g[:, n:]
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * (rmax * rng.random(m) ** (1.0 / (2 * n)))[:, None]


def test_min_pairwise_pseudo_matches_all_pairs():
    pts = _cloud(1, 2, 40)
    exact = min(oracles.pseudo_mp(pts[i], pts[j]) for i in range(40) for j in range(i + 1, 40))
    assert oracles.min_pairwise_pseudo(pts, chunk=7) == exact
    assert oracles.min_separation(pts) == pytest.approx(exact, rel=1e-10)


def test_pseudo_matrix_matches_mpmath():
    a, b = _cloud(2, 2, 5), _cloud(3, 2, 6)
    rho = oracles.pseudo_matrix(a, b)
    for i in range(5):
        for j in range(6):
            assert rho[i, j] == pytest.approx(oracles.pseudo_mp(a[i], b[j]), rel=1e-12)


def test_greedy_pack_matches_one_by_one_scan():
    pts = _cloud(4, 1, 300)
    kept = []
    for i in range(len(pts)):
        if all(oracles.pseudo_mp(pts[i], pts[k]) >= 0.5 for k in kept):
            kept.append(i)
    assert oracles.greedy_pack(pts, 0.5, block=64).tolist() == kept


def test_first_fit_colors_are_separated():
    pts = _cloud(5, 1, 120)
    colors = oracles.first_fit_colors(pts, 0.3)
    for c in range(colors.max() + 1):
        assert oracles.min_separation(pts[colors == c]) >= 0.3
    assert colors[0] == 0
