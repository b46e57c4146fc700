"""Reference values for the benchmark, computed without carleson_lab.

Closed forms for the unit ball of C^n (Zhu, *Spaces of Holomorphic Functions
in the Unit Ball*, ch. 1-2) and brute-force references for the sequence layer.
Nothing here imports the package under test, so a fault in the package cannot
leak into the values it is checked against.  ``test_perfbench_oracles.py``
checks each closed form against mpmath quadrature.

Points are complex arrays of shape (m, n).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import hyp2f1

# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def berezin_power(n: int, s: float, z_norm: float) -> float:
    """Berezin transform of the density (1 - |w|^2)^s at a point of norm |z|.

    n * B(n, s + 1) * (1 - |z|^2)^s * 2F1(s, s; n + 1 + s; |z|^2).
    """
    x = z_norm * z_norm
    return float(n * beta_fn(n, s + 1.0) * (1.0 - x) ** s * hyp2f1(s, s, n + 1.0 + s, x))


def invariant_ball_measure(n: int, r: float) -> float:
    """Invariant measure (1 - |w|^2)^-(n+1) dV of a metric ball of radius r:
    (r^2 / (1 - r^2))^n, the same at every centre."""
    return (r * r / (1.0 - r * r)) ** n


def metric_ball_volume(n: int, a_norm: float, r: float) -> float:
    """Normalised volume r^2n (1 - |a|^2)^(n+1) / (1 - r^2 |a|^2)^(n+1) of the
    pseudohyperbolic ball of radius r about a point of norm |a|."""
    a2 = a_norm * a_norm
    return r ** (2 * n) * ((1.0 - a2) / (1.0 - r * r * a2)) ** (n + 1)


def ladder_separation(count: int) -> float:
    """Separation of the ladder (1 - e^-m) u, m = 1..count.

    Consecutive rungs sit at pseudo distance (1 - e^-1) / (1 + e^-1 - e^-(m+1)),
    which decreases in m; the last pair (m = count - 1) is the infimum.
    """
    e1 = math.exp(-1.0)
    return (1.0 - e1) / (1.0 + e1 - math.exp(-float(count)))


def ladder_escape_sum(n: int, count: int) -> float:
    """Sum over the ladder of d(z_m)^(n+1) = e^-(n+1)m, m = 1..count.

    For n = 1 and count -> infinity this is 1 / (e^2 - 1).
    """
    q = math.exp(-(n + 1.0))
    return q * (1.0 - q**count) / (1.0 - q)


def ladder_shell_counts(count: int) -> np.ndarray:
    """Kobayashi half-unit shells about 0 for the ladder: one rung per shell.

    2 k(0, z_m) = log((2 - e^-m) / e^-m) = m + log(2 - e^-m), and the log term
    lies in (0.45, 0.7), so rung m falls in shell m; shell 0 is empty.
    """
    counts = np.ones(count + 1, dtype=int)
    counts[0] = 0
    return counts


def shell_histogram(points: np.ndarray) -> np.ndarray:
    """Counts per shell [m/2, (m+1)/2) of k(0, z) = arctanh |z|."""
    k = np.arctanh(np.linalg.norm(points, axis=1))
    return np.bincount(np.floor(2.0 * k).astype(int))


# --------------------------------------------------------------------------
# pseudohyperbolic distance, brute force
# --------------------------------------------------------------------------


def pseudo_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho between every row of a and every row of b (textbook form)."""
    ip = a @ np.conj(b).T
    na = 1.0 - np.einsum("ij,ij->i", a, np.conj(a)).real
    nb = 1.0 - np.einsum("ij,ij->i", b, np.conj(b)).real
    return np.sqrt(np.clip(1.0 - np.outer(na, nb) / np.abs(1.0 - ip) ** 2, 0.0, 1.0))


def pseudo_mp(z, w, dps: int = 50) -> float:
    """rho(z, w) in mpmath at ``dps`` digits from the exact float inputs."""
    with mpmath.workdps(dps):
        zc = [mpmath.mpc(complex(x)) for x in z]
        wc = [mpmath.mpc(complex(x)) for x in w]
        ip = mpmath.fsum(a * mpmath.conj(b) for a, b in zip(zc, wc))
        nz = mpmath.fsum(abs(a) ** 2 for a in zc)
        nw = mpmath.fsum(abs(b) ** 2 for b in wc)
        rho_sq = 1 - (1 - nz) * (1 - nw) / abs(1 - ip) ** 2
        return float(mpmath.sqrt(rho_sq))


def min_pairwise_pseudo(points: np.ndarray, chunk: int = 256) -> float:
    """Smallest rho over all pairs, by brute force over every pair.

    A float64 sweep ranks all pairs by (1 - rho^2); every pair within a
    relative 1e-6 of the smallest rho^2 is then re-evaluated at 50 digits, so
    the result is exact to double precision.
    """
    pts = np.asarray(points, dtype=np.complex128)
    m = pts.shape[0]
    x = np.concatenate([pts.real, pts.imag], axis=1)
    # Re<z, w> = x . y and Im<z, w> = x . y' with y' = (-Im w, Re w)
    x_rot = np.concatenate([-pts.imag, pts.real], axis=1)
    one_minus = 1.0 - np.einsum("ij,ij->i", x, x)

    def closeness(i0, i1):
        # 1 - rho^2 = (1 - |z|^2)(1 - |w|^2) / |1 - <z, w>|^2, self pairs masked
        re = x[i0:i1] @ x.T
        im = x[i0:i1] @ x_rot.T
        close = np.outer(one_minus[i0:i1], one_minus) / ((1.0 - re) ** 2 + im**2)
        close[np.arange(i1 - i0), np.arange(i0, i1)] = -math.inf
        return close

    starts = range(0, m, chunk)
    block_max = [float(closeness(i0, min(i0 + chunk, m)).max()) for i0 in starts]
    floor = 1.0 - (1.0 - max(block_max)) * (1.0 + 1e-6)
    cands = set()
    for i0, top in zip(starts, block_max):
        if top >= floor:
            close = closeness(i0, min(i0 + chunk, m))
            for i, j in zip(*np.nonzero(close >= floor)):
                cands.add((min(i0 + i, j), max(i0 + i, j)))
    return min(pseudo_mp(pts[i], pts[j]) for i, j in cands)


def greedy_pack(points: np.ndarray, threshold: float, block: int = 512) -> np.ndarray:
    """First-fit packing: keep each point, in order, whose distance to every
    point kept before it is >= threshold.  Every candidate is compared with
    every kept point; no spatial index is used."""
    pts = np.asarray(points, dtype=np.complex128)
    kept: list[int] = []
    for i0 in range(0, len(pts), block):
        idx = np.arange(i0, min(i0 + block, len(pts)))
        free = np.ones(len(idx), dtype=bool)
        if kept:
            free = pseudo_matrix(pts[idx], pts[kept]).min(axis=1) >= threshold
        local = pseudo_matrix(pts[idx], pts[idx])
        fresh: list[int] = []
        for j in range(len(idx)):
            if free[j] and (not fresh or local[j, fresh].min() >= threshold):
                fresh.append(j)
        kept.extend(int(idx[j]) for j in fresh)
    return np.asarray(kept, dtype=int)


def first_fit_colors(points: np.ndarray, r: float) -> np.ndarray:
    """First-fit colouring: each point takes the least colour not used by an
    earlier point at distance < r."""
    pts = np.asarray(points, dtype=np.complex128)
    rho = pseudo_matrix(pts, pts)
    colors = np.full(len(pts), -1, dtype=int)
    for i in range(len(pts)):
        used = set(colors[:i][rho[i, :i] < r].tolist())
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def min_separation(points: np.ndarray) -> float:
    """Smallest float64 rho over all pairs of a small set (inf below two points)."""
    pts = np.asarray(points, dtype=np.complex128)
    if len(pts) < 2:
        return math.inf
    rho = pseudo_matrix(pts, pts)
    np.fill_diagonal(rho, math.inf)
    return float(rho.min())


def ladder_points(n: int, count: int) -> np.ndarray:
    """Rungs (1 - e^-m) e_1, m = 1..count, capped just inside the ball."""
    m = np.arange(1, count + 1, dtype=float)
    radii = np.minimum(-np.expm1(-m), np.nextafter(1.0, 0.0))
    pts = np.zeros((count, n), dtype=np.complex128)
    pts[:, 0] = radii
    return pts
