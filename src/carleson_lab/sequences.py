"""Uniformly discrete sequence analytics in the unit ball.

Separation constants, metric-ball counts, first-fit decomposition into
separated classes, greedy disjoint-ball coverings with multiplicity reports,
induced Dirac measures weighted by boundary distance, escape-rate sums, and
Kobayashi shell counts.  Bundled generators (radial ladders, greedy maximal
packings, perturbed lattices) span the sparse and dense extremes.
Packings and covers ask two questions of a KD-tree neighbour engine.  "Is
some target within t?" (a packing's admission, a cover's net and coverage)
tries each query's Euclidean-nearest target first, and only the queries it
leaves open build neighbour lists.  Neighbour lists go in blocks of about
PAIR_BUDGET candidate pairs, so a dense threshold never holds a whole
512-query block's pairs at once.  A packing keeps its admitted points in a
logarithmic forest of KD-trees and asks them in turn, so no tree is rebuilt
over every kept point.  "How many targets lie within t?" (a cover's
multiplicity, ``count_in_ball(s)``) has one counter, ``_count_within``: blocks
of queries adjacent in a KD-tree, each tested against the targets that one
call against its first point keeps, each count the distance's pair by pair.
Packings and covers draw their candidates from a scrambled Sobol sequence,
computed here in numpy from the Joe-Kuo direction numbers that ship with
scipy, so no command imports ``scipy.stats``.
scipy is imported at its call site: a command loads only the scipy it calls.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry_ball as geom, measures
from .errors import MAX_VALUES, CoverageError, ParameterError, ValidationError
from .reports import CheckReport

__all__ = [
    "PointSequence",
    "Decomposition",
    "EscapeWeight",
    "EscapeSumResult",
    "ShellCounts",
    "CoverReport",
    "separation_constant",
    "count_in_ball",
    "count_in_balls",
    "greedy_decompose",
    "greedy_pack",
    "greedy_cover",
    "dirac_carleson_measure",
    "escape_sum",
    "shell_counts",
    "pseudo_block",
    "disjointness_threshold",
]

METRICS = ("pseudohyperbolic", "kobayashi", "euclidean")

@dataclass(frozen=True, eq=False)
class PointSequence:
    """Ordered point set in the unit ball with cached boundary distances."""

    points: np.ndarray
    metric: str = "pseudohyperbolic"
    boundary_distances: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        pts = geom.ball_points(self.points, name="sequence points")
        if self.metric not in METRICS:
            raise ParameterError(f"metric must be one of {METRICS}")
        bd = self.boundary_distances
        if bd is None:
            bd = 1.0 - np.linalg.norm(pts, axis=1)
        else:
            bd = np.asarray(bd, dtype=float).reshape(-1)
            if bd.size != pts.shape[0]:
                raise ValidationError("boundary distance cache must align with points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "boundary_distances", bd)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.points.shape[1])

    # -- generators ----------------------------------------------------------
    @classmethod
    def radial_ladder(cls, n: int, count: int, metric: str = "pseudohyperbolic") -> "PointSequence":
        """Points (1 - e^-m) e_1 for m = 1..count.

        Boundary distances are cached exactly as e^-m; beyond m ~ 37 the point
        coordinate itself saturates double precision and is capped just inside
        the ball.  Only ``escape_sum`` and the Dirac weights read the cache;
        distances, separation and shell counts use the capped coordinates.
        """
        if count < 1:
            raise ParameterError("ladder needs count >= 1")
        u = np.zeros(n, dtype=np.complex128)
        u[0] = 1.0
        m = np.arange(1, count + 1)
        radii = np.minimum(-np.expm1(-m.astype(float)), np.nextafter(1.0, 0.0))
        pts = radii[:, None] * u
        return cls(points=pts, metric=metric, boundary_distances=np.exp(-m.astype(float)))

    @classmethod
    def maximal_packing(
        cls,
        n: int,
        delta: float,
        epsilon: float,
        seed: int = 0,
        metric: str = "pseudohyperbolic",
    ) -> "PointSequence":
        """Greedy near-maximal delta-separated subset of {depth >= epsilon}.

        Candidates are low-discrepancy points whose radial law matches the
        invariant volume (denser towards the boundary, where separated balls
        shrink), so the kept set approaches a maximal packing.
        """
        if not 0.0 < delta < 1.0:
            raise ParameterError("separation delta must be in (0, 1)")
        if not 0.0 < epsilon < 1.0:
            raise ParameterError("depth epsilon must be in (0, 1)")
        half = _half_radius(delta, metric)
        count = _net_size(6.0 * (_volume_ratio(n, (1.0 - epsilon) ** 2, half**2) + 8.0), 64)
        cands = _invariant_tilted_candidates(n, count, epsilon, seed)
        kept = greedy_pack(cands, delta, metric=metric)
        return cls(points=cands[kept], metric=metric)

    @classmethod
    def perturbed_lattice(
        cls, n: int, spacing: float = 0.2, jitter: float = 0.25, seed: int = 0, metric: str = "pseudohyperbolic"
    ) -> "PointSequence":
        """Euclidean grid restricted to {depth >= 0.05}, with seeded jitter."""
        if not 0.0 < spacing < math.inf:
            raise ParameterError("spacing must be positive and finite")
        rng = np.random.default_rng(seed)
        axis = np.arange(-1.0, 1.0 + spacing / 2, spacing)
        grids = np.meshgrid(*([axis] * (2 * n)), indexing="ij")
        rows = np.stack([g.reshape(-1) for g in grids], axis=1)
        rows = rows + jitter * spacing * (rng.random(rows.shape) - 0.5)
        pts = geom.rows_to_points(rows)
        keep = np.linalg.norm(pts, axis=1) <= 1.0 - 0.05
        return cls(points=pts[keep], metric=metric)


def _half_radius(delta: float, metric: str) -> float:
    """Pseudohyperbolic radius of balls that are disjoint at separation delta."""
    if metric == "kobayashi":
        return math.tanh(delta / 2.0)
    if metric == "pseudohyperbolic":
        return math.tanh(math.atanh(delta) / 2.0)
    return delta / 2.0


def _volume_ratio(n: int, u: float, v: float) -> float:
    """(u / (1 - u))^n / (v / (1 - v))^n: the invariant volume of {||z||^2 < u}
    over that of a ball of pseudo-radius sqrt(v), which sizes a candidate net.

    Where a power of n leaves double range (the dividend overflows or the
    divisor underflows to 0) there is no net of that size: OverflowError.
    """
    try:
        return geom._invariant_ball_volume(n, u) / geom._invariant_ball_volume(n, v)
    except ZeroDivisionError as exc:
        raise OverflowError(f"(v / (1 - v))^{n} underflows") from exc


def _net_size(wanted: float, least: int) -> int:
    """Candidate count of a packing or cover net: ``wanted`` in [``least``, 4,000,000]."""
    return int(min(max(wanted, least), 4_000_000))


def disjointness_threshold(t: float) -> float:
    """Centre separation at which two metric balls of pseudo-radius t touch.

    Metric balls are geodesic, so the threshold is tanh(2 arctanh t)
    = 2 t / (1 + t^2).
    """
    if not 0.0 < t < 1.0:
        raise ParameterError("ball radius must be in (0, 1)")
    return 2.0 * t / (1.0 + t * t)


def _invariant_tilted_candidates(n: int, count: int, epsilon: float, seed: int) -> np.ndarray:
    """Low-discrepancy candidates on {depth >= epsilon}, radially tilted so the
    local density tracks the invariant volume (adaptive to epsilon)."""
    if count * (2 * n + 1) > MAX_VALUES:
        raise OverflowError(f"{count:,} candidates of {2 * n + 1} coordinates exceed {MAX_VALUES:,} values")
    from scipy.special import ndtri

    raw = _scrambled_sobol(2 * n + 1, count, seed)
    u_max = (1.0 - epsilon) ** 2
    u = _invariant_radial_law(n, raw[:, 0], u_max)
    gauss = ndtri(np.clip(raw[:, 1:], 1e-12, 1.0 - 1e-12))
    return geom._scale_directions(gauss, np.sqrt(np.clip(u, 0.0, u_max)))


SOBOL_BITS = 30


@functools.lru_cache(maxsize=None)
def _sobol_directions(d: int) -> np.ndarray:
    """Joe-Kuo direction numbers of the first d dimensions, (d, SOBOL_BITS)
    uint32, number j shifted so that its top bit is 2^(SOBOL_BITS - 1 - j).

    The table is the ``_sobol_direction_numbers.npz`` that ships beside
    ``scipy.stats``; finding it by spec does not import ``scipy.stats``.
    Reading it takes ~10 ms, so the result is kept per d, read-only.
    """
    path = Path(importlib.util.find_spec("scipy.stats").origin).with_name("_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    if d > len(poly):
        raise ParameterError(f"scrambled Sobol points exist up to dimension {len(poly)}, not {d}")
    v = np.ones((d, SOBOL_BITS), dtype=np.uint32)  # dimension 0, van der Corput's, keeps these
    for i in range(1, d):  # Bratley-Fox recurrence on the primitive polynomial poly[i] of degree m
        p = int(poly[i])
        m = p.bit_length() - 1
        row = [int(x) for x in vinit[i, :m]]
        for j in range(m, SOBOL_BITS):
            new = row[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[i] = row
    v <<= np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
    v.setflags(write=False)
    return v


def _parity(x: np.ndarray) -> np.ndarray:
    """Parity of the bits of each uint32."""
    for shift in (16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint32(shift))
    return x & np.uint32(1)


def _scrambled_sobol(d: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` points of the LMS-plus-shift scrambled Sobol sequence in
    [0, 1)^d, bit for bit ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)``.

    ``default_rng(seed)`` draws a digital shift, then one lower-triangular bit
    matrix per dimension with a unit diagonal (Matousek's linear scramble);
    column 0 is a row's top bit.  Each direction number becomes the parities
    of its AND with the matrix rows.  Points run in Gray-code order, built by
    doubling: point 2^b + i is point 2^b - 1 - i XOR direction b.
    """
    v = _sobol_directions(d)
    bits = np.arange(SOBOL_BITS, dtype=np.uint32)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) @ (np.uint32(1) << bits)
    ltm = np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    ltm[:, bits, bits] = 1
    rows = np.bitwise_or.reduce(ltm << bits[::-1], axis=2)
    v = np.bitwise_or.reduce(_parity(rows[:, :, None] & v[:, None, :]) << bits[::-1, None], axis=1)
    q = np.empty((count, d), dtype=np.uint32)
    q[:1] = shift  # point 0; a count of 0 draws none
    for b in range((count - 1).bit_length()):
        lo, hi = 1 << b, min(2 << b, count)
        q[lo:hi] = q[2 * lo - hi : lo][::-1] ^ v[:, b]
    return q * 2.0**-SOBOL_BITS


def _invariant_radial_law(n: int, s: np.ndarray, u_max: float) -> np.ndarray:
    """Inverse CDF of the invariant-volume radial law on {||z||^2 <= u_max}.

    The density is proportional to u^(n-1) (1-u)^-(n+1), whose exact
    antiderivative is (u/(1-u))^n; inverting gives a closed form.
    """
    y = np.asarray(s, dtype=float) ** (1.0 / n) * (u_max / (1.0 - u_max))
    return y / (1.0 + y)


def pseudo_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise pseudohyperbolic distances between rows of a and rows of b."""
    return geom.pseudo_rho(np.atleast_2d(a)[:, None, :], np.atleast_2d(b)[None, :, :])


def separation_constant(seq: PointSequence) -> float:
    """Infimum of pairwise distances in the sequence's metric.

    Each point's Euclidean nearest neighbour bounds the infimum from above; the
    neighbour engine then evaluates every pair within the metric reach of that
    bound, so no pair closer than the bound is missed.
    """
    m = len(seq)
    if m < 2:
        raise ParameterError("separation constant needs at least two points")
    pts = seq.points
    tree = _kdtree(geom.points_to_rows(pts))
    dists, idx = tree.query(tree.data, k=2)
    if seq.metric == "euclidean":
        return float(dists[:, 1].min())
    best = float(_pair_distance("pseudohyperbolic", pts, pts[idx[:, 1]]).min())
    if best > 0.0:
        for owner, index in _near_pairs("pseudohyperbolic", pts, tree, best, earlier=True):
            best = min(best, float(_pair_distance("pseudohyperbolic", pts[owner], pts[index]).min(initial=best)))
    if seq.metric == "kobayashi":
        return math.atanh(min(best, geom.RHO_CAP))
    return best


def count_in_ball(seq: PointSequence, z0, r: float) -> int:
    """Number of sequence points with metric distance < r from z0."""
    return int(count_in_balls(seq, np.reshape(z0, (1, -1)), r)[0])


def count_in_balls(seq: PointSequence, centres, r: float) -> np.ndarray:
    """Number of sequence points with metric distance < r from each row of an
    (m, n) array of centres, by the one within-radius counter."""
    metric, t = _pseudo_threshold(seq.metric, r)
    return _count_within(metric, geom.ball_points(centres, seq.dimension, "base point"), seq.points, t)


@dataclass(frozen=True)
class Decomposition:
    """First-fit colouring of a sequence into r-separated classes."""

    color_of: np.ndarray
    n_colors: int

    def classes(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.color_of == c) for c in range(self.n_colors)]


def greedy_decompose(seq: PointSequence, r: float) -> Decomposition:
    """First-fit split into classes of pairwise distance >= r.

    Each point takes the smallest colour unused among earlier points at
    distance < r; the colour count never exceeds the largest ball count
    N(x_j, r, sequence).
    """
    metric, t = _pseudo_threshold(seq.metric, r)
    colors = _first_fit_colors(metric, seq.points, t)
    return Decomposition(color_of=colors, n_colors=int(colors.max(initial=-1)) + 1)


# -- neighbour engine -----------------------------------------------------------
# candidate pairs per block of neighbour lists: bounds the flattened pair arrays
PAIR_BUDGET = 2**14
# most queries per block of neighbour lists, and candidates per packing chunk
QUERY_BLOCK = 512
# queries per pivot block of the within-radius counter (a set of one block builds no KD-tree)
PIVOT_BLOCK = 64


def _kdtree(rows: np.ndarray):
    """KD-tree over real rows, the tree every neighbour-engine call takes."""
    from scipy.spatial import cKDTree
    return cKDTree(rows)


def _pseudo_threshold(metric: str, t: float) -> tuple[str, float]:
    """The metric and threshold the engine compares: a Kobayashi threshold t
    as the pseudohyperbolic tanh(t), any other as it is.  t must be positive."""
    if not t > 0.0:
        raise ParameterError(f"a ball radius or separation threshold must be positive, got {t!r}")
    return ("pseudohyperbolic", math.tanh(t)) if metric == "kobayashi" else (metric, t)


def _pair_distance(metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between rows a[k] and b[k] (broadcast): Euclidean, or
    pseudohyperbolic by :func:`~carleson_lab.geometry_ball.pseudo_rho`."""
    if metric == "euclidean":
        d = a - b
        return np.sqrt(np.einsum("...i,...i->...", d, np.conj(d)).real)
    return geom.pseudo_rho(a, b)


def _near_pairs(metric: str, queries: np.ndarray, tree, t: float, earlier: bool = False):
    """Flattened neighbour lists, one block of queries at a time.

    Yields (owner, index) arrays, owners ascending: query ``owner`` and tree
    point ``index`` for every tree point within the Euclidean reach of the
    owner's metric t-ball, so every pair at distance < t is among them.  With
    ``earlier`` (queries are the tree's own points) only pairs with
    index < owner are kept, so each pair appears once and no point meets itself.

    A block holds about PAIR_BUDGET candidate pairs.  The first is as wide as
    the budget allows if every tree point were a neighbour; each next one is
    sized by the last block's pairs per query, at most twice as wide and at
    most QUERY_BLOCK queries.  A query's pairs never span two blocks.
    """
    rows = geom.points_to_rows(queries)
    if metric == "euclidean":
        reach = np.full(len(rows), (1.0 + 1e-9) * t)
    else:
        reach = geom.metric_ball_reach(queries, min(t, 1.0))  # rho < 1 always
    width = min(max(PAIR_BUDGET // max(tree.n, 1), 1), QUERY_BLOCK)
    i0 = 0
    while i0 < len(queries):
        q = slice(i0, i0 + width)
        lists = tree.query_ball_point(rows[q], r=reach[q], return_sorted=False)
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))
        pairs = int(lengths.sum())
        owner = np.repeat(np.arange(i0, i0 + len(lists)), lengths)
        index = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.intp, count=pairs)
        del lists  # the caller tests this block's pairs while the generator waits
        if earlier:
            owner, index = owner[index < owner], index[index < owner]
        yield owner, index
        i0 += width
        width = min(2 * width, QUERY_BLOCK, max(PAIR_BUDGET * width // max(pairs, 1), 1))


def _has_within(metric: str, queries: np.ndarray, targets: np.ndarray, tree, t: float) -> np.ndarray:
    """Whether some target lies at distance < t from each query (``tree``
    holds the targets' rows).

    Each query's Euclidean-nearest target (one tree query for all) is tried
    first; only the queries it leaves undecided are matched against their
    neighbour lists.  Without that stage ``greedy_cover(2, 0.1, 0.5, seed=11)``
    took 21.0 s against 11.6-12.2 s with it (2-core host)."""
    if len(targets) == 0:
        return np.zeros(len(queries), dtype=bool)
    nearest = targets[tree.query(geom.points_to_rows(queries))[1]]
    found = _pair_distance(metric, queries, nearest) < t
    left = np.flatnonzero(~found)
    for owner, index in _near_pairs(metric, queries[left], tree, t):
        found[left[owner[_pair_distance(metric, queries[left[owner]], targets[index]) < t]]] = True
    return found


def _first_fit_colors(metric: str, points: np.ndarray, t: float) -> np.ndarray:
    """First-fit colouring in order: each point takes the least colour unused
    among earlier points at distance < t.  Colour 0 is the greedy t-packing."""
    colors = np.zeros(len(points), dtype=int)
    tree = _kdtree(geom.points_to_rows(points))
    for owner, index in _near_pairs(metric, points, tree, t, earlier=True):
        clash = _pair_distance(metric, points[owner], points[index]) < t
        # owners ascend, so every earlier point's colour is final when it is read
        pairs = zip(owner[clash].tolist(), index[clash].tolist())
        for i, group in itertools.groupby(pairs, key=lambda pair: pair[0]):
            used = {int(colors[j]) for _, j in group}
            colors[i] = next(c for c in itertools.count() if c not in used)
    return colors


def greedy_pack(points, threshold: float, metric: str = "pseudohyperbolic") -> np.ndarray:
    """Indices of a greedy subset with pairwise distance >= threshold, in order.

    Each point is kept when its distance to every point kept before it is at
    least the threshold.  Candidates go in chunks of QUERY_BLOCK.  The points
    kept so far lie in a logarithmic forest of KD-trees (Bentley and Saxe,
    "Decomposable searching problems I", J. Algorithms 1, 1980): a chunk's
    fresh points become a tree, merged with the newest trees while one holds
    at most twice its points, so sizes more than double from tree to tree
    and a point is rebuilt into O(log N) trees.  "Is some kept point within
    the threshold?" splits over the trees, so a chunk asks them in turn,
    largest first, and drops a candidate as soon as one answers yes; the
    rest are coloured first-fit among themselves, and colour 0 is kept.  On the
    602,474 candidates of ``greedy_cover(2, 0.1, 0.5, seed=11)`` the forest took
    3.4 s, and ``_first_fit_colors(...) == 0`` over them all, which keeps the
    same 13,074 points, 175 s (2-core host)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    metric, threshold = _pseudo_threshold(metric, threshold)
    if not pts.size:  # an empty list is one point of no coordinates to atleast_2d
        return np.zeros(0, dtype=np.intp)
    rows = geom.points_to_rows(pts)
    kept = []
    forest = []  # (indices, points, tree) of disjoint parts of the kept set, largest first
    for i0 in range(0, pts.shape[0], QUERY_BLOCK):
        idx = np.arange(i0, min(i0 + QUERY_BLOCK, pts.shape[0]))
        for _, part, tree in forest:
            idx = idx[~_has_within(metric, pts[idx], part, tree, threshold)]
            if not idx.size:
                break
        if not idx.size:
            continue
        fresh = idx[_first_fit_colors(metric, pts[idx], threshold) == 0]
        kept.append(fresh)
        while forest and len(forest[-1][0]) <= 2 * len(fresh):
            fresh = np.concatenate([forest.pop()[0], fresh])
        forest.append((fresh, pts[fresh], _kdtree(rows[fresh])))
    return np.concatenate(kept) if kept else np.zeros(0, dtype=np.intp)


@dataclass
class CoverReport:
    """Covering construction outcome: centers of disjoint small balls whose
    enlarged balls cover the deep region, with an empirical multiplicity."""

    centers: np.ndarray
    r: float
    epsilon: float
    disjoint_threshold: float
    n_candidates: int
    n_probes: int
    uncovered: int
    multiplicity: int
    multiplicity_refined: int
    net_certified: bool

    def report(self) -> CheckReport:
        """The cover's verdict: refining the multiplicity moved it by at most one,
        and every probe is covered.  The refinement draws 3 ``n_probes`` more."""
        return CheckReport(
            "covering-multiplicity", abs(self.multiplicity_refined - self.multiplicity), "<=", 1.0,
            self.n_probes * 4, 0.0, self.to_json_dict(), [("uncovered", self.uncovered, "==", 0)],
        )

    def to_json_dict(self) -> dict:
        return {
            "n_centers": int(len(self.centers)),
            "r": self.r,
            "epsilon": self.epsilon,
            "disjoint_threshold": self.disjoint_threshold,
            "n_candidates": self.n_candidates,
            "n_probes": self.n_probes,
            "uncovered": self.uncovered,
            "multiplicity": self.multiplicity,
            "multiplicity_refined": self.multiplicity_refined,
            "net_certified": self.net_certified,
        }


def _count_within(metric: str, queries: np.ndarray, targets: np.ndarray, t: float) -> np.ndarray:
    """Targets c with ``_pair_distance(metric, q, c) < t`` for each query q, pair
    by pair however the queries are ordered or blocked: the one such counter.

    Queries go in blocks of PIVOT_BLOCK, adjacent in a KD-tree (a set of one
    block as it stands).  A block's first point p is its pivot, rho_b its
    largest distance to p: a target that counts lies within t + rho_b of p, in
    rho (strong triangle inequality) within (t + rho_b) / (1 + t rho_b).  One
    call against p keeps those, and only they are tested: by the distance
    (Euclidean), or by the product form v = delta_q q_c(q) = 1 - rho^2, one
    zgemm, where |v - (1 - t^2)| > beta, and by the distance in that band.

    The bound, to first order in u = eps / 2, with delta the least 1 - |z|^2
    and gamma = (2n + 4) u = (n + 2) eps: each delta, <q, c>, |a - b|^2 and
    <a - b, a> is a sum of at most 2n + 4 rounded products of coordinates of
    modulus < 1, off by gamma.  As |1 - <q, c>| >= delta, v is off by at most
    (2 + 2 sqrt 2) gamma / delta + 6u.  pseudo_rho sums non-negatives over a
    denominator >= (delta + |a - b|^2 / 2)^2, so its 1 - rho^2 is off by at most
    16 gamma / delta + 3 gamma, and its root and the comparison with t add 4u:
    together below 25 (n + 2) eps / delta + 3 eps < beta = 32 (n + 2) eps / delta
    = slack / delta, for every n.  The pivot keeps v(p, c) > 1 - bound^2 - 2 beta
    (two distances and one product form); at beta > 1/2 every pair goes to the
    distance.  A Euclidean distance is off by (n + 2) eps relative, so there the
    pivot keeps |p - c| <= (t + rho_b)(1 + slack).
    """
    counts = np.zeros(len(queries), dtype=int)
    slack = 32.0 * (queries.shape[1] + 2) * np.finfo(float).eps
    floor = 1.0 - t * t
    target_delta = geom.one_minus_norm_sq(targets)
    deepest = min(target_delta.min(initial=1.0), geom.one_minus_norm_sq(queries).min(initial=1.0))
    band = slack / deepest if deepest > 2.0 * slack else math.inf
    order = _kdtree(geom.points_to_rows(queries)).indices if len(queries) > PIVOT_BLOCK else np.arange(len(queries))
    for i0 in range(0, len(order), PIVOT_BLOCK):
        block = order[i0 : i0 + PIVOT_BLOCK]
        chunk = queries[block]
        rho_b = float(_pair_distance(metric, chunk[0], chunk).max())
        if metric == "euclidean":
            near = targets[_pair_distance(metric, chunk[0], targets) <= (t + rho_b) * (1.0 + slack)]
            counts[block] = np.count_nonzero(_pair_distance(metric, chunk[:, None, :], near) < t, axis=1)
            continue
        # 1 - bound^2 for the bound (t + rho_b) / (1 + t rho_b); "not <=" keeps a NaN
        reach = floor * (1.0 - rho_b * rho_b) / (1.0 + t * rho_b) ** 2
        near = targets[~(target_delta * geom.mobius_factor(chunk[0], targets) <= reach - 2.0 * band)]
        value = geom.one_minus_norm_sq(chunk)[:, None] * geom.mobius_factor(near, chunk)
        counts[block] = np.count_nonzero(value > floor + band, axis=1)
        if counts[block].sum() + np.count_nonzero(value < floor - band) < value.size:  # pairs in the band
            qi, ci = np.nonzero(~(value > floor + band) & ~(value < floor - band))
            counts[block] += np.bincount(qi[_pair_distance(metric, chunk[qi], near[ci]) < t], minlength=len(block))
    return counts


def _anchor_rng(anchor: np.ndarray) -> np.random.Generator:
    """Generator keyed to the anchor's coordinates: identical anchors (for
    example the shared argmax of nested probe stages) climb identically."""
    quantised = np.round(geom.points_to_rows(anchor[None, :])[0] * 1e12).astype(np.int64)
    entropy = [int(x) & 0xFFFFFFFFFFFFFFFF for x in quantised.tolist()]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


# the hill climb of _climb_multiplicity: samples per metric ball, the balls'
# shrinking radii (one cycle), and the most cycles
_CLIMB_SAMPLES = 4096
_CLIMB_RADII = (0.25, 0.12, 0.06, 0.03)
_CLIMB_MAX_CYCLES = 8


def _climb_multiplicity(anchor: np.ndarray, centers: np.ndarray, radius: float) -> int:
    """Hill-climb the overlap count from an anchor until a full radius cycle
    brings no improvement; deterministic given the anchor."""
    rng = _anchor_rng(anchor)
    best_pt = anchor
    best = int(_count_within("pseudohyperbolic", anchor[None, :], centers, radius)[0])
    for _ in range(_CLIMB_MAX_CYCLES):
        improved = False
        for rad in _CLIMB_RADII:
            ball = geom.kobayashi_ball(best_pt, rad)
            pts = geom.sample_ball_uniform(ball, _CLIMB_SAMPLES, rng)
            counts = _count_within("pseudohyperbolic", pts, centers, radius)
            j = int(np.argmax(counts))
            if counts[j] > best:
                best = int(counts[j])
                best_pt = pts[j]
                improved = True
        if not improved:
            break
    return best


def greedy_cover(
    n: int,
    epsilon: float,
    r: float,
    seed: int = 0,
    n_candidates: int | None = None,
    n_probes: int = 10_000,
) -> CoverReport:
    """Cover the deep region {depth >= epsilon} of the ball by metric r-balls.

    Greedy selection of pairwise disjoint (r/3)-balls from a low-discrepancy
    candidate net; the selected centers' r-balls then cover.  The candidate set
    is certified to be an (r/3)-net on the probe points first; failure raises
    :class:`CoverageError` with a refinement hint.  Multiplicity is reported at
    radius (1 + r)/2 on a nested probe hierarchy (refined max can only grow).
    """
    if not 0.0 < r < 1.0:
        raise ParameterError("covering radius must be in (0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("depth epsilon must be in (0, 1)")
    if n_probes < 1:
        raise ParameterError(f"probe count must be >= 1, got {n_probes!r}")
    third = r / 3.0
    # candidates live on a slightly deeper region than the probes, so every
    # probe's (r/3)-ball has full candidate support (the construction covers
    # the whole domain; the deeper margin is its finite surrogate)
    cand_epsilon = 0.7 * epsilon
    if n_candidates is None:
        # net resolution is the (r/3)-ball scale: aim for ~12 candidates per ball
        n_candidates = _net_size(12.0 * _volume_ratio(n, (1.0 - cand_epsilon) ** 2, third**2), 4096)
    cands = _invariant_tilted_candidates(n, n_candidates, cand_epsilon, seed)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    probes_all = _probe_points(n, epsilon, 4 * n_probes, rng)
    probes = probes_all[:n_probes]

    cand_tree = _kdtree(geom.points_to_rows(cands))
    netted = _has_within("pseudohyperbolic", probes_all, cands, cand_tree, third)
    if not np.all(netted):
        worst = int(np.count_nonzero(~netted))
        raise CoverageError(
            f"candidate net misses {worst} probes at resolution r/3 = {third:.4g}; "
            f"retry with n_candidates > {4 * n_candidates}"
        )

    threshold = disjointness_threshold(third)
    kept = greedy_pack(cands, threshold)
    centers = cands[kept]

    center_tree = _kdtree(geom.points_to_rows(centers))
    uncovered = int(np.count_nonzero(~_has_within("pseudohyperbolic", probes_all, centers, center_tree, r)))

    # empirical multiplicity: max overlap count over (centers + nested probes),
    # polished by a deterministic hill climb anchored at the global argmax
    big_r = 0.5 * (1.0 + r)
    mult_pts = np.vstack([centers, probes])
    counts = _count_within("pseudohyperbolic", mult_pts, centers, big_r)
    base_arg = int(np.argmax(counts))
    multiplicity = max(int(counts.max()), _climb_multiplicity(mult_pts[base_arg], centers, big_r))
    extra = probes_all[n_probes:]  # 3 n_probes further probes, the refinement
    counts_all = np.concatenate([counts, _count_within("pseudohyperbolic", extra, centers, big_r)])
    all_pts = np.vstack([mult_pts, extra])
    ref_arg = int(np.argmax(counts_all))
    if ref_arg == base_arg:
        climbed = multiplicity
    else:
        climbed = _climb_multiplicity(all_pts[ref_arg], centers, big_r)
    multiplicity_refined = max(multiplicity, int(counts_all.max()), climbed)

    return CoverReport(
        centers=centers,
        r=float(r),
        epsilon=float(epsilon),
        disjoint_threshold=threshold,
        n_candidates=int(n_candidates),
        n_probes=int(n_probes),
        uncovered=uncovered,
        multiplicity=multiplicity,
        multiplicity_refined=multiplicity_refined,
        net_certified=True,
    )


def _probe_points(n: int, epsilon: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Probe mix for the deep region: half uniform, half boundary-concentrated."""
    half = count // 2
    u_max = (1.0 - epsilon) ** 2
    g = rng.standard_normal((count, 2 * n))
    u_uniform = u_max * rng.random(half) ** (1.0 / n)
    u_deep = _invariant_radial_law(n, rng.random(count - half), u_max)
    return geom._scale_directions(g, np.sqrt(np.concatenate([u_uniform, u_deep])))


def dirac_carleson_measure(seq: PointSequence) -> measures.Measure:
    """Dirac sum with weights d(z_j)^(n+1): the canonical induced measure."""
    n = seq.dimension
    weights = seq.boundary_distances ** (n + 1)
    return measures.Measure.from_atoms(seq.points, weights)


@dataclass(frozen=True)
class EscapeWeight:
    """Increasing weight h: R+ -> R+ from a named family.

    ``power(s)`` is h(x) = x^s (summable over 1/m iff s > 1); ``exp_inverse``
    is h(x) = e^(-1/x), which turns the weighted n-sum into the plain
    (n+1)-sum.
    """

    kind: str
    s: float = 0.0

    @classmethod
    def power(cls, s: float) -> "EscapeWeight":
        if s <= 0.0:
            raise ParameterError("power weight needs s > 0 to be increasing")
        return cls(kind="power", s=float(s))

    @classmethod
    def exp_inverse(cls) -> "EscapeWeight":
        return cls(kind="exp_inverse")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x**self.s
        return np.exp(-1.0 / x)


@dataclass
class EscapeSumResult:
    """Partial sums of the escape series in descending-term order."""

    terms: np.ndarray
    partial_sums: np.ndarray
    total: float
    last_decade_increment: float


def _resolve_exponent(seq: PointSequence, exponent) -> int:
    n = seq.dimension
    if isinstance(exponent, str):
        table = {"n": n, "n+1": n + 1, "2n": 2 * n}
        if exponent not in table:
            raise ParameterError("exponent must be one of 'n', 'n+1', '2n' or an integer")
        return table[exponent]
    return int(exponent)


def escape_sum(seq: PointSequence, weight: EscapeWeight | None = None, exponent="n+1") -> EscapeSumResult:
    """Partial sums of sum_j d(z_j)^e * h(-1/log d(z_j)) with convergence diagnostics.

    Terms are summed largest first (the sequence is a set; this order makes the
    tail diagnostic meaningful), and the last-decade increment is the mass of
    the final 10% of terms.  Sums are truncated at the generator's horizon and
    never extrapolated.
    """
    e = _resolve_exponent(seq, exponent)
    d = seq.boundary_distances
    if len(seq) == 0:
        empty = np.zeros(0)
        return EscapeSumResult(terms=empty, partial_sums=empty, total=0.0, last_decade_increment=0.0)
    terms = d.astype(float) ** e
    if weight is not None:
        if np.any(d >= 1.0):
            raise ParameterError(
                "weighted escape sums require d(z_j) < 1 for every point "
                f"(violated at indices {np.flatnonzero(d >= 1.0)[:5].tolist()})"
            )
        terms = terms * weight(-1.0 / np.log(d))
    order = np.argsort(-terms)
    terms = terms[order]
    partial = np.cumsum(terms)
    cut = int(math.floor(0.9 * len(terms)))
    increment = float(partial[-1] - (partial[cut - 1] if cut >= 1 else 0.0))
    return EscapeSumResult(
        terms=terms,
        partial_sums=partial,
        total=float(partial[-1]),
        last_decade_increment=increment,
    )


@dataclass
class ShellCounts:
    """Counts per Kobayashi half-unit shell around a base point, with the
    log-linear growth slope fitted on interior shells."""

    counts: np.ndarray
    slope: float
    slope_se: float
    fit_shells: tuple[int, ...]

    def rows(self) -> list[tuple[int, int]]:
        return [(int(m), int(c)) for m, c in enumerate(self.counts)]


def shell_counts(seq: PointSequence, z0=None) -> ShellCounts:
    """Histogram of k(z0, z_j) over shells [m/2, (m+1)/2) and its growth slope.

    The slope is fitted on interior nonzero shells (the first nonzero shell
    carries a small-count transient and the last one is truncated by the
    generator horizon; both are dropped when at least four shells remain).
    """
    if z0 is None:
        z0 = np.zeros(seq.dimension, dtype=np.complex128)
    z0 = geom.ball_points(np.reshape(z0, (1, -1)), seq.dimension, "base point")[0]
    if len(seq) == 0:
        return ShellCounts(counts=np.zeros(0, dtype=int), slope=math.nan, slope_se=math.nan, fit_shells=())
    rho = geom.pseudo_distance_many(z0, seq.points)
    k = np.arctanh(np.minimum(rho, geom.RHO_CAP))
    m = np.floor(2.0 * k).astype(int)
    counts = np.bincount(m)
    nz = np.flatnonzero(counts)
    fit_idx = nz
    if len(nz) >= 4:
        fit_idx = nz[1:-1]
    if len(fit_idx) < 2:
        return ShellCounts(counts=counts, slope=math.nan, slope_se=math.nan, fit_shells=tuple(int(i) for i in fit_idx))
    slope, slope_se = measures.fit_line(fit_idx, np.log(counts[fit_idx]))
    return ShellCounts(counts=counts, slope=slope, slope_se=slope_se, fit_shells=tuple(int(i) for i in fit_idx))
