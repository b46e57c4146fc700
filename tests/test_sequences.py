import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from carleson_lab import geometry_ball as g
from carleson_lab import measures as ms
from carleson_lab import sequences as sq
from carleson_lab.errors import CoverageError, ParameterError, ValidationError
from textbook_rho import rho_block, rho_mp, rho_rows


# -- separation constant ------------------------------------------------------

def test_separation_two_points():
    seq = sq.PointSequence(points=[[0.0], [0.5]])
    assert sq.separation_constant(seq) == pytest.approx(0.5, abs=1e-12)


def test_separation_ladder_brute_force_oracle():
    seq = sq.PointSequence.radial_ladder(1, 10)
    brute = min(
        g.pseudo_distance(seq.points[i], seq.points[j]).pseudo
        for i in range(10)
        for j in range(i + 1, 10)
    )
    assert sq.separation_constant(seq) == pytest.approx(brute, abs=1e-12)
    # the tail pairs approach (e - 1) / (e + 1)
    assert brute == pytest.approx((math.e - 1) / (math.e + 1), abs=2e-4)


def test_separation_duplicate_point_is_zero():
    seq = sq.PointSequence(points=[[0.1], [0.1], [0.5]])
    assert sq.separation_constant(seq) == 0.0


def test_separation_needs_two_points():
    with pytest.raises(ParameterError):
        sq.separation_constant(sq.PointSequence(points=[[0.0]]))


def brute_matrix(pts, metric):
    """Distances between all pairs, from the dense textbook matrix forms."""
    if metric == "euclidean":
        return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    rho = rho_block(pts, pts)
    return np.arctanh(rho) if metric == "kobayashi" else rho


def brute_separation(pts, metric):
    d = brute_matrix(pts, metric)
    np.fill_diagonal(d, math.inf)
    return float(d.min())


def test_separation_pruned_path_matches_exact():
    # the tree-pruned separation against every pair, in C^1 and C^2, for all
    # three metrics and with a duplicated point; the dense textbook form
    # carries a relative error of about eps / rho^2
    rng = np.random.default_rng(0)
    for n, radius in ((1, 0.95), (2, 0.99)):
        pts = g.uniform_round_ball(rng, n, 600) * radius
        for metric in sq.METRICS:
            sep = sq.separation_constant(sq.PointSequence(points=pts, metric=metric))
            brute = brute_separation(pts, metric)
            rho = brute if metric != "kobayashi" else math.tanh(brute)
            assert sep == pytest.approx(brute, rel=64 * np.finfo(float).eps / rho**2)
            dup = sq.PointSequence(points=np.vstack([pts, pts[417]]), metric=metric)
            assert sq.separation_constant(dup) == 0.0
    # each point's Euclidean nearest neighbour is radial (rho ~ 0.114), while
    # the closest pair in rho is complex-tangential (rho ~ 0.048)
    z, t = np.array([0.95, 0.0]), np.array([0.95, 0.015])
    pts = np.array([z, z * (1 + 0.01 / 0.95), t, t * (1 + 0.01 / np.linalg.norm(t))], dtype=complex)
    sep = sq.separation_constant(sq.PointSequence(points=pts))
    assert sep == pytest.approx(brute_separation(pts, "pseudohyperbolic"), rel=1e-12)
    assert sep < 0.05


def test_separation_accurate_to_closest_pairs_at_50_digits():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        pts = g.uniform_round_ball(rng, n, 1500) * 0.999
        rho = rho_block(pts, pts)
        np.fill_diagonal(rho, math.inf)
        # every pair near the dense minimum, re-evaluated exactly
        close = np.argwhere(rho <= rho.min() * (1.0 + 1e-6) + 1e-12)
        exact = min(rho_mp(pts[i], pts[j]) for i, j in close)
        sep = sq.separation_constant(sq.PointSequence(points=pts))
        assert abs(sep - exact) <= 1e-12 * exact


def test_pair_kernel_near_boundary_close_pairs():
    # |z| <= 0.999 and |z - w| ~ 1e-4: where 1 - product loses up to 1e-7
    rng = np.random.default_rng(13)
    for n in (1, 2):
        z = g.uniform_round_ball(rng, n, 200)
        z *= (0.999 * rng.random(200) ** 0.1 / np.linalg.norm(z, axis=1))[:, None]
        w = z + 1e-4 * g.uniform_round_ball(rng, n, 200)
        exact = np.array([rho_mp(a, b) for a, b in zip(z, w)])
        for rho in (sq._pair_distance("pseudohyperbolic", z, w), np.diag(sq.pseudo_block(z, w))):
            assert np.max(np.abs(rho - exact) / exact) <= 1e-12


def unit_directions(rng, n, m):
    d = g.uniform_round_ball(rng, n, m)
    return d / np.linalg.norm(d, axis=1)[:, None]


def at_distance(z, w):
    """phi_z(w) for each pair of rows: the point at pseudo distance |w| from z."""
    return np.array([g.ball_automorphism_many(a, b[None, :])[0] for a, b in zip(z, w)])


def beside(t):
    """t and the doubles one ulp either side of it."""
    return np.array([np.nextafter(t, 0.0), t, np.nextafter(t, 2.0)])


@pytest.mark.parametrize("n", [1, 2])
def test_has_within_decides_like_all_pairs_at_the_threshold(n):
    # each query gets one target at distance t from it, or one ulp either side,
    # out to |z| = 0.999; the thresholds also include the computed distance of
    # a query's own pair (a tie) and the doubles beside it
    rng = np.random.default_rng(17)
    m = 700  # more than one QUERY_BLOCK of queries
    queries = unit_directions(rng, n, m) * (0.999 * rng.random(m) ** 0.1)[:, None]
    queries[:20] *= 0.999 / np.linalg.norm(queries[:20], axis=1)[:, None]
    for metric, t in (("pseudohyperbolic", 0.5), ("kobayashi", 1.2), ("euclidean", 0.02)):
        engine, t = sq._pseudo_threshold(metric, t)
        w = unit_directions(rng, n, m) * beside(t)[rng.integers(3, size=m)][:, None]
        targets = queries + w if engine == "euclidean" else at_distance(queries, w)
        tree = sq._kdtree(g.points_to_rows(targets))
        dist = sq._pair_distance(engine, queries[:, None, :], targets[None, :, :])
        nearest = dist[np.arange(m), tree.query(g.points_to_rows(queries))[1]]
        for tie in np.diagonal(dist)[:3]:
            for thr in (t, *beside(tie)):
                want = (dist < thr).any(axis=1)
                assert np.array_equal(sq._has_within(engine, queries, targets, tree, thr), want), (metric, thr)
        # both paths decide at t: the nearest target, and in the ball's metric
        # (where the Euclidean-nearest target may be farther) the neighbour lists
        assert (nearest < t).any(), metric
        assert engine == "euclidean" or ((dist < t).any(axis=1) & (nearest >= t)).any(), metric


def test_count_within_matches_reference_on_cover_centres():
    # the multiplicity count against the textbook distance, with the cover's
    # centres and with queries out to |z| = 0.999
    rng = np.random.default_rng(15)
    for n, eps, seed in ((1, 0.1, 0), (2, 0.3, 1)):
        centers = sq.greedy_cover(n, eps, 0.5, seed=seed, n_probes=2000).centers
        queries = np.vstack([centers, 0.999 * g.uniform_round_ball(rng, n, 3000)])
        for radius in (0.75, 0.3):
            brute = np.count_nonzero(rho_block(queries, centers) < radius, axis=1)
            assert np.array_equal(sq._count_within("pseudohyperbolic", queries, centers, radius), brute), (n, radius)
        # pivot blocks at their extreme: 16 queries are one KD-tree leaf, so the
        # first is the pivot; the other 15 lie at up to R from it, the last at
        # exactly R, and the 16 are targets too.  Extra targets lie on the
        # geodesic from the pivot through each of the 15, at R (1 -+ 1e-9)
        # beyond it, so within about 1e-9 of the pivot's bound 2R / (1 + R^2).
        # Every count is the distance's, the pair at exactly R included
        pivots = np.vstack([np.zeros((1, n)), centers[:: len(centers) // 4],
                            unit_directions(rng, n, 4) * np.array([0.9, 0.99, 0.999, 0.999])[:, None]])
        for radius in (0.75, 0.3):
            for p in pivots:
                reach = radius * np.linspace(0.4, 1.0, 15)
                ring = at_distance(np.tile(p, (15, 1)), unit_directions(rng, n, 15) * reach[:, None])
                group = np.vstack([p, ring])
                assert sq._kdtree(g.points_to_rows(group)).indices.tolist() == list(range(16))
                pulled = np.array([g.ball_automorphism_many(q, p[None, :])[0] for q in ring])
                away = -pulled / np.linalg.norm(pulled, axis=1)[:, None]
                steps = np.tile(radius * np.array([1.0 - 1e-9, 1.0 + 1e-9]), 15)
                far = at_distance(np.repeat(ring, 2, axis=0), np.repeat(away, 2, axis=0) * steps[:, None])
                targets = np.vstack([centers, group, far])
                want = np.count_nonzero(sq.pseudo_block(group, targets) < radius, axis=1)
                assert np.array_equal(sq._count_within("pseudohyperbolic", group, targets, radius), want)


@pytest.mark.parametrize("metric", sq.METRICS)
def test_count_within_is_the_distance_however_the_queries_are_blocked(metric):
    # queries out to |z| = 0.999 are targets too, and each has a target at
    # R (1 -+ 1e-15) or R from it.  The counts are the distance's pair by pair,
    # for the queries in tree blocks, permuted, reversed or one at a time.  At
    # r = 1e-9 every query counts itself
    rng = np.random.default_rng(23)
    n = 2
    queries = g.uniform_round_ball(rng, n, 300)
    queries *= (0.999 * rng.random(300) ** 0.2 / np.linalg.norm(queries, axis=1))[:, None]
    assert len(queries) > 4 * sq.PIVOT_BLOCK
    for r in (0.4, 1e-9):
        engine, t = sq._pseudo_threshold(metric, r)
        w = unit_directions(rng, n, 300) * (t * (1.0 + rng.choice([-1e-15, 0.0, 1e-15], 300)))[:, None]
        targets = np.vstack([queries, queries + w if engine == "euclidean" else at_distance(queries, w),
                             0.99 * g.uniform_round_ball(rng, n, 300)])
        want = np.count_nonzero(sq._pair_distance(engine, queries[:, None, :], targets) < t, axis=1)
        assert np.array_equal(sq._count_within(engine, queries, targets, t), want), r
        perm = rng.permutation(300)
        assert np.array_equal(sq._count_within(engine, queries[perm], targets, t), want[perm]), r
        assert np.array_equal(sq._count_within(engine, queries[::-1], targets, t), want[::-1]), r
        assert [sq._count_within(engine, q[None, :], targets, t)[0] for q in queries] == want.tolist(), r
    assert np.all(want >= 1)


def test_separation_kobayashi_metric():
    seq = sq.PointSequence(points=[[0.0], [0.5]], metric="kobayashi")
    assert sq.separation_constant(seq) == pytest.approx(math.atanh(0.5), abs=1e-12)


# -- counting ------------------------------------------------------------------

def test_count_in_ball_examples():
    seq = sq.PointSequence(points=[[0.0], [0.5]])
    assert sq.count_in_ball(seq, [0.0], 0.6) == 2
    assert sq.count_in_ball(seq, [0.0], 0.4) == 1
    empty = sq.PointSequence(points=np.zeros((0, 1)))
    assert sq.count_in_ball(empty, [0.0], 0.5) == 0
    assert sq.count_in_balls(empty, [[0.0], [0.5]], 0.5).tolist() == [0, 0]


@pytest.mark.parametrize("metric", sq.METRICS)
def test_count_in_balls_is_count_in_ball_per_centre(metric):
    # every metric reaches its threshold the one way, over blocks of centres too
    pts = g.uniform_round_ball(np.random.default_rng(3), 2, 400) * 0.99
    seq = sq.PointSequence(points=pts, metric=metric)
    centres = pts[::5]
    assert len(centres) > sq.PIVOT_BLOCK  # more than one block
    for r in (0.3, 0.9):
        assert sq.count_in_balls(seq, centres, r).tolist() == [sq.count_in_ball(seq, p, r) for p in centres]
    assert sq.count_in_balls(seq, centres[:0], 0.5).tolist() == []


# -- decomposition ------------------------------------------------------------

def test_decompose_euclidean_hand_example():
    # scaled copy of the classic 1-d example: two interleaved pairs
    seq = sq.PointSequence(points=[[0.0], [0.05], [0.5], [0.55]], metric="euclidean")
    dec = sq.greedy_decompose(seq, 0.1)
    assert dec.n_colors == 2
    classes = [set(c.tolist()) for c in dec.classes()]
    assert {0, 2} in classes and {1, 3} in classes
    # each class is separated by at least 0.45
    for cls in dec.classes():
        pts = seq.points[cls]
        d = abs(pts[0, 0] - pts[1, 0])
        assert d >= 0.45


def test_decompose_already_separated_single_class():
    seq = sq.PointSequence(points=[[0.0], [0.6]], metric="pseudohyperbolic")
    dec = sq.greedy_decompose(seq, 0.3)
    assert dec.n_colors == 1


def brute_check_decomposition(seq, dec, r):
    for cls in dec.classes():
        pts = seq.points[cls]
        if len(pts) < 2:
            continue
        rho = rho_block(pts, pts)
        np.fill_diagonal(rho, 1.0)
        assert rho.min() >= r
    bound = max(sq.count_in_ball(seq, p, r) for p in seq.points)
    assert dec.n_colors <= bound


def test_decompose_matches_bruteforce_first_fit():
    rng = np.random.default_rng(4)
    for n, r in ((1, 0.3), (2, 0.5)):
        pts = g.uniform_round_ball(rng, n, 600) * 0.99
        for metric in sq.METRICS:
            t = r / 4 if metric == "euclidean" else r
            d = brute_matrix(pts, metric)
            colors = []
            for i in range(len(pts)):
                used = {colors[j] for j in np.flatnonzero(d[i, :i] < t)}
                colors.append(next(c for c in range(len(pts)) if c not in used))
            dec = sq.greedy_decompose(sq.PointSequence(points=pts, metric=metric), t)
            assert dec.color_of.tolist() == colors, (n, metric)
            assert dec.n_colors == max(colors) + 1


def test_decompose_random_cloud_postconditions():
    rng = np.random.default_rng(3)
    pts = g.uniform_round_ball(rng, 1, 500) * 0.98
    seq = sq.PointSequence(points=pts)
    dec = sq.greedy_decompose(seq, 0.3)
    brute_check_decomposition(seq, dec, 0.3)


# -- greedy pack ---------------------------------------------------------------

def test_greedy_pack_small_inputs():
    pts = np.array([[0.0], [0.05], [0.5], [0.9]], dtype=complex)
    kept = sq.greedy_pack(pts, 0.3)
    rho = rho_block(pts[kept], pts[kept])
    np.fill_diagonal(rho, 1.0)
    assert rho.min() >= 0.3
    assert 0 in kept  # first point always kept
    assert sq.greedy_pack(pts[:1], 0.3).tolist() == [0]
    assert sq.greedy_pack(np.zeros((0, 1), dtype=complex), 0.3).tolist() == []
    assert sq.greedy_pack([], 0.3).tolist() == []  # no candidates, where scipy's tree raised


def brute_greedy(pts, threshold, metric):
    """The greedy rule, one point at a time against every kept point."""
    kept = []
    for i, p in enumerate(pts):
        if kept:
            if metric == "euclidean":
                d = np.linalg.norm(pts[kept] - p, axis=1)
            else:
                d = rho_block(p[None, :], pts[kept])[0]
                if metric == "kobayashi":
                    d = np.arctanh(d)
            if not np.all(d >= threshold):
                continue
        kept.append(i)
    return kept


def test_greedy_pack_tree_path_matches_bruteforce():
    rng = np.random.default_rng(5)
    cases = (
        (2, 3000, 0.95, 0.25, "pseudohyperbolic"),
        (2, 3000, 0.99, 0.9, "pseudohyperbolic"),
        (1, 3000, 0.99, 0.5, "pseudohyperbolic"),
        (2, 3000, 0.99, 1.2, "kobayashi"),
        (2, 3000, 0.99, 0.1, "euclidean"),
        # dense: ten chunks, ~300 kept in several forest merges
        (2, 5000, 0.99, 0.9, "pseudohyperbolic"),
        # nearly every point kept, one chunk past 2^3 chunks: the forest has
        # just merged into one tree when the last chunk asks it
        (1, 8 * sq.QUERY_BLOCK + 1, 0.9, 0.01, "pseudohyperbolic"),
        (1, 8 * sq.QUERY_BLOCK + 1, 0.9, 0.004, "euclidean"),
    )
    for n, m, radius, t, metric in cases:
        pts = g.uniform_round_ball(rng, n, m) * radius
        kept = sq.greedy_pack(pts, t, metric=metric)
        assert kept.tolist() == brute_greedy(pts, t, metric), (n, t, metric)


def dense_cloud():
    """5,000 points uniform in the ball of radius 0.99 in C^2: at t = 0.9 a
    packing keeps ~300, over ten chunks and several forest merges."""
    rng = np.random.default_rng(21)
    return g.uniform_round_ball(rng, 2, 5000) * 0.99


def test_greedy_pack_peak_memory_is_bounded():
    # the pair budget bounds what one block of neighbour lists holds; one
    # 512-query block of this cloud holds 149,000 candidate pairs, and the
    # peak with such blocks was 18.7 MB
    pts = dense_cloud()
    sq.greedy_pack(pts[:600], 0.9)  # load scipy.spatial before measuring
    tracemalloc.start()
    try:
        sq.greedy_pack(pts, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6, peak


@pytest.mark.parametrize("earlier", [False, True])
def test_near_pairs_splits_dense_blocks_and_yields_each_pair_once(earlier):
    # at t = 0.9 a 512-query block of this cloud holds ~10^4 to 10^5 candidate
    # pairs, so blocks split; the pairs must be those of a brute-force scan
    pts = dense_cloud()[:3000]
    queries = pts[:2000] if earlier else pts[2000:]
    tree = sq._kdtree(g.points_to_rows(pts[:2000]))
    blocks = list(sq._near_pairs("pseudohyperbolic", queries, tree, 0.9, earlier=earlier))
    owner = np.concatenate([o for o, _ in blocks])
    index = np.concatenate([i for _, i in blocks])
    dist = cdist(g.points_to_rows(queries), tree.data)
    inside = dist <= g.metric_ball_reach(queries, 0.9)[:, None]
    if earlier:
        inside &= np.tri(len(queries), k=-1, dtype=bool)
    want_owner, want_index = np.nonzero(inside)
    assert len(blocks) > 2 * math.ceil(len(queries) / sq.QUERY_BLOCK)
    assert np.all(np.diff(owner) >= 0)  # owners ascending
    bounds = [(o[0], o[-1]) for o, _ in blocks if len(o)]
    assert all(last < first for (_, last), (first, _) in zip(bounds, bounds[1:]))  # no query spans two blocks
    order = np.lexsort((index, owner))
    assert np.array_equal(owner[order], want_owner) and np.array_equal(index[order], want_index)
    assert max(len(o) for o, _ in blocks) <= 2 * sq.PAIR_BUDGET


def test_euclid_capture_radius_is_sound():
    # every pair at pseudo distance < t lies within the reach of its first point
    rng = np.random.default_rng(9)
    for n in (1, 2):
        pts = g.uniform_round_ball(rng, n, 400)
        pts *= (0.999 * rng.random(400) ** 0.05 / np.linalg.norm(pts, axis=1))[:, None]
        rho = rho_block(pts, pts)
        eu = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        for t in (0.35, 0.9):
            radii = g.metric_ball_reach(pts, t)
            mask = rho < t
            assert np.all(eu[mask] <= radii[np.nonzero(mask)[0]])


def test_euclid_capture_radius_is_tight():
    # against points on the metric sphere: exact for the disk, and at most
    # 1.3 x the farthest point for n >= 2 (the ellipsoid bound |z - c| + a
    # peaks at 1.283 near |z| = 0.966 for t = 0.9)
    rng = np.random.default_rng(10)
    for n in (1, 2):
        for t in (0.35, 0.9):
            for norm in (0.0, 0.5, 0.9, 0.966, 0.99, 0.999):
                z = np.zeros(n, dtype=complex)
                z[0] = norm
                ball = g.kobayashi_ball(z, t)
                if n == 1:
                    sphere = np.exp(2j * np.pi * np.arange(100_000) / 100_000)[:, None]
                else:
                    sphere = g.uniform_round_ball(rng, n, 20_000)
                    sphere /= np.linalg.norm(sphere, axis=1)[:, None]
                on_sphere = g.map_round_to_ellipsoid(ball, sphere)
                assert np.allclose(rho_rows(z, on_sphere), t, rtol=1e-9)
                farthest = float(np.linalg.norm(on_sphere - z, axis=1).max())
                reach = float(g.metric_ball_reach(z[None, :], t)[0])
                assert farthest <= reach
                assert reach <= (1.0 + 1e-6 if n == 1 else 1.3) * farthest


# -- generators ----------------------------------------------------------------

def test_ladder_boundary_distances_exact():
    seq = sq.PointSequence.radial_ladder(1, 50)
    assert np.allclose(seq.boundary_distances, np.exp(-np.arange(1, 51)), rtol=0, atol=0)
    assert np.all(np.linalg.norm(seq.points, axis=1) < 1.0)


def test_maximal_packing_separation_and_depth():
    pack = sq.PointSequence.maximal_packing(1, 0.5, 0.01, seed=2)
    assert sq.separation_constant(pack) >= 0.5
    assert np.all(seq_depth(pack) >= 0.0099)


def seq_depth(seq):
    return 1.0 - np.linalg.norm(seq.points, axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
@pytest.mark.parametrize("d", [3, 5, 41])
def test_scrambled_sobol_is_scipy_bit_for_bit(d, seed):
    # the candidates of packings and covers: LMS + shift scrambled Sobol points,
    # drawn in numpy without importing scipy.stats
    from scipy.stats import qmc

    for m in (0, 1, 10, 16):
        want = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)
        got = sq._scrambled_sobol(d, 2**m, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want), m
    # a count between powers of two is the head of the sequence
    assert np.array_equal(sq._scrambled_sobol(d, 777, seed), want[:777])


def test_scrambled_sobol_zero_count_is_empty():
    assert sq._scrambled_sobol(3, 0, 0).shape == (0, 3)
    with pytest.raises(CoverageError):
        sq.greedy_cover(1, 0.1, 0.5, n_candidates=0, n_probes=100)


def test_scrambled_sobol_dimension_beyond_the_table():
    from scipy.stats import qmc

    with pytest.raises(ParameterError, match=str(qmc.Sobol.MAXDIM)):
        sq._scrambled_sobol(qmc.Sobol.MAXDIM + 1, 1, 0)


@pytest.mark.parametrize("n", [300, 11_000])
def test_candidate_nets_overflow_in_high_dimension(n):
    # the candidate count is a power of n: past double range, packings and
    # covers raise OverflowError, whether the dividend overflows or the
    # divisor underflows to 0
    with pytest.raises(OverflowError):
        sq.PointSequence.maximal_packing(n, 0.5, 0.05)
    with pytest.raises(OverflowError):
        sq.greedy_cover(n, 0.1, 0.5)


def test_perturbed_lattice_interior():
    seq = sq.PointSequence.perturbed_lattice(1, spacing=0.25, seed=1)
    assert len(seq) > 10
    assert np.all(seq_depth(seq) >= 0.049)


def test_perturbed_lattice_metric():
    # the metric is passed through, like the other generators; the points are not moved
    base = sq.PointSequence.perturbed_lattice(1, spacing=0.25, seed=1)
    seq = sq.PointSequence.perturbed_lattice(1, spacing=0.25, seed=1, metric="euclidean")
    assert seq.metric == "euclidean" and base.metric == "pseudohyperbolic"
    assert np.array_equal(seq.points, base.points)
    for spacing in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            sq.PointSequence.perturbed_lattice(1, spacing=spacing)


def test_points_are_finite_and_have_coordinates():
    # an empty list would be one point of no coordinates, and NaN is not at
    # least 1, so both passed the unit-ball check alone; no points of a
    # dimension is a valid sequence
    for points in ([], [[]], np.zeros((3, 0)), [[math.nan]], [[0.1], [complex(0.0, math.inf)]]):
        with pytest.raises(ValidationError):
            sq.PointSequence(points=points)
    assert len(sq.PointSequence(points=np.zeros((0, 2)))) == 0


def test_non_finite_points_are_refused_before_any_norm():
    # a norm of an infinite coordinate warns (inf * 0 in numpy's complex
    # norm); the refusal comes first, so no warning precedes it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (lambda: sq.PointSequence(points=[[math.inf, 0.1]]),
                     lambda: ms.Measure.from_atoms([[math.inf]], [1.0]),
                     lambda: g.ball_points([[complex(math.inf, math.inf)]])):
            with pytest.raises(ValidationError, match="finite"):
                make()


# -- dirac measure ------------------------------------------------------------

def test_dirac_measure_origin():
    seq = sq.PointSequence(points=np.zeros((1, 2)))
    mu = sq.dirac_carleson_measure(seq)
    assert mu.atom_weights[0] == pytest.approx(1.0)


def test_dirac_measure_ladder_mass():
    seq = sq.PointSequence.radial_ladder(1, 50)
    mu = sq.dirac_carleson_measure(seq)
    assert math.fsum(mu.atom_weights) == pytest.approx(1.0 / (math.e**2 - 1.0), abs=1e-6)
    assert math.fsum(mu.atom_weights) == pytest.approx(0.156518, abs=1e-6)


# -- escape sums ---------------------------------------------------------------

def test_escape_sum_ladder_weighted_dilogarithm():
    seq = sq.PointSequence.radial_ladder(1, 50)
    res = sq.escape_sum(seq, weight=sq.EscapeWeight.power(2.0), exponent="n")
    oracle = float(mpmath.polylog(2, math.exp(-1.0)))
    assert res.total == pytest.approx(oracle, abs=1e-4)
    assert res.total == pytest.approx(0.40875, abs=1e-4)


def test_escape_sum_exponent_plain_equals_dirac_mass():
    seq = sq.PointSequence.radial_ladder(1, 30)
    res = sq.escape_sum(seq, exponent="n+1")
    mu = sq.dirac_carleson_measure(seq)
    assert res.total == pytest.approx(math.fsum(mu.atom_weights), rel=1e-12)


def test_escape_sum_exp_inverse_recovers_plain():
    seq = sq.PointSequence.radial_ladder(1, 30)
    plain = sq.escape_sum(seq, exponent="n+1").total
    via_weight = sq.escape_sum(seq, weight=sq.EscapeWeight.exp_inverse(), exponent="n").total
    assert via_weight == pytest.approx(plain, rel=1e-12)


def test_escape_sum_monotone_partials():
    seq = sq.PointSequence.maximal_packing(1, 0.6, 0.05, seed=3)
    res = sq.escape_sum(seq, exponent="2n")
    assert np.all(np.diff(res.partial_sums) >= 0.0)


def test_escape_sum_finite_sequence_trivially_finite():
    seq = sq.PointSequence(points=[[0.1], [0.2]])
    res = sq.escape_sum(seq, weight=sq.EscapeWeight.power(3.0), exponent="n")
    assert np.isfinite(res.total)


def test_escape_weight_validation():
    with pytest.raises(ParameterError):
        sq.EscapeWeight.power(-1.0)


def test_escape_sum_requires_depth_below_one():
    seq = sq.PointSequence(points=np.zeros((1, 1)))  # d(0) = 1
    with pytest.raises(ParameterError):
        sq.escape_sum(seq, weight=sq.EscapeWeight.power(2.0), exponent="n")


# -- shell counts --------------------------------------------------------------

def test_shell_counts_ladder_one_per_shell():
    seq = sq.PointSequence.radial_ladder(1, 30)
    res = sq.shell_counts(seq)
    # k(0, z_m) = arctanh(1 - e^-m) ~ (m + log 2) / 2: about one point per shell
    assert res.counts.max() <= 2
    assert abs(res.slope) <= 0.2


def test_shell_counts_empty_shells_are_zero():
    seq = sq.PointSequence(points=[[0.0], [0.9]])
    res = sq.shell_counts(seq)
    assert res.counts[0] == 1
    assert res.counts.sum() == 2
    assert np.count_nonzero(res.counts) == 2


def test_shell_counts_packing_slope_near_dimension():
    pack = sq.PointSequence.maximal_packing(1, 0.5, 1e-3, seed=4)
    res = sq.shell_counts(pack)
    assert res.slope == pytest.approx(1.0, abs=0.2)


# -- covering ------------------------------------------------------------------

def test_cover_small_region_degenerates_gracefully():
    # the deep region sits inside a single metric r-ball about the origin;
    # the construction still certifies and covers it with a handful of balls
    # (the candidate margin extends slightly deeper than the probed region)
    eps, r = 0.85, 0.5
    assert 1.0 - eps < r  # K_eps is contained in B(0, r)
    rep = sq.greedy_cover(1, eps, r, seed=1, n_probes=2000)
    assert rep.net_certified
    assert rep.uncovered == 0
    assert len(rep.centers) <= 8


def test_cover_disk_report():
    rep = sq.greedy_cover(1, 0.1, 0.5, seed=0, n_probes=10_000)
    assert rep.net_certified
    assert rep.uncovered == 0
    assert abs(rep.multiplicity - rep.multiplicity_refined) <= 1
    # selected centers pairwise at or above the tangency threshold
    rho = rho_block(rep.centers, rep.centers)
    np.fill_diagonal(rho, 1.0)
    assert rho.min() >= rep.disjoint_threshold
    assert rep.disjoint_threshold == pytest.approx(2 * (0.5 / 3) / (1 + (0.5 / 3) ** 2), rel=1e-12)


def test_cover_sparse_candidates_raise():
    with pytest.raises(CoverageError):
        sq.greedy_cover(1, 0.05, 0.3, seed=0, n_candidates=128, n_probes=2000)


def test_cover_refuses_no_probes():
    # with no probe the net and the coverage would be certified on nothing
    for n_probes in (0, -1):
        with pytest.raises(ParameterError, match="probe count"):
            sq.greedy_cover(1, 0.1, 0.5, n_probes=n_probes)


def test_disjointness_threshold_value():
    t = 1 / 6
    assert sq.disjointness_threshold(t) == pytest.approx(math.tanh(2 * math.atanh(t)), rel=1e-12)


# -- discrete chain (fast slice) ------------------------------------------------

def test_counts_bounded_for_packing():
    pack = sq.PointSequence.maximal_packing(1, 0.5, 0.02, seed=6)
    probes = [pack.points[i] for i in range(0, len(pack), 7)]
    counts = [sq.count_in_ball(pack, p, 0.5) for p in probes]
    # half-separation balls are disjoint: counts stay small
    assert max(counts) <= 12


def test_count_sup_stable_under_probe_refinement():
    # the ball-count supremum over nested probe grids settles quickly
    pack = sq.PointSequence.maximal_packing(1, 0.4, 0.01, seed=9)
    rng = np.random.default_rng(4)
    probes = g.uniform_round_ball(rng, 1, 4000) * 0.99
    base_pts = np.vstack([pack.points, probes[:1000]])
    refined_pts = np.vstack([pack.points, probes])
    base = max(sq.count_in_ball(pack, p, 0.4) for p in base_pts)
    refined = max(sq.count_in_ball(pack, p, 0.4) for p in refined_pts)
    assert refined >= base
    assert refined - base <= 1
