"""sequence-geometry: the spatial layer, in process.

One pass:
- ``greedy_pack`` on two candidate clouds made here (C^1, 8,000 points,
  threshold 0.5; C^2, 5,000 points, threshold 0.9), checked index for index
  against a brute-force greedy scan;
- ``PointSequence.maximal_packing(2, 0.9, 0.02)``, checked pairwise separated;
- ``greedy_cover`` in C^1 (epsilon 0.1, r 0.5, 2,000 probes) and C^2
  (epsilon 0.4, r 0.6, 1,000 probes): nothing uncovered, refined multiplicity
  not below the first one, centres separated at the disjointness threshold;
- ``separation_constant`` on fixed uniform clouds in C^2 of 10,000 points
  (exact branch) and 10,001 points (pruned branch), against the exact minimum
  to 1e-12 relative (a known fault: fails on every run today, see below);
- ``greedy_decompose`` and ``shell_counts`` of an 800-point cloud in the disk,
  against first-fit colouring and a shell histogram made here;
- ``escape_sum`` of the ladders (1, 50) and (2, 30) against the closed form;
- the ladder (1, 50) and (1, 30): separation and shell counts against the
  closed form (a known fault: fails on every run today);
- ``ek_ball_measure`` of r = 0.5 balls in C^2 about twelve centres of norm
  0.5 .. 0.999 (three each, seeded directions), against (r^2/(1-r^2))^2: the
  one MC op, which prices mc_tta_s on this workload.

Clouds, packing and cover seeds come from ``--seed``; the ladders and the
separation clouds do not.  ``separation_constant`` evaluates
1 - na*nb/|1 - <a,b>|^2, which cancels when the closest pair is close: its
relative error is about eps/rho_min^2, from 1e-15 to 2.4e-12 over uniform
clouds of these sizes (seeds 1-12).  On a seeded cloud the op would fail on
some seeds only, so it runs on two fixed clouds on which the error exceeds
1e-12 and counts as failed on every run until the fault is mended.
"""

from __future__ import annotations

import numpy as np

import oracles
from harness import Op, time_to_accuracy, z_check

PACK_CLOUDS = ((1, 8_000, 0.5), (2, 5_000, 0.9))  # (n, points, threshold)
MAXIMAL_PACKING = (2, 0.9, 0.02)  # (n, delta, epsilon)
COVERS = ((1, 0.1, 0.5, 2_000), (2, 0.4, 0.6, 1_000))  # (n, epsilon, r, probes)
SEPARATION_CLOUDS = ((10_000, 17), (10_001, 10))  # (points, fixed cloud seed)
DECOMPOSE = (800, 0.3)  # (points in the disk, r)
EK_NORMS = (0.5, 0.9, 0.99, 0.999) * 3  # ball centres at these norms, seeded directions
EK = (0.5, 200_000)  # (r, samples)
CLOUD_RADIUS = 0.99
REL_TOL = 1e-12


def cloud(rng, n: int, m: int, radius: float = CLOUD_RADIUS) -> np.ndarray:
    """m points uniform in the ball of C^n of the given radius."""
    g = rng.standard_normal((m, 2 * n))
    u = g[:, :n] + 1j * g[:, n:]
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * (radius * rng.random(m) ** (1.0 / (2 * n)))[:, None]


def _pack(arr: np.ndarray):
    arr = np.ascontiguousarray(arr)
    return (arr.shape, str(arr.dtype), arr.tobytes())


def _unpack(packed) -> np.ndarray:
    shape, dtype, raw = packed
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _separated(points: np.ndarray, threshold: float, what: str) -> list[str]:
    sep = oracles.min_separation(points)
    return [] if sep >= threshold * (1.0 - REL_TOL) else [f"{what} separation {sep!r} < {threshold!r}"]


def build(seed: int):
    from carleson_lab import invariant_measure, sequences
    from carleson_lab.integrate import MCConfig

    rng = np.random.default_rng([seed, 2])
    PointSequence = sequences.PointSequence
    ops: list[Op] = []
    priced: dict[str, float] = {}

    for n, m, t in PACK_CLOUDS:
        pts = cloud(rng, n, m)

        def check(kept, pts=pts, t=t):
            want = oracles.greedy_pack(pts, t)
            if list(kept) != want.tolist():
                return [f"kept {len(kept)} indices, brute force keeps {len(want)}; first difference at "
                        f"{next((i for i, (a, b) in enumerate(zip(kept, want)) if a != b), min(len(kept), len(want)))}"]
            return []

        ops.append(Op(f"greedy_pack n={n} m={m} t={t}",
                      lambda pts=pts, t=t: tuple(sequences.greedy_pack(pts, t).tolist()), check))

    pack_n, delta, pack_eps = MAXIMAL_PACKING
    pack_seed = int(rng.integers(2**31))
    ops.append(Op(
        f"maximal_packing n={pack_n} delta={delta} eps={pack_eps}",
        lambda: _pack(PointSequence.maximal_packing(pack_n, delta, pack_eps, seed=pack_seed).points),
        lambda packed: (["empty packing"] if len(_unpack(packed)) == 0 else [])
        + _separated(_unpack(packed), delta, "packing"),
    ))

    for n, eps, r, probes in COVERS:
        cover_seed = int(rng.integers(2**31))

        def call(n=n, eps=eps, r=r, probes=probes, cover_seed=cover_seed):
            rep = sequences.greedy_cover(n, eps, r, seed=cover_seed, n_probes=probes)
            return (tuple(sorted(rep.to_json_dict().items())), _pack(rep.centers))

        def check(value):
            report, centers = dict(value[0]), _unpack(value[1])
            problems = []
            if report["uncovered"] != 0:
                problems.append(f"{report['uncovered']} probes uncovered")
            if report["multiplicity_refined"] < report["multiplicity"]:
                problems.append(f"refined multiplicity {report['multiplicity_refined']} < {report['multiplicity']}")
            return problems + _separated(centers, report["disjoint_threshold"], "centre")

        ops.append(Op(f"greedy_cover n={n} eps={eps} r={r} probes={probes}", call, check))

    for m, cloud_seed in SEPARATION_CLOUDS:
        pts = cloud(np.random.default_rng([cloud_seed, m]), 2, m)

        def check(sep, pts=pts):
            exact = oracles.min_pairwise_pseudo(pts)
            err = abs(sep - exact) / exact
            return [] if err <= REL_TOL else [f"{sep!r} vs exact {exact!r}: relative error {err:.2e} > {REL_TOL:.0e}"]

        ops.append(Op(f"separation_constant m={m}",
                      lambda pts=pts: sequences.separation_constant(PointSequence(points=pts)), check,
                      known_fault=True))

    disk_m, disk_r = DECOMPOSE
    disk = PointSequence(points=cloud(rng, 1, disk_m, radius=0.98))
    ops.append(Op(
        f"greedy_decompose m={disk_m} r={disk_r}",
        lambda: tuple(sequences.greedy_decompose(disk, disk_r).color_of.tolist()),
        lambda colors: [] if list(colors) == oracles.first_fit_colors(disk.points, disk_r).tolist() else
        ["colouring differs from first fit"],
    ))
    ops.append(Op(
        f"shell_counts m={disk_m}",
        lambda: tuple(sequences.shell_counts(disk).counts.tolist()),
        lambda counts: [] if list(counts) == oracles.shell_histogram(disk.points).tolist() else
        [f"shell counts {list(counts)} vs {oracles.shell_histogram(disk.points).tolist()}"],
    ))

    ladders = {(n, c): PointSequence.radial_ladder(n, c) for n, c in ((1, 50), (2, 30), (1, 30))}
    for n, c in ((1, 50), (2, 30)):
        exact = oracles.ladder_escape_sum(n, c)
        ops.append(Op(
            f"escape_sum ladder n={n} count={c}",
            lambda lad=ladders[(n, c)]: sequences.escape_sum(lad).total,
            lambda total, exact=exact: [] if abs(total - exact) <= REL_TOL * exact else
            [f"escape sum {total!r} vs closed form {exact!r}"],
        ))

    def ladder_call():
        return (
            sequences.separation_constant(ladders[(1, 50)]),
            sequences.separation_constant(ladders[(1, 30)]),
            tuple(sequences.shell_counts(ladders[(1, 50)]).counts.tolist()),
        )

    def ladder_check(value):
        sep50, sep30, shells = value
        problems = []
        for count, sep in ((50, sep50), (30, sep30)):
            exact = oracles.ladder_separation(count)
            if abs(sep - exact) > REL_TOL * exact:
                problems.append(f"separation of ladder(1, {count}) is {sep!r}, closed form {exact!r}")
        want = oracles.ladder_shell_counts(50).tolist()
        if list(shells) != want:
            problems.append(f"ladder(1, 50) shell counts end {list(shells)[-3:]}, closed form one rung per shell")
        return problems

    ops.append(Op("ladder separation and shells", ladder_call, ladder_check, known_fault=True))

    ek_r, samples = EK
    centres = cloud(rng, 2, len(EK_NORMS), radius=1.0)
    centres *= (np.asarray(EK_NORMS) / np.linalg.norm(centres, axis=1))[:, None]
    exact = oracles.invariant_ball_measure(2, ek_r)
    for k, z in enumerate(centres):
        cfg = MCConfig(seed=int(rng.integers(2**31)), n_samples=samples)

        def call(z=z, cfg=cfg):
            est = invariant_measure.ek_ball_measure(z, ek_r, cfg)
            return (float(np.real(est.value)), float(est.std_error))

        name = f"ek_ball_measure centre={k} |z|={np.linalg.norm(z):.4f} r={ek_r}"
        ops.append(Op(name, call, z_check(exact)))
        priced[name] = exact
    return ops, time_to_accuracy(priced)

