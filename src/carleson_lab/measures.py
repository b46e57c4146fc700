"""Finite positive measures on the ball and the Carleson-condition testers.

Boundedness of an asymptotic quantity is undecidable from finitely many probes,
so each tester works a boundary-approach schedule (radial and tangentially
offset centers at dyadic depths), fits a log-log slope, and returns one of
three verdicts: "pass", "fail", or an explicit "inconclusive".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bergman, geometry_ball as geom
from .errors import ParameterError, ValidationError
from .integrate import EstimateWithError, MCConfig, integrate_density, integrate_over_balls

__all__ = [
    "PowerDensity",
    "Measure",
    "boundary_schedule",
    "measure_of_ball",
    "carleson_ratio_test",
    "carleson_berezin_test",
    "carleson_functional_test",
    "cross_check_equivalence",
    "CrossCheckConfig",
    "CarlesonVerdict",
    "ApproachTest",
    "fit_line",
    "bundled_measure_suite",
]

# slope threshold separating "bounded" from "divergent" boundary behaviour
SLOPE_THRESHOLD = -0.1
# ratios spread more than this between the deepest quartile and the median
# indicate growth towards the boundary
GROWTH_LIMIT = 10.0


@dataclass(frozen=True)
class PowerDensity:
    """Radial density (1 - ||zeta||^2)^s against normalised volume."""

    s: float

    def __call__(self, points) -> np.ndarray:
        return self.of_delta(geom.one_minus_norm_sq(np.atleast_2d(points)))

    def of_delta(self, delta) -> np.ndarray:
        """The density at points with 1 - ||zeta||^2 = ``delta``."""
        return np.maximum(delta, 0.0) ** self.s

    @property
    def pole_order(self) -> float:
        """The order of the boundary pole, max(0, -s)."""
        return max(0.0, -self.s)


@dataclass(frozen=True, eq=False)
class Measure:
    """Finite positive Borel measure: atoms plus a power density against volume."""

    dimension: int
    atom_points: np.ndarray
    atom_weights: np.ndarray
    density: PowerDensity | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValidationError("a measure needs dimension >= 1")
        pts = geom.ball_points(self.atom_points, self.dimension, "atoms")
        w = np.asarray(self.atom_weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.size:
            raise ValidationError("atom points and weights must align")
        if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
            raise ValidationError("atom weights must be positive and finite")
        if self.density is not None and not isinstance(self.density, PowerDensity):
            raise ValidationError("density must be a PowerDensity or None")
        object.__setattr__(self, "atom_points", pts)
        object.__setattr__(self, "atom_weights", w)

    # -- constructors -------------------------------------------------------
    @classmethod
    def lebesgue(cls, dimension: int) -> "Measure":
        return cls.with_power_density(dimension, 0.0)

    @classmethod
    def with_power_density(cls, dimension: int, exponent: float) -> "Measure":
        return cls(
            dimension=dimension,
            atom_points=np.zeros((0, dimension), dtype=np.complex128),
            atom_weights=np.zeros(0),
            density=PowerDensity(exponent),
        )

    @classmethod
    def dirac(cls, point, weight: float = 1.0) -> "Measure":
        p = geom.as_point(point)
        return cls.from_atoms(p[None, :], [weight])

    @classmethod
    def from_atoms(cls, points, weights) -> "Measure":
        pts = geom.ball_points(points, name="atoms")
        return cls(dimension=pts.shape[1], atom_points=pts, atom_weights=np.asarray(weights, dtype=float))

    # -- basic queries -------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        return int(self.atom_points.shape[0])

    @property
    def pole_order(self) -> float:
        return self.density.pole_order if self.density is not None else 0.0


def measure_of_ball(mu: Measure, ball, cfg: MCConfig) -> EstimateWithError | list[EstimateWithError]:
    """mu(B) for a metric ball: atoms counted exactly, density part by MC.

    ``ball`` is a :class:`~carleson_lab.geometry_ball.KobayashiBall` or a grid,
    a list of them; a grid gets a list of estimates whose density parts come
    from one stratified draw (:func:`~carleson_lab.integrate.integrate_over_balls`).
    """
    grid = [ball] if isinstance(ball, geom.KobayashiBall) else list(ball)
    if any(b.dimension != mu.dimension for b in grid):
        raise ParameterError("ball and measure dimensions differ")
    if mu.density is None:
        dens = [EstimateWithError(value=0.0, std_error=0.0, n_effective=mu.n_atoms)] * len(grid)
    else:
        dens = integrate_over_balls(mu.density, grid, cfg)
    atoms = [math.fsum(mu.atom_weights[b.contains(mu.atom_points)]) if mu.n_atoms else 0.0 for b in grid]
    masses = [EstimateWithError(a + e.value, e.std_error, e.n_effective, e.n_excluded) for a, e in zip(atoms, dens)]
    return masses[0] if isinstance(ball, geom.KobayashiBall) else masses


def boundary_schedule(n: int, k_max: int = 12) -> list[np.ndarray]:
    """Centers approaching the boundary at dyadic depths d = 2^-k, k = 1..k_max.

    The radial family walks straight along e_1; the tangential family adds a
    sideways offset of size ~ sqrt(d) so the approach is not purely radial.
    """
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    u = np.zeros(n, dtype=np.complex128)
    u[0] = 1.0
    if n > 1:
        v = np.zeros(n, dtype=np.complex128)
        v[1] = 1.0
    else:
        v = 1j * u
    centers = []
    for k in range(1, k_max + 1):
        d = 2.0 ** (-k)
        for c in ((1.0 - d) * u, (1.0 - d) * (u + 0.5 * math.sqrt(d) * v)):
            centers.append(geom.interior_point(c, name=f"a centre at depth 2^-{k}"))
    return centers


def fit_line(x, y) -> tuple[float, float]:
    """OLS slope of y against x with its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    sxx = float(np.sum(xc**2))
    if sxx == 0.0:  # one x value (probes at one depth): no line
        return math.nan, math.nan
    slope = float(np.sum(xc * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(x.size - 2, 1)
    slope_se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return slope, slope_se


@dataclass
class ApproachTest:
    """One boundary-approach test: a row per probe holding its statistic under
    ``value``; ``sup``, the largest row; and the divergence verdict of the
    rows' log-log line of value against depth ``d``."""

    rows: list[dict]
    sup: EstimateWithError
    slope: float
    slope_se: float
    growth: float
    verdict: str


def _sup(rows: list[dict], n_samples: int) -> EstimateWithError:
    best = max(range(len(rows)), key=lambda i: rows[i]["value"])
    return EstimateWithError(rows[best]["value"], rows[best]["std_error"], n_samples)


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-d array bit for bit (the middle value, or the mean of
    the two middle values; NaN if any value is NaN), without the ``numpy.ma``
    import that the first ``np.median`` call costs."""
    if not x.size or np.isnan(x).any():
        return math.nan
    s = np.sort(x)
    h = x.size // 2
    return float(s[h] if x.size % 2 else (s[h - 1] + s[h]) / 2.0)


def _approach_test(rows: list[dict], n_samples: int) -> ApproachTest:
    """The sup of ``rows`` and the pass/fail/inconclusive verdict on their values.

    The log-log slope of value against depth is fitted on the positive values;
    empty deep balls are evidence of boundedness, not divergence, so a
    confident negative slope only fails when the deepest quartile actually
    carries the largest values.
    """
    sup = _sup(rows, n_samples)
    depths = np.asarray([row["d"] for row in rows], dtype=float)
    values = np.asarray([row["value"] for row in rows], dtype=float)
    errors = np.asarray([row["std_error"] for row in rows], dtype=float)
    positive = values > 0.0
    d, v, e = depths[positive], values[positive], errors[positive]
    if v.size < 3 or _median(e / v) > 0.5:
        return ApproachTest(rows, sup, math.nan, math.nan, math.nan, "inconclusive")
    slope, slope_se = fit_line(np.log(d), np.log(v))
    order = np.argsort(depths)  # deepest first, zeros included
    deep = values[order][: max(1, len(values) // 4)]
    growth = float(np.max(deep) / _median(v))
    if math.isnan(slope):  # probes at one depth: no line, so no verdict
        verdict = "inconclusive"
    elif growth > 1.0 and slope + 2.0 * slope_se < SLOPE_THRESHOLD:
        verdict = "fail"
    elif growth < GROWTH_LIMIT and (slope - 2.0 * slope_se > SLOPE_THRESHOLD or growth <= 1.0):
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return ApproachTest(rows, sup, slope, slope_se, growth, verdict)


def carleson_ratio_test(mu: Measure, r: float, centers, cfg: MCConfig) -> ApproachTest:
    """Kobayashi-ball mass ratios mu(B)/vol(B) along a boundary schedule.

    The verdict flags divergence via the fitted log-log slope of ratio against
    boundary depth; bounded, flat ratio profiles pass.  The balls about all
    ``centers`` are one grid (:func:`measure_of_ball`): their MC estimates share
    common random numbers, the same stratified round-ball sample mapped onto
    each ball.
    """
    if not 0.0 < r < 1.0:
        raise ParameterError("radius must be in (0, 1)")
    balls = [geom.kobayashi_ball(c, r) for c in centers]
    rows = []
    for ball, est in zip(balls, measure_of_ball(mu, balls, cfg)):
        vol = ball.volume
        rows.append(
            {
                "center": ball.base,
                "d": 1.0 - float(np.linalg.norm(ball.base)),
                "value": float(np.real(est.value)) / vol,
                "std_error": est.std_error / vol,
            }
        )
    return _approach_test(rows, cfg.n_samples)


def carleson_berezin_test(mu: Measure, probes, cfg: MCConfig) -> ApproachTest:
    """Sup of the Berezin transform over a probe grid with divergence detection."""
    rows = []
    for p in probes:
        p = geom.as_point(p)
        est = bergman.berezin_transform(mu, p, cfg)
        rows.append(
            {
                "center": p,
                "d": 1.0 - float(np.linalg.norm(p)),
                "value": float(np.real(est.value)),
                "std_error": est.std_error,
            }
        )
    return _approach_test(rows, cfg.n_samples)


def carleson_functional_test(
    mu: Measure,
    kernels: ApproachTest,
    cfg: MCConfig,
    n_polynomials: int = 10,
    seed: int = 0,
) -> EstimateWithError:
    """The embedding constant of the defining inequality (p = 2) over a test family.

    Family: the normalised kernels k_c at the probes of the Berezin test
    ``kernels``, plus random degree-<=2 polynomials whose squared norms are
    exact by monomial orthogonality.  k_c has unit norm and integral
    |k_c|^2 dmu is the Berezin transform at c, so the kernel rows are
    ``kernels``' rows as they stand; the constant is the largest ratio over
    those rows and then the polynomial rows.  Its verdict would be the
    Berezin verdict, so it casts none.
    """
    rows = list(kernels.rows)
    rng = np.random.default_rng(seed)
    for _ in range(n_polynomials):
        alphas, coeffs = bergman.random_polynomial(mu.dimension, 2, rng)
        norm_sq = bergman.polynomial_norm_sq(alphas, coeffs, mu.dimension)

        def chi(pts, _a=alphas, _c=coeffs):
            return np.abs(bergman.evaluate_polynomial(_a, _c, pts)) ** 2

        num = 0.0
        num_err = 0.0
        if mu.n_atoms:
            num += math.fsum(chi(mu.atom_points) * mu.atom_weights)
        if mu.density is not None:

            def integrand(pts, _chi=chi):
                return _chi(pts) * np.asarray(mu.density(pts), dtype=float)

            est = integrate_density(integrand, mu.dimension, cfg, boundary_pole_order=mu.pole_order)
            num += float(np.real(est.value))
            num_err = est.std_error
        rows.append({"value": num / norm_sq, "std_error": num_err / norm_sq})
    return _sup(rows, cfg.n_samples)


@dataclass(frozen=True)
class CrossCheckConfig:
    r_values: tuple[float, ...] = (0.3, 0.5, 0.7)
    k_max: int = 12
    ball_samples: int = 12_000
    global_samples: int = 20_000
    n_polynomials: int = 10
    seed: int = 0

    def ball_cfg(self) -> MCConfig:
        return MCConfig(seed=self.seed, n_samples=self.ball_samples)

    def global_cfg(self) -> MCConfig:
        return MCConfig(seed=self.seed + 1, n_samples=self.global_samples)


@dataclass
class CarlesonVerdict:
    """Joint outcome of the two Carleson tests, Berezin bound and ball ratios,
    with the embedding constant of the functional test beside them.

    ``agreement`` is True when both conclusive tests reach the same verdict;
    a disagreement is reported through ``defect`` and never silently resolved.
    """

    verdicts: dict[str, str]
    ratio_results: dict[float, ApproachTest] = field(repr=False)
    berezin_result: ApproachTest = field(repr=False)
    functional_constant: EstimateWithError = field(repr=False)

    @property
    def berezin_sup(self) -> EstimateWithError:
        return self.berezin_result.sup

    @property
    def ratio_sup(self) -> dict[float, float]:
        return {r: res.sup.value for r, res in self.ratio_results.items()}

    @property
    def _conclusive(self) -> dict[str, str]:
        return {k: v for k, v in self.verdicts.items() if v != "inconclusive"}

    @property
    def agreement(self) -> bool:
        return len(set(self._conclusive.values())) <= 1

    @property
    def defect(self) -> str | None:
        if self.agreement:
            return None
        return "conclusive tests disagree: " + ", ".join(f"{k}={v}" for k, v in self._conclusive.items())

    @property
    def overall(self) -> str:
        concl = set(self._conclusive.values())
        return concl.pop() if len(concl) == 1 else "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "berezin_sup": {"value": float(np.real(self.berezin_sup.value)), "std_error": self.berezin_sup.std_error},
            "ratio_sup": {str(r): v for r, v in self.ratio_sup.items()},
            "functional_constant": {
                "value": float(np.real(self.functional_constant.value)),
                "std_error": self.functional_constant.std_error,
            },
            # "functional" repeats the Berezin verdict: the benchmark's cli-oneshot check still reads all three keys
            "verdicts": {"functional": self.verdicts["berezin"], **self.verdicts},
            "agreement": self.agreement,
            "defect": self.defect,
            "overall": self.overall,
        }

    def schedule_rows(self) -> list[dict]:
        """Plot-ready (center, d, ratio, berezin) rows for the main radius."""
        main_r = sorted(self.ratio_results)[len(self.ratio_results) // 2]
        rows = []
        for rr, br in zip(self.ratio_results[main_r].rows, self.berezin_result.rows):
            rows.append(
                {
                    "center": geom.points_to_rows(rr["center"][None, :])[0].tolist(),
                    "d": rr["d"],
                    "ratio": rr["value"],
                    "berezin": br["value"],
                }
            )
        return rows


def cross_check_equivalence(mu: Measure, config: CrossCheckConfig | None = None) -> CarlesonVerdict:
    """Run the two operational Carleson tests, compare their verdicts, and
    take the embedding constant over the Berezin probes and test polynomials."""
    config = config or CrossCheckConfig()
    centers = boundary_schedule(mu.dimension, k_max=config.k_max)
    ratio_results = {}
    for r in config.r_values:
        ratio_results[r] = carleson_ratio_test(mu, r, centers, config.ball_cfg())
    berezin_result = carleson_berezin_test(mu, centers, config.global_cfg())
    functional_constant = carleson_functional_test(
        mu, berezin_result, config.global_cfg(), n_polynomials=config.n_polynomials, seed=config.seed
    )

    sub = [res.verdict for res in ratio_results.values()]
    if "fail" in sub:
        ratio_verdict = "fail"
    elif "pass" in sub:
        ratio_verdict = "pass"
    else:
        ratio_verdict = "inconclusive"

    return CarlesonVerdict(
        verdicts={"berezin": berezin_result.verdict, "ratio": ratio_verdict},
        ratio_results=ratio_results,
        berezin_result=berezin_result,
        functional_constant=functional_constant,
    )


def bundled_measure_suite(n: int) -> list[tuple[str, Measure]]:
    """Reference measures exercised by the cross-consistency tests.

    Volume itself, radial power densities straddling the Carleson property, and
    the Dirac sum of a 50-rung radial ladder weighted by d^(n+1).
    """
    suite: list[tuple[str, Measure]] = [("lebesgue", Measure.lebesgue(n))]
    for s in (-0.5, 0.5, 1.0):
        suite.append((f"power({s:+g})", Measure.with_power_density(n, s)))
    from .sequences import PointSequence, dirac_carleson_measure  # sequences imports this module

    suite.append(("dirac-ladder", dirac_carleson_measure(PointSequence.radial_ladder(n, 50))))
    return suite
