"""Uniform pass/fail report record shared by all numerical checkers, with the
one rule that turns its gates into a verdict, and the CSV/JSON writers of run
artifacts."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

# process exit codes of a verdict
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
# how a gate's value compares with its bound; a NaN value holds no gate
COMPARISONS = {"<": lambda v, b: v < b, "<=": lambda v, b: v <= b, "==": lambda v, b: v == b,
               ">=": lambda v, b: v >= b, ">": lambda v, b: v > b}


@dataclass
class CheckReport:
    """Outcome of one inequality or identity check, and the gates that decide it.

    The headline gate is ``statistic comparison bound``; ``gates`` holds any
    further ones as (what, value, comparison, bound) tuples.  The verdict is
    derived here and nowhere else: None (inconclusive) when ``inconclusive`` is
    set, as when Monte Carlo noise is too large for the margin tested, else
    True iff every gate holds.  ``to_json_dict`` records every gate, so a
    verdict can be re-derived from its artifact.
    """

    name: str
    statistic: float
    comparison: str
    bound: float
    n_samples: int
    std_error: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)
    gates: list[tuple[str, float, str, float]] = field(default_factory=list)
    inconclusive: bool = False

    def __post_init__(self):
        self.statistic = float(self.statistic)
        self.bound = float(self.bound)
        self.std_error = float(self.std_error)
        self.n_samples = int(self.n_samples)
        self.gates = [(str(what), float(value), comparison, float(bound)) for what, value, comparison, bound in self.gates]
        if not {self.comparison, *(g[2] for g in self.gates)} <= COMPARISONS.keys():
            raise ValueError(f"{self.name}: a comparison is not one of {list(COMPARISONS)}")

    def all_gates(self) -> list[tuple[str, float, str, float]]:
        """The headline gate, named ``statistic``, then the further gates."""
        return [("statistic", self.statistic, self.comparison, self.bound), *self.gates]

    @property
    def passed(self) -> bool | None:
        if self.inconclusive:
            return None
        return all(COMPARISONS[comparison](value, bound) for _, value, comparison, bound in self.all_gates())

    @property
    def verdict(self) -> str:
        return {True: "pass", False: "fail", None: "inconclusive"}[self.passed]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "comparison": self.comparison,
            "bound": self.bound,
            "pass": self.passed,
            "inconclusive": self.inconclusive,
            "gates": [dict(zip(("what", "value", "comparison", "bound"), gate)) for gate in self.all_gates()],
            "n_samples": self.n_samples,
            "std_error": self.std_error,
            "details": self.details,
        }


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # np.float64 is a float whose repr is "np.float64(...)"
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def json_default(obj):
    """``json.dump`` fallback for numpy scalars and arrays."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")
