"""Uniform pass/fail report record shared by all numerical checkers, and the
CSV/JSON writers of run artifacts."""

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


@dataclass
class CheckReport:
    """Outcome of one inequality or identity check.

    ``passed`` is three-valued: True, False, or None for inconclusive runs
    (Monte Carlo noise too large relative to the margin being tested).
    """

    name: str
    statistic: float
    bound: float
    passed: bool | None
    n_samples: int
    std_error: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.statistic = float(self.statistic)
        self.bound = float(self.bound)
        self.std_error = float(self.std_error)
        self.n_samples = int(self.n_samples)
        if self.passed is not None:
            self.passed = bool(self.passed)

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "inconclusive"
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "statistic": float(self.statistic),
            "bound": float(self.bound),
            "pass": self.passed,
            "n_samples": int(self.n_samples),
            "std_error": float(self.std_error),
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
