"""Rank correlation and least-squares fit metrics.

Undefined statistics (constant inputs, mismatched lengths, too few points)
come back as None rather than a silent 0, so threshold comparisons fail
loudly instead of passing by accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float | None:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Returns None when undefined (length mismatch, fewer than 2 points, a NaN,
    which has no rank, or a constant sequence).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 2:
        return None
    if np.isnan(x).any() or np.isnan(y).any():
        return None
    rx = _ranks(x)
    ry = _ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return None
    return float(rx @ ry) / denom


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r2: float | None


def linear_fit_r2(x, y) -> LinearFit | None:
    """Ordinary least squares y = slope*x + intercept with R^2.

    None for constant x or a non-finite input (no fit exists); r2 is None
    when y is constant (zero total variance makes the ratio meaningless).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 2:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        return None
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (slope * x + intercept)
    ss_res = float(residual @ residual)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r2=r2)
