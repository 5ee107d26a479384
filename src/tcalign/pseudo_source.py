"""High-certainty pseudo-source construction.

Prediction uncertainty is the squared distance between a probability row and
the one-hot encoding of its argmax. ``batch_uncertainties`` is the one
scorer; it takes an n x c probability matrix, so a single row is scored as a
1 x c matrix. The pseudo-source is a set of row indices into the test
matrix: the k most certain rows, ties broken toward the lower row (a row's
arrival index is its row number), optionally re-balanced to match predicted
class proportions. Every selection is one ``lexsort`` over
(row, uncertainty[, class]) and returns row indices in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

PROB_SUM_ATOL = 1e-6


def batch_uncertainties(probs) -> np.ndarray:
    """Row-wise prediction uncertainty for an n x c probability matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise InvalidInput("probability matrix must be 2-D")
    if not np.min(probs) >= 0:  # written so that NaN fails too
        raise InvalidInput("probabilities must be nonnegative")
    sums = probs.sum(axis=1)
    if not np.max(np.abs(sums - 1.0)) <= PROB_SUM_ATOL:
        raise InvalidInput(f"probability rows must sum to 1 within {PROB_SUM_ATOL}")
    n = probs.shape[0]
    top = probs[np.arange(n), probs.argmax(axis=1)]
    # ||onehot - p||^2 = sum p^2 - p_max^2 + (1 - p_max)^2
    return np.sum(probs * probs, axis=1) - top * top + (1.0 - top) ** 2


def _candidates(uncertainty, rows, classes) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate candidate arrays; ``rows`` defaults to 0..n-1."""
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    if uncertainty.ndim != 1:
        raise InvalidInput("uncertainties must be a 1-D vector")
    if uncertainty.size and not (uncertainty.min() >= 0.0 and uncertainty.max() < 2.0):
        raise InvalidInput("uncertainties must lie in [0, 2)")
    rows = np.arange(uncertainty.size) if rows is None else np.asarray(rows, dtype=np.int64)
    if rows.shape != uncertainty.shape:
        raise InvalidInput(f"{rows.size} row indices for {uncertainty.size} uncertainties")
    if classes is not None:
        classes = np.asarray(classes, dtype=np.int64)
        if classes.shape != uncertainty.shape:
            raise InvalidInput(f"{classes.size} predicted classes for {uncertainty.size} uncertainties")
        if classes.size and classes.min() < 0:
            raise InvalidInput("predicted classes must be nonnegative")
    return uncertainty, rows, classes


def _class_rank(sorted_classes: np.ndarray) -> np.ndarray:
    """Position of each element within its run of a class-sorted vector."""
    return np.arange(sorted_classes.size) - np.searchsorted(sorted_classes, sorted_classes)


def most_certain(uncertainty, k: int, rows=None, classes=None) -> np.ndarray:
    """Rows of the min(k, n) lowest-uncertainty candidates, in ascending row order.

    ``rows`` names each candidate's row (default 0..n-1); ties go to the lower
    row. With ``classes``, keep the k most certain candidates of each class
    instead. Folding a stream in batches through this function retains the
    same rows as one call over the whole stream.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    uncertainty, rows, classes = _candidates(uncertainty, rows, classes)
    if classes is None:
        kept = np.lexsort((rows, uncertainty))[:k]
    else:
        order = np.lexsort((rows, uncertainty, classes))
        kept = order[_class_rank(classes[order]) < k]
    return np.sort(rows[kept])


@dataclass
class BalancedSelection:
    """Result of class-proportional selection; ``fallback`` marks a global top-k rescue.

    ``entries`` holds the selected rows in ascending order.
    """

    entries: np.ndarray
    quotas: dict[int, int] = field(default_factory=dict)
    fallback: bool = False


def _largest_remainder(weights: np.ndarray, slots: int, class_ids: np.ndarray) -> np.ndarray:
    """Apportion ``slots`` among classes proportionally to ``weights``.

    Floor quotas first, then hand leftover slots to the largest remainders;
    remainder ties prefer the larger weight, then the lower class index.
    """
    total = float(weights.sum())
    exact = weights * (slots / total)
    quotas = np.floor(exact).astype(np.int64)
    leftover = slots - int(quotas.sum())
    order = np.lexsort((class_ids, -weights, quotas - exact))
    quotas[order[:leftover]] += 1
    return quotas


def class_balanced_select(uncertainty, classes, k: int, class_counts, rows=None) -> BalancedSelection:
    """Pick min(k, n) candidates matching predicted-class proportions.

    Per-class quotas follow the largest-remainder rule over ``class_counts``;
    within a class the lowest-uncertainty candidates win (ties to the lower
    row). Classes short of their quota surrender the shortfall, which is
    re-apportioned over classes that still have candidates left. Candidates
    of zero-count classes only fill slots that counted classes cannot.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    uncertainty, rows, classes = _candidates(uncertainty, rows, classes)
    class_counts = np.asarray(class_counts, dtype=np.int64)
    if class_counts.ndim != 1 or np.min(class_counts, initial=0) < 0:
        raise InvalidInput("class_counts must be a 1-D vector of nonnegative counts")
    budget = min(k, rows.size)
    ids = np.flatnonzero(class_counts)
    if budget == 0 or ids.size == 0:
        # no proportions to honor: degenerate global top-k
        picked = np.lexsort((rows, uncertainty))[:budget]
        return BalancedSelection(entries=np.sort(rows[picked]), fallback=budget > 0)

    weights = class_counts[ids].astype(np.float64)
    quotas = _largest_remainder(weights, budget, ids)
    per_class = np.bincount(classes, minlength=class_counts.size)
    available = per_class[ids]
    taken = np.zeros_like(quotas)
    demand = quotas
    while True:
        take = np.minimum(demand, available - taken)
        taken += take
        shortfall = int(demand.sum() - take.sum())
        open_classes = taken < available
        if shortfall == 0 or not open_classes.any():
            break
        demand = np.zeros_like(quotas)
        demand[open_classes] = _largest_remainder(weights[open_classes], shortfall, ids[open_classes])

    order = np.lexsort((rows, uncertainty, classes))
    limit = np.zeros_like(per_class)
    limit[ids] = taken
    sorted_classes = classes[order]
    picked = order[_class_rank(sorted_classes) < limit[sorted_classes]]
    if picked.size < budget:
        # not enough candidates in counted classes; top up globally
        chosen = np.zeros(rows.size, dtype=bool)
        chosen[picked] = True
        rest = np.lexsort((rows, uncertainty))
        picked = np.concatenate([picked, rest[~chosen[rest]][: budget - picked.size]])
    quota_map = dict(zip(ids.tolist(), quotas.tolist()))
    return BalancedSelection(entries=np.sort(rows[picked]), quotas=quota_map)
