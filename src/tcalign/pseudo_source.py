"""High-certainty pseudo-source construction.

Prediction uncertainty is the squared distance between a probability row and
the one-hot encoding of its argmax. ``batch_uncertainties`` is the one
scorer; it takes an n x c probability matrix, so a single row is scored as a
1 x c matrix. The pseudo-source is a set of row indices into the test
matrix: the k most certain rows, ties broken toward the lower row (a row's
arrival index is its row number), or, class-balanced, the most certain rows
of each predicted class up to that class's quota. ``most_certain`` is the
one selection rule: one ``lexsort`` over (row, uncertainty[, class]),
returning row indices in ascending order; its rows and classes pass
``linalg._indices``, the one integer rule. ``_class_quotas``
apportions a selection size over classes in proportion to their predicted
counts. Each public function checks its arguments and calls a private kernel
(``_uncertainties``, ``_most_certain``). The adapt loop's
two steps over these kernels live here too: ``_scored`` scores checked rows
once, in one whole-matrix softmax, and ``_fold`` merges a batch into the
bounded bank and selects the pseudo-source under ``SELECTION_MODES``.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput, _check_count
from .head import SoftmaxHead, softmax_rows
from .linalg import _indices, _real

PROB_SUM_ATOL = 1e-6
SELECTION_MODES = ("global", "class_balanced")


def batch_uncertainties(probs) -> np.ndarray:
    """Row-wise prediction uncertainty for an n x c probability matrix."""
    probs = _real(probs, "probabilities")
    if probs.ndim != 2 or probs.shape[1] < 1:
        raise InvalidInput(
            f"probabilities must be a 2-D array with at least one column, got shape {probs.shape}"
        )
    if not np.all(probs >= 0):  # written so that NaN fails too, and zero rows pass
        raise InvalidInput("probabilities must be nonnegative")
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_ATOL):
        raise InvalidInput(f"probability rows must sum to 1 within {PROB_SUM_ATOL}")
    return _uncertainties(probs, probs.argmax(axis=1))


def _uncertainties(probs: np.ndarray, argmax: np.ndarray) -> np.ndarray:
    """``batch_uncertainties`` of checked probability rows whose argmax is given."""
    top = probs[np.arange(probs.shape[0]), argmax]
    # ||onehot - p||^2 = sum p^2 - p_max^2 + (1 - p_max)^2
    return np.sum(probs * probs, axis=1) - top * top + (1.0 - top) ** 2


def _scored(test: np.ndarray, head: SoftmaxHead) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unadapted (probs, classes, uncertainty) of checked rows, from one whole-matrix product."""
    probs = softmax_rows(test, head.weight, head.bias)
    classes = probs.argmax(axis=1)
    return probs, classes, _uncertainties(probs, classes)


def _candidates(uncertainty, rows, classes) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate candidate arrays; ``rows`` defaults to 0..n-1."""
    uncertainty = _real(uncertainty, "uncertainties")
    if uncertainty.ndim != 1:
        raise InvalidInput("uncertainties must be a 1-D vector")
    if uncertainty.size and not (uncertainty.min() >= 0.0 and uncertainty.max() < 2.0):
        raise InvalidInput("uncertainties must lie in [0, 2)")
    rows = np.arange(uncertainty.size) if rows is None else _indices(rows, "rows", True)
    if rows.shape != uncertainty.shape:
        raise InvalidInput(f"{rows.size} row indices for {uncertainty.size} uncertainties")
    if np.unique(rows).size != rows.size:  # a repeated row would be selected, and counted, twice
        raise InvalidInput("rows must be distinct")
    if classes is not None:
        classes = _indices(classes, "classes", True)
        if classes.shape != uncertainty.shape:
            raise InvalidInput(f"{classes.size} predicted classes for {uncertainty.size} uncertainties")
        if classes.size and classes.min() < 0:
            raise InvalidInput("predicted classes must be nonnegative")
    return uncertainty, rows, classes


def _class_rank(sorted_classes: np.ndarray) -> np.ndarray:
    """Position of each element within its run of a class-sorted vector."""
    return np.arange(sorted_classes.size) - np.searchsorted(sorted_classes, sorted_classes)


def most_certain(uncertainty, k, rows=None, classes=None) -> np.ndarray:
    """Rows of the min(k, n) lowest-uncertainty candidates, in ascending row order.

    ``rows`` names each candidate's row, each row once (default 0..n-1); ties
    go to the lower row. With ``classes``, keep the k most certain candidates of each class
    instead; a class with fewer keeps all of them, and no slot moves to
    another class. Folding a stream in batches through this function retains
    the same rows as one call over the whole stream.
    """
    uncertainty, rows, classes = _candidates(uncertainty, rows, classes)
    _check_count("k", k, 1)
    return _most_certain(uncertainty, k, rows, classes)


def _most_certain(uncertainty, k, rows, classes=None) -> np.ndarray:
    """``most_certain`` of checked candidates, every row named; with ``classes``,
    ``k`` is one integer for every class or, as the adapt loop passes its
    ``_class_quotas``, an int64 vector whose entry j caps class j."""
    if classes is None:
        if k < uncertainty.size:  # drop rows above the k-th smallest uncertainty; its ties stay
            keep = uncertainty <= np.partition(uncertainty, k - 1)[k - 1]
            uncertainty, rows = uncertainty[keep], rows[keep]
        return np.sort(rows[np.lexsort((rows, uncertainty))[:k]])
    order = np.lexsort((rows, uncertainty, classes))
    sorted_classes = classes[order]
    if np.ndim(k):
        k = k[sorted_classes]
    return np.sort(rows[order[_class_rank(sorted_classes) < k]])


def _class_quotas(counts: np.ndarray, slots: int) -> np.ndarray:
    """Split ``slots`` over classes in proportion to ``counts`` (int64, entry j
    counts class j, at least one row counted) by the largest-remainder rule:
    floor quotas, then the leftover slots to the largest remainders, compared
    exactly in integers, ties to the larger count, then the lower class. A
    zero-count class gets no slot."""
    total = int(counts.sum())
    quotas, remainders = np.divmod(counts * int(slots), total)
    leftover = slots - int(quotas.sum())
    order = np.lexsort((np.arange(counts.size), -counts, -remainders))
    quotas[order[:leftover]] += 1
    return quotas


def _fold(cfg, bank, rows, uncertainty, classes, class_counts):
    """Merge ``rows`` into the online bank; return ``(bank, pseudo_source)``.

    Reads ``cfg.k`` and ``cfg.selection_mode`` of an ``AdaptConfig``. A global
    bank keeps the k most certain rows so far and is itself the
    pseudo-source. A class-balanced bank keeps the k most certain rows of
    each class, and the pseudo-source keeps the most certain bank rows of
    each class up to its ``_class_quotas`` share of min(k, bank size) slots;
    that share is at most min(k, n_j), n_j the class's rows so far, so
    selecting from the bank picks what selecting from every row would.
    """
    bank = np.concatenate([bank, rows])
    if cfg.selection_mode == "global":
        bank = _most_certain(uncertainty[bank], cfg.k, bank)
        return bank, bank
    bank = _most_certain(uncertainty[bank], cfg.k, bank, classes[bank])
    quotas = _class_quotas(class_counts, min(cfg.k, bank.size))
    return bank, _most_certain(uncertainty[bank], quotas, bank, classes[bank])
